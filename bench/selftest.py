"""Shows that the benchmark's checks can fail.

    python3 bench/selftest.py

Runs one small round cleanly, then once per injected fault -- one flipped
verdict, one surviving tid dropped from resolve's output, one explain path
with its hops reordered -- and requires the clean round to report no failed
operation and each faulty round to report the fault as one.  Exits 0 when
every expectation holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import shutil
import sys
import types

import run

API = run.load_api()
vs = API.vouchsafe

SHAPE = run.Workload((80, 20), (12, 4))  # small enough to run in a few seconds


def once(wrapper):
    """Let ``wrapper`` alter the first result it chooses to; pass the rest."""

    def inject(fn):
        done = []

        def call(*args):
            out = fn(*args)
            if done:
                return out
            changed = wrapper(out)
            if changed is not out:
                done.append(True)
            return changed

        return call

    return inject


@once
def flip_verdict(decision):
    if decision.verdict is not vs.Verdict.ACCEPT:
        return decision
    return dataclasses.replace(decision, verdict=vs.Verdict.REJECT, witness=None,
                               reason=vs.RejectReason.NO_ROOTED_PATH)


@once
def drop_surviving(clean):
    kept = list(clean.tokens)[1:]
    return dataclasses.replace(clean, tokens=vs.TokenSet(kept))


@once
def reorder_path(report):
    for i, entry in enumerate(report.entries):
        if len(entry.path) > 1:
            entries = list(report.entries)
            entries[i] = dataclasses.replace(entry, path=tuple(reversed(entry.path)))
            return dataclasses.replace(report, entries=tuple(entries))
    return report


CASES = (
    ("clean", None, None, None),
    ("flipped verdict", "evaluate", flip_verdict, "evaluate: verdict REJECT/NO_ROOTED_PATH, planted ACCEPT"),
    ("dropped surviving tid", "resolve", drop_surviving, "cold ingest: surviving"),
    ("reordered explain path", "enumerate_paths", reorder_path, "enumerate_paths: explain paths differ"),
)


def main() -> int:
    ok = True
    for label, name, inject, expected in CASES:
        fake = types.SimpleNamespace(**vars(API))
        if name:
            setattr(fake, name, inject(getattr(API, name)))
        work = run.OUT / f"selftest-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        bench = run.Bench(fake, "selftest", SHAPE, 7, run.Tracer(False), work)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                bench.round(0)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if expected is None:
            good = bench.failed == 0
        else:
            good = bench.failed >= 1 and any(p.startswith(expected) for p in bench.problems)
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label}: {bench.failed} of {bench.attempted} operations failed")
        for problem in bench.problems[:3]:
            print(f"       {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

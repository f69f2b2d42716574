"""Seeded, self-checking benchmark of vouchsafe's offline verification pipeline.

    python3 bench/run.py --workload cold_bundle --seed 1 --seconds 55 --trace 0

Each run repeats whole rounds until ``--seconds`` have passed.  A round builds
a fresh corpus from (workload, seed, round), so every cold ingest sees bytes
this process has never seen, then runs the same phases on every workload:
set-up, cold ingest, decide, explain, refresh and CLI.  The decide, explain
and refresh timings of every round are pooled, and the run reports their
medians; every other metric, the decide tail too, is the median over rounds
of the round's own figure.  Every output is checked against the truths the
generator fixed; an operation whose output is wrong counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead records a
span around every call the harness makes into the library, adds direct calls
into the token and identity layers, prints the per-layer metrics and writes
the spans to ``bench/out/``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import types
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

API_NAMES = ("load_bundle", "temporal_filter", "filter_valid", "resolve", "build_graph",
             "evaluate", "enumerate_paths")
DECIDE_REPS = 3  # timings per request; a request's latency is their median
CLI_REPS = 2  # shuffled-line copies the CLI is run on, per command
# Per-call timings pooled over all rounds of a run.  A round's own median of
# them moves with that round's mix of cheap and costly requests.
POOLED = ("decide", "explain", "refresh")


@dataclass(frozen=True)
class Workload:
    files: tuple  # lines per bundle file; file 0 is ingested cold, the rest arrive one by one
    requests: tuple  # planted requests asked after each file has arrived


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "cold_bundle": Workload((1200, 20, 20), (40, 0, 0)),
    "growing_bundle": Workload((120,) + (30,) * 16, (12,) * 17),
}

END_TO_END = (
    ("setup_s", "s"), ("ingest_tokens_per_s", "tokens/s"), ("decide_us", "us"),
    ("decide_tail_us", "us"), ("explain_us", "us"), ("refresh_ms", "ms"),
    ("cli_resolve_s", "s"), ("cli_evaluate_s", "s"), ("cli_peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("bundles.load_bundle_us_per_line", "us"), ("bundles.temporal_filter_us_per_token", "us"),
    ("bundles.lines_read", "count"), ("bundles.diagnostics", "count"),
    ("bundles.temporally_dropped", "count"),
    ("tokens.decode_us_per_token", "us"), ("tokens.verify_us_per_token", "us"),
    ("identity.binding_us_per_token", "us"),
    ("resolution.filter_valid_us_per_token", "us"), ("resolution.resolve_us_per_token", "us"),
    ("resolution.filter_valid_us_per_new_token", "us"),
    ("resolution.valid", "count"), ("resolution.rejected", "count"),
    ("resolution.omitted", "count"), ("resolution.valid_ratio", "ratio"),
    ("graph.build_graph_ms", "ms"), ("graph.nodes", "count"), ("graph.edges", "count"),
    ("graph.near_misses", "count"),
    ("evaluation.accepts", "count"), ("evaluation.rejects", "count"),
    ("evaluation.witness_hops", "count"), ("evaluation.paths_listed", "count"),
    ("cli.startup_s", "s"), ("trace.overhead_pct", "%"),
)

class Tracer:
    """Spans kept in memory: name, start, end, phase, round and tags."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.origin = perf_counter()
        self.context: dict = {}

    def call(self, name, fn, *args, units=None):
        """Call ``fn``; when tracing, record a span sized by ``units(result)``."""
        if not self.enabled:
            return fn(*args)
        t0 = perf_counter()
        out = fn(*args)
        t1 = perf_counter()
        self.spans.append({"name": name, **self.context, "start": t0 - self.origin,
                           "end": t1 - self.origin, "units": units(out) if units else 1})
        return out

    def select(self, name: str, round_: int, phase: str | None = None) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["round"] == round_
                and (phase is None or s["phase"] == phase)]


def hash_seed(*parts) -> int:
    """A PYTHONHASHSEED for a CLI child, drawn from ``parts``; Python accepts
    only 0 .. 2**32-1 there, whatever ``--seed`` is."""
    return random.Random(":".join(map(str, ("hash", *parts)))).getrandbits(32)


def per_unit(spans: list[dict]) -> float:
    """Microseconds per unit of work over the given spans."""
    return 1e6 * sum(s["end"] - s["start"] for s in spans) / max(1, sum(s["units"] for s in spans))


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), and its value; the median when there are fewer than 40."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 40:
        return 50, statistics.median(ordered)
    p = (100 * (n - 10)) // n
    rank = -(-p * n // 100)  # ceil(p/100 * n)
    return p, ordered[rank - 1]


class Bench:
    def __init__(self, api, name: str, shape: Workload, seed: int, tracer: Tracer, work: Path):
        self.api = api
        self.name = name
        self.shape = shape
        self.seed = seed
        self.tracer = tracer
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds: list[dict] = []
        self.pool: dict[str, list[float]] = {k: [] for k in POOLED}

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: " + "; ".join(problems[:3]))

    # -- phases -----------------------------------------------------------------

    def ingest(self, paths: list[str]):
        """load_bundle -> temporal_filter -> filter_valid -> resolve, timed whole."""
        api, call = self.api, self.tracer.call
        gc.collect()  # start each timed phase from the same collector state
        t0 = perf_counter()
        bundle = call("bundles.load_bundle", api.load_bundle, paths,
                      units=lambda b: len(b.tokens) + len(b.diagnostics))
        filtered = call("bundles.temporal_filter", api.temporal_filter, bundle, corpus.NOW,
                        units=lambda _: len(bundle.tokens))
        valid, rejected = call("resolution.filter_valid", api.filter_valid, filtered.tokens,
                               units=lambda _: len(filtered.tokens))
        clean = call("resolution.resolve", api.resolve, valid, units=lambda _: len(valid))
        return perf_counter() - t0, (bundle, filtered, valid, rejected, clean)

    def verify_ingest(self, what, truth, names, stages, counts) -> None:
        bundle, filtered, valid, rejected, clean = stages
        graph = self.tracer.call("graph.build_graph", self.api.build_graph, clean)
        self.check(what, checks.ingest(truth, names, bundle, filtered, valid, rejected, clean, graph))
        counts.update({
            "bundles.diagnostics": len(bundle.diagnostics),
            "bundles.temporally_dropped": len(bundle.tokens) - len(filtered.tokens),
            "resolution.valid": len(valid),
            "resolution.rejected": len(rejected),
            "resolution.omitted": len(valid) - len(clean.tokens),
            "resolution.valid_ratio": len(valid) / max(1, len(valid) + len(rejected)),
            "graph.nodes": len(graph.nodes),
            "graph.edges": len(graph.edges),
            "graph.near_misses": len(graph.diagnostics),
        })

    def decide(self, c, reqs, clean, samples, counts) -> None:
        """Each request evaluated DECIDE_REPS times, then explained once."""
        api, tracer = self.api, self.tracer
        vs = api.vouchsafe
        planned = []
        for req in reqs:
            roots = tuple(
                vs.TrustedPrincipal(urn, vs.UNCONSTRAINED if labels is None else vs.Scope.of(*labels))
                for urn, labels in req.roots)
            lib_req = vs.Request(subject_tid=bytes.fromhex(req.subject),
                                 required=frozenset(req.required), roots=roots)
            planned.append((req, lib_req, corpus.expect(c.truth(req.prefix), req), []))
        tracer.context["phase"] = "decide"
        gc.collect()
        for rep in range(DECIDE_REPS):
            for i, (req, lib_req, want, times) in enumerate(planned):
                tracer.context["request"] = i
                t0 = perf_counter()
                got = tracer.call("evaluation.evaluate", api.evaluate, clean, lib_req)
                times.append(perf_counter() - t0)
                self.check("evaluate", checks.decision(c.wires, req, want, got))
                if rep == 0:
                    accepted = got.verdict.value == "ACCEPT"
                    counts["evaluation.accepts"] += accepted
                    counts["evaluation.rejects"] += not accepted
                    counts["evaluation.witness_hops"] += len(got.witness.path) - 1 if accepted else 0
        tracer.context["phase"] = "explain"
        for i, (req, lib_req, want, times) in enumerate(planned):
            tracer.context["request"] = i
            t0 = perf_counter()
            report = tracer.call("evaluation.enumerate_paths", api.enumerate_paths, clean, lib_req)
            samples["explain"].append(perf_counter() - t0)
            samples["decide"].append(statistics.median(times))
            self.check("enumerate_paths", checks.paths(req, want, report))
            counts["evaluation.paths_listed"] += len(report.entries)
        tracer.context.pop("request", None)

    def run_cli(self, argv: list[str], cwd: Path, hashseed: int):
        """Run one child interpreter; wall time, exit code, stdout, peak RSS (MB)."""
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hashseed))
        out_path = self.work / "cli.out"
        with open(out_path, "wb") as out:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, stdout=out,
                                    stderr=subprocess.DEVNULL)
            watchdog = threading.Timer(120, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, out_path.read_bytes(), usage.ru_maxrss / 1024

    def cli_phase(self, c, dirs: list[Path], names: dict, samples) -> None:
        self.tracer.context["phase"] = "cli"
        files = sorted(names)
        truth = c.truth(len(c.files) - 1)
        cli = ["-m", "vouchsafe.cli"]
        now = ["--now", str(corpus.NOW)]
        accept = corpus.expect(truth, c.cli_accept)
        reject = corpus.expect(truth, c.cli_reject)
        self.check("cli planted requests", [
            f"{what} request was planted as {e.verdict}/{e.reason}, not {verdict}"
            for what, e, verdict in (("accept", accept, "ACCEPT"), ("reject", reject, "REJECT"))
            if e.verdict != verdict])
        outputs: dict[str, set] = {"resolve": set(), "accept": set()}
        for rep, cwd in enumerate(dirs):
            hashseed = hash_seed(self.seed, rep)
            wall, code, out, _ = self.run_cli([*cli, "resolve", *files, *now, "--json"], cwd, hashseed)
            samples["cli_resolve"].append(wall)
            outputs["resolve"].add(out)
            self.check("cli resolve", checks.cli_resolve(truth, names, code, out))
            wall, code, out, rss = self.run_cli(
                [*cli, "evaluate", *files, "--trust", "trust_accept.json", *self.cli_request(c.cli_accept),
                 "--explain", "--json", *now], cwd, hashseed)
            samples["cli_evaluate"].append(wall)
            samples["cli_rss"].append(rss)
            outputs["accept"].add(out)
            self.check("cli evaluate", checks.cli_evaluate(c.wires, c.cli_accept, accept, code, out))
        _, code, out, _ = self.run_cli(
            [*cli, "evaluate", *files, "--trust", "trust_reject.json", *self.cli_request(c.cli_reject),
             "--explain", "--json", *now], dirs[0], hash_seed(self.seed))
        self.check("cli evaluate reject", checks.cli_evaluate(c.wires, c.cli_reject, reject, code, out))
        for what, seen in outputs.items():
            self.check(f"cli {what} determinism",
                       [] if len(seen) == 1 else ["--json stdout differs across shuffled runs"])

    @staticmethod
    def cli_request(req) -> list[str]:
        argv = ["--subject", req.subject]
        if req.required:
            argv += ["--require", " ".join(req.required)]
        return argv

    def layer_phase(self, c, samples) -> None:
        """Direct calls into the token and identity layers on every token line."""
        vs, call = self.api.vouchsafe, self.tracer.call
        self.tracer.context["phase"] = "layers"
        wires = [r.wire for r in c.recs]
        tokens = call("tokens.decode", lambda: [vs.decode(w) for w in wires], units=len)
        call("tokens.verify", lambda: [vs.verify(t) for t in tokens], units=len)

        def binding():
            for t in tokens:
                ident = vs.parse_identity(t.claims.iss)
                vs.validate_binding(ident, vs.PublicKey.from_b64(t.claims.iss_key))
            return tokens

        call("identity.binding", binding, units=len)
        for _ in range(3):
            wall, code, _, _ = self.run_cli(["-c", "import vouchsafe.cli"], ROOT, hash_seed(self.seed))
            self.check("cli startup", [] if code == 0 else [f"import exited {code}"])
            samples["cli_startup"].append(wall)

    # -- one round -----------------------------------------------------------------

    def setup(self, r: int):
        """Build the round's corpus and write one directory per CLI run."""
        gc.collect()
        t0 = perf_counter()
        c = corpus.Corpus(random.Random(f"{self.name}:{self.seed}:{r}"),
                          list(self.shape.files), list(self.shape.requests))
        names = {f"b{f:02d}.jsonl": f for f in range(len(c.files))}
        dirs = []
        for rep in range(CLI_REPS):
            d = self.work / f"r{r}" / f"c{rep}"
            d.mkdir(parents=True)
            rng = random.Random(f"shuffle:{self.seed}:{r}:{rep}")
            for name, f in names.items():
                items = list(c.files[f])
                if rep:
                    # Token lines trade places; garbage lines keep their line numbers.
                    slots = [i for i, x in enumerate(items) if isinstance(x, corpus.Rec)]
                    moved = [items[i] for i in slots]
                    rng.shuffle(moved)
                    for i, x in zip(slots, moved):
                        items[i] = x
                (d / name).write_text(corpus.render(items))
            for name, req in (("trust_accept.json", c.cli_accept), ("trust_reject.json", c.cli_reject)):
                roots = [{"identity": u, "scope": "*" if s is None else list(s)} for u, s in req.roots]
                (d / name).write_text(json.dumps(roots))
            dirs.append(d)
        return perf_counter() - t0, c, names, dirs

    def round(self, r: int) -> None:
        tracer = self.tracer
        tracer.context = {"round": r, "phase": "setup"}
        samples = {k: [] for k in ("decide", "explain", "refresh", "cli_resolve", "cli_evaluate",
                                   "cli_rss", "cli_startup")}
        counts = dict.fromkeys(("evaluation.accepts", "evaluation.rejects",
                                "evaluation.witness_hops", "evaluation.paths_listed"), 0)
        setup_s, c, names, dirs = self.setup(r)
        digest = hashlib.sha256()
        for name in sorted(names):
            digest.update((dirs[0] / name).read_bytes())
        print(f"round {r}: bundle sha256 {digest.hexdigest()}, {c.truth(len(c.files) - 1).lines} lines "
              f"in {len(c.files)} files", flush=True)
        paths = [str(dirs[0] / name) for name in sorted(names)]
        by_source = {p: f for f, p in enumerate(paths)}

        tracer.context["phase"] = "ingest"
        elapsed, stages = self.ingest(paths[:1])
        lines = len(stages[0].tokens) + len(stages[0].diagnostics)
        self.verify_ingest("cold ingest", c.truth(0), by_source, stages, counts)
        self.decide(c, c.requests[0], stages[4], samples, counts)
        for k in range(1, len(paths)):
            tracer.context.update(phase="refresh", step=k)
            wall, stages = self.ingest(paths[: k + 1])
            samples["refresh"].append(wall)
            self.verify_ingest(f"refresh {k}", c.truth(k), by_source, stages, counts)
            self.decide(c, c.requests[k], stages[4], samples, counts)
        tracer.context.pop("step", None)
        self.cli_phase(c, dirs, names, samples)
        if tracer.enabled:
            self.layer_phase(c, samples)
        shutil.rmtree(self.work / f"r{r}")

        for k in POOLED:
            self.pool[k] += samples[k]
        p, tail_value = tail(samples["decide"])
        self.tail_note = (f"decide_tail_us is the median over rounds of each round's p{p} of "
                          f"{len(samples['decide'])} per-request medians of {DECIDE_REPS} timings each")
        figures = {
            "setup_s": setup_s,
            "ingest_tokens_per_s": lines / elapsed,
            "decide_tail_us": 1e6 * tail_value,
            "cli_resolve_s": statistics.median(samples["cli_resolve"]),
            "cli_evaluate_s": statistics.median(samples["cli_evaluate"]),
            "cli_peak_rss_mb": statistics.median(samples["cli_rss"]),
        }
        if tracer.enabled:
            figures.update(counts)
            figures.update(self.layer_figures(r, samples))
        self.rounds.append(figures)

    def figures(self) -> dict:
        """The run's figures: medians of the pooled per-call timings, and the
        median over rounds of every per-round figure."""
        figures = {name: statistics.median(fig[name] for fig in self.rounds) for name in self.rounds[0]}
        figures.update({
            "decide_us": 1e6 * statistics.median(self.pool["decide"]),
            "explain_us": 1e6 * statistics.median(self.pool["explain"]),
            "refresh_ms": 1e3 * statistics.median(self.pool["refresh"]),
        })
        return figures

    def layer_figures(self, r: int, samples) -> dict:
        sel = self.tracer.select
        builds = [s["end"] - s["start"] for s in sel("graph.build_graph", r)]
        refresh_fv = sel("resolution.filter_valid", r, "refresh")
        fed = [s["units"] for s in sel("resolution.filter_valid", r)]
        new_tokens = sum(b - a for a, b in zip(fed, fed[1:]))
        return {
            "bundles.load_bundle_us_per_line": per_unit(sel("bundles.load_bundle", r)),
            "bundles.temporal_filter_us_per_token": per_unit(sel("bundles.temporal_filter", r)),
            "bundles.lines_read": sum(s["units"] for s in sel("bundles.load_bundle", r)),
            "tokens.decode_us_per_token": per_unit(sel("tokens.decode", r)),
            "tokens.verify_us_per_token": per_unit(sel("tokens.verify", r)),
            "identity.binding_us_per_token": per_unit(sel("identity.binding", r)),
            "resolution.filter_valid_us_per_token": per_unit(sel("resolution.filter_valid", r)),
            "resolution.resolve_us_per_token": per_unit(sel("resolution.resolve", r)),
            "resolution.filter_valid_us_per_new_token":
                1e6 * sum(s["end"] - s["start"] for s in refresh_fv) / max(1, new_tokens),
            "graph.build_graph_ms": 1e3 * statistics.median(builds),
            "cli.startup_s": statistics.median(samples["cli_startup"]),
        }

    def warm_up(self) -> None:
        """One small unchecked pass, so lazy initialisation is not timed."""
        c = corpus.Corpus(random.Random(f"warm-up:{self.seed}"), [60], [8])
        path = self.work / "warm-up.jsonl"
        path.write_text(corpus.render(c.files[0]))
        _, stages = self.ingest([str(path)])
        clean = stages[4]
        self.api.build_graph(clean)
        vs = self.api.vouchsafe
        for req in c.requests[0]:
            lib_req = vs.Request(bytes.fromhex(req.subject), frozenset(req.required),
                                 tuple(vs.TrustedPrincipal(u, vs.UNCONSTRAINED) for u, _ in req.roots))
            self.api.evaluate(clean, lib_req)
            self.api.enumerate_paths(clean, lib_req)
        self.run_cli(["-c", "import vouchsafe.cli"], ROOT, hash_seed(self.seed))
        self.tracer.spans.clear()


def load_api():
    """The library from this checkout's src/, and nothing installed elsewhere."""
    if not (SRC / "vouchsafe" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'vouchsafe'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import vouchsafe

    if Path(vouchsafe.__file__).resolve().parent != (SRC / "vouchsafe").resolve():
        raise SystemExit(f"error: imported vouchsafe from {vouchsafe.__file__}, not {SRC}")
    api = types.SimpleNamespace(**{n: getattr(vouchsafe, n) for n in API_NAMES})
    api.vouchsafe = vouchsafe
    return api


def span_cost(tracer: Tracer) -> float:
    """Seconds one recorded span adds over an untraced call, sizing included.

    The per-call cost is calibrated here and multiplied by the number of spans,
    because a whole traced run differs from an untraced one by far less than
    the spread between runs."""
    probe = Tracer(True)
    probe.context = dict(tracer.context)
    n = 20000
    t0 = perf_counter()
    for _ in range(n):
        probe.call("probe", tuple, units=len)
    traced = perf_counter() - t0
    probe.enabled = False
    t0 = perf_counter()
    for _ in range(n):
        probe.call("probe", tuple, units=len)
    return max(0.0, traced - (perf_counter() - t0)) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    api = load_api()

    tracer = Tracer(bool(args.trace))
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(api, args.workload, WORKLOADS[args.workload], args.seed, tracer, work)
    try:
        bench.warm_up()
        start = perf_counter()
        r = 0
        while r == 0 or perf_counter() - start < args.seconds:
            bench.round(r)
            r += 1
        measured = perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    catalogue = PER_LAYER if args.trace else END_TO_END
    figures = bench.figures()
    metrics = {}
    for name, unit in catalogue:
        if name == "trace.overhead_pct":
            value = 100 * len(tracer.spans) * span_cost(tracer) / measured
        else:
            value = figures[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:44s} {value:14.4f} {unit}")
    print(f"{args.workload}: {len(bench.rounds)} rounds in {measured:.1f} s; "
          f"{bench.attempted} operations attempted, {bench.failed} failed")
    print(bench.tail_note)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        with open(trace_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        print(f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Rewrite the golden corpus: its input files and every case's expected output.

Run from the repository root with ``PYTHONPATH=src python tests/golden/regen.py``
after an intended output change, and review the diff of ``tests/golden/``.

The inputs are byte-reproducible: every token is hand-signed by one of
``generators.POOL``'s fixed seeds over fixed claims (fixed jtis, no issue
time), and Ed25519 signing is deterministic (RFC 8032, section 5.1.6).  So
rerunning this script on unchanged code changes no file, and the tids that
``cases.txt`` names stay valid.

``cases.txt`` holds one ``vouchsafe`` argv per line (``#`` starts a comment).
Case N (counting case lines from 1) is expected to print what
``expected/NN.txt`` holds: the argv, the exit code, stdout, stderr and each
file the case created, as rendered by :func:`run_case`.  Each case runs
``cli.main`` in-process with a fresh temporary copy of this directory as the
working directory, so bundle paths in diagnostics are the relative names
written here, and a case that writes files (``keygen``) neither sees another
case's files nor leaves its own behind.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parent))

import generators  # noqa: E402
import oracles  # noqa: E402
from vouchsafe.cli import main  # noqa: E402

EXPECTED = GOLDEN / "expected"


def cases() -> list[str]:
    lines = (GOLDEN / "cases.txt").read_text(encoding="utf-8").splitlines()
    return [line.strip() for line in lines if line.strip() and not line.lstrip().startswith("#")]


def expected_path(index: int) -> Path:
    return EXPECTED / f"{index + 1:02d}.txt"


def run_case(argv_line: str) -> str:
    """Run one case in-process in a fresh temporary copy of this directory and
    render its result; each file the case created follows stderr, by name."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "golden"
        shutil.copytree(GOLDEN, work, ignore=shutil.ignore_patterns("expected", "__pycache__"))
        inputs = set(os.listdir(work))
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(shlex.split(argv_line))
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
        finally:
            os.chdir(cwd)
        created = "".join(
            f"--- file {name}\n{(work / name).read_bytes().decode('utf-8')}"
            for name in sorted(set(os.listdir(work)) - inputs)
        )
    return (
        f"$ vouchsafe {argv_line}\nexit {code}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}{created}"
    )


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _urn(i: int) -> str:
    return generators.POOL[i][1].urn


def _sign(i: int, kind: str, jti: str, *, by: int | None = None, alg: str = "EdDSA", **claims) -> str:
    """A wire claiming pool identity ``i``; ``by`` signs with another pool seed."""
    seed = generators.SEED_BY_URN[_urn(i)]
    body = oracles.standard_claims(seed, f"id{i}", kind, jti, **claims)
    signer = seed if by is None else generators.SEED_BY_URN[_urn(by)]
    return oracles.craft_wire(signer, body, alg=alg)


def _ref(subject: str) -> dict:
    """The subject reference a vouch or revoke carries for this wire."""
    p = oracles.payload_of(subject)
    return {"sub": p["jti"], "vch_iss": p["iss"], "vch_sum": oracles.tid_hex_of(subject)}


def _vouch(i: int, subject: str, jti: str, **claims) -> str:
    return _sign(i, oracles.VOUCH, jti, **_ref(subject), **claims)


def bundle_lines() -> dict[str, str]:
    """The main bundle's wires by name.  id0 and id1 are the roots of
    trust-a.json; id3 burns itself; id2 revokes one of its own attests."""
    w: dict[str, str] = {}
    w["s"] = _sign(4, oracles.ATTEST, "s", purpose="read write")
    w["v1"] = _vouch(2, w["s"], "v1", purpose="read write")
    w["v0"] = _vouch(0, w["v1"], "v0", purpose="read")
    w["v0b"] = _vouch(1, w["v1"], "v0b")
    w["lonely"] = _sign(4, oracles.ATTEST, "lonely", purpose="read")
    w["expiring"] = _sign(4, oracles.ATTEST, "expiring", purpose="read", exp=100)
    w["future"] = _sign(4, oracles.ATTEST, "future", nbf=300)
    w["v-expiring"] = _vouch(0, w["expiring"], "v-expiring", purpose="read")
    w["retracted"] = _sign(2, oracles.ATTEST, "retracted")
    w["rv"] = _sign(2, oracles.REVOKE, "rv", **_ref(w["retracted"]), revokes="retracted")
    w["doomed"] = _sign(3, oracles.ATTEST, "doomed")
    w["v3"] = _vouch(3, w["s"], "v3")
    w["b3"] = _sign(3, oracles.BURN, "b3", burns=_urn(3))
    w["twin1"] = _sign(4, oracles.ATTEST, "twin", purpose="read")
    w["twin2"] = _sign(4, oracles.ATTEST, "twin", purpose="write")
    # References (id4, "s") but commits to another token's content: a near-miss.
    w["near"] = _sign(1, oracles.VOUCH, "near", sub="s", vch_iss=_urn(4),
                      vch_sum=oracles.tid_hex_of(w["twin1"]))
    # One invalid wire per shape; together they give all 13 verify reasons.
    w["bad-sig"] = _sign(4, oracles.ATTEST, "bad-sig", by=3)
    w["bad-alg"] = _sign(4, oracles.ATTEST, "bad-alg", alg="ES256")
    w["bad-key"] = _sign(4, oracles.ATTEST, "bad-key", iss_key="AAAA")
    foreign = oracles.standard_claims(generators.SEED_BY_URN[_urn(3)], "id3", oracles.ATTEST, "foreign")
    foreign["iss"] = _urn(4)
    w["foreign-key"] = oracles.craft_wire(generators.SEED_BY_URN[_urn(3)], foreign)
    w["no-digest"] = _sign(4, oracles.ATTEST, "no-digest", iss="urn:vouchsafe:id4")
    w["empty-jti"] = _sign(4, oracles.ATTEST, "")
    w["sub-not-self"] = _sign(4, oracles.ATTEST, "sub-not-self", sub="elsewhere")
    tid_s = oracles.tid_hex_of(w["s"])
    w["no-vch-iss"] = _sign(4, oracles.VOUCH, "no-vch-iss", sub="s", vch_sum=tid_s)
    w["no-vch-sum"] = _sign(4, oracles.VOUCH, "no-vch-sum", sub="s", vch_iss=_urn(4))
    w["upper-sum"] = _sign(0, oracles.VOUCH, "upper-sum", sub="s", vch_iss=_urn(4), vch_sum=tid_s.upper())
    w["no-revokes"] = _sign(2, oracles.REVOKE, "no-revokes", **_ref(w["retracted"]))
    w["no-burns"] = _sign(4, oracles.BURN, "no-burns")
    w["burns-other"] = _sign(4, oracles.BURN, "burns-other", burns=_urn(3))
    return w


def bundle_bytes(w: dict[str, str]) -> bytes:
    lines = [line.encode() for line in w.values()]
    lines += [
        w["s"].encode(),  # the same wire twice: collapses to one token
        json.dumps(w["v1"]).encode(),  # a JSON-quoted copy of a wire already read
        b"",
        b"\xff\xfe not utf-8",
        b'"{}',  # bad-json-string
        b"garbage",
        b"e30.W10.AAAA",  # decodes to a payload that is not a JSON object
    ]
    return b"\n".join(lines) + b"\n"


def newline_sum_lines() -> list[str]:
    """A vouch whose ``vch_sum`` is its subject's tid plus a trailing newline."""
    subject = _sign(4, oracles.ATTEST, "n-subject", purpose="read")
    ref = _ref(subject)
    ref["vch_sum"] += "\n"
    return [subject, _sign(0, oracles.VOUCH, "n-vouch", **ref)]


def shared_jti_lines() -> list[str]:
    """One signer's reused jti: three attests share it, three revocations of
    it match none of them and a fourth matches the second, and three vouches
    name it with a wrong ``vch_sum``."""
    attests = [_sign(4, oracles.ATTEST, "shared", note=str(i)) for i in range(3)]
    ref = {"sub": "shared", "vch_iss": _urn(4)}
    wrong = [oracles.tid_hex_of(f"wrong-{i}") for i in range(3)]
    revokes = [_sign(4, oracles.REVOKE, f"r{i}", revokes="shared", **ref, vch_sum=s)
               for i, s in enumerate(wrong)]
    revokes.append(_sign(4, oracles.REVOKE, "r-match", revokes="shared", **_ref(attests[1])))
    vouches = [_sign(1, oracles.VOUCH, f"v{i}", **ref, vch_sum=s) for i, s in enumerate(wrong)]
    return attests + revokes + vouches


def broken_vouch(w: dict[str, str]) -> str:
    """A vouch of s by id1 whose signature segment is not base64url: it never
    decodes, but its payload links it to s."""
    head, payload, sig = _vouch(1, w["s"], "broken", purpose="read").split(".")
    return f"{head}.{payload}.{sig[:-2]}!!"


def second_files(w: dict[str, str]) -> dict[str, bytes]:
    """Files read after ``bundle.jsonl``: a burn of id2, which issued the
    vouch v1 that every rooted path to s crosses; a revocation of v1; an
    unrelated bad-signature line with a garbage line; and the broken vouch
    of s with a JSON-quoted copy of v0b, a vouch on the witness path."""
    return {
        "burn-mid.jsonl": (_sign(2, oracles.BURN, "b2", burns=_urn(2)) + "\n").encode(),
        "revoke-mid.jsonl": (_sign(2, oracles.REVOKE, "rv1", **_ref(w["s"]), revokes="v1") + "\n").encode(),
        "noise.jsonl": (_sign(3, oracles.ATTEST, "noise", by=4) + "\ngarbage\n").encode(),
        "linked-noise.jsonl": (broken_vouch(w) + "\n" + json.dumps(w["v0b"]) + "\n").encode(),
    }


def line_break_bytes(w: dict[str, str]) -> bytes:
    """Garbage lines holding, mid-line, a form feed, U+001C and U+2028, at
    each of which ``str.splitlines`` also ends a line, around a copy of v1, a
    valid line of s's chain."""
    lines = ["garbage\fe30.W10.AAAA", 'garbage\x1c"{}', w["v1"], "garbage\u2028garbage"]
    return "".join(line + "\n" for line in lines).encode()


def crlf_files(w: dict[str, str]) -> dict[str, bytes]:
    """s's chain to root id0 saved with Windows line endings: s, v1 ended by
    a lone carriage return, a JSON-quoted v0 and a garbage line; and a .jwt
    holding one wire and a CRLF."""
    lines = [w["s"] + "\r\n", w["v1"] + "\r", json.dumps(w["v0"]) + "\r\n", "garbage\r\n"]
    return {"crlf.jsonl": "".join(lines).encode(), "crlf.jwt": (w["lonely"] + "\r\n").encode()}


def input_files() -> dict[str, bytes]:
    """Every input file's bytes, by its name in this directory."""
    w = bundle_lines()
    trust = {
        "trust-a.json": [{"identity": _urn(0), "scope": "*"}, {"identity": _urn(1), "scope": ["read"]}],
        "trust-b.json": [{"identity": _urn(2), "scope": ["write"]},
                         {"identity": _urn(0), "scope": ["read", "write"]}],
    }
    return {
        "bundle.jsonl": bundle_bytes(w),
        "vch-sum-newline.jsonl": "".join(x + "\n" for x in newline_sum_lines()).encode(),
        "shared-jti.jsonl": "".join(x + "\n" for x in shared_jti_lines()).encode(),
        "valid.jwt": (w["s"] + "\n").encode(),
        "invalid.jwt": (w["bad-key"] + "\n").encode(),
        "empty.jwt": b"",
        "line-breaks.jsonl": line_break_bytes(w),
        **second_files(w),
        **crlf_files(w),
        **{name: (json.dumps(roots, indent=2) + "\n").encode() for name, roots in trust.items()},
    }


def main_regen() -> None:
    os.environ["COLUMNS"] = "80"  # argparse wraps usage lines to the terminal width
    for name, data in input_files().items():
        (GOLDEN / name).write_bytes(data)
    EXPECTED.mkdir(exist_ok=True)
    for old in EXPECTED.glob("*.txt"):
        old.unlink()
    for index, argv_line in enumerate(cases()):
        expected_path(index).write_text(run_case(argv_line), encoding="utf-8")


if __name__ == "__main__":
    main_regen()

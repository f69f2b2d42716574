"""Command-line surface: key management, issuance, inspection, resolution,
and authorization queries.

Exit codes are script-friendly: 0 success (or ACCEPT), 1 REJECT from
``evaluate``, 2 usage or configuration error, 3 input data error.  Any
unexpected failure also exits 3, with one ``error:`` line on stderr and no
traceback, so exit 1 always means REJECT.  Machine
output (``--json``) is versioned with ``"schema": "zicg/1"`` and is
deterministic: collections are sorted, and nothing time-dependent appears
unless ``--now`` was given, in which case it is echoed back.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bundles import (
    Bundle,
    TrustConfigError,
    _expired,
    _load_closure,
    _scan_bundle,
    load_bundle,
    load_trust_config,
    temporal_filter,
)
from .evaluation import (
    DEFAULT_MAX_DEPTH,
    Decision,
    PathReport,
    Request,
    Verdict,
    enumerate_paths,
    evaluate,
)
from .graph import Scope
from .identity import IdentityError, derive_identity, generate_keypair, load_keypair, save_seed
from .resolution import CleanSet, TokenSet, filter_valid, resolve
from .tokens import (
    _OPTIONAL_CLAIMS,
    DecodeError,
    IssueError,
    Token,
    decode,
    issue_attest,
    issue_burn,
    issue_revoke,
    issue_vouch,
)

SCHEMA = "zicg/1"

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_DATA = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _scope_json(scope: Scope):
    return "*" if scope.unconstrained else sorted(scope.labels)


def _emit_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=False) + "\n")


def _read_token_file(path: str) -> Token:
    try:
        text = Path(path).read_text(encoding="utf-8").strip()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8: {exc}") from exc
    if not text:
        raise DataError(f"{path}: empty token file")
    try:
        return decode(text)
    except DecodeError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _load_signer(args) -> tuple:
    try:
        keypair = load_keypair(args.key)
    except (OSError, IdentityError) as exc:
        raise DataError(str(exc)) from exc
    try:
        identity = derive_identity(keypair.public, args.label)
    except IdentityError as exc:
        raise UsageError(str(exc)) from exc
    return keypair, identity


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_keygen(args) -> int:
    if args.seed_hex is not None:
        try:
            seed = bytes.fromhex(args.seed_hex)
        except ValueError as exc:
            raise UsageError(f"--seed-hex is not valid hex: {exc}") from exc
    else:
        seed = None
    try:
        keypair = generate_keypair(seed)
        identity = derive_identity(keypair.public, args.label)
    except IdentityError as exc:
        raise UsageError(str(exc)) from exc
    try:
        save_seed(args.out, keypair)
    except OSError as exc:
        raise DataError(f"cannot write key file: {exc}") from exc
    if args.pub_out:
        try:
            with open(args.pub_out, "x", encoding="utf-8") as f:
                f.write(keypair.public.to_pem())
        except OSError as exc:
            Path(args.out).unlink()  # leave no seed whose URN was not printed
            raise DataError(f"cannot write key file: {exc}") from exc
    if args.json:
        doc = {"schema": SCHEMA, "command": "keygen", "identity": identity.urn, "seed_file": str(args.out)}
        if args.pub_out:
            doc["public_key_file"] = str(args.pub_out)
        _emit_json(doc)
    else:
        print(identity.urn)
    return EXIT_OK


def _parse_extra_claims(pairs: list[str]) -> dict:
    extra = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise UsageError(f"--claim must look like name=value, got {pair!r}")
        extra[name] = value
    return extra


def cmd_issue(args) -> int:
    keypair, identity = _load_signer(args)
    times = {"iat": args.iat, "nbf": args.nbf, "exp": args.exp}
    try:
        if args.kind == "attest":
            token = issue_attest(
                keypair, identity, purpose=args.purpose,
                extra=_parse_extra_claims(args.claim), **times,
            )
        elif args.kind == "vouch":
            subject = _read_token_file(args.subject)
            token = issue_vouch(keypair, identity, subject, purpose=args.purpose, **times)
        elif args.kind == "revoke":
            token = issue_revoke(keypair, identity, _read_token_file(args.target))
        else:
            token = issue_burn(keypair, identity)
    except IssueError as exc:
        raise DataError(str(exc)) from exc
    print(token.wire)
    return EXIT_OK


def _claims_json(token: Token) -> dict:
    c = token.claims
    doc = {"iss": c.iss, "iss_key": c.iss_key, "kind": c.kind.value, "jti": c.jti, "sub": c.sub}
    for name in _OPTIONAL_CLAIMS:
        value = getattr(c, name)
        if value is not None:
            doc[name] = value
    if c.extra:
        doc["extra"] = {k: c.extra[k] for k in sorted(c.extra)}
    return doc


def cmd_inspect(args) -> int:
    token = _read_token_file(args.token)
    report = token.validity
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "inspect",
                "tid": token.tid_hex,
                "kind": token.claims.kind.value,
                "validity": {
                    "ok": report.ok,
                    "sig_ok": report.sig_ok,
                    "id_ok": report.id_ok,
                    "schema_ok": report.schema_ok,
                    "reasons": sorted(report.reasons),
                },
                "claims": _claims_json(token),
                "header": {k: token.header[k] for k in sorted(token.header)},
            }
        )
    else:
        print(f"tid:     {token.tid_hex}")
        print(f"kind:    {token.claims.kind.value}")
        print(f"iss:     {token.claims.iss}")
        print(f"jti:     {token.claims.jti}")
        status = "valid" if report.ok else "INVALID"
        print(f"sig_ok:  {report.sig_ok}")
        print(f"id_ok:   {report.id_ok}")
        print(f"schema_ok: {report.schema_ok}")
        print(f"status:  {status}")
        for reason in sorted(report.reasons):
            print(f"reason:  {reason}")
    return EXIT_OK


def _read_bundle(read, paths: list[str]):
    """``read(paths)``, with a bundle file that cannot be read as a data error."""
    try:
        return read(paths)
    except OSError as exc:
        raise DataError(f"cannot read bundle: {exc}") from exc


def _fates(bundle: Bundle, filtered: Bundle, clean: CleanSet, now: int | None) -> tuple[list[Token], list[dict]]:
    """Each bundle token's one fate, in tid order: kept, or omitted by the stage that dropped it."""
    surviving: list[Token] = []
    omitted: list[dict] = []
    for token in sorted(bundle.tokens, key=lambda t: t.tid):
        if token.tid in clean.tokens:
            surviving.append(token)
            continue
        c = token.claims
        entry = {"tid": token.tid_hex, "kind": c.kind.value}
        if token.tid not in filtered.tokens:  # so --now was given
            entry["reason"] = "EXPIRED" if _expired(c, now) else "NOT_YET_VALID"
        elif not token.validity.ok:
            entry["reason"] = "INVALID"
            entry["detail"] = sorted(token.validity.reasons)
        else:
            entry["reason"] = "BURNED" if c.iss in clean.burned_identities else "REVOKED"
        omitted.append(entry)
    return surviving, omitted


def _diagnostics_json(bundle: Bundle, valid: TokenSet) -> list:
    docs = [
        {"source": d.source, "line": d.line, "code": d.code}
        for d in sorted(bundle.diagnostics, key=lambda d: (d.source, d.line, d.code))
    ]
    for iss, jti in valid.duplicate_statement_ids():
        docs.append({"code": "duplicate-statement-id", "iss": iss, "jti": jti})
    return docs


def cmd_resolve(args) -> int:
    bundle = _read_bundle(load_bundle, args.bundle)
    filtered = temporal_filter(bundle, args.now)
    valid, _ = filter_valid(filtered.tokens)
    clean = resolve(valid)
    surviving, omitted = _fates(bundle, filtered, clean, args.now)
    if args.json:
        doc = {
            "schema": SCHEMA,
            "command": "resolve",
            "surviving": [
                {"tid": t.tid_hex, "kind": t.claims.kind.value, "iss": t.claims.iss, "jti": t.claims.jti}
                for t in surviving
            ],
            "omitted": omitted,
            "diagnostics": _diagnostics_json(bundle, valid),
        }
        if args.now is not None:
            doc["now"] = args.now
        _emit_json(doc)
    else:
        for t in surviving:
            print(f"keep {t.tid_hex} {t.claims.kind.value} iss={t.claims.iss}")
        for entry in omitted:
            print(f"omit {entry['tid']} {entry['kind']} reason={entry['reason']}")
        for d in _diagnostics_json(bundle, valid):
            print(f"diag {json.dumps(d, sort_keys=True)}")
    return EXIT_OK


def _subject_tid(value: str) -> bytes:
    text = value.strip()
    if len(text) == 64 and all(c in "0123456789abcdefABCDEF" for c in text):
        return bytes.fromhex(text)
    return _read_token_file(value).tid


def _witness_json(decision: Decision, scopes: dict[bytes, Scope]) -> dict:
    w = decision.witness
    return {
        "root": {"identity": w.root.identity, "scope": _scope_json(w.root.root_scope)},
        "path": [
            {
                "tid": t.tid_hex,
                "kind": t.claims.kind.value,
                "iss": t.claims.iss,
                "scope": _scope_json(scopes[t.tid]),
            }
            for t in w.path
        ],
        "effective_scope": _scope_json(w.effective_scope),
    }


def _paths_json(report: PathReport) -> dict:
    return {
        "paths": [
            {
                "root": {"identity": e.root.identity, "scope": _scope_json(e.root.root_scope)},
                "tids": [t.tid_hex for t in e.path],
                "effective_scope": _scope_json(e.effective_scope),
            }
            for e in report.entries
        ],
        "truncated": report.truncated,
    }


def cmd_evaluate(args) -> int:
    try:
        roots = load_trust_config(args.trust)
    except (OSError, TrustConfigError) as exc:
        raise UsageError(str(exc)) from exc
    required = frozenset(label for chunk in args.require for label in chunk.split())
    scanned = _read_bundle(_scan_bundle, args.bundle)
    request = Request(
        subject_tid=_subject_tid(args.subject),
        required=required,
        roots=tuple(roots),
    )
    # Only the lines of the request's closure are decoded, verified and
    # resolved: the verdict, the witness and the explain listing are those
    # of the whole bundle.
    closure = temporal_filter(_load_closure(scanned, request.subject_tid), args.now)
    valid, _ = filter_valid(closure.tokens)
    clean = resolve(valid)
    decision = evaluate(clean, request, max_depth=args.max_depth)
    report = (
        enumerate_paths(clean, request, limit=args.max_paths, max_depth=args.max_depth)
        if args.explain
        else None
    )
    if args.json:
        doc = {
            "schema": SCHEMA,
            "command": "evaluate",
            "subject": request.subject_tid.hex(),
            "required": sorted(required),
            "verdict": decision.verdict.value,
        }
        if decision.verdict is Verdict.ACCEPT:
            doc["witness"] = _witness_json(decision, clean.graph.scopes)
        else:
            doc["reason"] = decision.reason.value
        if decision.depth_limited:
            doc["depth_limited"] = True
        if report is not None:
            doc["explain"] = _paths_json(report)
        if args.now is not None:
            doc["now"] = args.now
        _emit_json(doc)
    else:
        if decision.verdict is Verdict.ACCEPT:
            w = decision.witness
            print(f"ACCEPT effective_scope={w.effective_scope}")
            print(f"root {w.root.identity} scope={w.root.root_scope}")
            for t in w.path:
                print(f"  {t.tid_hex} {t.claims.kind.value} iss={t.claims.iss} scope={clean.graph.scopes[t.tid]}")
        else:
            print(f"REJECT reason={decision.reason.value}")
        if decision.depth_limited:
            print(f"depth_limited: paths longer than --max-depth {args.max_depth} were not searched")
        if report is not None:
            for e in report.entries:
                tids = " -> ".join(t.tid_hex for t in e.path)
                print(f"path [{e.root.identity} scope={e.root.root_scope}] {tids} effective={e.effective_scope}")
            if report.truncated:
                print("path listing truncated")
    return EXIT_OK if decision.verdict is Verdict.ACCEPT else EXIT_REJECT


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _path(value: str) -> str:
    """argparse type for file arguments: an empty string would read ``.``."""
    if not value:
        raise argparse.ArgumentTypeError("must not be empty")
    return value


def _at_least(low: int):
    """argparse type for an int option that must be at least ``low``."""
    def parse(value: str) -> int:
        if int(value) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return int(value)
    parse.__name__ = "int"  # so a non-number reads "invalid int value", as with type=int
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vouchsafe",
        description="Self-verifying token toolkit: keys, issuance, inspection, offline evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a keypair and print the identity URN")
    p.add_argument("--label", required=True)
    p.add_argument("--out", type=_path, required=True, help="new seed file to create (mode 0600)")
    p.add_argument("--pub-out", type=_path, default=None, help="optionally create a PEM public key file")
    p.add_argument("--seed-hex", default=None, help="use a fixed 32-byte seed (hex)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("issue", help="issue a signed token (one compact JWT line on stdout)")
    p.add_argument("kind", choices=["attest", "vouch", "revoke", "burn"])
    p.add_argument("--key", type=_path, required=True, help="seed file")
    p.add_argument("--label", required=True, help="issuer label (identity is derived from key + label)")
    p.add_argument("--purpose", default=None)
    p.add_argument("--claim", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--subject", type=_path, default=None, help="subject token file (vouch)")
    p.add_argument("--target", type=_path, default=None, help="token file to revoke (revoke)")
    p.add_argument("--iat", type=int, default=None)
    p.add_argument("--nbf", type=int, default=None)
    p.add_argument("--exp", type=int, default=None)
    p.set_defaults(func=cmd_issue, usage_error=p.error)

    p = sub.add_parser("inspect", help="decode and verify a token file")
    p.add_argument("token", type=_path)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("resolve", help="resolve a bundle to its effective token set")
    p.add_argument("bundle", type=_path, nargs="+")
    p.add_argument("--now", type=int, default=None, help="epoch seconds for temporal pre-filtering")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("evaluate", help="decide a capability request against a bundle")
    p.add_argument("bundle", type=_path, nargs="+")
    p.add_argument("--trust", type=_path, required=True, help="trust roots JSON file")
    p.add_argument("--subject", type=_path, required=True, help="subject tid (64 hex chars, either case) or token file")
    p.add_argument("--require", action="append", default=[], metavar="LABELS",
                   help="required capability labels (whitespace separated, repeatable)")
    p.add_argument("--explain", action="store_true", help="also list rooted paths")
    p.add_argument("--max-paths", type=_at_least(1), default=100)
    p.add_argument("--max-depth", type=_at_least(0), default=DEFAULT_MAX_DEPTH)
    p.add_argument("--now", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "issue":
        if args.kind == "vouch" and not args.subject:
            args.usage_error("issue vouch requires --subject")
        if args.kind == "revoke" and not args.target:
            args.usage_error("issue revoke requires --target")
        allowed = {
            "attest": {"purpose", "claim", "iat", "nbf", "exp"},
            "vouch": {"purpose", "subject", "iat", "nbf", "exp"},
            "revoke": {"target"},
            "burn": set(),
        }[args.kind]
        given = {
            name
            for name in ("purpose", "claim", "subject", "target", "iat", "nbf", "exp")
            if getattr(args, name) not in (None, [])
        }
        for stray in sorted(given - allowed):
            args.usage_error(f"issue {args.kind} does not take --{stray}")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        # A crash must never exit 1, which scripts read as REJECT.
        detail = " ".join(str(exc).split())
        print(f"error: unexpected {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

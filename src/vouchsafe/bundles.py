"""Loading token bundles and trust-root configuration from disk.

Bundles need no signing or wrapper metadata: every token authenticates
itself, so a bundle is just lines of compact JWTs (``.jwt`` files hold a
single token).  Unparseable lines, non-UTF-8 ones too, become diagnostics
instead of aborting the load; adversarial bundles are expected input.

This module alone decides which lines become Tokens and which Tokens are
shared; :func:`~vouchsafe.tokens.decode` always parses.  A reload while an
earlier Bundle is held parses only the files whose bytes changed: each file
is read once and hashed, and one with the name and SHA-256 of a file that
Bundle came from reuses its Tokens and diagnostics.  In a file read anew, a
wire of a Token still held, from any file, gives back that Token.  To decide
one request, the same lines can instead be scanned for their wires alone,
and only those in the request's closure decoded.

Temporal filtering is application policy layered in front of resolution: it
removes only attests and vouches, so it never adds authority, and when no
clock value is given it does nothing at all -- the core model never consults
time.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import dataclass, field
from pathlib import Path

from .evaluation import TrustedPrincipal
from .graph import UNCONSTRAINED, Scope
from .identity import IdentityError, parse_identity
from .resolution import TokenSet
from .tokens import _BURN, _REVOKE, _STATEMENT_KINDS, _VOUCH, Claims, DecodeError, Token, _links, decode


class TrustConfigError(ValueError):
    """Malformed trust-root configuration."""


@dataclass(frozen=True)
class BundleDiagnostic:
    """One unusable bundle entry: where it came from and why it failed."""

    source: str
    line: int
    code: str


class _File:
    """One source's Tokens in line order, repeats included, and diagnostics."""

    __slots__ = ("tokens", "diagnostics", "__weakref__")

    def __init__(self, tokens: tuple[Token, ...], diagnostics: tuple[BundleDiagnostic, ...]) -> None:
        self.tokens, self.diagnostics = tokens, diagnostics


@dataclass
class Bundle:
    tokens: TokenSet = field(default_factory=TokenSet)
    diagnostics: list[BundleDiagnostic] = field(default_factory=list)
    _files: tuple[_File, ...] = field(default=(), repr=False, compare=False)


# (path as named, SHA-256 of its bytes) -> their _File, while a Bundle holds it
_files: weakref.WeakValueDictionary[tuple[str, bytes], _File] = weakref.WeakValueDictionary()
# Exact wire -> the Token load_bundle built for it, while any caller holds it
_live: weakref.WeakValueDictionary[str, Token] = weakref.WeakValueDictionary()


def load_bundle(sources: list[str | Path]) -> Bundle:
    """Read tokens from ``.jwt`` single-token files and JWT-per-line files.

    Blank lines of JWT-per-line files are skipped; a line may be JSON-quoted.
    Exact duplicates (same wire) collapse to one token.  A line holding bytes
    that are not UTF-8 becomes a ``not-utf-8`` diagnostic.

    Each file is read once and hashed; one with the name and SHA-256 of a
    file of a Bundle still held costs only that.  In a file read anew, a
    line whose wire, quoted or not, is that of a Token still held, from this
    or any other file, gives that Token, verify report included, without a
    second decode.
    """
    files: list[_File] = []
    for path in map(Path, sources):
        name, single = str(path), path.suffix == ".jwt"
        data = path.read_bytes()
        key = (name, hashlib.sha256(data).digest())
        file = _files.get(key)
        if file is None:
            text = _text(data)
            del data  # neither the bytes once decoded nor the text once split
            lines = [text] if single else text.splitlines()
            del text  # is held while the lines are parsed
            file = _files[key] = _parse(name, single, lines)
        files.append(file)
    tokens = TokenSet(t for f in files for t in f.tokens)
    return Bundle(tokens, [d for f in files for d in f.diagnostics], tuple(files))


def _parse(name: str, single: bool, lines: list[str]) -> _File:
    """The Tokens and diagnostics of one source's lines."""
    found: list[Token] = []
    diagnostics: list[BundleDiagnostic] = []
    for lineno, line in enumerate(lines, start=1):
        wire = _unwrap(diagnostics, name, lineno, line.strip(), single)
        if wire is None:
            continue
        token = _live.get(wire)
        if token is None:
            try:
                token = _live[wire] = decode(wire)
            except DecodeError as exc:
                diagnostics.append(BundleDiagnostic(source=name, line=lineno, code=f"decode: {exc}"))
                continue
        found.append(token)
    return _File(tuple(found), tuple(diagnostics))


def _text(data: bytes) -> str:
    """A file's bytes decoded as by ``Path.read_text``: bytes that are not UTF-8
    as lone surrogates (which _unwrap flags), ``\\r\\n`` and ``\\r`` as ``\\n``."""
    text = data.decode("utf-8", "surrogateescape")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _unwrap(diagnostics: list[BundleDiagnostic], source: str, lineno: int, line: str, single: bool) -> str | None:
    """The wire a stripped line holds, itself or the JSON string it quotes, or
    None: silently for a blank line of a multi-line file, otherwise after
    recording why it holds none."""
    if not line and not single:
        return None
    if not line.isascii() and any("\udc80" <= c <= "\udcff" for c in line):
        diagnostics.append(BundleDiagnostic(source=source, line=lineno, code="not-utf-8"))
        return None
    if line.startswith('"'):
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            diagnostics.append(BundleDiagnostic(source=source, line=lineno, code="bad-json-string"))
            return None
    return line


def _scan_bundle(sources: list[str | Path]) -> list[str]:
    """The wire of each line that :func:`load_bundle` would decode, in order.

    Lines are read as ``load_bundle`` reads them, but no Token is built and
    no diagnostic is kept.
    """
    unused: list[BundleDiagnostic] = []
    wires: list[str] = []
    for path in map(Path, sources):
        single = path.suffix == ".jwt"
        text = _text(path.read_bytes())
        lines = [text] if single else text.splitlines()
        del text
        wires += [wire for line in lines if (wire := _unwrap(unused, "", 0, line.strip(), single)) is not None]
    return wires


def _load_closure(wires: list[str], subject_tid: bytes) -> Bundle:
    """The tokens of the scanned wires that a request about ``subject_tid``
    can depend on, decoded in bundle order.  The wires are chosen by their
    :func:`~vouchsafe.tokens._links` records; a wire with no record is never
    taken, and one taken that fails to decode is left out, with no
    diagnostic.

    Starting from the first wire with the subject's tid, it takes every
    vouch whose ``vch_sum`` is the hex tid of a statement already taken, and
    for each statement taken every burn whose ``burns`` is its issuer and
    every revocation whose (issuer, ``revokes``) is its (issuer, jti).  Each
    index entry is consumed once, so the work is linear in the wires.

    Some taken wires may later fail decoding or the clock filter.  Let W be
    the bundle's decodable, clock-filtered tokens and C this rule applied to
    W alone.  Every token of W has a record with the same links, and the
    rule only grows with its input, so the taken wires that survive decoding
    and the clock filter are a set S with C inside S and S inside W.
    Verifying and resolving any such S gives every request about this
    subject the verdict, witness and path listing of W:

    * a statement's clean-set membership depends only on the statement
      itself, its issuer's burns and its own revocations, all in C with it;
    * a clean edge requires ``vch_sum`` to be its subject's hex tid, so
      every voucher in W of a statement in C is in C;
    * so every node that a backward walk from the subject reaches, every
      edge between such nodes, every ``reverse_edges`` entry that decides
      ``depth_limited``, and the subject's own membership are the same in
      the graphs of S and W: a token of S outside C is reached by no such
      walk, and every burn or revocation of W that bears on a statement of
      C is in C.
    """
    records = {i: record for i, wire in enumerate(wires) if (record := _links(wire)) is not None}
    vouchers: dict[str, list[int]] = {}
    burns: dict[str, list[int]] = {}
    revocations: dict[tuple[str, str], list[int]] = {}
    start = None
    for i, (tid, kind, iss, _, link) in records.items():
        if kind is _VOUCH:
            vouchers.setdefault(link, []).append(i)
        elif kind is _BURN:
            burns.setdefault(link, []).append(i)
        elif kind is _REVOKE:
            revocations.setdefault((iss, link), []).append(i)
        if start is None and tid == subject_tid:
            start = i
    if start is None:
        return Bundle()
    taken = {start}
    queue = [start]
    # Positions appended while iterating are visited too.
    for i in queue:
        tid, kind, iss, jti, _ = records[i]
        if kind not in _STATEMENT_KINDS:
            continue
        for j in (*vouchers.pop(tid.hex(), ()), *burns.pop(iss, ()), *revocations.pop((iss, jti), ())):
            if j not in taken:
                taken.add(j)
                queue.append(j)
    found: list[Token] = []
    for i in sorted(taken):
        try:
            found.append(decode(wires[i]))
        except DecodeError:
            pass
    return Bundle(tokens=TokenSet(found))


def _expired(c: Claims, now: int) -> bool:
    """Whether ``now`` is at or past ``c.exp``, where RFC 7519 (4.1.4) drops a JWT."""
    return c.exp is not None and c.exp <= now


def temporal_filter(bundle: Bundle, now: int | None = None) -> Bundle:
    """Drop statements outside their declared validity window, if a clock is given.

    Without ``now`` this is the identity function.  With it, attest and vouch
    tokens whose ``exp`` is not after ``now`` or whose ``nbf`` is after it are
    removed before resolution.  Revocations and burns always stay, whatever
    their ``exp``/``nbf``: dropping one would resurrect what it retracted.
    """
    if now is None:
        return bundle
    kept = TokenSet([
        t
        for t in bundle.tokens
        if (c := t.claims).kind not in _STATEMENT_KINDS
        or (not _expired(c, now) and (c.nbf is None or c.nbf <= now))
    ])
    return Bundle(tokens=kept, diagnostics=list(bundle.diagnostics))


def load_trust_config(source: str | Path) -> list[TrustedPrincipal]:
    """Parse trust roots from JSON: a list of {"identity", "scope"} objects.

    ``scope`` is either the literal ``"*"`` for an unconstrained root or a
    non-empty array of label strings.  An empty array is rejected -- a root
    trusted for nothing is almost certainly a configuration mistake.
    """
    try:
        data = json.loads(Path(source).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise TrustConfigError(f"{source}: not UTF-8: {exc}") from exc
    except ValueError as exc:  # not JSON, or an integer too long to convert
        raise TrustConfigError(f"{source}: not valid JSON: {exc}") from exc
    except RecursionError:
        raise TrustConfigError(f"{source}: JSON nests too deeply") from None
    if not isinstance(data, list):
        raise TrustConfigError(f"{source}: expected a JSON array of roots")
    roots: list[TrustedPrincipal] = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or "identity" not in entry or "scope" not in entry:
            raise TrustConfigError(f"{source}: root #{i} needs 'identity' and 'scope'")
        urn = entry["identity"]
        if not isinstance(urn, str):
            raise TrustConfigError(f"{source}: root #{i} identity must be a string")
        try:
            parse_identity(urn)
        except IdentityError as exc:
            raise TrustConfigError(f"{source}: root #{i}: {exc}") from exc
        scope_value = entry["scope"]
        if scope_value == "*":
            scope = UNCONSTRAINED
        elif isinstance(scope_value, list):
            if not scope_value:
                raise TrustConfigError(f"{source}: root #{i} has an empty scope array")
            if not all(
                isinstance(s, str) and s and not any(c.isspace() for c in s)
                for s in scope_value
            ):
                raise TrustConfigError(
                    f"{source}: root #{i} scope labels must be non-empty, whitespace-free strings"
                )
            scope = Scope(labels=frozenset(scope_value))
        else:
            raise TrustConfigError(f"{source}: root #{i} scope must be \"*\" or an array")
        roots.append(TrustedPrincipal(identity=urn, root_scope=scope))
    return roots

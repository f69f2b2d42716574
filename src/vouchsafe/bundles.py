"""Loading token bundles and trust-root configuration from disk.

Bundles need no signing or wrapper metadata: every token authenticates
itself, so a bundle is just lines of compact JWTs (``.jwt`` files hold a
single token).  Unparseable lines, non-UTF-8 ones too, become diagnostics
instead of aborting the load; adversarial bundles are expected input.  A
reload while an earlier Bundle is held parses only the files whose bytes
changed: each file is read once and hashed, and one with the name and
SHA-256 of a file that Bundle came from reuses its Tokens and diagnostics.
To decide one request, the same lines can instead be scanned for their wires
alone, and only those in the request's closure decoded.

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
from .resolution import TokenSet, _request_closure
from .tokens import _STATEMENT_KINDS, Claims, DecodeError, Token, _live, decode


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


def load_bundle(sources: list[str | Path]) -> Bundle:
    """Read tokens from ``.jwt`` single-token files and JWT-per-line files.

    Blank lines of JWT-per-line files are skipped; a line may be JSON-quoted.
    Exact duplicates (same wire) collapse to one token.  A line holding bytes
    that are not UTF-8 becomes a ``not-utf-8`` diagnostic.

    Each file is read once and hashed; one with the name and SHA-256 of a
    file of a Bundle still held costs only that.  In a file read anew, a line
    that is the exact wire of a Token still held costs one lookup: it was
    checked and decoded then.
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
        line = line.strip()
        token = _live.get(line)
        if token is None:
            wire = _unwrap(diagnostics, name, lineno, line, single)
            if wire is None:
                continue
            try:
                token = decode(wire)
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
    """The tokens of the scanned wires in the closure of a request about
    ``subject_tid`` (:func:`~vouchsafe.resolution._request_closure`), decoded
    in bundle order; a wire that fails to decode is left out, with no
    diagnostic."""
    found: list[Token] = []
    for wire in _request_closure(wires, subject_tid):
        try:
            found.append(decode(wire))
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

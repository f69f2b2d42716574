"""Loading token bundles and trust-root configuration from disk.

Bundles need no signing or wrapper metadata: every token authenticates
itself, so a bundle is just lines of compact JWTs (``.jwt`` files hold a
single token).  Unparseable lines, non-UTF-8 ones too, become diagnostics
instead of aborting the load; adversarial bundles are expected input.

Temporal filtering is application policy layered in front of resolution: it
removes only attests and vouches, so it never adds authority, and when no
clock value is given it does nothing at all -- the core model never consults
time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .evaluation import TrustedPrincipal
from .graph import UNCONSTRAINED, Scope
from .identity import IdentityError, parse_identity
from .resolution import TokenSet
from .tokens import _STATEMENT_KINDS, DecodeError, Token, _decode_unseen, _live_token, decode


class TrustConfigError(ValueError):
    """Malformed trust-root configuration."""


@dataclass(frozen=True)
class BundleDiagnostic:
    """One unusable bundle entry: where it came from and why it failed."""

    source: str
    line: int
    code: str


@dataclass
class Bundle:
    tokens: TokenSet = field(default_factory=TokenSet)
    diagnostics: list[BundleDiagnostic] = field(default_factory=list)


def load_bundle(sources: list[str | Path]) -> Bundle:
    """Read tokens from ``.jwt`` single-token files and JWT-per-line files.

    Blank lines are skipped; a line may optionally be a JSON-quoted string.
    Exact duplicates (same wire) collapse to one token.  A line holding bytes
    that are not UTF-8 becomes a ``not-utf-8`` diagnostic.

    A line that is the exact wire of a Token still held from an earlier load
    costs one lookup: it was checked and decoded then.
    """
    found: list[Token] = []
    diagnostics: list[BundleDiagnostic] = []
    for source in sources:
        path = Path(source)
        # Bytes that are not UTF-8 become lone surrogates, which _read_line flags.
        text = path.read_text(encoding="utf-8", errors="surrogateescape")
        single = path.suffix == ".jwt"
        name = str(path)
        for lineno, line in enumerate([text] if single else text.splitlines(), start=1):
            line = line.strip()
            token = _live_token(line)
            if token is None:
                if not line and not single:
                    continue
                token = _read_line(diagnostics, name, lineno, line)
                if token is None:
                    continue
            found.append(token)
    return Bundle(tokens=TokenSet(found), diagnostics=diagnostics)


def _read_line(diagnostics: list[BundleDiagnostic], source: str, lineno: int, line: str) -> Token | None:
    """Decode a line that is not the wire of a live Token, or record why it is unusable."""
    if not line.isascii() and any("\udc80" <= c <= "\udcff" for c in line):
        diagnostics.append(BundleDiagnostic(source=source, line=lineno, code="not-utf-8"))
        return None
    read = _decode_unseen
    if line.startswith('"'):
        try:
            line = json.loads(line)
        except json.JSONDecodeError:
            diagnostics.append(BundleDiagnostic(source=source, line=lineno, code="bad-json-string"))
            return None
        if not isinstance(line, str):
            diagnostics.append(BundleDiagnostic(source=source, line=lineno, code="not-a-string"))
            return None
        read = decode  # the unquoted wire may still have a live Token
    try:
        return read(line)
    except DecodeError as exc:
        diagnostics.append(BundleDiagnostic(source=source, line=lineno, code=f"decode: {exc}"))
        return None


def temporal_filter(bundle: Bundle, now: int | None = None) -> Bundle:
    """Drop statements outside their declared validity window, if a clock is given.

    Without ``now`` this is the identity function.  With it, attest and vouch
    tokens whose ``exp`` has passed or whose ``nbf`` has not arrived are
    removed before resolution.  Revocations and burns always stay, whatever
    their ``exp``/``nbf``: dropping one would resurrect what it retracted.
    """
    if now is None:
        return bundle
    kept = TokenSet([
        t
        for t in bundle.tokens
        if (c := t.claims).kind not in _STATEMENT_KINDS
        or ((c.exp is None or c.exp > now) and (c.nbf is None or c.nbf <= now))
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
    except json.JSONDecodeError as exc:
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

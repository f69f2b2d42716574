"""Signed statement tokens: issue, decode, verify.

Every statement is a JWS compact JWT signed with Ed25519.  Four kinds exist:

* ``vch:attest`` -- a standalone assertion; ``sub`` equals its own ``jti``.
* ``vch:vouch``  -- an endorsement of another attest/vouch token, referenced
  by the triple (``sub``, ``vch_iss``, ``vch_sum``); ``purpose`` narrows the
  delegated scope.
* ``vch:revoke`` -- a retraction of one of the issuer's own prior statements,
  named by ``revokes`` (its jti) plus that statement's subject triple.
* ``vch:burn``   -- irreversible termination of the issuer's own identity;
  ``burns`` must equal ``iss``.

A token's canonical identifier ``tid`` is the SHA-256 of the exact wire text.
The wire is never re-serialized: verification and hashing always operate on
the received bytes, so no canonical JSON form is needed anywhere.

``decode`` checks structural shape only; ``verify`` judges signature validity,
identity binding, and kind schema, reporting all failures rather than raising.
Both are pure functions of the wire, so ``decode`` hands back the Token it
already built for the same wire while that Token is alive, and each Token
keeps its own verify report (:attr:`Token.validity`).
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
import uuid
import weakref
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Any, Mapping

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from .identity import Identity, IdentityError, KeyPair, PublicKey, parse_identity, validate_binding


class TokenKind(str, Enum):
    ATTEST = "vch:attest"
    VOUCH = "vch:vouch"
    REVOKE = "vch:revoke"
    BURN = "vch:burn"


PROTECTED_HEADER = {"alg": "EdDSA", "typ": "JWT"}

RESERVED_CLAIMS = frozenset(
    {
        "iss",
        "iss_key",
        "kind",
        "jti",
        "sub",
        "vch_iss",
        "vch_sum",
        "revokes",
        "burns",
        "purpose",
        "iat",
        "nbf",
        "exp",
    }
)

_HEX64_RE = re.compile(r"^[0-9a-f]{64}$")

_STRING_CLAIMS = ("iss", "iss_key", "jti", "sub", "vch_iss", "vch_sum", "revokes", "burns", "purpose")
_INT_CLAIMS = ("iat", "nbf", "exp")


class TokenError(ValueError):
    """Base error for token construction and decoding."""


class DecodeError(TokenError):
    """The wire text is not a structurally well-formed token."""


class IssueError(TokenError):
    """An issuance precondition was violated."""


@dataclass(frozen=True)
class Claims:
    """Decoded payload claims.

    ``extra`` holds any additional claims verbatim, as a read-only mapping;
    they are signed and hash-covered but ignored by state resolution and
    evaluation.
    """

    iss: str
    iss_key: str
    kind: TokenKind
    jti: str
    sub: str
    vch_iss: str | None = None
    vch_sum: str | None = None
    revokes: str | None = None
    burns: str | None = None
    purpose: str | None = None
    iat: int | None = None
    nbf: int | None = None
    exp: int | None = None
    extra: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Token:
    """An immutable decoded token.

    ``wire`` is the exact compact serialization as transmitted; ``tid`` is
    SHA-256 over that text.  Claims are a read-only view of the payload
    segment and ``header`` a read-only mapping -- mutating anything here
    cannot change what was signed, nor the cached :attr:`validity`.
    """

    wire: str
    header: Mapping[str, Any]
    claims: Claims
    sig: bytes
    tid: bytes
    # A declared field, not functools.cached_property: writing the instance
    # __dict__ directly makes CPython (3.11+) slow down every later attribute
    # read on that Token, and resolution and evaluation read them a lot.
    _validity: ValidityReport | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def tid_hex(self) -> str:
        return self.tid.hex()

    @property
    def validity(self) -> ValidityReport:
        """This token's :func:`verify` report, computed on first use and kept."""
        if self._validity is None:
            object.__setattr__(self, "_validity", verify(self))
        return self._validity

    def subject_triple(self) -> tuple[str, str, str] | None:
        """The (jti, issuer, content hash) reference this statement is about.

        Vouches and revocations carry it explicitly.  An attestation is its
        own subject, so the triple is derived from the token itself.  Burns
        have no subject reference.
        """
        c = self.claims
        if c.kind in (TokenKind.VOUCH, TokenKind.REVOKE):
            if c.vch_iss is None or c.vch_sum is None:
                return None
            return (c.sub, c.vch_iss, c.vch_sum)
        if c.kind is TokenKind.ATTEST:
            return (c.jti, c.iss, self.tid_hex)
        return None


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of :func:`verify`; overall validity needs all three checks."""

    sig_ok: bool
    id_ok: bool
    schema_ok: bool
    reasons: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.sig_ok and self.id_ok and self.schema_ok


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------

def _b64url_encode(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).decode("ascii").rstrip("=")


def _b64url_decode_strict(segment: str) -> bytes:
    """Decode one unpadded base64url segment, rejecting non-canonical forms.

    Re-encoding must reproduce the segment exactly; this rejects padding
    characters and any garbage in unused trailing bits, so two distinct wire
    texts can never decode to the same bytes.
    """
    try:
        decoded = base64.b64decode(
            segment + "=" * (-len(segment) % 4), altchars=b"-_", validate=True
        )
    except Exception as exc:
        raise DecodeError(f"segment is not valid base64url: {exc}") from exc
    if _b64url_encode(decoded) != segment:
        raise DecodeError("segment is not canonical unpadded base64url")
    return decoded


def _decode_json_object(data: bytes, what: str) -> dict:
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DecodeError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise DecodeError(f"{what} JSON nests too deeply") from None
    if not isinstance(obj, dict):
        raise DecodeError(f"{what} is not a JSON object")
    return obj


# Shared by every token without extra claims: one less object per decode.
_NO_EXTRA: Mapping[str, Any] = MappingProxyType({})

# Every Token decode has built and some caller still holds, by exact wire.
# Weak values: an entry goes when the last reference to its Token does.
_live: weakref.WeakValueDictionary[str, Token] = weakref.WeakValueDictionary()


def decode(wire: str) -> Token:
    """Parse compact wire text into a :class:`Token`.

    Structural checks only: three canonical base64url segments, JSON object
    header and payload, known ``kind``, universal claims present with the
    right types.  No signature, binding, or kind-schema judgment is made
    (see :func:`verify`).

    While a Token built from this exact wire (same characters) is still
    referenced anywhere in the process, that same Token is returned, along
    with the verify report it may already carry; so re-reading a grown
    bundle while the previous load is held decodes and verifies only the new
    lines.  Nothing is retained that the caller has dropped, and a one-shot
    process such as the CLI sees every wire once and gains nothing.
    """
    if not isinstance(wire, str) or not wire:
        raise DecodeError("empty wire text")
    token = _live.get(wire)
    if token is not None:
        return token
    parts = wire.split(".")
    if len(parts) != 3:
        raise DecodeError(f"expected 3 dot-separated segments, got {len(parts)}")
    header = _decode_json_object(_b64url_decode_strict(parts[0]), "header")
    payload = _decode_json_object(_b64url_decode_strict(parts[1]), "payload")
    sig = _b64url_decode_strict(parts[2])

    for name in _STRING_CLAIMS:
        if name in payload and not isinstance(payload[name], str):
            raise DecodeError(f"claim {name!r} must be a string")
    for name in _INT_CLAIMS:
        if name in payload and (isinstance(payload[name], bool) or not isinstance(payload[name], int)):
            raise DecodeError(f"claim {name!r} must be an integer")

    try:
        kind = TokenKind(payload["kind"])
    except KeyError:
        raise DecodeError("missing claim 'kind'") from None
    except ValueError:
        raise DecodeError(f"unknown token kind {payload['kind']!r}") from None
    for name in ("iss", "iss_key", "jti", "sub"):
        if name not in payload:
            raise DecodeError(f"missing claim {name!r}")

    extra = {k: v for k, v in payload.items() if k not in RESERVED_CLAIMS}
    claims = Claims(
        iss=payload["iss"],
        iss_key=payload["iss_key"],
        kind=kind,
        jti=payload["jti"],
        sub=payload["sub"],
        vch_iss=payload.get("vch_iss"),
        vch_sum=payload.get("vch_sum"),
        revokes=payload.get("revokes"),
        burns=payload.get("burns"),
        purpose=payload.get("purpose"),
        iat=payload.get("iat"),
        nbf=payload.get("nbf"),
        exp=payload.get("exp"),
        extra=MappingProxyType(extra) if extra else _NO_EXTRA,
    )
    token = Token(
        wire=wire,
        header=MappingProxyType(header),
        claims=claims,
        sig=sig,
        tid=hashlib.sha256(wire.encode("ascii")).digest(),
    )
    _live[wire] = token
    return token


# ---------------------------------------------------------------------------
# Issuance
# ---------------------------------------------------------------------------

def _issue(
    keypair: KeyPair,
    identity: Identity,
    kind: TokenKind,
    payload_rest: dict,
    extra: Mapping[str, Any] | None = None,
) -> Token:
    if not validate_binding(identity, keypair.public):
        raise IssueError(f"identity {identity.urn} is not bound to the signing key")
    payload: dict[str, Any] = {
        "iss": identity.urn,
        "iss_key": keypair.public.b64,
        "kind": kind.value,
        **payload_rest,
    }
    if extra:
        for name in extra:
            if name in RESERVED_CLAIMS:
                raise IssueError(f"extra claim {name!r} collides with a reserved claim name")
        payload.update(extra)
    header_b64 = _b64url_encode(json.dumps(PROTECTED_HEADER, separators=(",", ":")).encode())
    payload_b64 = _b64url_encode(
        json.dumps(payload, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    )
    signing_input = f"{header_b64}.{payload_b64}"
    sig = keypair.sign(signing_input.encode("ascii"))
    return decode(f"{signing_input}.{_b64url_encode(sig)}")


def _times(iat: int | None, nbf: int | None, exp: int | None) -> dict:
    out = {}
    if iat is not None:
        out["iat"] = iat
    if nbf is not None:
        out["nbf"] = nbf
    if exp is not None:
        out["exp"] = exp
    return out


def issue_attest(
    keypair: KeyPair,
    identity: Identity,
    purpose: str | None = None,
    extra: Mapping[str, Any] | None = None,
    *,
    iat: int | None = None,
    nbf: int | None = None,
    exp: int | None = None,
) -> Token:
    """Issue a self-referential assertion (``sub`` == ``jti``)."""
    jti = str(uuid.uuid4())
    rest: dict[str, Any] = {"jti": jti, "sub": jti}
    if purpose is not None:
        rest["purpose"] = purpose
    rest.update(_times(iat, nbf, exp))
    return _issue(keypair, identity, TokenKind.ATTEST, rest, extra)


def issue_vouch(
    keypair: KeyPair,
    identity: Identity,
    subject: Token,
    purpose: str | None = None,
    *,
    iat: int | None = None,
    nbf: int | None = None,
    exp: int | None = None,
) -> Token:
    """Endorse an existing attest or vouch token.

    The subject is committed by content: ``vch_sum`` is the hex SHA-256 of
    the subject's exact wire text, so any re-encoding of the subject breaks
    the reference.
    """
    if subject.claims.kind not in (TokenKind.ATTEST, TokenKind.VOUCH):
        raise IssueError(f"cannot vouch for a {subject.claims.kind.value} token")
    rest: dict[str, Any] = {
        "jti": str(uuid.uuid4()),
        "sub": subject.claims.jti,
        "vch_iss": subject.claims.iss,
        "vch_sum": subject.tid_hex,
    }
    if purpose is not None:
        rest["purpose"] = purpose
    rest.update(_times(iat, nbf, exp))
    return _issue(keypair, identity, TokenKind.VOUCH, rest)


def issue_revoke(keypair: KeyPair, identity: Identity, revoked: Token) -> Token:
    """Retract one of this identity's own prior attest/vouch statements.

    The revocation names the statement by jti (``revokes``) and carries the
    statement's subject triple, so it cannot be redirected to a different
    subject or to a modified encoding of the original.
    """
    if revoked.claims.iss != identity.urn:
        raise IssueError("can only revoke statements issued by the same identity")
    if revoked.claims.kind not in (TokenKind.ATTEST, TokenKind.VOUCH):
        raise IssueError(f"cannot revoke a {revoked.claims.kind.value} token")
    triple = revoked.subject_triple()
    if triple is None:
        raise IssueError("target token has no subject reference")
    sub, vch_iss, vch_sum = triple
    rest = {
        "jti": str(uuid.uuid4()),
        "sub": sub,
        "vch_iss": vch_iss,
        "vch_sum": vch_sum,
        "revokes": revoked.claims.jti,
    }
    return _issue(keypair, identity, TokenKind.REVOKE, rest)


def issue_burn(keypair: KeyPair, identity: Identity) -> Token:
    """Terminate this identity, irreversibly; ``burns`` names the issuer itself."""
    jti = str(uuid.uuid4())
    rest = {"jti": jti, "sub": jti, "burns": identity.urn}
    return _issue(keypair, identity, TokenKind.BURN, rest)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def _check_signature(token: Token, pk: PublicKey | None, reasons: list[str]) -> bool:
    if token.header.get("alg") != "EdDSA":
        reasons.append("sig:alg-not-eddsa")
        return False
    if pk is None:
        reasons.append("sig:iss-key-unparseable")
        return False
    header_b64, payload_b64, _ = token.wire.split(".")
    signing_input = f"{header_b64}.{payload_b64}".encode("ascii")
    try:
        Ed25519PublicKey.from_public_bytes(pk.raw).verify(token.sig, signing_input)
    except InvalidSignature:
        reasons.append("sig:signature-mismatch")
        return False
    return True


def _check_binding(token: Token, pk: PublicKey | None, reasons: list[str]) -> bool:
    try:
        ident = parse_identity(token.claims.iss)
    except IdentityError:
        ident = None
    if ident is None or pk is None:
        reasons.append("id:unparseable")
        return False
    if not validate_binding(ident, pk):
        reasons.append("id:digest-mismatch")
        return False
    return True


def _check_schema(token: Token, reasons: list[str]) -> bool:
    c = token.claims
    ok = True
    if not c.jti:
        reasons.append("schema:empty-jti")
        ok = False
    if c.kind in (TokenKind.ATTEST, TokenKind.BURN) and c.sub != c.jti:
        reasons.append("schema:sub-not-self")
        ok = False
    if c.kind in (TokenKind.VOUCH, TokenKind.REVOKE):
        if c.vch_iss is None:
            reasons.append("schema:missing-vch-iss")
            ok = False
        if c.vch_sum is None:
            reasons.append("schema:missing-vch-sum")
            ok = False
        elif not _HEX64_RE.match(c.vch_sum):
            reasons.append("schema:vch-sum-not-hex64")
            ok = False
    if c.kind is TokenKind.REVOKE and c.revokes is None:
        reasons.append("schema:missing-revokes")
        ok = False
    if c.kind is TokenKind.BURN:
        if c.burns is None:
            reasons.append("schema:missing-burns")
            ok = False
        elif c.burns != c.iss:
            reasons.append("schema:burns-not-issuer")
            ok = False
    return ok


def verify(token: Token) -> ValidityReport:
    """Judge a decoded token: signature, identity binding, kind schema.

    Pure and offline -- no clock, no lookup.  Temporal claims are carried and
    signed but never consulted here; they belong to application-level
    pre-filtering.  All failures are reported, none raised.
    """
    reasons: list[str] = []
    # Parsed once for both checks; None (unparseable) fails both.
    try:
        pk: PublicKey | None = PublicKey.from_b64(token.claims.iss_key)
    except IdentityError:
        pk = None
    sig_ok = _check_signature(token, pk, reasons)
    id_ok = _check_binding(token, pk, reasons)
    schema_ok = _check_schema(token, reasons)
    return ValidityReport(
        sig_ok=sig_ok,
        id_ok=id_ok,
        schema_ok=schema_ok,
        reasons=tuple(reasons),
    )

"""Self-verifying identities bound to Ed25519 keys.

An identity is a URN of the form ``urn:vouchsafe:<label>.<digest>`` where
``digest`` is the lowercase, unpadded base32 (RFC 4648 section 6) encoding of
the SHA-256 hash of the raw 32 public key bytes.  The label is human-facing
metadata and does not enter the hash, so the binding between a URN and a key
can be checked offline from the two values alone: recompute the digest from
the key and compare.

Two identities are the same principal if and only if their URN strings are
byte-identical.  The same key under two labels is therefore two distinct
principals.
"""

from __future__ import annotations

import base64
import hashlib
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

URN_PREFIX = "urn:vouchsafe:"
DIGEST_LENGTH = 52  # ceil(256 / 5) base32 symbols, unpadded

# Labels: 1-64 chars of lowercase ASCII letters, digits, hyphen.  "." is the
# label/digest separator and must never appear; uppercase is rejected to avoid
# case-folding ambiguity.
_LABEL_RE = re.compile(r"[a-z0-9-]{1,64}")
_DIGEST_RE = re.compile(r"[a-z2-7]{52}")

# The only DER encoding accepted for Ed25519 public keys: the standard 44-byte
# SubjectPublicKeyInfo structure.  The first 12 bytes are a fixed algorithm
# identifier prefix; the final 32 bytes are the raw key.
ED25519_SPKI_PREFIX = bytes.fromhex("302a300506032b6570032100")

SEED_FILE_PREFIX = "ed25519-seed-hex:"


class IdentityError(ValueError):
    """Malformed identity, label, key encoding, or key file."""


@dataclass(frozen=True)
class PublicKey:
    """An Ed25519 public key in its three wire representations.

    ``raw`` is the 32 key bytes, ``der`` the SubjectPublicKeyInfo encoding,
    and ``b64`` the base64 text of ``der`` as carried in token ``iss_key``
    claims.
    """

    raw: bytes
    der: bytes
    b64: str

    @classmethod
    def from_raw(cls, raw: bytes) -> "PublicKey":
        if len(raw) != 32:
            raise IdentityError(f"raw Ed25519 public key must be 32 bytes, got {len(raw)}")
        der = ED25519_SPKI_PREFIX + raw
        return cls(raw=raw, der=der, b64=base64.b64encode(der).decode("ascii"))

    @classmethod
    def from_der(cls, der: bytes) -> "PublicKey":
        if len(der) != 44 or not der.startswith(ED25519_SPKI_PREFIX):
            raise IdentityError("not a standard 44-byte Ed25519 SubjectPublicKeyInfo encoding")
        return cls.from_raw(der[12:])

    @classmethod
    def from_b64(cls, text: str) -> "PublicKey":
        # Lenient on missing padding; emission always pads.
        stripped = text.strip()
        try:
            der = base64.b64decode(stripped + "=" * (-len(stripped) % 4), validate=True)
        except Exception as exc:
            raise IdentityError(f"iss_key is not valid base64: {exc}") from exc
        return cls.from_der(der)

    def to_pem(self) -> str:
        """PEM wrapping of the DER encoding, for interchange with other tools."""
        body = base64.b64encode(self.der).decode("ascii")
        lines = [body[i : i + 64] for i in range(0, len(body), 64)]
        return "-----BEGIN PUBLIC KEY-----\n" + "\n".join(lines) + "\n-----END PUBLIC KEY-----\n"


@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 keypair.  The seed never appears in repr or serialized output."""

    seed: bytes = field(repr=False)
    public: PublicKey

    def sign(self, message: bytes) -> bytes:
        return Ed25519PrivateKey.from_private_bytes(self.seed).sign(message)


@dataclass(frozen=True)
class Identity:
    """A parsed principal: label, key digest, and the full URN.

    Principal equality is URN string equality and nothing else.
    """

    label: str
    digest: str

    @property
    def urn(self) -> str:
        return f"{URN_PREFIX}{self.label}.{self.digest}"


def generate_keypair(seed: bytes | None = None) -> KeyPair:
    """Create a keypair from a 32-byte seed, or from secure randomness."""
    if seed is None:
        import secrets  # here, not at module level: it pulls in hmac, which verifiers never use

        seed = secrets.token_bytes(32)
    elif len(seed) != 32:
        raise IdentityError(f"seed must be exactly 32 bytes, got {len(seed)}")
    private = Ed25519PrivateKey.from_private_bytes(seed)
    return KeyPair(seed=seed, public=PublicKey.from_raw(private.public_key().public_bytes_raw()))


def _key_digest(pk: PublicKey) -> str:
    return base64.b32encode(hashlib.sha256(pk.raw).digest()).decode("ascii").rstrip("=").lower()


def derive_identity(pk: PublicKey, label: str) -> Identity:
    """Build the identity for a key under a label.

    The digest covers only the raw key bytes, so semantically equivalent DER
    encodings of the same key derive the same digest, and the label can be
    changed without touching the binding (producing a distinct principal).
    """
    if not _LABEL_RE.fullmatch(label):
        raise IdentityError(
            f"invalid label {label!r}: need 1-64 chars of lowercase letters, digits, hyphen"
        )
    return Identity(label=label, digest=_key_digest(pk))


def parse_identity(urn: str) -> Identity:
    """Split a URN into label and digest, rejecting anything off-grammar."""
    if not urn.startswith(URN_PREFIX):
        raise IdentityError(f"identity does not start with {URN_PREFIX!r}: {urn!r}")
    rest = urn[len(URN_PREFIX) :]
    label, sep, digest = rest.rpartition(".")
    if not sep:
        raise IdentityError(f"identity has no label/digest separator: {urn!r}")
    if not _LABEL_RE.fullmatch(label):
        raise IdentityError(f"invalid label in identity: {urn!r}")
    if not _DIGEST_RE.fullmatch(digest):
        raise IdentityError(
            f"digest must be {DIGEST_LENGTH} lowercase base32 chars: {urn!r}"
        )
    return Identity(label=label, digest=digest)


def validate_binding(identity: Identity, pk: PublicKey) -> bool:
    """True iff the identity's digest is the digest of this key.

    Pure recomputation; no lookup of any kind.
    """
    return _key_digest(pk) == identity.digest


# ---------------------------------------------------------------------------
# Key files
# ---------------------------------------------------------------------------

def save_seed(path: str | Path, keypair: KeyPair) -> None:
    """Create a new file, mode 0600 before the umask, holding the secret seed
    as one hex line.  An existing path raises :class:`FileExistsError` and is
    left untouched: a seed file is never overwritten."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600), "w", encoding="utf-8") as f:
        f.write(f"{SEED_FILE_PREFIX}{keypair.seed.hex()}\n")


def load_keypair(path: str | Path) -> KeyPair:
    """Load a keypair from a seed file written by :func:`save_seed`."""
    try:
        text = Path(path).read_text(encoding="utf-8").strip()
    except UnicodeDecodeError as exc:
        raise IdentityError(f"{path}: not UTF-8: {exc}") from exc
    if not text.startswith(SEED_FILE_PREFIX):
        raise IdentityError(f"{path}: not an ed25519 seed file")
    hex_part = text[len(SEED_FILE_PREFIX) :]
    if len(hex_part) != 64:
        raise IdentityError(f"{path}: seed must be 64 hex chars, got {len(hex_part)}")
    try:
        seed = bytes.fromhex(hex_part)
    except ValueError as exc:
        raise IdentityError(f"{path}: invalid hex in seed file") from exc
    return generate_keypair(seed)

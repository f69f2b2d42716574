#!/usr/bin/env python3
"""The four token kinds and what makes them tamper-evident.

Every statement is a compact JWS JWT carrying its issuer's identity AND key,
so a verifier needs nothing beyond the token text itself.
"""

import hashlib

from vouchsafe import (
    decode,
    derive_identity,
    generate_keypair,
    issue_attest,
    issue_burn,
    issue_revoke,
    issue_vouch,
    verify,
)

kp_a = generate_keypair()
alice = derive_identity(kp_a.public, "alice")
kp_r = generate_keypair()
rex = derive_identity(kp_r.public, "rex")

# --- attest: a standalone signed assertion ---------------------------------
cert = issue_attest(kp_a, alice, purpose="read write", extra={"room": "lab-3"})
print("attest wire (truncated):", cert.wire[:60], "...")
print("kind:", cert.claims.kind.value, "| sub == jti:", cert.claims.sub == cert.claims.jti)

# Its canonical id is simply the hash of the wire text.
print("tid:", cert.tid_hex)
assert cert.tid == hashlib.sha256(cert.wire.encode()).digest()

# verify() checks three independent things: the Ed25519 signature, the
# iss <-> iss_key binding, and the per-kind claim schema.
report = verify(cert)
print("sig_ok/id_ok/schema_ok:", report.sig_ok, report.id_ok, report.schema_ok)

# --- vouch: an endorsement committed to exact content -----------------------
endorsement = issue_vouch(kp_r, rex, cert, purpose="read")
print("\nvouch subject triple:", endorsement.subject_triple())
assert endorsement.claims.vch_sum == cert.tid_hex  # content-addressed

# --- revoke: retract one of your own statements -----------------------------
retraction = issue_revoke(kp_r, rex, endorsement)
print("revokes jti:", retraction.claims.revokes)

# --- burn: terminate your own identity, irreversibly ------------------------
goodbye = issue_burn(kp_a, alice)
print("burns:", goodbye.claims.burns == alice.urn)

# --- tampering is self-defeating --------------------------------------------
# Flip one character of the payload: the signature dies with it.
h, p, s = cert.wire.split(".")
tampered = f"{h}.{p[:-1]}{'A' if p[-1] != 'A' else 'B'}.{s}"
try:
    bad = decode(tampered)
    print("\ntampered sig_ok:", verify(bad).sig_ok)
except Exception as exc:
    print("\ntampered decode failed:", type(exc).__name__)

# And decoding the authentic wire anew reproduces everything bit-for-bit.
again = decode(cert.wire)
assert again is not cert and again.claims == cert.claims and again.tid == cert.tid
print("round trip exact:", True)

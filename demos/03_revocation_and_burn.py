#!/usr/bin/env python3
"""Proof of omission: state lives in the token set, not in a service.

A statement is effective exactly when the supplied set contains no valid
contradicting statement.  Resolution removes what has been revoked or burned
and keeps the control tokens themselves so their effect travels with the set.
"""

from vouchsafe import (
    TokenSet,
    derive_identity,
    generate_keypair,
    issue_attest,
    issue_burn,
    issue_revoke,
    issue_vouch,
    resolve,
)


def show(title, clean):
    print(f"\n{title}")
    for t in sorted(clean.tokens, key=lambda t: t.tid):
        print(f"  kept {t.claims.kind.value:11s} {t.tid_hex[:16]}  iss={t.claims.iss.split('.')[0]}")
    if clean.burned_identities:
        print("  burned identities:", *sorted(u.split(".")[0] for u in clean.burned_identities))
    for (iss, jti), rtid in sorted(clean.revoked_statements.items()):
        print(f"  revoked statement jti={jti[:8]} of {iss.split('.')[0]}")


kp_a, kp_r = generate_keypair(), generate_keypair()
alice = derive_identity(kp_a.public, "alice")
rex = derive_identity(kp_r.public, "rex")

badge = issue_attest(kp_a, alice, purpose="enter")
endorse = issue_vouch(kp_r, rex, badge, purpose="enter")

# Nothing contradicts anything: everything survives.
show("initial set:", resolve(TokenSet([badge, endorse])))

# Rex retracts the endorsement.  The revocation removes exactly that one
# statement -- alice's badge is alice's statement and stays.
retract = issue_revoke(kp_r, rex, endorse)
show("after rex revokes the endorsement:", resolve(TokenSet([badge, endorse, retract])))

# Alice burns her identity (say the key leaked).  Every non-burn statement
# she ever made is suppressed, but burn tokens themselves persist so the
# termination stays visible.
burn = issue_burn(kp_a, alice)
show("after alice burns herself:", resolve(TokenSet([badge, endorse, retract, burn])))

# Monotonicity: control tokens only ever shrink the effective set.  Feeding
# the resolved survivors back through resolution changes nothing.
clean = resolve(TokenSet([badge, endorse, retract, burn]))
again = resolve(TokenSet(list(clean.tokens)))
print("\nidempotent:", {t.tid for t in clean.tokens} == {t.tid for t in again.tokens})

# No un-revoke exists: there is no token kind that could bring the
# endorsement or alice's badge back.  The only way a verifier accepts them
# again is to be handed a set that omits the control tokens -- which is why
# distributing revocations and burns matters operationally.

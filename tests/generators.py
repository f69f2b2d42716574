"""Randomized token-set and request generators shared by the oracle suites.

Sets mix honest issuance through the library API with crafted adversarial
shapes (duplicate statement ids, forged content hashes, mismatched revocation
triples, dangling references) so the omission and evaluation semantics get
exercised well off the happy path.  Every produced token is valid -- the
oracles model post-validation behavior.
"""

from __future__ import annotations

import random
import uuid

import oracles
import vouchsafe as vs

LABELS = ["read", "write", "admin", "audit"]

_POOL_SEEDS = [bytes([i + 1]) * 32 for i in range(5)]
POOL: list[tuple[vs.KeyPair, vs.Identity]] = []
for _i, _seed in enumerate(_POOL_SEEDS):
    _kp = vs.generate_keypair(_seed)
    POOL.append((_kp, vs.derive_identity(_kp.public, f"id{_i}")))
POOL_BY_URN = {ident.urn: (kp, ident) for kp, ident in POOL}
SEED_BY_URN = {ident.urn: seed for (_kp, ident), seed in zip(POOL, _POOL_SEEDS)}


def random_purpose(rng: random.Random) -> str | None:
    if rng.random() < 0.25:
        return None
    return " ".join(label for label in LABELS if rng.random() < 0.5)


def craft(rng: random.Random, issuer_urn: str, kind: str, **claims) -> vs.Token:
    """Hand-sign a pool identity's token with arbitrary claims."""
    seed = SEED_BY_URN[issuer_urn]
    label = issuer_urn.split(":", 2)[2].rsplit(".", 1)[0]
    jti = claims.pop("jti", str(uuid.UUID(int=rng.getrandbits(128), version=4)))
    wire = oracles.craft_wire(seed, oracles.standard_claims(seed, label, kind, jti, **claims))
    return vs.decode(wire)


def random_token_set(rng: random.Random, max_tokens: int = 12) -> list[vs.Token]:
    """One random valid token set with control tokens and adversarial shapes."""
    target = rng.randint(1, max_tokens)
    tokens: list[vs.Token] = []
    while len(tokens) < target:
        delegable = [
            t for t in tokens if t.claims.kind in (vs.TokenKind.ATTEST, vs.TokenKind.VOUCH)
        ]
        moves = ["attest", "attest", "burn"]
        if delegable:
            moves += ["vouch", "vouch", "vouch", "revoke", "revoke"]
            moves += ["forged_vouch", "dup_statement", "mismatched_revoke"]
        move = rng.choice(moves)
        kp, ident = POOL[rng.randrange(len(POOL))]

        if move == "attest":
            tokens.append(vs.issue_attest(kp, ident, purpose=random_purpose(rng)))
        elif move == "vouch":
            subject = rng.choice(delegable)
            tokens.append(vs.issue_vouch(kp, ident, subject, purpose=random_purpose(rng)))
        elif move == "revoke":
            target_token = rng.choice(delegable)
            kp_r, ident_r = POOL_BY_URN[target_token.claims.iss]
            tokens.append(vs.issue_revoke(kp_r, ident_r, target_token))
        elif move == "burn":
            tokens.append(vs.issue_burn(kp, ident))
        elif move == "forged_vouch":
            victim = rng.choice(delegable)
            tokens.append(
                craft(
                    rng,
                    ident.urn,
                    oracles.VOUCH,
                    sub=victim.claims.jti,
                    vch_iss=victim.claims.iss,
                    vch_sum=rng.getrandbits(256).to_bytes(32, "big").hex(),
                )
            )
        elif move == "dup_statement":
            original = rng.choice(delegable)
            if original.claims.kind is vs.TokenKind.ATTEST:
                tokens.append(
                    craft(
                        rng,
                        original.claims.iss,
                        oracles.ATTEST,
                        jti=original.claims.jti,
                        note=str(rng.getrandbits(32)),
                    )
                )
        elif move == "mismatched_revoke":
            target_token = rng.choice(delegable)
            triple = target_token.subject_triple()
            tokens.append(
                craft(
                    rng,
                    target_token.claims.iss,
                    oracles.REVOKE,
                    sub=triple[0],
                    vch_iss=triple[1],
                    vch_sum=rng.getrandbits(256).to_bytes(32, "big").hex(),
                    revokes=target_token.claims.jti,
                )
            )

    # Random drops leave dangling vouches and revocations of absent statements.
    kept = [t for t in tokens if rng.random() > 0.12]
    return kept if kept else [rng.choice(tokens)]


def random_wire_mix(rng: random.Random, size: int = 10) -> list[str]:
    """Wires that all decode but not all verify: honest attests and vouches
    mixed with bad signatures, keys foreign to the claimed issuer, and bad
    kind schemas."""
    honest: list[vs.Token] = []
    wires: list[str] = []
    for _ in range(size):
        kp, ident = POOL[rng.randrange(len(POOL))]
        seed = SEED_BY_URN[ident.urn]
        label = ident.urn.split(":", 2)[2].rsplit(".", 1)[0]
        other = _POOL_SEEDS[rng.randrange(len(_POOL_SEEDS))]
        jti = str(uuid.UUID(int=rng.getrandbits(128), version=4))
        move = rng.choice(["honest", "honest", "bad_sig", "foreign_key", "bad_schema"])
        if move == "honest":
            if honest and rng.random() < 0.5:
                token = vs.issue_vouch(kp, ident, rng.choice(honest), purpose=random_purpose(rng))
            else:
                token = vs.issue_attest(kp, ident, purpose=random_purpose(rng))
            honest.append(token)
            wires.append(token.wire)
        elif move == "bad_sig":
            h, p, _ = vs.issue_attest(kp, ident).wire.split(".")
            wires.append(f"{h}.{p}.{vs.issue_attest(kp, ident).wire.split('.')[2]}")
        elif move == "foreign_key":
            claims = oracles.standard_claims(seed, label, oracles.ATTEST, jti)
            if rng.random() < 0.5:
                # Signed by another key than the one it names: signature fails.
                wires.append(oracles.craft_wire(other if other != seed else bytes(32), claims))
            else:
                # Names and signs with another key than its URN binds: binding fails.
                foreign = oracles.standard_claims(other, label, oracles.ATTEST, jti)
                foreign["iss"] = claims["iss"]
                wires.append(oracles.craft_wire(other, foreign))
        else:
            kind = rng.choice([oracles.ATTEST, oracles.BURN])
            wires.append(craft(rng, ident.urn, kind, sub="elsewhere").wire)
    return wires


def random_delegation_tree(rng: random.Random, size: int = 16) -> list[vs.Token]:
    """Attests and vouches only, each vouch endorsing one of the three latest
    statements, so chains run deep and scopes narrow along them."""
    tokens: list[vs.Token] = []
    for _ in range(size):
        kp, ident = POOL[rng.randrange(len(POOL))]
        if tokens and rng.random() < 0.8:
            subject = rng.choice(tokens[-3:])
            tokens.append(vs.issue_vouch(kp, ident, subject, purpose=random_purpose(rng)))
        else:
            tokens.append(vs.issue_attest(kp, ident, purpose=random_purpose(rng)))
    return tokens


def random_roots(rng: random.Random) -> list[tuple[str, frozenset | None]]:
    roots = []
    for _ in range(rng.randint(1, 3)):
        _, ident = POOL[rng.randrange(len(POOL))]
        roll = rng.random()
        if roll < 0.3:
            scope = None  # unconstrained
        else:
            scope = frozenset(label for label in LABELS if rng.random() < 0.5)
        roots.append((ident.urn, scope))
    return roots


def random_required(rng: random.Random) -> frozenset:
    if rng.random() < 0.15:
        return frozenset()
    size = rng.randint(1, 3)
    return frozenset(rng.sample(LABELS, size))


def random_subject_tid(rng: random.Random, tokens: list[vs.Token]) -> bytes:
    if rng.random() < 0.08:
        return rng.getrandbits(256).to_bytes(32, "big")
    return rng.choice(tokens).tid


def as_principals(roots: list[tuple[str, frozenset | None]]) -> tuple[vs.TrustedPrincipal, ...]:
    return tuple(
        vs.TrustedPrincipal(identity=urn, root_scope=vs.Scope(labels=scope))
        for urn, scope in roots
    )


def accepting_instance(rng: random.Random):
    """A guaranteed-accept instance whose only rooted path is one known chain.

    Chain issuers are distinct and the trust root names only the chain head,
    so revoking any chain node or burning any chain issuer must kill the sole
    rooted path.  Noise tokens never involve the head identity and never
    reference the chain, keeping them inert for this request.

    Returns (tokens, chain, subject, required, roots); chain[0] is the rooted
    head, chain[-1] the subject.
    """
    required = random_required(rng)

    def covering_purpose() -> str | None:
        if rng.random() < 0.3:
            return None
        labels = sorted(set(required) | {l for l in LABELS if rng.random() < 0.3})
        return " ".join(labels) if labels else None

    issuer_ids = rng.sample(range(len(POOL)), rng.randint(1, 4))
    kp, ident = POOL[issuer_ids[-1]]
    subject = vs.issue_attest(kp, ident, purpose=covering_purpose())
    chain = [subject]
    for i in reversed(issuer_ids[:-1]):
        kp, ident = POOL[i]
        chain.insert(0, vs.issue_vouch(kp, ident, chain[0], purpose=covering_purpose()))
    head_urn = POOL[issuer_ids[0]][1].urn
    if rng.random() < 0.4:
        root_scope = None
    else:
        root_scope = frozenset(required) | {l for l in LABELS if rng.random() < 0.3}
    roots = [(head_urn, root_scope)]

    noise: list[vs.Token] = []
    noise_ids = [i for i in range(len(POOL)) if i != issuer_ids[0]]
    for _ in range(rng.randint(0, 4)):
        kp, ident = POOL[rng.choice(noise_ids)]
        if noise and rng.random() < 0.5:
            noise.append(vs.issue_vouch(kp, ident, rng.choice(noise), purpose=random_purpose(rng)))
        else:
            noise.append(vs.issue_attest(kp, ident, purpose=random_purpose(rng)))
    tokens = chain + noise
    rng.shuffle(tokens)
    return tokens, chain, subject, required, roots

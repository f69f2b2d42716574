import random

import oracles
from vouchsafe import (
    TokenSet,
    decode,
    filter_valid,
    issue_attest,
    issue_burn,
    issue_revoke,
    issue_vouch,
    resolve,
    revokes_matches,
)

import generators


def kinds(clean):
    return sorted(t.claims.kind.value for t in clean.tokens)


class TestTokenSet:
    def test_exact_duplicates_collapse(self, alice):
        kp, ident = alice
        t = issue_attest(kp, ident)
        ts = TokenSet([t, decode(t.wire)])
        assert len(ts) == 1

    def test_duplicate_statement_ids_flagged(self, alice):
        kp, ident = alice
        t = issue_attest(kp, ident)
        dup = decode(
            oracles.craft_wire(
                b"\x11" * 32,
                oracles.standard_claims(b"\x11" * 32, "alice", "vch:attest", t.claims.jti, note="x"),
            )
        )
        ts = TokenSet([t, dup])
        assert len(ts) == 2
        assert ts.duplicate_statement_ids() == [(ident.urn, t.claims.jti)]


class TestFilterValid:
    def test_tampered_token_dropped_with_diagnostic(self, alice):
        kp, ident = alice
        good = [issue_attest(kp, ident) for _ in range(3)]
        h, p, s = good[0].wire.split(".")
        tampered = decode(f"{h}.{p}.{'B' if s[0] != 'B' else 'C'}{s[1:]}")
        valid, rejected = filter_valid(TokenSet(good + [tampered]))
        assert len(valid) == 3
        assert len(rejected) == 1
        assert not rejected[0].report.sig_ok

    def test_empty_set(self):
        valid, rejected = filter_valid(TokenSet())
        assert len(valid) == 0 and rejected == []

    def test_burn_of_other_identity_excluded_as_invalid(self, alice, mallory):
        _, ident_m = mallory
        wire = oracles.craft_wire(
            b"\x11" * 32,
            oracles.standard_claims(b"\x11" * 32, "alice", "vch:burn", "j9", burns=ident_m.urn),
        )
        valid, rejected = filter_valid(TokenSet([decode(wire)]))
        assert len(valid) == 0 and len(rejected) == 1


class TestBurnPredicate:
    def test_attest_by_burned_identity(self, alice):
        kp, ident = alice
        a = issue_attest(kp, ident)
        b = issue_burn(kp, ident)
        assert a.tid not in resolve(TokenSet([a, b])).tokens

    def test_burn_token_itself_immune(self, alice):
        kp, ident = alice
        b1, b2 = issue_burn(kp, ident), issue_burn(kp, ident)
        clean = resolve(TokenSet([b1, b2]))
        assert b1.tid in clean.tokens and b2.tid in clean.tokens

    def test_burn_by_other_identity_no_effect(self, alice, mallory):
        kp_a, ident_a = alice
        kp_m, ident_m = mallory
        a = issue_attest(kp_a, ident_a)
        assert a.tid in resolve(TokenSet([a, issue_burn(kp_m, ident_m)])).tokens


class TestRevokesMatches:
    def test_constructed_revocation_matches(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a)
        r = issue_revoke(kp_r, ident_r, v)
        assert revokes_matches(r, v)
        assert not revokes_matches(r, a)

    def test_garbled_subject_hash_does_not_match(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a)
        seed = b"\x22" * 32
        crafted = decode(
            oracles.craft_wire(
                seed,
                oracles.standard_claims(
                    seed, "root", "vch:revoke", "jr",
                    sub=v.claims.sub, vch_iss=v.claims.vch_iss, vch_sum="0" * 64,
                    revokes=v.claims.jti,
                ),
            )
        )
        assert not revokes_matches(crafted, v)

    def test_foreign_issuer_does_not_match(self, alice, mallory):
        kp_a, ident_a = alice
        kp_m, ident_m = mallory
        a = issue_attest(kp_a, ident_a)
        own = issue_attest(kp_m, ident_m)
        r = issue_revoke(kp_m, ident_m, own)
        assert not revokes_matches(r, a)


class TestResolve:
    def test_burn_omits_attest(self, alice):
        kp, ident = alice
        a = issue_attest(kp, ident)
        b = issue_burn(kp, ident)
        clean = resolve(TokenSet([a, b]))
        assert kinds(clean) == ["vch:burn"]
        assert clean.burned_identities == {ident.urn}

    def test_revoke_omits_vouch(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a)
        r = issue_revoke(kp_r, ident_r, v)
        clean = resolve(TokenSet([v, r]))
        assert kinds(clean) == ["vch:revoke"]
        assert clean.revoked_statements == {(ident_r.urn, v.claims.jti): r.tid}

    def test_burning_voucher_leaves_subject_untouched(self, alice, root):
        # Hand-computed omission on the 3-token instance: the burn hits only
        # the voucher's statements; the vouched-for attestation is someone
        # else's statement and stays.
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a)
        b = issue_burn(kp_r, ident_r)
        clean = resolve(TokenSet([a, v, b]))
        assert clean.tokens.tids == {a.tid, b.tid}

    def test_burned_revoker_revocation_still_counted(self, alice):
        # The revocation predicate ranges over the valid set, so a burned
        # issuer's revocation still matches -- though everything of that
        # issuer is gone anyway.
        kp, ident = alice
        a = issue_attest(kp, ident)
        r = issue_revoke(kp, ident, a)
        b = issue_burn(kp, ident)
        clean = resolve(TokenSet([a, r, b]))
        assert kinds(clean) == ["vch:burn"]
        assert (ident.urn, a.claims.jti) not in clean.revoked_statements  # burned first

    def test_dangling_revocation_is_inert(self, alice, root):
        kp_r, ident_r = root
        kp_a, ident_a = alice
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a)
        r = issue_revoke(kp_r, ident_r, v)
        clean = resolve(TokenSet([a, r]))  # v itself absent
        assert clean.tokens.tids == {a.tid, r.tid}

    def test_duplicate_statement_disambiguated_by_triple(self, alice):
        kp, ident = alice
        a = issue_attest(kp, ident)
        dup = decode(
            oracles.craft_wire(
                b"\x11" * 32,
                oracles.standard_claims(b"\x11" * 32, "alice", "vch:attest", a.claims.jti, note="x"),
            )
        )
        r = issue_revoke(kp, ident, a)
        clean = resolve(TokenSet([a, dup, r]))
        # Only the hash-committed original is revoked; the duplicate survives.
        assert clean.tokens.tids == {dup.tid, r.tid}


class TestResolveProperties:
    def test_monotonicity_of_omission(self):
        rng = random.Random(7)
        for _ in range(150):
            tokens = generators.random_token_set(rng)
            before = resolve(TokenSet(tokens)).tokens.tids
            kp, ident = generators.POOL[rng.randrange(len(generators.POOL))]
            delegable = [t for t in tokens if t.claims.kind.value in ("vch:attest", "vch:vouch")]
            if rng.random() < 0.5 and delegable:
                target = rng.choice(delegable)
                kp_t, ident_t = generators.POOL_BY_URN[target.claims.iss]
                control = issue_revoke(kp_t, ident_t, target)
            else:
                control = issue_burn(kp, ident)
            after = resolve(TokenSet(tokens + [control])).tokens.tids
            assert after <= before | {control.tid}

    def test_shuffle_determinism(self):
        rng = random.Random(8)
        for _ in range(50):
            tokens = generators.random_token_set(rng)
            base = resolve(TokenSet(tokens))
            for _ in range(3):
                shuffled = tokens[:]
                rng.shuffle(shuffled)
                again = resolve(TokenSet(shuffled))
                assert again.tokens.tids == base.tokens.tids
                assert again.burned_identities == base.burned_identities
                assert again.revoked_statements == base.revoked_statements

    def test_burn_dominance(self):
        rng = random.Random(9)
        for _ in range(100):
            tokens = generators.random_token_set(rng)
            clean = resolve(TokenSet(tokens))
            for t in clean.tokens:
                if t.claims.kind.value != "vch:burn":
                    assert t.claims.iss not in clean.burned_identities

    def test_idempotence(self):
        rng = random.Random(10)
        for _ in range(100):
            tokens = generators.random_token_set(rng)
            once = resolve(TokenSet(tokens))
            twice = resolve(TokenSet(list(once.tokens)))
            assert twice.tokens.tids == once.tokens.tids

    def test_oracle_equivalence_sample(self):
        rng = random.Random(11)
        for _ in range(300):
            tokens = generators.random_token_set(rng)
            got = {t.tid_hex for t in resolve(TokenSet(tokens)).tokens}
            want = oracles.oracle_clean_tids([t.wire for t in tokens])
            assert got == want

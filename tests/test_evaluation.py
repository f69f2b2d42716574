import random

import pytest

import oracles
from vouchsafe import (
    UNCONSTRAINED,
    RejectReason,
    Request,
    Scope,
    TokenSet,
    TrustedPrincipal,
    Verdict,
    enumerate_paths,
    evaluate,
    issue_attest,
    issue_burn,
    issue_revoke,
    issue_vouch,
    path_scope,
    resolve,
    verify,
)

import generators


def clean_of(tokens):
    return resolve(TokenSet(tokens))


def req(subject, required, *roots):
    return Request(
        subject_tid=subject.tid if hasattr(subject, "tid") else subject,
        required=frozenset(required),
        roots=tuple(roots),
    )


class TestPathScope:
    def test_intersection_chain(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)  # no purpose: unconstrained terminal
        v = issue_vouch(kp_r, ident_r, a, purpose="read")
        principal = TrustedPrincipal(ident_r.urn, Scope.of("read", "write"))
        assert path_scope(principal, [v, a]) == Scope.of("read")

    def test_zero_length_path(self, alice):
        kp, ident = alice
        a = issue_attest(kp, ident, purpose="admin")
        principal = TrustedPrincipal(ident.urn, UNCONSTRAINED)
        assert path_scope(principal, [a]) == Scope.of("admin")

    def test_disjoint_intersection_is_empty(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a, purpose="write")
        principal = TrustedPrincipal(ident_r.urn, Scope.of("read"))
        assert path_scope(principal, [v, a]) == Scope.of()

    def test_rejects_non_edge_pair(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a1 = issue_attest(kp_a, ident_a)
        a2 = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a1)
        with pytest.raises(ValueError):
            path_scope(TrustedPrincipal(ident_r.urn, UNCONSTRAINED), [v, a2])

    def test_rejects_wrong_root(self, alice, root):
        kp_a, ident_a = alice
        _, ident_r = root
        a = issue_attest(kp_a, ident_a)
        with pytest.raises(ValueError):
            path_scope(TrustedPrincipal(ident_r.urn, UNCONSTRAINED), [a])

    def test_rejects_empty_path(self, root):
        _, ident_r = root
        with pytest.raises(ValueError):
            path_scope(TrustedPrincipal(ident_r.urn, UNCONSTRAINED), [])


class TestEvaluate:
    def test_two_token_chain_accepts(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a, purpose="read")
        principal = TrustedPrincipal(ident_r.urn, Scope.of("read", "write"))
        d = evaluate(clean_of([a, v]), req(a, {"read"}, principal))
        assert d.verdict is Verdict.ACCEPT
        assert [t.tid for t in d.witness.path] == [v.tid, a.tid]
        assert d.witness.effective_scope == Scope.of("read")

    def test_same_chain_rejects_write(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a, purpose="read")
        principal = TrustedPrincipal(ident_r.urn, Scope.of("read", "write"))
        d = evaluate(clean_of([a, v]), req(a, {"write"}, principal))
        assert d.verdict is Verdict.REJECT
        assert d.reason is RejectReason.SCOPE_INSUFFICIENT

    def test_zero_length_path_empty_required(self, root):
        kp_r, ident_r = root
        a = issue_attest(kp_r, ident_r)
        d = evaluate(clean_of([a]), req(a, set(), TrustedPrincipal(ident_r.urn, Scope.of("read"))))
        assert d.verdict is Verdict.ACCEPT
        assert len(d.witness.path) == 1

    def test_subject_never_present(self, root):
        kp_r, ident_r = root
        a = issue_attest(kp_r, ident_r)
        d = evaluate(clean_of([a]), req(b"\x99" * 32, set(), TrustedPrincipal(ident_r.urn, UNCONSTRAINED)))
        assert d.reason is RejectReason.SUBJECT_NOT_IN_CLEAN_SET

    def test_revoked_subject(self, root):
        kp_r, ident_r = root
        a = issue_attest(kp_r, ident_r)
        r = issue_revoke(kp_r, ident_r, a)
        d = evaluate(clean_of([a, r]), req(a, set(), TrustedPrincipal(ident_r.urn, UNCONSTRAINED)))
        assert d.reason is RejectReason.SUBJECT_NOT_IN_CLEAN_SET

    def test_burned_subject(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a)
        b = issue_burn(kp_a, ident_a)
        d = evaluate(clean_of([a, v, b]), req(a, set(), TrustedPrincipal(ident_r.urn, UNCONSTRAINED)))
        assert d.reason is RejectReason.SUBJECT_NOT_IN_CLEAN_SET

    def test_control_token_subject_is_not_evaluable(self, root):
        # Burn/revoke tokens are never graph nodes; asking about one lands in
        # the same bucket as an absent subject.
        kp_r, ident_r = root
        b = issue_burn(kp_r, ident_r)
        d = evaluate(clean_of([b]), req(b, set(), TrustedPrincipal(ident_r.urn, UNCONSTRAINED)))
        assert d.reason is RejectReason.SUBJECT_NOT_IN_CLEAN_SET

    def test_no_rooted_path_early_rejection(self, alice, root):
        kp_a, ident_a = alice
        _, ident_r = root
        a = issue_attest(kp_a, ident_a)
        d = evaluate(clean_of([a]), req(a, set(), TrustedPrincipal(ident_r.urn, UNCONSTRAINED)))
        assert d.reason is RejectReason.NO_ROOTED_PATH

    def test_no_cross_path_amplification(self, alice, root, mallory):
        # Two paths each granting one of {read, write}: the pair must reject,
        # because scopes are never unioned across paths.
        kp_a, ident_a = alice
        kp_r, ident_r = root
        kp_m, ident_m = mallory
        a = issue_attest(kp_a, ident_a)
        v_read = issue_vouch(kp_r, ident_r, a, purpose="read")
        v_write = issue_vouch(kp_m, ident_m, a, purpose="write")
        roots = (
            TrustedPrincipal(ident_r.urn, UNCONSTRAINED),
            TrustedPrincipal(ident_m.urn, UNCONSTRAINED),
        )
        d = evaluate(clean_of([a, v_read, v_write]), req(a, {"read", "write"}, *roots))
        assert d.verdict is Verdict.REJECT
        assert d.reason is RejectReason.SCOPE_INSUFFICIENT
        # A single path carrying both labels accepts.
        v_both = issue_vouch(kp_r, ident_r, a, purpose="read write")
        d2 = evaluate(clean_of([a, v_both]), req(a, {"read", "write"}, *roots))
        assert d2.verdict is Verdict.ACCEPT

    def test_empty_required_accepts_via_empty_scope_path(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a, purpose="read")
        v = issue_vouch(kp_r, ident_r, a, purpose="write")  # effective scope empty
        d = evaluate(clean_of([a, v]), req(a, set(), TrustedPrincipal(ident_r.urn, UNCONSTRAINED)))
        assert d.verdict is Verdict.ACCEPT
        assert d.witness.effective_scope == Scope.of()

    def test_witness_prefers_shortest_then_lex(self, alice, root, mallory):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        kp_m, ident_m = mallory
        a = issue_attest(kp_a, ident_a)
        v1 = issue_vouch(kp_r, ident_r, a, purpose="read")
        v2 = issue_vouch(kp_m, ident_m, a, purpose="read")
        long_chain = issue_vouch(kp_r, ident_r, v2, purpose="read")
        roots = (
            TrustedPrincipal(ident_r.urn, UNCONSTRAINED),
            TrustedPrincipal(ident_m.urn, UNCONSTRAINED),
        )
        d = evaluate(clean_of([a, v1, v2, long_chain]), req(a, {"read"}, *roots))
        assert d.verdict is Verdict.ACCEPT
        assert len(d.witness.path) == 2  # shortest wins over the 3-node chain
        assert d.witness.path[0].tid == min(v1.tid, v2.tid)  # lex tie-break

    def test_max_depth_bounds_search(self, alice, root, mallory):
        # Only the head of a 5-edge chain is rooted; a shallow search cannot
        # reach it and must reject, the full search accepts.
        kp_a, ident_a = alice
        kp_r, ident_r = root
        kp_m, ident_m = mallory
        chain = [issue_attest(kp_a, ident_a)]
        for _ in range(4):
            chain.append(issue_vouch(kp_m, ident_m, chain[-1]))
        chain.append(issue_vouch(kp_r, ident_r, chain[-1]))
        principal = TrustedPrincipal(ident_r.urn, UNCONSTRAINED)
        subject = chain[0]
        full = evaluate(clean_of(chain), req(subject, set(), principal))
        assert full.verdict is Verdict.ACCEPT
        assert len(full.witness.path) == 6
        shallow = evaluate(clean_of(chain), req(subject, set(), principal), max_depth=3)
        assert shallow.verdict is Verdict.REJECT
        assert shallow.reason is RejectReason.NO_ROOTED_PATH

    def test_depth_limited_chain(self, alice, root, mallory):
        # A 70-edge chain rooted only at its head: the default depth cannot
        # reach the root and says so; a deep enough search accepts.
        kp_a, ident_a = alice
        kp_r, ident_r = root
        kp_m, ident_m = mallory
        chain = [issue_attest(kp_a, ident_a)]
        for _ in range(69):
            chain.append(issue_vouch(kp_m, ident_m, chain[-1]))
        chain.append(issue_vouch(kp_r, ident_r, chain[-1]))
        clean = clean_of(chain)
        request = req(chain[0], set(), TrustedPrincipal(ident_r.urn, UNCONSTRAINED))
        bounded = evaluate(clean, request)
        assert bounded.verdict is Verdict.REJECT
        assert bounded.reason is RejectReason.NO_ROOTED_PATH
        assert bounded.depth_limited
        deep = evaluate(clean, request, max_depth=100)
        assert deep.verdict is Verdict.ACCEPT
        assert len(deep.witness.path) == 71
        # Cut exactly at the head, where no voucher is left unexplored.
        narrow = req(chain[0], {"read"}, TrustedPrincipal(ident_r.urn, Scope.of("write")))
        exact = evaluate(clean, narrow, max_depth=70)
        assert exact.reason is RejectReason.SCOPE_INSUFFICIENT
        assert not exact.depth_limited

    def test_reason_and_witness_match_oracle(self):
        rng = random.Random(46)
        for i in range(2000):
            if i % 8 < 4:
                tokens = generators.random_token_set(rng)
            else:
                tokens = generators.random_delegation_tree(rng)
            roots_raw = generators.random_roots(rng)
            roots = generators.as_principals(roots_raw)
            required = generators.random_required(rng)
            subject_tid = generators.random_subject_tid(rng, tokens)
            max_depth = (0, 1, 2, 64)[i % 4]
            d = evaluate(clean_of(tokens), Request(subject_tid, required, roots), max_depth=max_depth)
            want = oracles.oracle_decision(
                [t.wire for t in tokens], subject_tid.hex(), roots_raw, required, max_depth
            )
            assert d.verdict.value == want["verdict"]
            if d.verdict is Verdict.ACCEPT:
                assert [t.tid_hex for t in d.witness.path] == want["path"]
                assert d.witness.root == roots[want["root"]]
                assert d.witness.effective_scope.labels == want["effective_scope"]
            else:
                assert d.reason.value == want["reason"]
                assert d.depth_limited == want["depth_limited"]

    def test_witness_is_first_covering_explain_entry(self):
        rng = random.Random(47)
        for i in range(1200):
            if i % 8 < 4:
                tokens = generators.random_token_set(rng)
            else:
                tokens = generators.random_delegation_tree(rng)
            roots = generators.as_principals(generators.random_roots(rng))
            required = generators.random_required(rng)
            request = Request(generators.random_subject_tid(rng, tokens), required, roots)
            max_depth = (0, 1, 2, 64)[i % 4]
            clean = clean_of(tokens)
            d = evaluate(clean, request, max_depth=max_depth)
            report = enumerate_paths(
                clean, request, limit=len(tokens) * len(roots) + 1, max_depth=max_depth
            )
            assert not report.truncated
            covering = [e for e in report.entries if e.effective_scope.covers(required)]
            if d.verdict is Verdict.ACCEPT:
                assert d.witness == covering[0]
            else:
                assert covering == []
                assert bool(report.entries) == (d.reason is RejectReason.SCOPE_INSUFFICIENT)

    def test_witness_soundness(self):
        rng = random.Random(41)
        for _ in range(60):
            tokens, chain, subject, required, roots = generators.accepting_instance(rng)
            d = evaluate(clean_of(tokens), req(subject, required, *generators.as_principals(roots)))
            assert d.verdict is Verdict.ACCEPT
            w = d.witness
            for t in w.path:
                assert verify(t).ok
            recomputed = path_scope(w.root, w.path)
            assert recomputed == w.effective_scope
            assert recomputed.covers(frozenset(required))

    def test_shuffle_and_thread_invariance(self, alice, root):
        rng = random.Random(42)
        for _ in range(40):
            tokens, chain, subject, required, roots = generators.accepting_instance(rng)
            base = evaluate(clean_of(tokens), req(subject, required, *generators.as_principals(roots)))
            for _ in range(3):
                shuffled = tokens[:]
                rng.shuffle(shuffled)
                d = evaluate(clean_of(shuffled), req(subject, required, *generators.as_principals(roots)))
                assert d.verdict == base.verdict
                assert [t.tid for t in d.witness.path] == [t.tid for t in base.witness.path]


class TestGraphReuse:
    def test_one_graph_build_per_clean_set(self, alice, root, graph_builds):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a, purpose="read")
        clean = clean_of([a, v])
        principal = TrustedPrincipal(ident_r.urn, UNCONSTRAINED)
        verdicts = [
            evaluate(clean, req(a, required, principal)).verdict
            for required in ({"read"}, {"write"}, set()) * 3
        ]
        assert verdicts == [Verdict.ACCEPT, Verdict.REJECT, Verdict.ACCEPT] * 3
        assert len(enumerate_paths(clean, req(a, set(), principal)).entries) == 1
        assert len(graph_builds) == 1 and graph_builds[0] is clean


class TestAttenuation:
    def test_extension_never_grows_scope(self):
        rng = random.Random(43)
        for _ in range(80):
            tokens, chain, subject, required, roots = generators.accepting_instance(rng)
            principal = generators.as_principals(roots)[0]
            # Compare every suffix path against its one-step extension.
            for cut in range(1, len(chain)):
                shorter = chain[cut:]
                longer = chain[cut - 1 :]
                if shorter[0].claims.iss != principal.identity:
                    continue
                s_short = path_scope(TrustedPrincipal(shorter[0].claims.iss, UNCONSTRAINED), shorter)
                s_long = path_scope(TrustedPrincipal(longer[0].claims.iss, UNCONSTRAINED), longer)
                if s_short.unconstrained:
                    continue
                assert s_long.unconstrained is False or s_long.labels is None
                if not s_long.unconstrained:
                    assert s_long.labels <= s_short.labels


class TestMonotonicityEndToEnd:
    def test_adding_control_token_never_flips_reject_to_accept(self):
        rng = random.Random(44)
        checked = 0
        while checked < 60:
            tokens = generators.random_token_set(rng)
            roots = generators.as_principals(generators.random_roots(rng))
            required = generators.random_required(rng)
            subject_tid = generators.random_subject_tid(rng, tokens)
            before = evaluate(clean_of(tokens), Request(subject_tid, required, roots))
            if before.verdict is not Verdict.REJECT:
                continue
            checked += 1
            kp, ident = generators.POOL[rng.randrange(len(generators.POOL))]
            delegable = [t for t in tokens if t.claims.kind.value in ("vch:attest", "vch:vouch")]
            if delegable and rng.random() < 0.5:
                target = rng.choice(delegable)
                kp_t, ident_t = generators.POOL_BY_URN[target.claims.iss]
                control = issue_revoke(kp_t, ident_t, target)
            else:
                control = issue_burn(kp, ident)
            after = evaluate(clean_of(tokens + [control]), Request(subject_tid, required, roots))
            assert after.verdict is Verdict.REJECT

    def test_removing_a_revocation_can_restore_acceptance(self, alice, root):
        # Documented consequence of proof-of-omission: suppressing a control
        # token re-enables the statement it retracted.  This is why bundle
        # distribution matters operationally.
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a, purpose="read")
        rv = issue_revoke(kp_r, ident_r, v)
        principal = TrustedPrincipal(ident_r.urn, UNCONSTRAINED)
        with_revocation = evaluate(clean_of([a, v, rv]), req(a, {"read"}, principal))
        without = evaluate(clean_of([a, v]), req(a, {"read"}, principal))
        assert with_revocation.verdict is Verdict.REJECT
        assert without.verdict is Verdict.ACCEPT


class TestEnumeratePaths:
    def _diamond(self, alice, root, mallory):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        kp_m, ident_m = mallory
        a = issue_attest(kp_a, ident_a)
        v1 = issue_vouch(kp_r, ident_r, a, purpose="read")
        v2 = issue_vouch(kp_m, ident_m, a, purpose="write")
        roots = (
            TrustedPrincipal(ident_r.urn, UNCONSTRAINED),
            TrustedPrincipal(ident_m.urn, UNCONSTRAINED),
        )
        return [a, v1, v2], (v1, v2), roots, a

    def test_diamond_reports_two_paths(self, alice, root, mallory):
        tokens, (v1, v2), roots, a = self._diamond(alice, root, mallory)
        report = enumerate_paths(clean_of(tokens), req(a, set(), *roots))
        assert len(report.entries) == 2
        assert not report.truncated
        scopes = {e.path[0].tid: e.effective_scope for e in report.entries}
        assert scopes[v1.tid] == Scope.of("read")
        assert scopes[v2.tid] == Scope.of("write")

    def test_limit_truncates(self, alice, root, mallory):
        tokens, _, roots, a = self._diamond(alice, root, mallory)
        report = enumerate_paths(clean_of(tokens), req(a, set(), *roots), limit=1)
        assert len(report.entries) == 1
        assert report.truncated

    def test_no_rooted_paths_empty_report(self, alice, root):
        kp_a, ident_a = alice
        _, ident_r = root
        a = issue_attest(kp_a, ident_a)
        report = enumerate_paths(clean_of([a]), req(a, set(), TrustedPrincipal(ident_r.urn, UNCONSTRAINED)))
        assert report.entries == () and not report.truncated

    def test_ordering_by_length_then_tid(self, alice, root, mallory):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        kp_m, ident_m = mallory
        a = issue_attest(kp_a, ident_a)
        v1 = issue_vouch(kp_r, ident_r, a)
        v2 = issue_vouch(kp_m, ident_m, v1)
        roots = (
            TrustedPrincipal(ident_r.urn, UNCONSTRAINED),
            TrustedPrincipal(ident_m.urn, UNCONSTRAINED),
            TrustedPrincipal(ident_a.urn, UNCONSTRAINED),
        )
        report = enumerate_paths(clean_of([a, v1, v2]), req(a, set(), *roots))
        lengths = [len(e.path) for e in report.entries]
        assert lengths == sorted(lengths)
        assert lengths == [1, 2, 3]

    def test_oracle_agreement_on_random_instances(self):
        rng = random.Random(45)
        for _ in range(150):
            tokens = generators.random_token_set(rng)
            roots_raw = generators.random_roots(rng)
            required = generators.random_required(rng)
            subject_tid = generators.random_subject_tid(rng, tokens)
            d = evaluate(
                clean_of(tokens),
                Request(subject_tid, required, generators.as_principals(roots_raw)),
            )
            want = oracles.oracle_accepts(
                [t.wire for t in tokens], subject_tid.hex(), roots_raw, required
            )
            assert (d.verdict is Verdict.ACCEPT) == want

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vouchsafe import (
    UNCONSTRAINED,
    CapabilityGraph,
    RejectReason,
    Request,
    Scope,
    TokenKind,
    TokenSet,
    TrustedPrincipal,
    build_graph,
    decode,
    enumerate_paths,
    evaluate,
    issue_attest,
    issue_burn,
    issue_revoke,
    issue_vouch,
    parse_scope,
    resolve,
)

import generators

scopes = st.one_of(
    st.none().map(lambda _: UNCONSTRAINED),
    st.frozensets(st.sampled_from(["a", "b", "c", "d"]), max_size=4).map(
        lambda labels: Scope(labels=labels)
    ),
)


class TestParseScope:
    def test_two_labels(self):
        assert parse_scope("read write").labels == frozenset({"read", "write"})

    def test_absent_is_unconstrained(self):
        assert parse_scope(None).unconstrained

    def test_dedupe_and_trim(self):
        assert parse_scope("  read  read ").labels == frozenset({"read"})

    def test_blank_is_empty_not_unconstrained(self):
        s = parse_scope("")
        assert not s.unconstrained and s.labels == frozenset()


class TestScopeAlgebra:
    def test_unconstrained_is_identity(self):
        s = Scope.of("read")
        assert UNCONSTRAINED.intersect(s) == s
        assert s.intersect(UNCONSTRAINED) == s

    @given(a=scopes, b=scopes)
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(a=scopes, b=scopes, c=scopes)
    @settings(max_examples=60, deadline=None)
    def test_associative(self, a, b, c):
        assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))

    @given(a=scopes)
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, a):
        assert a.intersect(a) == a

    @given(a=scopes, req=st.frozensets(st.sampled_from(["a", "b", "c"]), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_covers_definition(self, a, req):
        if a.unconstrained:
            assert a.covers(req)
        else:
            assert a.covers(req) == (req <= a.labels)

    def test_empty_required_always_covered(self):
        assert Scope.of().covers(frozenset())
        assert UNCONSTRAINED.covers(frozenset())


class TestBuildGraph:
    def test_two_nodes_one_labeled_edge(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a, purpose="read")
        g = build_graph(resolve(TokenSet([a, v])))
        assert set(g.nodes) == {a.tid, v.tid}
        assert g.edges == {v.tid: (a.tid, Scope.of("read"))}
        assert g.reverse_edges == {a.tid: [v.tid]}

    def test_dangling_vouch_is_isolated(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a)
        g = build_graph(resolve(TokenSet([v])))
        assert set(g.nodes) == {v.tid}
        assert g.edges == {}

    def test_control_tokens_are_not_nodes(self, alice):
        kp, ident = alice
        a = issue_attest(kp, ident)
        r = issue_revoke(kp, ident, a)
        clean = resolve(TokenSet([r, issue_burn(*generators.POOL[4])]))
        g = build_graph(clean)
        assert g.nodes == {}

    def test_duplicate_jti_edge_targets_hash_match(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        dup = decode(
            oracles.craft_wire(
                b"\x11" * 32,
                oracles.standard_claims(b"\x11" * 32, "alice", "vch:attest", a.claims.jti, n="2"),
            )
        )
        v = issue_vouch(kp_r, ident_r, dup)
        g = build_graph(resolve(TokenSet([a, dup, v])))
        assert g.edges[v.tid][0] == dup.tid

    def test_hash_mismatch_diagnostic(self, alice, root):
        kp_a, ident_a = alice
        a = issue_attest(kp_a, ident_a)
        seed = b"\x22" * 32
        forged = decode(
            oracles.craft_wire(
                seed,
                oracles.standard_claims(
                    seed, "root", "vch:vouch", "jv",
                    sub=a.claims.jti, vch_iss=ident_a.urn, vch_sum="0" * 64,
                ),
            )
        )
        g = build_graph(resolve(TokenSet([a, forged])))
        assert g.edges == {}
        assert len(g.diagnostics) == 1

    def test_vouch_scope_on_edge_unconstrained_when_absent(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a)  # no purpose
        g = build_graph(resolve(TokenSet([a, v])))
        assert g.edges[v.tid][1].unconstrained


class TestGraphProperties:
    def test_dump_deterministic_under_shuffle(self):
        rng = random.Random(21)
        for _ in range(40):
            tokens = generators.random_token_set(rng)
            base = build_graph(resolve(TokenSet(tokens))).dump()
            shuffled = tokens[:]
            rng.shuffle(shuffled)
            assert build_graph(resolve(TokenSet(shuffled))).dump() == base

    def test_monotonicity_under_removal(self):
        rng = random.Random(22)
        for _ in range(60):
            tokens = generators.random_token_set(rng)
            g = build_graph(resolve(TokenSet(tokens)))
            victim = rng.choice(tokens)
            g2 = build_graph(resolve(TokenSet([t for t in tokens if t.tid != victim.tid])))
            # Control-token removal can resurrect omitted statements, so only
            # check the pure-removal direction for non-control victims.
            if victim.claims.kind in (TokenKind.ATTEST, TokenKind.VOUCH):
                assert set(g2.nodes) == set(g.nodes) - {victim.tid}
                expected_edges = {
                    src: (dst, scope)
                    for src, (dst, scope) in g.edges.items()
                    if src != victim.tid and dst != victim.tid
                }
                assert g2.edges == expected_edges

    def test_edge_count_bounded_by_vouch_count(self):
        rng = random.Random(23)
        for _ in range(80):
            g = build_graph(resolve(TokenSet(generators.random_token_set(rng))))
            vouches = sum(1 for t in g.nodes.values() if t.claims.kind is TokenKind.VOUCH)
            assert len(g.edges) <= vouches

    def test_acyclic_on_random_corpora(self):
        rng = random.Random(24)
        for _ in range(200):
            g = build_graph(resolve(TokenSet(generators.random_token_set(rng))))
            # Out-degree <= 1, so a cycle would keep this walk going forever.
            for tid in g.nodes:
                hops = 0
                while tid in g.edges:
                    tid, hops = g.edges[tid][0], hops + 1
                    assert hops <= len(g.nodes)


def test_planted_cycle_walks_terminate(alice, root):
    # Real cycles need a SHA-256 fixpoint, so the builder has no cycle check;
    # plant one in the graph's fields and check every walk is still bounded.
    kp_a, ident_a = alice
    kp_r, ident_r = root
    a = issue_attest(kp_a, ident_a)
    v = issue_vouch(kp_r, ident_r, a)
    clean = resolve(TokenSet([a, v]))
    vars(clean)["graph"] = CapabilityGraph(
        nodes={a.tid: a, v.tid: v},
        edges={v.tid: (a.tid, UNCONSTRAINED), a.tid: (v.tid, UNCONSTRAINED)},
        reverse_edges={a.tid: [v.tid], v.tid: [a.tid]},
    )
    roots = (TrustedPrincipal(ident_r.urn, UNCONSTRAINED),)
    for max_depth in (0, 5, 64):
        for subject in (a, v):
            request = Request(subject.tid, frozenset(), roots)
            decision = evaluate(clean, request, max_depth=max_depth)
            report = enumerate_paths(clean, request, max_depth=max_depth)
            assert len(report.entries) <= max_depth // 2 + 1
            if subject is v:
                assert [t.tid for t in decision.witness.path] == [v.tid]
            elif max_depth == 0:
                assert decision.reason is RejectReason.NO_ROOTED_PATH and decision.depth_limited
            else:
                assert [t.tid for t in decision.witness.path] == [v.tid, a.tid]

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
    filter_valid,
    issue_attest,
    issue_burn,
    issue_revoke,
    issue_vouch,
    parse_scope,
    path_scope,
    resolve,
    verify,
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

    @staticmethod
    def _forged_vouch(alice):
        """An attest, and a vouch naming its (issuer, jti) with a wrong ``vch_sum``."""
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
        return a, forged

    def test_hash_mismatch_diagnostic(self, alice):
        a, forged = self._forged_vouch(alice)
        g = build_graph(resolve(TokenSet([a, forged])))
        assert g.edges == {}
        assert g.diagnostics == [(forged.tid, a.tid)]

    def test_hand_built_graph_has_no_diagnostics(self, alice):
        """A graph built without :func:`build_graph` has no resolved set to
        draw candidates from, so even its edgeless vouch reads no near-miss."""
        a, forged = self._forged_vouch(alice)
        g = CapabilityGraph(
            nodes={a.tid: a, forged.tid: forged},
            scopes={a.tid: UNCONSTRAINED, forged.tid: UNCONSTRAINED},
        )
        assert g.diagnostics == []

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


def _non_canonical(rng: random.Random, tid_hex: str) -> str:
    """Spellings of a tid that ``bytes.fromhex`` reads as the same bytes."""
    variants = [tid_hex.upper(), tid_hex[:32] + tid_hex[32:].upper(), tid_hex + "\n", " " + tid_hex,
                tid_hex + " ", "\t" + tid_hex + "\n"]
    return rng.choice([v for v in variants if v != tid_hex])


def _with_non_canonical_vouches(rng: random.Random, shared_ids: bool = False):
    """An unfiltered random set (as handed to ``resolve`` directly) holding an
    attest, and apart from it 1-3 vouches whose ``vch_sum`` spells the tid of
    one of its tokens, of any kind, non-canonically, and an attest carrying a
    ``vch_iss`` whose (``vch_iss``, ``sub``) names one of its tokens: an
    attest is no vouch, so it yields no near-miss."""
    tokens = generators.random_token_set(rng, shared_ids=shared_ids)
    tokens.append(generators.craft(rng, generators.POOL[0][1].urn, oracles.ATTEST))
    named = rng.choice(tokens)
    issuer = rng.choice([ident.urn for _, ident in generators.POOL if ident.urn != named.claims.iss])
    crafted = [generators.craft(
        rng, issuer, oracles.ATTEST, jti=named.claims.jti, vch_iss=named.claims.iss,
    )]
    for _ in range(rng.randint(1, 3)):
        subject = rng.choice(tokens)
        _, ident = generators.POOL[rng.randrange(len(generators.POOL))]
        crafted.append(generators.craft(
            rng, ident.urn, oracles.VOUCH, sub=subject.claims.jti, vch_iss=subject.claims.iss,
            vch_sum=_non_canonical(rng, subject.tid_hex),
        ))
    return tokens, crafted


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_edges_are_exactly_path_scope_links(seed):
    """A vouch whose ``vch_sum`` spells its subject's tid non-canonically gets
    no edge, and its near-misses are exactly the oracle's; every edge's
    two-node path is a delegation link that ``path_scope`` accepts."""
    tokens, crafted = _with_non_canonical_vouches(random.Random(seed))
    g = build_graph(resolve(TokenSet(tokens + crafted)))
    for src, (dst, _) in g.edges.items():
        voucher = g.nodes[src]
        path_scope(TrustedPrincipal(voucher.claims.iss, UNCONSTRAINED), [voucher, g.nodes[dst]])
    expected = oracles.oracle_near_misses([t.wire for t in tokens + crafted])
    for v in crafted:
        assert v.tid not in g.edges
        assert [(a.hex(), b.hex()) for a, b in g.diagnostics if a == v.tid] == [
            pair for pair in expected if pair[0] == v.tid_hex
        ]


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_diagnostics_equal_the_near_miss_oracle(seed):
    """On sets dense in shared (issuer, jti) ids, with non-canonical vouches
    naming any kind of token, the near-misses are the oracle's, entry for
    entry and in order."""
    tokens, crafted = _with_non_canonical_vouches(random.Random(seed), shared_ids=True)
    g = build_graph(resolve(TokenSet(tokens + crafted)))
    got = [(a.hex(), b.hex()) for a, b in g.diagnostics]
    assert got == oracles.oracle_near_misses([t.wire for t in tokens + crafted])


def test_newline_vch_sum_vouch_is_invalid_and_rejects():
    (kp_s, ident_s), (_, ident_r) = generators.POOL[1], generators.POOL[0]
    subject = issue_attest(kp_s, ident_s)
    vouch = generators.craft(
        random.Random(3), ident_r.urn, oracles.VOUCH, sub=subject.claims.jti,
        vch_iss=ident_s.urn, vch_sum=subject.tid_hex + "\n",
    )
    assert verify(vouch).reasons == ("schema:vch-sum-not-hex64",)
    valid, rejected = filter_valid(TokenSet([subject, vouch]))
    assert [r.token for r in rejected] == [vouch]
    request = Request(subject.tid, frozenset(), (TrustedPrincipal(ident_r.urn, UNCONSTRAINED),))
    assert evaluate(resolve(valid), request).reason is RejectReason.NO_ROOTED_PATH


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
        scopes={a.tid: UNCONSTRAINED, v.tid: UNCONSTRAINED},
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

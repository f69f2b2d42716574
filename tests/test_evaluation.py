import dataclasses
import random

import pytest

import oracles
from vouchsafe import (
    UNCONSTRAINED,
    CapabilityGraph,
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
from vouchsafe.evaluation import _walk


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


class TestSharedRejects:
    """A REJECT carries no witness, so every one with the same reason and
    depth flag is one shared, frozen Decision; callers compare with ==."""

    def _pairs(self, alice, root, mallory):
        """Per (reason, depth_limited), two different requests that give it."""
        kp_a, ident_a = alice
        kp_r, ident_r = root
        kp_m, ident_m = mallory
        a = issue_attest(kp_a, ident_a, purpose="read")
        lone = issue_attest(kp_m, ident_m)
        v = issue_vouch(kp_r, ident_r, a, purpose="read")
        x = issue_attest(kp_r, ident_r, purpose="read")  # rooted itself, with a voucher
        vx = issue_vouch(kp_m, ident_m, x)
        clean = clean_of([a, lone, v, x, vx])
        r = TrustedPrincipal(ident_r.urn, UNCONSTRAINED)

        def ask(subject, required, **kw):
            return evaluate(clean, req(subject, required, r), **kw)

        return {
            (RejectReason.SUBJECT_NOT_IN_CLEAN_SET, False): (ask(b"\x98" * 32, set()), ask(b"\x99" * 32, {"read"})),
            (RejectReason.NO_ROOTED_PATH, False): (ask(lone, set()), ask(lone, {"read"})),
            (RejectReason.SCOPE_INSUFFICIENT, False): (ask(a, {"write"}), ask(a, {"read", "write"})),
            (RejectReason.NO_ROOTED_PATH, True): (ask(a, set(), max_depth=0), ask(a, {"write"}, max_depth=0)),
            (RejectReason.SCOPE_INSUFFICIENT, True): (ask(x, {"write"}, max_depth=0), ask(x, {"admin"}, max_depth=0)),
        }

    def test_same_reason_and_depth_flag_is_one_object(self, alice, root, mallory):
        for (reason, limited), (d1, d2) in self._pairs(alice, root, mallory).items():
            assert (d1.verdict, d1.reason, d1.depth_limited, d1.witness) == (Verdict.REJECT, reason, limited, None)
            assert d1 is d2, (reason, limited)

    def test_shared_reject_is_frozen(self, alice, root, mallory):
        for d, _ in self._pairs(alice, root, mallory).values():
            with pytest.raises(dataclasses.FrozenInstanceError):
                d.reason = RejectReason.SCOPE_INSUFFICIENT
            with pytest.raises(dataclasses.FrozenInstanceError):
                d.depth_limited = not d.depth_limited

    def test_replace_returns_new_decision(self, alice, root, mallory):
        shared, _ = self._pairs(alice, root, mallory)[RejectReason.NO_ROOTED_PATH, False]
        changed = dataclasses.replace(shared, depth_limited=True, reason=RejectReason.SCOPE_INSUFFICIENT)
        assert changed is not shared and changed != shared
        assert (shared.reason, shared.depth_limited) == (RejectReason.NO_ROOTED_PATH, False)
        again, _ = self._pairs(alice, root, mallory)[RejectReason.NO_ROOTED_PATH, False]
        assert again is shared


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


def _shared_identity_roots(rng, tokens):
    """Random roots plus, for one identity among them, extra roots of other
    scopes, so several roots share that identity."""
    roots_raw = generators.random_roots(rng)
    urn = rng.choice([rng.choice(tokens).claims.iss, roots_raw[0][0]])
    for _ in range(rng.randint(1, 3)):
        roots_raw.insert(rng.randint(0, len(roots_raw)), (urn, generators.random_roots(rng)[0][1]))
    return generators.as_principals(roots_raw)


class TestScopesFromGraph:
    """Witness and explain scopes come from the graph's parsed edges and node
    scopes; ``path_scope`` over the tokens alone is the oracle for them."""

    def test_every_entry_and_witness_scope_equals_path_scope(self):
        rng = random.Random(48)
        shared = truncated = accepted = 0
        for i in range(600):
            if i % 2:
                tokens = generators.random_token_set(rng)
            else:
                tokens = generators.random_delegation_tree(rng)
            subject_tid = generators.random_subject_tid(rng, tokens)
            roots = _shared_identity_roots(rng, tokens)
            request = Request(subject_tid, generators.random_required(rng), roots)
            clean = clean_of(tokens)
            max_depth = (1, 2, 64)[i % 3]
            d = evaluate(clean, request, max_depth=max_depth)
            if d.verdict is Verdict.ACCEPT:
                accepted += 1
                assert d.witness.effective_scope == path_scope(d.witness.root, d.witness.path)
            report = enumerate_paths(clean, request, limit=rng.randint(1, 6), max_depth=max_depth)
            truncated += report.truncated
            for entry in report.entries:
                assert entry.effective_scope == path_scope(entry.root, entry.path)
            issuers = [e.root.identity for e in report.entries]
            shared += len(issuers) != len(set(issuers))
        assert min(shared, truncated, accepted) >= 20

    def test_requests_parse_no_scope_and_never_call_path_scope(self, monkeypatch):
        import vouchsafe.evaluation
        import vouchsafe.graph

        rng = random.Random(49)
        cases = []
        for _ in range(40):
            tokens = generators.random_delegation_tree(rng, size=24)
            requests = [
                Request(
                    generators.random_subject_tid(rng, tokens),
                    generators.random_required(rng),
                    _shared_identity_roots(rng, tokens),
                )
                for _ in range(15)
            ]
            clean = clean_of(tokens)
            want = [(evaluate(clean, r), enumerate_paths(clean, r, limit=4)) for r in requests]
            cases.append((tokens, requests, want))

        def no_path_scope(root, path):
            raise AssertionError("path_scope called on the request path")

        parsed = []
        real_parse = vouchsafe.graph.parse_scope

        def counted_parse(purpose):
            parsed.append(purpose)
            return real_parse(purpose)

        monkeypatch.setattr(vouchsafe.evaluation, "path_scope", no_path_scope)
        monkeypatch.setattr(vouchsafe.graph, "parse_scope", counted_parse)
        monkeypatch.setattr(vouchsafe.evaluation, "parse_scope", counted_parse)
        for tokens, requests, want in cases:
            clean = clean_of(tokens)
            parsed.clear()
            got = [(evaluate(clean, r), enumerate_paths(clean, r, limit=4)) for r in requests]
            assert got == want
            # The graph build parsed each distinct purpose once; requests parse none.
            assert len(parsed) == len(set(parsed)) <= len(clean.graph.nodes)
            built = len(parsed)
            for r in requests * 3:
                evaluate(clean, r)
                enumerate_paths(clean, r)
            assert len(parsed) == built

    def test_cli_evaluate_parses_each_purpose_once(self, tmp_path, monkeypatch, capsys):
        """``vouchsafe evaluate`` prints witness scopes from the graph: over a
        whole run, human or ``--json``, no purpose is parsed twice."""
        import json
        import sys

        import vouchsafe.graph
        from vouchsafe.cli import main

        parsed = []
        real_parse = vouchsafe.graph.parse_scope

        def counted_parse(purpose):
            parsed.append(purpose)
            return real_parse(purpose)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "vouchsafe" and getattr(module, "parse_scope", None) is real_parse:
                monkeypatch.setattr(module, "parse_scope", counted_parse)
        rng = random.Random(50)
        chained = 0
        for i in range(12):
            tokens, chain, subject, required, roots = generators.accepting_instance(rng)
            bundle, trust = tmp_path / f"b{i}.jsonl", tmp_path / f"t{i}.json"
            bundle.write_text("".join(t.wire + "\n" for t in tokens))
            trust.write_text(
                json.dumps([{"identity": u, "scope": sorted(s) if s else "*"} for u, s in roots])
            )
            argv = ["evaluate", str(bundle), "--trust", str(trust), "--subject", subject.tid_hex, "--explain"]
            argv += ["--require", " ".join(required)] if required else []
            for form in ([], ["--json"]):
                parsed.clear()
                assert main(argv + form) == 0, capsys.readouterr()
                assert "ACCEPT" in capsys.readouterr().out
                assert parsed and len(parsed) == len(set(parsed))
            chained += len(chain) > 1
        assert chained >= 8


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


def _edge_graph(edges, rng):
    """A CapabilityGraph holding only ``edges`` (voucher -> (subject, scope)),
    with each reverse list in random order: the walk needs nothing else."""
    reverse = {}
    for src, (dst, _) in edges.items():
        reverse.setdefault(dst, []).append(src)
    for vouchers in reverse.values():
        rng.shuffle(vouchers)
    return CapabilityGraph(edges=dict(edges), reverse_edges=reverse)


def _random_scope(rng):
    if rng.random() < 0.3:
        return UNCONSTRAINED
    return Scope(frozenset(label for label in "abc" if rng.random() < 0.6))


class TestWalk:
    """``_walk`` returns exactly the level-by-level reference's ``(reached,
    depth_limited)``, covers flags included, on shapes the random token
    generators do not produce."""

    DEPTHS = (0, 1, 2, 3, 64)

    def _check(self, graph, subject, rng, rounds=12):
        for _ in range(rounds):
            required = frozenset(label for label in "abc" if rng.random() < 0.4)
            for max_depth in self.DEPTHS:
                got = _walk(graph, subject, required, max_depth)
                assert got == oracles.oracle_walk(graph, subject, required, max_depth)

    def test_hub_with_interleaving_grandchildren(self):
        rng = random.Random(91)
        subject = bytes([0x40])
        edges = {}
        # Hubs sort in reverse of creation order; every hub's vouchers and
        # their vouchers interleave in tid order with other hubs' at the same
        # level, so a per-parent append order is not the sorted order.
        for i in range(6):
            hub = bytes([0xF0 - i])
            edges[hub] = (subject, _random_scope(rng))
            for j in range(4):
                child = bytes([0x10 + j, i])
                edges[child] = (hub, _random_scope(rng))
                for k in range(3):
                    edges[bytes([0x01, k, j, i])] = (child, _random_scope(rng))
        graph = _edge_graph(edges, rng)
        self._check(graph, subject, rng)
        reached, _ = _walk(graph, subject, frozenset(), 64)
        assert len(reached) == 1 + 6 + 24 + 72
        assert reached == sorted(reached)

    def test_planted_cycle(self):
        # The two-node cycle of test_graph's planted-cycle test: each node
        # vouches for the other, so every level holds one node again.
        rng = random.Random(92)
        a, v = b"\xaa" * 32, b"\x55" * 32
        for scope_a, scope_v in ((UNCONSTRAINED, UNCONSTRAINED), (Scope.of("a"), Scope.of("a", "b"))):
            graph = _edge_graph({v: (a, scope_v), a: (v, scope_a)}, rng)
            for subject in (a, v):
                self._check(graph, subject, rng, rounds=4)
                reached, depth_limited = _walk(graph, subject, frozenset(), 64)
                assert len(reached) == 65 and depth_limited

    def test_seventy_edge_chain(self):
        rng = random.Random(93)
        tids = [rng.randbytes(32) for _ in range(71)]
        edges = {tids[i + 1]: (tids[i], _random_scope(rng)) for i in range(70)}
        graph = _edge_graph(edges, rng)
        self._check(graph, tids[0], rng)
        for max_depth in (69, 70, 71):
            reached, depth_limited = _walk(graph, tids[0], frozenset(), max_depth)
            assert len(reached) == min(max_depth, 70) + 1
            assert depth_limited == (max_depth < 70)

    def test_random_forests(self):
        # Out-degree at most one, many vouchers per node, sometimes a planted
        # back edge from the subject into its own tree.
        rng = random.Random(94)
        for _ in range(60):
            tids = [rng.randbytes(2) for _ in range(rng.randint(1, 40))]
            edges = {}
            for i in range(1, len(tids)):
                if rng.random() < 0.85:
                    edges[tids[i]] = (tids[rng.randrange(i)], _random_scope(rng))
            if len(tids) > 1 and rng.random() < 0.2:
                edges[tids[0]] = (rng.choice(tids[1:]), _random_scope(rng))
            graph = _edge_graph(edges, rng)
            self._check(graph, rng.choice(tids), rng, rounds=3)

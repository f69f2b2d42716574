import gc
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import vouchsafe.resolution
import vouchsafe.tokens
from vouchsafe import (
    Bundle,
    Request,
    TokenKind,
    TokenSet,
    TrustConfigError,
    TrustedPrincipal,
    UNCONSTRAINED,
    Verdict,
    decode,
    evaluate,
    filter_valid,
    issue_attest,
    issue_vouch,
    load_bundle,
    load_trust_config,
    resolve,
    temporal_filter,
    verify,
)

import generators

D0 = "mzuhvlpymk6xo3epygfy5h4oeaejofefn3rdhm4qfjmr2dk7fesq"


class TestLoadBundle:
    def test_jsonl_of_three(self, alice, bundle_writer):
        kp, ident = alice
        tokens = [issue_attest(kp, ident) for _ in range(3)]
        bundle = load_bundle([bundle_writer("b.jsonl", tokens)])
        assert len(bundle.tokens) == 3
        assert bundle.diagnostics == []

    def test_garbage_line_becomes_diagnostic(self, alice, tmp_path):
        kp, ident = alice
        good = issue_attest(kp, ident)
        path = tmp_path / "b.jsonl"
        path.write_text(f"{good.wire}\n\nnot a token\n{issue_attest(kp, ident).wire}\n")
        bundle = load_bundle([path])
        assert len(bundle.tokens) == 2
        assert len(bundle.diagnostics) == 1
        assert bundle.diagnostics[0].line == 3

    def test_duplicate_across_files_deduped(self, alice, bundle_writer):
        kp, ident = alice
        t = issue_attest(kp, ident)
        b1 = bundle_writer("one.jsonl", [t])
        b2 = bundle_writer("two.jsonl", [t])
        assert len(load_bundle([b1, b2]).tokens) == 1

    def test_single_token_jwt_file(self, alice, tmp_path):
        kp, ident = alice
        t = issue_attest(kp, ident)
        path = tmp_path / "one.jwt"
        path.write_text(t.wire + "\n")
        bundle = load_bundle([path])
        assert bundle.tokens.get(t.tid) is not None

    def test_json_quoted_lines_accepted(self, alice, tmp_path):
        kp, ident = alice
        t = issue_attest(kp, ident)
        path = tmp_path / "q.jsonl"
        path.write_text(json.dumps(t.wire) + "\n")
        assert len(load_bundle([path]).tokens) == 1

    def test_non_utf8_line_becomes_diagnostic(self, alice, tmp_path):
        kp, ident = alice
        good = [issue_attest(kp, ident).wire.encode() for _ in range(2)]
        path = tmp_path / "b.jsonl"
        path.write_bytes(good[0] + b"\n\xff\xfe" + good[1][:10] + b"\n" + good[1] + b"\nnot a token\n")
        bundle = load_bundle([path])
        assert len(bundle.tokens) == 2
        assert [(d.line, d.code) for d in bundle.diagnostics][0] == (2, "not-utf-8")
        assert [d.line for d in bundle.diagnostics] == [2, 4]

    def test_deeply_nested_line_becomes_diagnostic(self, alice, tmp_path):
        kp, ident = alice
        good = issue_attest(kp, ident)
        deep = oracles.b64url(b"[" * 100000)
        path = tmp_path / "b.jsonl"
        path.write_text(f"{deep}.{deep}.{oracles.b64url(b'x' * 64)}\n{good.wire}\n")
        bundle = load_bundle([path])
        assert bundle.tokens.tids == {good.tid}
        assert [(d.line, d.code) for d in bundle.diagnostics] == [
            (1, "decode: header JSON nests too deeply")
        ]

    def test_unreadable_source_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_bundle([tmp_path / "missing.jsonl"])

    def test_order_insensitive_membership(self, tmp_path):
        rng = random.Random(61)
        tokens = generators.random_token_set(rng)
        lines = [t.wire for t in tokens]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text("".join(w + "\n" for w in lines))
        shuffled = lines[:]
        rng.shuffle(shuffled)
        b.write_text("".join(w + "\n" for w in shuffled))
        assert load_bundle([a]).tokens.tids == load_bundle([b]).tokens.tids


def _ingest(paths):
    bundle = load_bundle(paths)
    return bundle, *filter_valid(bundle.tokens)


class TestReingest:
    """A grown bundle re-read while the previous load is held pays only for
    its new wires: the unchanged ones come back as the same Token objects,
    verify reports included."""

    @pytest.fixture
    def verified(self, monkeypatch):
        wires = []
        real = vouchsafe.tokens.verify

        def counted(token):
            wires.append(token.wire)
            return real(token)

        monkeypatch.setattr(vouchsafe.tokens, "verify", counted)
        monkeypatch.setattr(vouchsafe.resolution, "verify", counted, raising=False)
        return wires

    @pytest.fixture
    def segments(self, monkeypatch):
        decoded = []
        real = vouchsafe.tokens._b64url_decode_strict

        def counted(segment):
            decoded.append(segment)
            return real(segment)

        monkeypatch.setattr(vouchsafe.tokens, "_b64url_decode_strict", counted)
        return decoded

    @pytest.fixture
    def files(self, tmp_path):
        rng = random.Random(71)
        a = generators.random_wire_mix(rng, 12)
        b = generators.random_wire_mix(rng, 8)
        b += a[:3] + b[:2]  # lines already in A, and repeats within B
        gc.collect()  # the generator's own Tokens are gone
        (tmp_path / "a.jsonl").write_text("".join(w + "\n" for w in a))
        (tmp_path / "b.jsonl").write_text("".join(w + "\n" for w in b))
        return tmp_path / "a.jsonl", tmp_path / "b.jsonl", a, sorted(set(b) - set(a))

    def test_verify_runs_only_for_new_wires(self, files, verified):
        a_path, b_path, a, new = files
        first = _ingest([a_path])
        assert sorted(verified) == sorted(set(a))
        verified.clear()
        second = _ingest([a_path, b_path])
        assert sorted(verified) == new
        assert len(second[0].tokens) == len(first[0].tokens) + len(new)

    def test_decode_runs_only_for_new_wires(self, files, segments):
        a_path, b_path, a, new = files
        first = _ingest([a_path])
        segments.clear()
        second = _ingest([a_path, b_path])
        assert sorted(segments) == sorted(s for w in new for s in w.split("."))
        assert all(second[0].tokens.get(t.tid) is t for t in first[0].tokens)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_second_ingest_matches_fresh_verify(self, seed):
        rng = random.Random(seed)
        old = generators.random_wire_mix(rng, rng.randint(1, 8))
        grown = old + generators.random_wire_mix(rng, rng.randint(0, 6))
        rng.shuffle(grown)
        first_valid, first_rejected = filter_valid(TokenSet(decode(w) for w in old))
        valid, rejected = filter_valid(TokenSet(decode(w) for w in grown))

        fresh = {t.tid: verify(t) for t in (decode(w) for w in grown)}
        assert valid.tids == {tid for tid, report in fresh.items() if report.ok}
        assert {r.token.tid: r.report for r in rejected} == {
            tid: report for tid, report in fresh.items() if not report.ok
        }
        reused = {r.token.tid: r.token for r in rejected}
        reused.update((t.tid, t) for t in valid)
        for token in [*first_valid, *(r.token for r in first_rejected)]:
            assert reused[token.tid] is token


class TestTemporalFilter:
    def test_absent_now_is_identity(self, alice, bundle_writer):
        kp, ident = alice
        bundle = load_bundle([bundle_writer("b.jsonl", [issue_attest(kp, ident)])])
        assert temporal_filter(bundle, None) is bundle

    def test_expired_token_dropped(self, alice, bundle_writer):
        kp, ident = alice
        t = issue_attest(kp, ident, exp=100)
        bundle = load_bundle([bundle_writer("b.jsonl", [t])])
        assert len(temporal_filter(bundle, 200).tokens) == 0
        assert len(temporal_filter(bundle, 99).tokens) == 1

    def test_not_yet_valid_dropped(self, alice, bundle_writer):
        kp, ident = alice
        t = issue_attest(kp, ident, nbf=500)
        bundle = load_bundle([bundle_writer("b.jsonl", [t])])
        assert len(temporal_filter(bundle, 499).tokens) == 0
        assert len(temporal_filter(bundle, 500).tokens) == 1

    def test_token_without_temporal_claims_kept(self, alice, bundle_writer):
        kp, ident = alice
        bundle = load_bundle([bundle_writer("b.jsonl", [issue_attest(kp, ident)])])
        assert len(temporal_filter(bundle, 10**10).tokens) == 1

    def test_filtering_never_creates_acceptance(self, alice, root, bundle_writer):
        # Dropping tokens can only lose paths; any accept after filtering must
        # also hold without it.
        rng = random.Random(62)
        kp_a, ident_a = alice
        kp_r, ident_r = root
        for _ in range(30):
            exp = rng.choice([None, 50, 150])
            a = issue_attest(kp_a, ident_a, purpose="read", exp=exp)
            v = issue_vouch(kp_r, ident_r, a, purpose="read",
                            exp=rng.choice([None, 50, 150]))
            bundle = load_bundle([bundle_writer("t.jsonl", [a, v])])
            request = Request(
                subject_tid=a.tid,
                required=frozenset({"read"}),
                roots=generators.as_principals([(ident_r.urn, None)]),
            )

            def verdict_of(b):
                valid, _ = filter_valid(b.tokens)
                return evaluate(resolve(valid), request).verdict

            filtered_verdict = verdict_of(temporal_filter(bundle, 100))
            unfiltered_verdict = verdict_of(bundle)
            if filtered_verdict is Verdict.ACCEPT:
                assert unfiltered_verdict is Verdict.ACCEPT


def timed_token_set(rng):
    """Valid statements and hand-signed control tokens, each with a random
    ``nbf``/``exp`` window, so filtering can drop either kind."""
    tokens = []
    for _ in range(rng.randint(2, 10)):
        kp, ident = generators.POOL[rng.randrange(len(generators.POOL))]
        window = {name: rng.choice([None, 50, 150]) for name in ("nbf", "exp")}
        signed_window = {name: t for name, t in window.items() if t is not None}
        delegable = [t for t in tokens if t.claims.kind in (TokenKind.ATTEST, TokenKind.VOUCH)]
        move = rng.choice(["attest", "vouch", "vouch", "revoke", "burn"]) if delegable else "attest"
        if move == "attest":
            tokens.append(issue_attest(kp, ident, purpose=generators.random_purpose(rng), **window))
        elif move == "vouch":
            subject = rng.choice(delegable)
            tokens.append(issue_vouch(kp, ident, subject, purpose=generators.random_purpose(rng), **window))
        elif move == "revoke":
            target = rng.choice(delegable)
            sub, vch_iss, vch_sum = target.subject_triple()
            tokens.append(generators.craft(
                rng, target.claims.iss, oracles.REVOKE, sub=sub, vch_iss=vch_iss, vch_sum=vch_sum,
                revokes=target.claims.jti, **signed_window,
            ))
        else:
            tokens.append(generators.craft(rng, ident.urn, oracles.BURN, burns=ident.urn, **signed_window))
    return tokens


class TestTemporalControlTokens:
    def test_filtering_never_turns_reject_into_accept(self):
        rng = random.Random(63)
        filtered_cases = 0
        for _ in range(150):
            tokens = timed_token_set(rng)
            valid, rejected = filter_valid(TokenSet(tokens))
            assert not rejected
            bundle = Bundle(tokens=valid)
            for _ in range(3):
                request = Request(
                    subject_tid=rng.choice(tokens).tid,
                    required=generators.random_required(rng),
                    roots=generators.as_principals(generators.random_roots(rng)),
                )
                if evaluate(resolve(bundle.tokens), request).verdict is Verdict.ACCEPT:
                    continue
                for now in (0, 50, 100, 150, 200):
                    filtered = temporal_filter(bundle, now)
                    assert evaluate(resolve(filtered.tokens), request).verdict is Verdict.REJECT
                    filtered_cases += len(filtered.tokens) < len(bundle.tokens)
        assert filtered_cases > 0  # filtering did drop tokens under rejected requests

    def test_expired_revocation_still_revokes(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a, purpose="read")
        sub, vch_iss, vch_sum = v.subject_triple()
        seed = b"\x22" * 32  # the root fixture's key
        revocation = decode(oracles.craft_wire(seed, oracles.standard_claims(
            seed, "root", oracles.REVOKE, "revocation-1", sub=sub, vch_iss=vch_iss,
            vch_sum=vch_sum, revokes=v.claims.jti, exp=100,
        )))
        valid, rejected = filter_valid(TokenSet([a, v, revocation]))
        assert not rejected
        bundle = Bundle(tokens=valid)
        request = Request(a.tid, frozenset({"read"}), (TrustedPrincipal(ident_r.urn, UNCONSTRAINED),))
        for now in (None, 50, 200):
            filtered = temporal_filter(bundle, now)
            assert evaluate(resolve(filtered.tokens), request).verdict is Verdict.REJECT


class TestTrustConfig:
    def test_parse_single_root(self, tmp_path):
        path = tmp_path / "trust.json"
        path.write_text(json.dumps([{"identity": f"urn:vouchsafe:r.{D0}", "scope": ["read"]}]))
        roots = load_trust_config(path)
        assert len(roots) == 1
        assert roots[0].identity == f"urn:vouchsafe:r.{D0}"
        assert roots[0].root_scope.labels == frozenset({"read"})

    def test_star_is_unconstrained(self, tmp_path):
        path = tmp_path / "trust.json"
        path.write_text(json.dumps([{"identity": f"urn:vouchsafe:r.{D0}", "scope": "*"}]))
        assert load_trust_config(path)[0].root_scope.unconstrained

    def test_empty_scope_array_rejected(self, tmp_path):
        path = tmp_path / "trust.json"
        path.write_text(json.dumps([{"identity": f"urn:vouchsafe:r.{D0}", "scope": []}]))
        with pytest.raises(TrustConfigError):
            load_trust_config(path)

    def test_invalid_urn_rejected(self, tmp_path):
        path = tmp_path / "trust.json"
        path.write_text(json.dumps([{"identity": "urn:vouchsafe:bad", "scope": "*"}]))
        with pytest.raises(TrustConfigError):
            load_trust_config(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "trust.json"
        path.write_text("{nope")
        with pytest.raises(TrustConfigError):
            load_trust_config(path)

    def test_non_list_rejected(self, tmp_path):
        path = tmp_path / "trust.json"
        path.write_text(json.dumps({"identity": "x"}))
        with pytest.raises(TrustConfigError):
            load_trust_config(path)

    def test_whitespace_label_rejected(self, tmp_path):
        path = tmp_path / "trust.json"
        path.write_text(json.dumps([{"identity": f"urn:vouchsafe:r.{D0}", "scope": ["read write"]}]))
        with pytest.raises(TrustConfigError):
            load_trust_config(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "trust.json"
        path.write_text(json.dumps([{"identity": f"urn:vouchsafe:r.{D0}"}]))
        with pytest.raises(TrustConfigError):
            load_trust_config(path)

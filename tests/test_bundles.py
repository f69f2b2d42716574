import dataclasses
import gc
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import vouchsafe.bundles
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
        assert t.tid in bundle.tokens

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
        assert {t.tid for t in bundle.tokens} == {good.tid}
        assert [(d.line, d.code) for d in bundle.diagnostics] == [
            (1, "decode: header JSON nests too deeply")
        ]

    def test_integer_too_long_to_convert_becomes_diagnostic(self, alice, tmp_path):
        kp, ident = alice
        good = issue_attest(kp, ident)
        head, _, sig = good.wire.split(".")
        huge = oracles.b64url(b'{"iat":' + b"1" * 5000 + b"}")
        path = tmp_path / "b.jsonl"
        path.write_text(f"{head}.{huge}.{sig}\n{good.wire}\n")
        bundle = load_bundle([path])
        assert {t.tid for t in bundle.tokens} == {good.tid}
        assert [(d.line, d.code[:46]) for d in bundle.diagnostics] == [
            (1, "decode: payload is not valid JSON: Exceeds the")
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
        assert {t.tid for t in load_bundle([a]).tokens} == {t.tid for t in load_bundle([b]).tokens}


# Text that is one bundle line: no character that str.splitlines breaks at, and
# no lone surrogate, which a UTF-8 file cannot hold.
_ONE_LINE = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
)
_WIRES = [issue_attest(*generators.POOL[0], purpose=p).wire for p in (None, "", "read write")]


def _quoted_line_outcome(tmp_path, line: str) -> str:
    """Load a bundle of this one line and name what it gave: a token, or one
    diagnostic's code with any ``decode:`` detail cut off."""
    path = tmp_path / "q.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    bundle = load_bundle([path])
    if len(bundle.tokens) == 1 and not bundle.diagnostics:
        return "token"
    assert len(bundle.tokens) == 0 and len(bundle.diagnostics) == 1, (line, bundle)
    code = bundle.diagnostics[0].code
    return "decode:" if code.startswith("decode: ") else code


class TestQuotedLines:
    """A stripped line that starts with ``"`` is a JSON string or it is not
    JSON: it gives a token, a ``decode:`` diagnostic or ``bad-json-string``."""

    @pytest.mark.parametrize(
        "line, outcome",
        [
            ('"{}', "bad-json-string"),
            ('"abc" trailing', "bad-json-string"),
            ('"\\x"', "bad-json-string"),
            ('""', "decode:"),
            ('"abc"', "decode:"),
            ('"a.b.c"', "decode:"),
            ('"\\ud800"', "decode:"),
            (json.dumps(_WIRES[2]), "token"),
        ],
    )
    def test_literal_outcomes(self, tmp_path, line, outcome):
        assert _quoted_line_outcome(tmp_path, line) == outcome

    @given(
        st.one_of(
            _ONE_LINE.map(lambda text: '"' + text),
            st.tuples(_ONE_LINE, _ONE_LINE).map(lambda p: json.dumps(p[0]) + p[1]),
            # Quoted wires and their prefixes, then anything.
            st.tuples(st.sampled_from(_WIRES), st.integers(0, 400), _ONE_LINE).map(
                lambda p: json.dumps(p[0][: p[1] or None]) + p[2]
            ),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_every_quoted_line_has_one_of_three_outcomes(self, tmp_path_factory, line):
        outcome = _quoted_line_outcome(tmp_path_factory.mktemp("quoted"), line)
        assert outcome in ("token", "decode:", "bad-json-string")


def _ingest(paths):
    bundle = load_bundle(paths)
    return bundle, *filter_valid(bundle.tokens)


def _stages(paths, now):
    bundle = load_bundle(paths)
    filtered = temporal_filter(bundle, now)
    valid, rejected = filter_valid(filtered.tokens)
    return bundle, filtered, valid, rejected, resolve(valid)


def _outcome(stages):
    """Everything each stage reports, with tokens named by tid, in order."""
    bundle, filtered, valid, rejected, clean = stages
    return (
        [t.tid for t in bundle.tokens],
        bundle.diagnostics,
        [t.tid for t in filtered.tokens],
        [t.tid for t in valid],
        [(r.token.tid, r.report) for r in rejected],
        [t.tid for t in clean.tokens],
        clean.burned_identities,
        clean.revoked_statements,
        bundle.tokens.duplicate_statement_ids(),
        valid.duplicate_statement_ids(),
    )


def _hostile_lines(rng, now):
    """Bundle lines as bytes: wires that verify or not, control tokens and
    duplicate statement ids, expired and not-yet-valid statements, garbage,
    quoted wires, non-UTF-8 bytes and exact repeats."""
    kp, ident = generators.POOL[rng.randrange(len(generators.POOL))]
    wires = generators.random_wire_mix(rng, rng.randint(1, 6))
    wires += [t.wire for t in generators.random_token_set(rng, max_tokens=6)]
    for timed in rng.sample([{"exp": now}, {"nbf": now + 1}, {"exp": now + 1, "nbf": now}], 2):
        wires.append(issue_attest(kp, ident, **timed).wire)
    lines = [w.encode() for w in wires]
    lines += [json.dumps(rng.choice(wires)).encode(), b"garbage", b"a.b", b'"unterminated']
    lines += [b"\xff" + rng.choice(wires).encode(), rng.choice(lines)]
    rng.shuffle(lines)
    return lines


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
        by_tid = {t.tid: t for t in second[0].tokens}
        assert all(by_tid.get(t.tid) is t for t in first[0].tokens)

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
        assert {t.tid for t in valid} == {tid for tid, report in fresh.items() if report.ok}
        assert {r.token.tid: r.report for r in rejected} == {
            tid: report for tid, report in fresh.items() if not report.ok
        }
        reused = {r.token.tid: r.token for r in rejected}
        reused.update((t.tid, t) for t in valid)
        for token in [*first_valid, *(r.token for r in first_rejected)]:
            assert reused[token.tid] is token

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_warm_reingest_equals_cold(self, seed, tmp_path_factory):
        """Every stage of a re-read of A+B while A's stages are held equals a
        read of the same files with none of their Tokens alive."""
        rng = random.Random(seed)
        now = 1000
        a_lines, b_lines = _hostile_lines(rng, now), _hostile_lines(rng, now)
        b_lines += rng.sample(a_lines, min(3, len(a_lines)))  # known lines arrive again
        b_lines += rng.sample(b_lines, min(2, len(b_lines)))  # and repeat within B
        rng.shuffle(b_lines)
        tmp = tmp_path_factory.mktemp("reingest")
        a, b = tmp / "a.jsonl", tmp / "b.jsonl"
        a.write_bytes(b"".join(line + b"\n" for line in a_lines))
        b.write_bytes(b"".join(line + b"\n" for line in b_lines))
        gc.collect()  # the generators' own Tokens are gone

        held = _stages([a], now)
        warm = _stages([a, b], now)
        by_tid = {t.tid: t for t in warm[0].tokens}
        assert all(by_tid.get(t.tid) is t for t in held[0].tokens)
        warm_outcome = _outcome(warm)
        del held, warm, by_tid
        gc.collect()
        assert all(
            vouchsafe.tokens._live.get(line.decode("utf-8", "replace").strip('"')) is None
            for line in a_lines + b_lines
        )
        assert _outcome(_stages([a, b], now)) == warm_outcome

    @given(seed=st.integers(0, 2**32 - 1),
           edit=st.sampled_from(["none", "append", "flip", "truncate", "empty", "crlf"]))
    @settings(max_examples=30, deadline=None)
    def test_memo_equals_cold_load(self, seed, edit, tmp_path_factory):
        """While a load of A and B is held, A is edited and C saved with B's
        bytes; every stage of a load of A, B and C equals a load of the same
        files with no Token alive and no file remembered."""
        rng = random.Random(seed)
        now = 1000
        tmp = tmp_path_factory.mktemp("memo")
        a, b, c = tmp / "a.jsonl", tmp / "b.jsonl", tmp / "c.jsonl"
        a_lines = _hostile_lines(rng, now)
        a.write_bytes(b"".join(line + b"\n" for line in a_lines))
        b.write_bytes(b"".join(line + b"\n" for line in _hostile_lines(rng, now)))
        gc.collect()  # the generators' own Tokens are gone

        held = load_bundle([a, b])
        a.write_bytes(_edited(rng, edit, a_lines))
        c.write_bytes(b.read_bytes())
        warm = _stages([a, b, c], now)
        diagnostics = warm[0].diagnostics
        assert [d for d in diagnostics if d.source == str(c)] == [
            dataclasses.replace(d, source=str(c)) for d in diagnostics if d.source == str(b)
        ]
        warm_outcome = _outcome(warm)
        del held, warm, diagnostics
        gc.collect()
        assert not vouchsafe.bundles._files
        assert all(
            vouchsafe.tokens._live.get(line.decode("utf-8", "replace").strip('"')) is None
            for path in (a, b) for line in path.read_bytes().splitlines()
        )
        assert _outcome(_stages([a, b, c], now)) == warm_outcome

    def test_each_source_is_read_once(self, tmp_path, monkeypatch):
        """One read per file and load: the digest a file is remembered by is
        that of the bytes parsed, even when a writer replaces the file during
        the load."""
        rng = random.Random(23)
        wires = generators.random_wire_mix(rng, 6)
        a, b, c = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jwt"
        a.write_text("\n".join(wires[:3]) + "\n")
        b.write_text("\n".join(wires[3:5]) + "\ngarbage\n")
        c.write_text(wires[5])
        reads = []
        real = Path.read_bytes

        def racing(path):
            data = real(path)
            reads.append(path.name)
            if path == b:  # a writer replaces b once its bytes are read
                path.write_bytes(data.replace(b"garbage", b"a.b.c"))
            return data

        monkeypatch.setattr(Path, "read_bytes", racing)
        held = load_bundle([a, b, c])
        assert sorted(reads) == ["a.jsonl", "b.jsonl", "c.jwt"]
        assert [d.code for d in held.diagnostics] == ["decode: expected 3 dot-separated segments, got 1"]
        reads.clear()
        again = load_bundle([a, b, c, a])
        assert sorted(reads) == ["a.jsonl", "a.jsonl", "b.jsonl", "c.jwt"]
        assert [d.code for d in again.diagnostics] != [d.code for d in held.diagnostics]
        assert [t.tid for t in again.tokens] == [t.tid for t in held.tokens]


def _edited(rng, edit, lines):
    """A file of ``lines`` after one edit: none, a new wire appended, one
    wire character changed in place, cut at a random byte, emptied, or
    saved with CRLF line endings."""
    lines = list(lines)
    if edit == "append":
        lines.append(generators.random_wire_mix(rng, 1)[0].encode())
    elif edit == "flip":
        i = rng.choice([i for i, line in enumerate(lines) if line.count(b".") == 2 and line[:1].isalnum()])
        j = rng.randrange(len(lines[i]))
        while not chr(lines[i][j]).isalnum():
            j = rng.randrange(len(lines[i]))
        other = rng.choice([ch for ch in b"AQgw" if ch != lines[i][j]])
        lines[i] = lines[i][:j] + bytes([other]) + lines[i][j + 1:]
    data = b"".join(line + b"\n" for line in lines)
    if edit == "truncate":
        return data[:rng.randrange(len(data))]
    if edit == "empty":
        return b""
    return data.replace(b"\n", b"\r\n") if edit == "crlf" else data


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
        assert len(temporal_filter(bundle, 100).tokens) == 0  # exp == now: expired
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

    @pytest.mark.parametrize(
        "urn", [f"urn:vouchsafe:r\n.{D0}", f"urn:vouchsafe:r.{D0}\n"], ids=["label", "digest"]
    )
    def test_urn_with_trailing_newline_rejected(self, tmp_path, urn):
        path = tmp_path / "trust.json"
        path.write_text(json.dumps([{"identity": urn, "scope": "*"}]))
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

    def test_integer_too_long_to_convert_rejected(self, tmp_path):
        path = tmp_path / "trust.json"
        path.write_text("[" + "1" * 5000 + "]")
        with pytest.raises(TrustConfigError, match="not valid JSON: Exceeds the limit"):
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

import base64
import hashlib
import inspect
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generators
import oracles
import vouchsafe.tokens
from vouchsafe import (
    DecodeError,
    IssueError,
    TokenKind,
    decode,
    issue_attest,
    issue_burn,
    issue_revoke,
    issue_vouch,
    load_bundle,
    parse_scope,
    verify,
)


def b64url(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).decode().rstrip("=")


def reencode(wire: str, mutate_payload) -> str:
    """Rebuild a wire with a transformed payload, keeping the old signature."""
    h, p, s = wire.split(".")
    payload = json.loads(base64.urlsafe_b64decode(p + "=" * (-len(p) % 4)))
    payload = mutate_payload(payload)
    return f"{h}.{b64url(json.dumps(payload, separators=(',', ':')).encode())}.{s}"


class TestIssueAttest:
    def test_round_trip_all_ok(self, alice):
        kp, ident = alice
        t = issue_attest(kp, ident, purpose="read write")
        report = verify(t)
        assert report.ok and t.claims.kind is TokenKind.ATTEST
        again = decode(t.wire)
        assert again is not t  # decode parses anew: a real round trip
        assert again == t  # wire, header, claims, signature and tid

    def test_purpose_parses_to_scope(self, alice):
        kp, ident = alice
        t = issue_attest(kp, ident, purpose="read write")
        assert parse_scope(t.claims.purpose).labels == frozenset({"read", "write"})

    def test_sub_equals_jti(self, alice):
        kp, ident = alice
        t = issue_attest(kp, ident)
        assert t.claims.sub == t.claims.jti

    def test_distinct_jti_per_issuance(self, alice):
        kp, ident = alice
        assert issue_attest(kp, ident).claims.jti != issue_attest(kp, ident).claims.jti

    def test_binding_precondition(self, alice, mallory):
        kp, _ = alice
        _, other_ident = mallory
        with pytest.raises(IssueError):
            issue_attest(kp, other_ident)

    def test_reserved_claim_collision(self, alice):
        kp, ident = alice
        with pytest.raises(IssueError):
            issue_attest(kp, ident, extra={"vch_sum": "boom"})

    def test_extra_claims_preserved(self, alice):
        kp, ident = alice
        t = issue_attest(kp, ident, extra={"device": "unit-9", "rev": 3})
        again = decode(t.wire)
        assert again.claims.extra == {"device": "unit-9", "rev": 3}
        assert verify(again).ok

    def test_temporal_claims_signed_but_not_judged(self, alice):
        kp, ident = alice
        t = issue_attest(kp, ident, iat=100, nbf=100, exp=1)
        assert (t.claims.iat, t.claims.nbf, t.claims.exp) == (100, 100, 1)
        assert verify(t).ok  # expiry is application policy, not validity


class TestIssueVouch:
    def test_vch_sum_is_subject_wire_hash(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a, purpose="read")
        assert v.claims.vch_sum == hashlib.sha256(a.wire.encode()).hexdigest()
        assert v.claims.sub == a.claims.jti
        assert v.claims.vch_iss == ident_a.urn

    def test_vouch_for_vouch(self, alice, root, mallory):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        kp_m, ident_m = mallory
        a = issue_attest(kp_a, ident_a)
        v1 = issue_vouch(kp_m, ident_m, a)
        v2 = issue_vouch(kp_r, ident_r, v1)
        assert verify(v2).ok
        assert v2.claims.vch_sum == v1.tid_hex

    def test_vouch_for_burn_rejected(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        b = issue_burn(kp_a, ident_a)
        with pytest.raises(IssueError):
            issue_vouch(kp_r, ident_r, b)

    def test_vouch_for_revoke_rejected(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        r = issue_revoke(kp_a, ident_a, a)
        with pytest.raises(IssueError):
            issue_vouch(kp_r, ident_r, r)


class TestIssueRevoke:
    def test_revoke_own_vouch_copies_subject_triple(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a)
        r = issue_revoke(kp_r, ident_r, v)
        assert r.claims.revokes == v.claims.jti
        assert (r.claims.sub, r.claims.vch_iss, r.claims.vch_sum) == v.subject_triple()

    def test_revoke_own_attest_derives_triple(self, alice):
        kp, ident = alice
        a = issue_attest(kp, ident)
        r = issue_revoke(kp, ident, a)
        assert (r.claims.sub, r.claims.vch_iss, r.claims.vch_sum) == (
            a.claims.jti,
            ident.urn,
            hashlib.sha256(a.wire.encode()).hexdigest(),
        )

    def test_cannot_revoke_foreign_statement(self, alice, mallory):
        kp_a, ident_a = alice
        kp_m, ident_m = mallory
        a = issue_attest(kp_a, ident_a)
        with pytest.raises(IssueError):
            issue_revoke(kp_m, ident_m, a)

    def test_cannot_revoke_control_tokens(self, alice):
        kp, ident = alice
        b = issue_burn(kp, ident)
        with pytest.raises(IssueError):
            issue_revoke(kp, ident, b)


class TestIssueBurn:
    def test_burns_names_issuer(self, alice):
        kp, ident = alice
        b = issue_burn(kp, ident)
        assert b.claims.burns == b.claims.iss == ident.urn
        assert b.claims.sub == b.claims.jti
        assert verify(b).ok

    def test_crafted_burn_of_other_identity_fails_schema(self, alice, mallory):
        _, ident_m = mallory
        wire = oracles.craft_wire(
            b"\x11" * 32,
            oracles.standard_claims(b"\x11" * 32, "alice", "vch:burn", "j1", burns=ident_m.urn),
        )
        report = verify(decode(wire))
        assert report.sig_ok and report.id_ok and not report.schema_ok
        assert "schema:burns-not-issuer" in report.reasons


class TestIssuedPayloadBytes:
    """The payload segment each issuer signs, byte for byte: claim order, and
    an absent optional claim left out while a present one (``""``, ``0``)
    and an extra claim whose value is None are kept."""

    def test_payload_segments(self, alice, monkeypatch):
        kp, ident = alice
        jtis = iter(["j1", "j2", "j3", "j4", "j5", "j6", "j7"])
        monkeypatch.setattr(vouchsafe.tokens, "_new_jti", lambda: next(jtis))
        head = f'{{"iss":"{ident.urn}","iss_key":"{kp.public.b64}"'

        def payload(token):
            segment = token.wire.split(".")[1]
            return base64.urlsafe_b64decode(segment + "=" * (-len(segment) % 4)).decode()

        a1 = issue_attest(kp, ident)
        assert payload(a1) == head + ',"kind":"vch:attest","jti":"j1","sub":"j1"}'
        a2 = issue_attest(kp, ident, purpose="", iat=0, nbf=20, exp=30)
        assert payload(a2) == (
            head + ',"kind":"vch:attest","jti":"j2","sub":"j2","purpose":"","iat":0,"nbf":20,"exp":30}'
        )
        a3 = issue_attest(kp, ident, "read", {"site": None, "n": 1}, exp=30)
        assert payload(a3) == (
            head + ',"kind":"vch:attest","jti":"j3","sub":"j3","purpose":"read","exp":30,"site":null,"n":1}'
        )
        ref = f'"vch_iss":"{ident.urn}","vch_sum":"{a1.tid_hex}"'
        v1 = issue_vouch(kp, ident, a1, nbf=20)
        assert payload(v1) == head + f',"kind":"vch:vouch","jti":"j4","sub":"j1",{ref},"nbf":20}}'
        v2 = issue_vouch(kp, ident, a1, purpose="", iat=10, exp=30)
        assert payload(v2) == (
            head + f',"kind":"vch:vouch","jti":"j5","sub":"j1",{ref},"purpose":"","iat":10,"exp":30}}'
        )
        r = issue_revoke(kp, ident, a1)
        assert payload(r) == head + f',"kind":"vch:revoke","jti":"j6","sub":"j1",{ref},"revokes":"j1"}}'
        b = issue_burn(kp, ident)
        assert payload(b) == head + f',"kind":"vch:burn","jti":"j7","sub":"j7","burns":"{ident.urn}"}}'


class TestDecode:
    def test_two_segments(self):
        with pytest.raises(DecodeError):
            decode("abc.def")

    def test_non_json_payload(self):
        junk = f"{b64url(b'{}')}.{b64url(b'hello')}.{b64url(b'sig')}"
        with pytest.raises(DecodeError):
            decode(junk)

    def test_unknown_kind_fails_closed(self, alice):
        kp, ident = alice
        t = issue_attest(kp, ident)
        wire = reencode(t.wire, lambda p: {**p, "kind": "vch:frobnicate"})
        with pytest.raises(DecodeError):
            decode(wire)

    def test_non_canonical_base64_rejected(self, alice):
        kp, ident = alice
        t = issue_attest(kp, ident)
        h, p, s = t.wire.split(".")
        with pytest.raises(DecodeError):
            decode(f"{h}.{p}.{s}==")

    def test_wrong_claim_type_rejected(self, alice):
        kp, ident = alice
        t = issue_attest(kp, ident)
        wire = reencode(t.wire, lambda p: {**p, "purpose": 7})
        with pytest.raises(DecodeError):
            decode(wire)

    def test_empty_file_like_input(self):
        with pytest.raises(DecodeError):
            decode("")

    def test_deeply_nested_json_fails_closed(self):
        deep = b64url(b"[" * 100000)
        with pytest.raises(DecodeError, match="nests too deeply"):
            decode(f"{deep}.{deep}.{b64url(b'x' * 64)}")

    @pytest.mark.parametrize("universal", ["iss", "iss_key", "jti", "sub", "kind"])
    def test_missing_universal_claim_fails_closed(self, alice, universal):
        kp, ident = alice
        t = issue_attest(kp, ident)
        wire = reencode(t.wire, lambda p: {k: v for k, v in p.items() if k != universal})
        with pytest.raises(DecodeError):
            decode(wire)


class TestVerify:
    def test_payload_tamper_breaks_signature(self, alice):
        kp, ident = alice
        t = issue_attest(kp, ident, purpose="read")
        wire = reencode(t.wire, lambda p: {**p, "purpose": "read write admin"})
        report = verify(decode(wire))
        assert not report.sig_ok
        assert "sig:signature-mismatch" in report.reasons

    def test_resigned_by_other_key_fails_binding(self, alice, mallory):
        # Same iss URN, but iss_key and signature swapped to another keypair.
        kp_a, ident_a = alice
        kp_m, _ = mallory
        claims = oracles.standard_claims(b"\x33" * 32, "mallory", "vch:attest", "j1")
        claims["iss"] = ident_a.urn  # claim to be alice
        report = verify(decode(oracles.craft_wire(b"\x33" * 32, claims)))
        assert report.sig_ok and not report.id_ok
        assert "id:digest-mismatch" in report.reasons

    def test_foreign_alg_rejected(self):
        header = b64url(json.dumps({"alg": "ES256", "typ": "JWT"}).encode())
        claims = oracles.standard_claims(b"\x11" * 32, "alice", "vch:attest", "j1")
        payload = b64url(json.dumps(claims, separators=(",", ":")).encode())
        wire = f"{header}.{payload}.{b64url(b'x' * 64)}"
        report = verify(decode(wire))
        assert not report.sig_ok
        assert "sig:alg-not-eddsa" in report.reasons

    @pytest.mark.parametrize(
        "field, value, want",
        [
            ("iss_key", "not base64!", (False, ("sig:iss-key-unparseable", "id:unparseable"))),
            ("iss_key", "AAAA", (False, ("sig:iss-key-unparseable", "id:unparseable"))),
            ("iss", "urn:vouchsafe:no-digest", (True, ("id:unparseable",))),
        ],
    )
    def test_unparseable_key_or_urn_reasons(self, field, value, want):
        claims = oracles.standard_claims(b"\x11" * 32, "alice", "vch:attest", "j1")
        claims[field] = value
        report = verify(decode(oracles.craft_wire(b"\x11" * 32, claims)))
        assert (report.sig_ok, report.reasons) == want
        assert not report.id_ok

    def test_issuer_key_memo_changes_no_report(self):
        """A cached (iss, iss_key) entry gives the report a cold cache gives,
        for pairs that bind, pairs that do not, and foreign keys."""
        tokens = [decode(w) for w in generators.random_wire_mix(random.Random(3), 40)]
        cold = []
        for t in tokens:
            vouchsafe.tokens._issuer_key.cache_clear()
            cold.append(verify(t))
        assert [verify(t) for t in tokens] == cold
        hits = vouchsafe.tokens._issuer_key.cache_info().hits
        assert [verify(t) for t in tokens] == cold
        assert vouchsafe.tokens._issuer_key.cache_info().hits - hits == len(tokens)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_report_is_its_reasons(self, seed):
        """Valid exactly without reasons; each reason names its check, and a
        check passed exactly when it gave none."""
        for wire in generators.random_wire_mix(random.Random(seed), 8):
            report = verify(decode(wire))
            assert report.ok == (not report.reasons)
            assert all(r.startswith(("sig:", "id:", "schema:")) for r in report.reasons)
            flags = {"sig:": report.sig_ok, "id:": report.id_ok, "schema:": report.schema_ok}
            for check, passed in flags.items():
                assert passed == (not any(r.startswith(check) for r in report.reasons))

    def test_wire_mix_reaches_every_reason(self):
        """Every reason ``verify`` can give occurs over these seeds, so each
        property built on ``random_wire_mix`` exercises every check."""
        source = inspect.getsource(vouchsafe.tokens)
        emitted = set(re.findall(r'"((?:sig|id|schema):[a-z0-9-]+)"', source))
        seen = set()
        for seed in range(20):
            for wire in generators.random_wire_mix(random.Random(seed), 20):
                seen.update(verify(decode(wire)).reasons)
        assert len(emitted) == 13
        assert seen == emitted

    def test_signature_segment_tamper(self, alice):
        kp, ident = alice
        t = issue_attest(kp, ident)
        h, p, s = t.wire.split(".")
        flipped = ("A" if s[0] != "A" else "B") + s[1:]
        report = verify(decode(f"{h}.{p}.{flipped}"))
        assert not report.sig_ok

    @pytest.mark.parametrize(
        "kind,missing",
        [
            ("vch:vouch", "vch_iss"),
            ("vch:vouch", "vch_sum"),
            ("vch:revoke", "vch_iss"),
            ("vch:revoke", "vch_sum"),
            ("vch:revoke", "revokes"),
            ("vch:burn", "burns"),
        ],
    )
    def test_kind_mandatory_field_deleted_fails_schema(self, kind, missing):
        seed = b"\x11" * 32
        full = {
            "vch_iss": "urn:vouchsafe:x." + "a" * 52,
            "vch_sum": "0" * 64,
            "revokes": "j0",
        }
        if kind == "vch:burn":
            claims = oracles.standard_claims(seed, "alice", kind, "j1")
            claims["burns"] = claims["iss"]
        else:
            claims = oracles.standard_claims(seed, "alice", kind, "j1", sub="j0", **full)
            if kind == "vch:vouch":
                claims.pop("revokes")
        claims.pop(missing, None)
        report = verify(decode(oracles.craft_wire(seed, claims)))
        assert not report.schema_ok

    def test_attest_sub_mismatch_fails_schema(self):
        seed = b"\x11" * 32
        claims = oracles.standard_claims(seed, "alice", "vch:attest", "j1", sub="j2")
        report = verify(decode(oracles.craft_wire(seed, claims)))
        assert not report.schema_ok
        assert "schema:sub-not-self" in report.reasons

    def test_vch_sum_must_be_lowercase_hex64(self):
        seed = b"\x11" * 32
        claims = oracles.standard_claims(
            seed, "alice", "vch:vouch", "j1", sub="j0",
            vch_iss="urn:vouchsafe:x." + "a" * 52, vch_sum="0" * 63 + "G",
        )
        report = verify(decode(oracles.craft_wire(seed, claims)))
        assert not report.schema_ok

    def test_vch_sum_with_trailing_newline_is_not_hex64(self):
        seed = b"\x11" * 32
        claims = oracles.standard_claims(
            seed, "alice", "vch:vouch", "j1", sub="j0",
            vch_iss="urn:vouchsafe:x." + "a" * 52, vch_sum="0" * 64 + "\n",
        )
        report = verify(decode(oracles.craft_wire(seed, claims)))
        assert report.reasons == ("schema:vch-sum-not-hex64",)


# URL-safe alphabet, then what a segment must not hold: padding, the standard
# alphabet's two symbols, whitespace, non-ASCII text and an undecodable byte.
_SEGMENT_SYMBOLS = [
    *"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_",
    *"=+/ \n", "\u00e9", "\u2028", "\udcff",
]


def _agrees_with_reencoding(segment):
    outcomes = []
    for decoder in (vouchsafe.tokens._b64url_decode_strict, vouchsafe.tokens._b64url_decode_reencoded):
        try:
            outcomes.append(decoder(segment))
        except DecodeError as exc:
            outcomes.append(str(exc))
    return outcomes[0] == outcomes[1]


class TestCanonicalBase64:
    """The alphabet-and-final-symbol check accepts exactly the segments that
    re-encoding reproduces, and fails as it does, with the same text."""

    @given(st.lists(st.sampled_from(_SEGMENT_SYMBOLS), max_size=12).map("".join))
    @settings(max_examples=2000, deadline=None)
    def test_matches_reencoding(self, segment):
        assert _agrees_with_reencoding(segment)

    def test_every_short_segment_matches_reencoding(self):
        for n in range(3):
            for symbols in itertools.product(_SEGMENT_SYMBOLS, repeat=n):
                assert _agrees_with_reencoding("".join(symbols)), symbols

    def test_round_trips_random_bytes(self):
        rng = random.Random(3)
        for n in range(40):
            data = rng.randbytes(n)
            assert vouchsafe.tokens._b64url_decode_strict(b64url(data)) == data


class TestTokenId:
    def test_tid_is_sha256_of_wire(self, alice):
        kp, ident = alice
        t = issue_attest(kp, ident)
        assert t.tid == hashlib.sha256(t.wire.encode()).digest()

    def test_distinct_payloads_distinct_tids(self, alice):
        kp, ident = alice
        assert issue_attest(kp, ident).tid != issue_attest(kp, ident).tid

    def test_stable_across_decode_cycles(self, alice):
        kp, ident = alice
        t = issue_attest(kp, ident)
        assert decode(decode(t.wire).wire).tid == t.tid


class TestDecodeReuse:
    def test_validity_is_verify_computed_once(self, alice, monkeypatch):
        kp, ident = alice
        token = decode(issue_attest(kp, ident).wire)
        calls = []
        real = vouchsafe.tokens.verify
        monkeypatch.setattr(vouchsafe.tokens, "verify", lambda t: calls.append(t) or real(t))
        assert token.validity == real(token)
        assert token.validity is token.validity
        assert calls == [token]

    def test_header_and_extra_claims_are_read_only(self, alice, tmp_path):
        """A Token that load_bundle shares between two loads cannot be
        changed through either of them."""
        kp, ident = alice
        wire = issue_attest(kp, ident, extra={"site": "north"}).wire
        (tmp_path / "a.jwt").write_text(wire)
        (tmp_path / "b.jsonl").write_text(wire + "\n")
        (token,) = load_bundle([tmp_path / "a.jwt"]).tokens
        with pytest.raises(TypeError):
            token.header["alg"] = "none"
        with pytest.raises(TypeError):
            token.claims.extra["site"] = "forged"
        (again,) = load_bundle([tmp_path / "b.jsonl"]).tokens
        assert again is token
        assert (again.header["alg"], again.claims.extra["site"]) == ("EdDSA", "north")
        assert again.validity.ok

import base64
import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vouchsafe import (
    IdentityError,
    PublicKey,
    derive_identity,
    generate_keypair,
    load_keypair,
    parse_identity,
    save_seed,
    validate_binding,
)

# Frozen test vectors, computed before the build with independent tooling:
# the zero-seed public key from a from-scratch RFC 8032 implementation, and
# D0 from coreutils sha256sum plus a standalone base32 conversion.
ZERO_SEED_PUB_HEX = "3b6a27bcceb6a42d62a3a8d02a6f0d73653215771de243a63ac048a18b59da29"
D0 = "mzuhvlpymk6xo3epygfy5h4oeaejofefn3rdhm4qfjmr2dk7fesq"


class TestKeypair:
    def test_zero_seed_vector(self):
        kp = generate_keypair(bytes(32))
        assert kp.public.raw.hex() == ZERO_SEED_PUB_HEX

    def test_raw_key_equals_serialized_raw_encoding(self):
        from cryptography.hazmat.primitives import serialization
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

        for seed in (bytes(32), b"\x07" * 32, bytes(range(32))):
            public = Ed25519PrivateKey.from_private_bytes(seed).public_key()
            raw = public.public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)
            assert generate_keypair(seed).public.raw == raw

    def test_same_seed_same_key(self):
        assert generate_keypair(b"\x07" * 32).public.raw == generate_keypair(b"\x07" * 32).public.raw

    def test_fresh_keypairs_differ(self):
        assert generate_keypair().public.raw != generate_keypair().public.raw

    def test_bad_seed_length(self):
        with pytest.raises(IdentityError):
            generate_keypair(b"\x00" * 31)

    def test_seed_not_in_repr(self):
        kp = generate_keypair(b"\x07" * 32)
        assert (b"\x07" * 32).hex() not in repr(kp)


class TestDigestVector:
    def test_d0_from_zero_raw_key(self):
        pk = PublicKey.from_raw(bytes(32))
        ident = derive_identity(pk, "alice")
        assert ident.digest == D0
        assert ident.urn == f"urn:vouchsafe:alice.{D0}"

    def test_digest_is_52_lowercase_base32(self):
        ident = derive_identity(generate_keypair().public, "x")
        assert len(ident.digest) == 52
        assert all(c in "abcdefghijklmnopqrstuvwxyz234567" for c in ident.digest)

    def test_same_key_different_label_same_digest_distinct_principal(self):
        pk = PublicKey.from_raw(bytes(32))
        a = derive_identity(pk, "alice")
        b = derive_identity(pk, "bob")
        assert a.digest == b.digest
        assert a.urn != b.urn


class TestLabelGrammar:
    @pytest.mark.parametrize("label", ["alice", "a", "x" * 64, "ab-3", "0-0"])
    def test_good_labels(self, label):
        assert derive_identity(PublicKey.from_raw(bytes(32)), label).label == label

    @pytest.mark.parametrize(
        "label", ["", "Alice", "a.b", "x" * 65, "sp ace", "umläut", "under_score", "alice\n"]
    )
    def test_bad_labels(self, label):
        with pytest.raises(IdentityError):
            derive_identity(PublicKey.from_raw(bytes(32)), label)


class TestParse:
    def test_round_trip(self):
        kp = generate_keypair()
        ident = derive_identity(kp.public, "node-7")
        back = parse_identity(ident.urn)
        assert back.label == "node-7"
        assert back.digest == ident.digest
        assert back.urn == ident.urn

    def test_missing_digest(self):
        with pytest.raises(IdentityError):
            parse_identity("urn:vouchsafe:alice")

    def test_wrong_scheme(self):
        with pytest.raises(IdentityError):
            parse_identity(f"urn:other:alice.{D0}")

    def test_digest_wrong_length(self):
        with pytest.raises(IdentityError):
            parse_identity(f"urn:vouchsafe:alice.{D0[:-1]}")

    def test_digest_bad_alphabet(self):
        # 0, 1, 8, 9 are outside the base32 alphabet
        with pytest.raises(IdentityError):
            parse_identity(f"urn:vouchsafe:alice.{'0' * 52}")

    def test_uppercase_digest_rejected(self):
        with pytest.raises(IdentityError):
            parse_identity(f"urn:vouchsafe:alice.{D0.upper()}")

    def test_empty_label(self):
        with pytest.raises(IdentityError):
            parse_identity(f"urn:vouchsafe:.{D0}")

    @pytest.mark.parametrize(
        "urn", [f"urn:vouchsafe:alice\n.{D0}", f"urn:vouchsafe:alice.{D0}\n"], ids=["label", "digest"]
    )
    def test_trailing_newline_rejected(self, urn):
        with pytest.raises(IdentityError):
            parse_identity(urn)


class TestBinding:
    def test_true_by_construction(self):
        kp = generate_keypair()
        assert validate_binding(derive_identity(kp.public, "x"), kp.public)

    def test_false_for_other_key(self):
        a, b = generate_keypair(), generate_keypair()
        assert not validate_binding(derive_identity(a.public, "x"), b.public)

    def test_false_for_flipped_digest_char(self):
        pk = PublicKey.from_raw(bytes(32))
        flipped = ("n" if D0[0] != "n" else "m") + D0[1:]
        assert not validate_binding(parse_identity(f"urn:vouchsafe:alice.{flipped}"), pk)

    @given(seed=st.binary(min_size=32, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_binding_soundness(self, seed):
        kp = generate_keypair(seed)
        ident = derive_identity(kp.public, "p")
        assert validate_binding(ident, kp.public)
        other = generate_keypair()
        if other.public.raw != kp.public.raw:
            assert not validate_binding(ident, other.public)


class TestDerEncoding:
    def test_der_reconstruction(self):
        kp = generate_keypair()
        pk2 = PublicKey.from_der(kp.public.der)
        assert pk2 == kp.public

    def test_b64_round_trip_and_lenient_padding(self):
        kp = generate_keypair()
        assert PublicKey.from_b64(kp.public.b64) == kp.public
        assert PublicKey.from_b64(kp.public.b64.rstrip("=")) == kp.public

    def test_encoding_invariance(self):
        # All three entry points land on the same digest for the same raw key.
        kp = generate_keypair()
        via_raw = derive_identity(PublicKey.from_raw(kp.public.raw), "x")
        via_der = derive_identity(PublicKey.from_der(kp.public.der), "x")
        via_b64 = derive_identity(PublicKey.from_b64(kp.public.b64), "x")
        assert via_raw == via_der == via_b64

    def test_wrong_prefix_rejected(self):
        bad = b"\x30\x2a" + b"\x00" * 42
        with pytest.raises(IdentityError):
            PublicKey.from_der(bad)

    def test_wrong_length_rejected(self):
        with pytest.raises(IdentityError):
            PublicKey.from_der(b"\x00" * 43)

    def test_garbage_b64_rejected(self):
        with pytest.raises(IdentityError):
            PublicKey.from_b64("!!not-base64!!")


class TestKeyFiles:
    def test_seed_file_round_trip(self, tmp_path):
        kp = generate_keypair()
        path = tmp_path / "k.seed"
        save_seed(path, kp)
        text = path.read_text()
        assert text.startswith("ed25519-seed-hex:") and text.endswith("\n")
        assert load_keypair(path).public.raw == kp.public.raw

    def test_seed_file_is_owner_only_whatever_the_umask(self, tmp_path):
        path = tmp_path / "k.seed"
        old = os.umask(0)
        try:
            save_seed(path, generate_keypair())
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600

    def test_existing_path_is_never_overwritten(self, tmp_path):
        path = tmp_path / "k.seed"
        save_seed(path, generate_keypair(b"\x01" * 32))
        before = path.read_bytes()
        with pytest.raises(FileExistsError, match="k.seed"):
            save_seed(path, generate_keypair(b"\x02" * 32))
        assert path.read_bytes() == before

    def test_non_utf8_seed_file_is_identity_error(self, tmp_path):
        path = tmp_path / "k.seed"
        path.write_bytes(b"\xff\xfe" + b"ed25519-seed-hex:" + b"00" * 32)
        with pytest.raises(IdentityError, match="not UTF-8") as info:
            load_keypair(path)
        assert str(path) in str(info.value)

    def test_garbage_seed_file(self, tmp_path):
        path = tmp_path / "bad.seed"
        path.write_text("not a seed\n")
        with pytest.raises(IdentityError):
            load_keypair(path)

    def test_short_hex_rejected(self, tmp_path):
        path = tmp_path / "short.seed"
        path.write_text("ed25519-seed-hex:abcd\n")
        with pytest.raises(IdentityError):
            load_keypair(path)

    def test_pem_export_parses_externally(self):
        from cryptography.hazmat.primitives.serialization import load_pem_public_key

        kp = generate_keypair()
        loaded = load_pem_public_key(kp.public.to_pem().encode())
        from cryptography.hazmat.primitives import serialization

        raw = loaded.public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)
        assert raw == kp.public.raw


@given(
    seed=st.binary(min_size=32, max_size=32),
    label=st.from_regex(r"[a-z0-9-]{1,64}", fullmatch=True),
)
@settings(max_examples=100, deadline=None)
def test_derive_parse_round_trip_property(seed, label):
    kp = generate_keypair(seed)
    ident = derive_identity(kp.public, label)
    back = parse_identity(ident.urn)
    assert (back.label, back.digest) == (label, ident.digest)
    assert validate_binding(back, kp.public)


def test_urn_b32_against_stdlib():
    # The digest must be exactly stdlib base32 of SHA-256, lowercased, unpadded.
    import hashlib

    kp = generate_keypair(b"\x2a" * 32)
    expect = base64.b32encode(hashlib.sha256(kp.public.raw).digest()).decode().rstrip("=").lower()
    assert derive_identity(kp.public, "x").digest == expect

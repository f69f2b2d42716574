import contextlib
import gc
import io
import json
import os
import random
import re
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generators
import oracles
import vouchsafe.cli
import vouchsafe.graph
import vouchsafe.resolution
import vouchsafe.tokens
from vouchsafe import (
    TokenSet,
    decode,
    filter_valid,
    issue_attest,
    issue_vouch,
    load_bundle,
    resolve,
    temporal_filter,
    verify,
)
from vouchsafe.cli import main


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def keyfiles(tmp_path, run):
    """Two identities created through the CLI itself: a leaf and a root."""
    out = {}
    for name, seed in [("alice", "11" * 32), ("root", "22" * 32)]:
        seed_path = tmp_path / f"{name}.seed"
        code, stdout, _ = run("keygen", "--label", name, "--out", str(seed_path), "--seed-hex", seed)
        assert code == 0
        out[name] = (seed_path, stdout.strip())
    return out


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestKeygen:
    def test_prints_urn(self, tmp_path, run):
        code, stdout, _ = run("keygen", "--label", "alice", "--out", str(tmp_path / "k.seed"))
        assert code == 0
        assert stdout.startswith("urn:vouchsafe:alice.")

    def test_bad_label_exits_2(self, tmp_path, run):
        code, _, err = run("keygen", "--label", "Bad Label!", "--out", str(tmp_path / "k.seed"))
        assert code == 2
        assert "label" in err

    def test_seed_hex_determinism(self, tmp_path, run):
        c1, out1, _ = run("keygen", "--label", "a", "--out", str(tmp_path / "k1"), "--seed-hex", "ab" * 32)
        c2, out2, _ = run("keygen", "--label", "a", "--out", str(tmp_path / "k2"), "--seed-hex", "ab" * 32)
        assert c1 == c2 == 0 and out1 == out2

    def test_secret_not_on_stdout(self, tmp_path, run):
        seed = "cd" * 32
        _, stdout, err = run("keygen", "--label", "a", "--out", str(tmp_path / "k"), "--seed-hex", seed)
        assert seed not in stdout and seed not in err

    def test_pub_out_pem(self, tmp_path, run):
        pub = tmp_path / "k.pub"
        code, _, _ = run("keygen", "--label", "a", "--out", str(tmp_path / "k"), "--pub-out", str(pub))
        assert code == 0
        assert pub.read_text().startswith("-----BEGIN PUBLIC KEY-----")


class TestIssue:
    def test_attest_one_verifiable_line(self, keyfiles, run):
        seed_path, _ = keyfiles["alice"]
        code, stdout, _ = run("issue", "attest", "--key", str(seed_path), "--label", "alice",
                              "--purpose", "read")
        assert code == 0
        lines = stdout.splitlines()
        assert len(lines) == 1
        token = decode(lines[0])
        assert verify(token).ok
        assert token.claims.purpose == "read"

    def test_vouch_vch_sum_matches_subject_file(self, keyfiles, tmp_path, run):
        import hashlib

        alice_seed, _ = keyfiles["alice"]
        root_seed, _ = keyfiles["root"]
        _, a_out, _ = run("issue", "attest", "--key", str(alice_seed), "--label", "alice")
        a_path = write(tmp_path / "a.jwt", a_out)
        code, v_out, _ = run("issue", "vouch", "--key", str(root_seed), "--label", "root",
                             "--subject", a_path, "--purpose", "read")
        assert code == 0
        vouch = decode(v_out.strip())
        assert vouch.claims.vch_sum == hashlib.sha256(a_out.strip().encode()).hexdigest()

    def test_revoke_foreign_target_exits_3(self, keyfiles, tmp_path, run):
        alice_seed, _ = keyfiles["alice"]
        root_seed, _ = keyfiles["root"]
        _, a_out, _ = run("issue", "attest", "--key", str(alice_seed), "--label", "alice")
        a_path = write(tmp_path / "a.jwt", a_out)
        code, _, err = run("issue", "revoke", "--key", str(root_seed), "--label", "root",
                           "--target", a_path)
        assert code == 3
        assert "same identity" in err

    def test_burn(self, keyfiles, run):
        alice_seed, alice_urn = keyfiles["alice"]
        code, stdout, _ = run("issue", "burn", "--key", str(alice_seed), "--label", "alice")
        assert code == 0
        token = decode(stdout.strip())
        assert token.claims.burns == alice_urn

    def test_extra_claims(self, keyfiles, run):
        alice_seed, _ = keyfiles["alice"]
        code, stdout, _ = run("issue", "attest", "--key", str(alice_seed), "--label", "alice",
                              "--claim", "device=unit9", "--claim", "site=lab")
        assert code == 0
        assert decode(stdout.strip()).claims.extra == {"device": "unit9", "site": "lab"}

    def test_bad_claim_flag_exits_2(self, keyfiles, run):
        alice_seed, _ = keyfiles["alice"]
        code, _, _ = run("issue", "attest", "--key", str(alice_seed), "--label", "alice",
                         "--claim", "novalue")
        assert code == 2

    def test_non_utf8_key_file_is_data_error(self, tmp_path, run):
        key = tmp_path / "k.seed"
        key.write_bytes(b"\xff\xfe" + b"\x00" * 40)
        code, stdout, err = run("issue", "attest", "--key", str(key), "--label", "alice")
        assert code == 3 and stdout == ""
        assert err.startswith(f"error: {key}: not UTF-8")
        assert "unexpected" not in err and len(err.splitlines()) == 1


_ALICE_SEED = b"\x11" * 32
_OTHER_KEY = oracles.standard_claims(b"\x22" * 32, "other", oracles.ATTEST, "j")["iss_key"]
_VCH_ISS = "urn:vouchsafe:x." + "a" * 52
_HEX64 = "0" * 64
_ES256_HEADER = oracles.b64url(json.dumps({"alg": "ES256", "typ": "JWT"}).encode())


def _crafted(kind=oracles.ATTEST, jti="j1", signer=_ALICE_SEED, **claims):
    """A wire whose claims name alice unless ``claims`` overrides them, signed by ``signer``."""
    claims = oracles.standard_claims(_ALICE_SEED, "alice", kind, jti, **claims)
    return oracles.craft_wire(signer, claims)


def _schema_failure(reason):
    return (False, True, True, False, [reason])


# One token per check verify can fail, with its whole inspect --json validity
# object: (ok, sig_ok, id_ok, schema_ok, sorted reasons).
_VALIDITY_CASES = [
    pytest.param(_crafted(), (True, True, True, True, []), id="valid"),
    pytest.param(
        ".".join([_ES256_HEADER, *_crafted().split(".")[1:]]),
        (False, False, True, True, ["sig:alg-not-eddsa"]),
        id="alg-not-eddsa",
    ),
    pytest.param(
        _crafted(iss_key="AAAA"),
        (False, False, False, True, ["id:unparseable", "sig:iss-key-unparseable"]),
        id="iss-key-unparseable",
    ),
    pytest.param(
        _crafted(signer=b"\x22" * 32),
        (False, False, True, True, ["sig:signature-mismatch"]),
        id="signature-mismatch",
    ),
    pytest.param(
        _crafted(signer=b"\x22" * 32, iss_key=_OTHER_KEY),
        (False, True, False, True, ["id:digest-mismatch"]),
        id="digest-mismatch",
    ),
    pytest.param(_crafted(jti=""), _schema_failure("schema:empty-jti"), id="empty-jti"),
    pytest.param(_crafted(sub="j0"), _schema_failure("schema:sub-not-self"), id="sub-not-self"),
    pytest.param(
        _crafted(oracles.VOUCH, sub="j0", vch_sum=_HEX64),
        _schema_failure("schema:missing-vch-iss"),
        id="missing-vch-iss",
    ),
    pytest.param(
        _crafted(oracles.VOUCH, sub="j0", vch_iss=_VCH_ISS),
        _schema_failure("schema:missing-vch-sum"),
        id="missing-vch-sum",
    ),
    pytest.param(
        _crafted(oracles.VOUCH, sub="j0", vch_iss=_VCH_ISS, vch_sum="0" * 63 + "G"),
        _schema_failure("schema:vch-sum-not-hex64"),
        id="vch-sum-not-hex64",
    ),
    pytest.param(
        _crafted(oracles.REVOKE, sub="j0", vch_iss=_VCH_ISS, vch_sum=_HEX64),
        _schema_failure("schema:missing-revokes"),
        id="missing-revokes",
    ),
    pytest.param(
        _crafted(oracles.BURN), _schema_failure("schema:missing-burns"), id="missing-burns"
    ),
    pytest.param(
        _crafted(oracles.BURN, burns=_VCH_ISS),
        _schema_failure("schema:burns-not-issuer"),
        id="burns-not-issuer",
    ),
]


class TestInspect:
    def test_valid_attest(self, keyfiles, tmp_path, run):
        alice_seed, _ = keyfiles["alice"]
        _, a_out, _ = run("issue", "attest", "--key", str(alice_seed), "--label", "alice")
        a_path = write(tmp_path / "a.jwt", a_out)
        code, stdout, _ = run("inspect", a_path)
        assert code == 0
        assert "kind:    vch:attest" in stdout
        assert "sig_ok:  True" in stdout

    def test_tampered_token_still_exit_0(self, keyfiles, tmp_path, run):
        alice_seed, _ = keyfiles["alice"]
        _, a_out, _ = run("issue", "attest", "--key", str(alice_seed), "--label", "alice")
        h, p, s = a_out.strip().split(".")
        tampered = f"{h}.{p}.{'B' if s[0] != 'B' else 'C'}{s[1:]}"
        path = write(tmp_path / "t.jwt", tampered + "\n")
        code, stdout, _ = run("inspect", path)
        assert code == 0  # inspection succeeds; validity is data
        assert "sig_ok:  False" in stdout

    def test_empty_file_exits_3(self, tmp_path, run):
        path = write(tmp_path / "e.jwt", "")
        code, _, _ = run("inspect", path)
        assert code == 3

    def test_non_utf8_token_file_exits_3(self, tmp_path, run):
        path = tmp_path / "t.jwt"
        path.write_bytes(b"\xff\xfe")
        code, _, err = run("inspect", str(path))
        assert code == 3
        assert err.startswith("error:") and "not UTF-8" in err and "Traceback" not in err

    def test_json_schema_field(self, keyfiles, tmp_path, run):
        alice_seed, _ = keyfiles["alice"]
        _, a_out, _ = run("issue", "attest", "--key", str(alice_seed), "--label", "alice")
        path = write(tmp_path / "a.jwt", a_out)
        code, stdout, _ = run("inspect", path, "--json")
        doc = json.loads(stdout)
        assert doc["schema"] == "zicg/1"
        assert doc["validity"]["ok"] is True

    @pytest.mark.parametrize("wire, want", _VALIDITY_CASES)
    def test_json_validity_object(self, tmp_path, run, wire, want):
        code, stdout, err = run("inspect", write(tmp_path / "t.jwt", wire + "\n"), "--json")
        assert (code, err) == (0, "")
        fields = ("ok", "sig_ok", "id_ok", "schema_ok", "reasons")
        assert json.loads(stdout)["validity"] == dict(zip(fields, want))


class TestResolve:
    def test_burned_attest_listed_omitted(self, keyfiles, tmp_path, run):
        alice_seed, _ = keyfiles["alice"]
        _, a_out, _ = run("issue", "attest", "--key", str(alice_seed), "--label", "alice")
        _, b_out, _ = run("issue", "burn", "--key", str(alice_seed), "--label", "alice")
        bundle = write(tmp_path / "b.jsonl", a_out + b_out)
        code, stdout, _ = run("resolve", bundle, "--json")
        assert code == 0
        doc = json.loads(stdout)
        assert [e["kind"] for e in doc["surviving"]] == ["vch:burn"]
        assert doc["omitted"][0]["reason"] == "BURNED"

    def test_all_valid_survive(self, keyfiles, tmp_path, run):
        alice_seed, _ = keyfiles["alice"]
        outs = [run("issue", "attest", "--key", str(alice_seed), "--label", "alice")[1] for _ in range(3)]
        bundle = write(tmp_path / "b.jsonl", "".join(outs))
        code, stdout, _ = run("resolve", bundle, "--json")
        doc = json.loads(stdout)
        assert len(doc["surviving"]) == 3 and doc["omitted"] == []

    def test_expired_via_now(self, keyfiles, tmp_path, run):
        alice_seed, _ = keyfiles["alice"]
        _, a_out, _ = run("issue", "attest", "--key", str(alice_seed), "--label", "alice",
                          "--exp", "100")
        bundle = write(tmp_path / "b.jsonl", a_out)
        code, stdout, _ = run("resolve", bundle, "--now", "200", "--json")
        doc = json.loads(stdout)
        assert doc["surviving"] == []
        assert doc["omitted"][0]["reason"] == "EXPIRED"
        assert doc["now"] == 200

    def test_matches_library_pipeline(self, keyfiles, tmp_path, run):
        alice_seed, _ = keyfiles["alice"]
        root_seed, _ = keyfiles["root"]
        _, a_out, _ = run("issue", "attest", "--key", str(alice_seed), "--label", "alice")
        a_path = write(tmp_path / "a.jwt", a_out)
        _, v_out, _ = run("issue", "vouch", "--key", str(root_seed), "--label", "root",
                          "--subject", a_path)
        bundle = write(tmp_path / "b.jsonl", a_out + v_out)
        _, stdout, _ = run("resolve", bundle, "--json")
        doc = json.loads(stdout)
        tokens = [decode(line) for line in (a_out.strip(), v_out.strip())]
        valid, _ = filter_valid(TokenSet(tokens))
        clean = resolve(valid)
        assert {e["tid"] for e in doc["surviving"]} == {t.tid_hex for t in clean.tokens}


    def test_non_utf8_line_is_one_diagnostic(self, keyfiles, tmp_path, run):
        alice_seed, _ = keyfiles["alice"]
        _, a_out, _ = run("issue", "attest", "--key", str(alice_seed), "--label", "alice")
        bundle = tmp_path / "b.jsonl"
        bundle.write_bytes(b"\xff\n" + a_out.encode())
        code, stdout, _ = run("resolve", str(bundle), "--json")
        assert code == 0
        doc = json.loads(stdout)
        assert len(doc["surviving"]) == 1
        assert doc["diagnostics"] == [{"source": str(bundle), "line": 1, "code": "not-utf-8"}]


    def test_deeply_nested_line_is_one_diagnostic(self, keyfiles, tmp_path, run):
        deep = oracles.b64url(b"[" * 100000)
        bundle = tmp_path / "b.jsonl"
        bundle.write_text(f"{deep}.{deep}.{oracles.b64url(b'x' * 64)}\n")
        code, stdout, _ = run("resolve", str(bundle), "--json")
        assert code == 0
        assert json.loads(stdout)["diagnostics"] == [
            {"source": str(bundle), "line": 1, "code": "decode: header JSON nests too deeply"}
        ]


class TestEvaluate:
    @pytest.fixture
    def chain_setup(self, keyfiles, tmp_path, run):
        alice_seed, _ = keyfiles["alice"]
        root_seed, root_urn = keyfiles["root"]
        _, a_out, _ = run("issue", "attest", "--key", str(alice_seed), "--label", "alice")
        a_path = write(tmp_path / "a.jwt", a_out)
        _, v_out, _ = run("issue", "vouch", "--key", str(root_seed), "--label", "root",
                          "--subject", a_path, "--purpose", "read")
        bundle = write(tmp_path / "b.jsonl", a_out + v_out)
        trust = write(tmp_path / "trust.json",
                      json.dumps([{"identity": root_urn, "scope": ["read", "write"]}]))
        return bundle, trust, a_path, decode(a_out.strip())

    def test_accept_exit_0(self, chain_setup, run):
        bundle, trust, a_path, a = chain_setup
        code, stdout, _ = run("evaluate", bundle, "--trust", trust, "--subject", a_path,
                              "--require", "read", "--json")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["verdict"] == "ACCEPT"
        assert doc["witness"]["effective_scope"] == ["read"]
        assert doc["witness"]["path"][-1]["tid"] == a.tid_hex

    def test_reject_scope_exit_1(self, chain_setup, run):
        bundle, trust, a_path, _ = chain_setup
        code, stdout, _ = run("evaluate", bundle, "--trust", trust, "--subject", a_path,
                              "--require", "write", "--json")
        assert code == 1
        assert json.loads(stdout)["reason"] == "SCOPE_INSUFFICIENT"

    def test_subject_by_tid_hex(self, chain_setup, run):
        bundle, trust, _, a = chain_setup
        code, stdout, _ = run("evaluate", bundle, "--trust", trust, "--subject", a.tid_hex,
                              "--require", "read", "--json")
        assert code == 0 and json.loads(stdout)["verdict"] == "ACCEPT"

    @pytest.mark.parametrize("require", ["read", "write"])
    def test_subject_tid_hex_in_any_case(self, chain_setup, run, require):
        bundle, trust, _, a = chain_setup
        mixed = "".join(c.upper() if i % 2 else c for i, c in enumerate(a.tid_hex))
        for flags in ((), ("--json",), ("--json", "--explain")):
            runs = [
                run("evaluate", bundle, "--trust", trust, "--subject", subject,
                    "--require", require, *flags)
                for subject in (a.tid_hex, a.tid_hex.upper(), mixed)
            ]
            assert runs[0][0] == (0 if require == "read" else 1)
            assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_unknown_root_rejects_before_traversal(self, chain_setup, tmp_path, run):
        bundle, _, a_path, _ = chain_setup
        d0 = "mzuhvlpymk6xo3epygfy5h4oeaejofefn3rdhm4qfjmr2dk7fesq"
        trust = write(tmp_path / "trust2.json",
                      json.dumps([{"identity": f"urn:vouchsafe:ghost.{d0}", "scope": "*"}]))
        code, stdout, _ = run("evaluate", bundle, "--trust", trust, "--subject", a_path, "--json")
        assert code == 1
        assert json.loads(stdout)["reason"] == "NO_ROOTED_PATH"

    def test_bad_trust_config_exit_2(self, chain_setup, tmp_path, run):
        bundle, _, a_path, _ = chain_setup
        trust = write(tmp_path / "bad.json", "{nope")
        code, _, err = run("evaluate", bundle, "--trust", trust, "--subject", a_path)
        assert code == 2

    def test_trust_urn_with_trailing_newline_exits_2(self, chain_setup, keyfiles, tmp_path, run):
        bundle, _, a_path, _ = chain_setup
        _, root_urn = keyfiles["root"]
        trust = write(tmp_path / "nl.json", json.dumps([{"identity": root_urn + "\n", "scope": "*"}]))
        code, stdout, err = run("evaluate", bundle, "--trust", trust, "--subject", a_path)
        assert (code, stdout) == (2, "")
        assert err.startswith("error:") and "root #0" in err

    @pytest.mark.parametrize("content", [b"[\xff]", b"[" * 100000], ids=["not-utf-8", "deep"])
    def test_unreadable_trust_config_exit_2(self, chain_setup, tmp_path, run, content):
        bundle, _, a_path, _ = chain_setup
        trust = tmp_path / "trust.json"
        trust.write_bytes(content)
        code, _, err = run("evaluate", bundle, "--trust", str(trust), "--subject", a_path)
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_explain_lists_paths(self, chain_setup, run):
        bundle, trust, a_path, _ = chain_setup
        code, stdout, _ = run("evaluate", bundle, "--trust", trust, "--subject", a_path,
                              "--require", "read", "--explain", "--json")
        doc = json.loads(stdout)
        assert len(doc["explain"]["paths"]) == 1
        assert doc["explain"]["truncated"] is False

    def test_human_output_accept(self, chain_setup, run):
        bundle, trust, a_path, _ = chain_setup
        code, stdout, _ = run("evaluate", bundle, "--trust", trust, "--subject", a_path,
                              "--require", "read")
        assert code == 0
        assert stdout.startswith("ACCEPT")

    def test_matches_library_evaluation(self, chain_setup, run):
        # The command is a thin wrapper: the same library call sequence must
        # produce the identical witness.
        from vouchsafe import (
            Request,
            TokenSet,
            Verdict,
            evaluate,
            filter_valid,
            load_bundle,
            load_trust_config,
            resolve,
        )

        bundle, trust, a_path, a = chain_setup
        _, stdout, _ = run("evaluate", bundle, "--trust", trust, "--subject", a_path,
                           "--require", "read", "--json")
        doc = json.loads(stdout)
        valid, _ = filter_valid(load_bundle([bundle]).tokens)
        decision = evaluate(
            resolve(valid),
            Request(a.tid, frozenset({"read"}), tuple(load_trust_config(trust))),
        )
        assert decision.verdict is Verdict.ACCEPT
        assert [t.tid_hex for t in decision.witness.path] == [
            hop["tid"] for hop in doc["witness"]["path"]
        ]
        assert doc["witness"]["effective_scope"] == sorted(
            decision.witness.effective_scope.labels
        )

    @pytest.mark.parametrize("flag,value", [("--max-paths", "0"), ("--max-depth", "-1")])
    def test_out_of_range_limit_exits_2(self, chain_setup, capsys, flag, value):
        bundle, trust, a_path, _ = chain_setup
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", bundle, "--trust", trust, "--subject", a_path, "--explain", flag, value])
        assert exc.value.code == 2
        low = {"--max-paths": 1, "--max-depth": 0}[flag]
        assert capsys.readouterr().err.endswith(
            f"\nvouchsafe evaluate: error: argument {flag}: must be at least {low}\n"
        )

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["evaluate", "", "--trust", "{trust}", "--subject", "{a}"], "bundle"),
            (["evaluate", "{bundle}", "--trust", "", "--subject", "{a}"], "--trust"),
            (["evaluate", "{bundle}", "--trust", "{trust}", "--subject", ""], "--subject"),
            (["resolve", "{bundle}", ""], "bundle"),
            (["inspect", ""], "token"),
            (["keygen", "--label", "x", "--out", ""], "--out"),
            (["keygen", "--label", "x", "--out", "{a}", "--pub-out", ""], "--pub-out"),
            (["issue", "attest", "--key", "", "--label", "alice"], "--key"),
            (["issue", "vouch", "--key", "{key}", "--label", "alice", "--subject", ""], "--subject"),
            (["issue", "revoke", "--key", "{key}", "--label", "alice", "--target", ""], "--target"),
        ],
    )
    def test_empty_path_exits_2(self, chain_setup, keyfiles, capsys, argv, name):
        bundle, trust, a_path, _ = chain_setup
        paths = {"bundle": bundle, "trust": trust, "a": a_path, "key": str(keyfiles["alice"][0])}
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**paths) for arg in argv])
        assert exc.value.code == 2
        assert f"argument {name}: must not be empty" in capsys.readouterr().err

    def test_depth_limited_reported_only_when_true(self, chain_setup, run):
        bundle, trust, a_path, _ = chain_setup
        code, stdout, _ = run("evaluate", bundle, "--trust", trust, "--subject", a_path,
                              "--max-depth", "0", "--json")
        assert code == 1
        doc = json.loads(stdout)
        assert (doc["reason"], doc["depth_limited"]) == ("NO_ROOTED_PATH", True)
        code, stdout, _ = run("evaluate", bundle, "--trust", trust, "--subject", a_path,
                              "--max-depth", "0")
        assert code == 1 and "depth_limited" in stdout
        code, stdout, _ = run("evaluate", bundle, "--trust", trust, "--subject", a_path,
                              "--require", "write", "--json")
        assert code == 1 and "depth_limited" not in json.loads(stdout)

    def test_explain_builds_graph_once(self, chain_setup, run, graph_builds):
        bundle, trust, a_path, _ = chain_setup
        code, _, _ = run("evaluate", bundle, "--trust", trust, "--subject", a_path,
                         "--require", "read", "--explain", "--json")
        assert code == 0
        assert len(graph_builds) == 1

    def test_unreadable_bundle_exits_3(self, chain_setup, tmp_path, run):
        _, trust, a_path, _ = chain_setup
        code, _, err = run("evaluate", str(tmp_path / "missing.jsonl"),
                           "--trust", trust, "--subject", a_path)
        assert code == 3
        assert "bundle" in err


class TestSplitVerify:
    """Above filter_valid's fork threshold the CLI's output does not depend
    on whether the signatures were checked in forked children."""

    @pytest.fixture(scope="class")
    def big_bundle(self, tmp_path_factory):
        """A wire mix, plus a tree of vouches over one subject, large enough
        that ``evaluate`` (which verifies only the subject's closure) forks too;
        one vouch in five has a bad signature."""
        rng = random.Random(401)
        size = vouchsafe.resolution._FORK_MIN_TOKENS + 40
        wires = generators.random_wire_mix(rng, size)
        kp, ident = generators.POOL[0]
        tree = [issue_attest(kp, ident, purpose="read write")]
        for i in range(size):
            kp, ident = generators.POOL[rng.randrange(len(generators.POOL))]
            vouch = issue_vouch(kp, ident, rng.choice(tree), purpose=generators.random_purpose(rng))
            if i % 5 == 0:
                wires.append(generators.bad_signature(vouch))
            else:
                tree.append(vouch)
                wires.append(vouch.wire)
        subject = tree[0].tid_hex
        wires.append(tree[0].wire)
        d = tmp_path_factory.mktemp("split")
        bundle = write(d / "b.jsonl", "".join(w + "\n" for w in wires))
        roots = [{"identity": ident.urn, "scope": "*" if i % 2 else ["read"]}
                 for i, (_, ident) in enumerate(generators.POOL[:3])]
        return bundle, write(d / "trust.json", json.dumps(roots)), subject

    @pytest.mark.parametrize("command", ["resolve", "evaluate"])
    def test_same_output_on_one_or_two_cpus(self, big_bundle, run, command):
        bundle, trust, subject = big_bundle
        argv = [command, bundle, "--json"]
        if command == "evaluate":
            argv += ["--explain", "--trust", trust, "--subject", subject, "--require", "read"]
        outputs, forks, real_fork = [], [], os.fork
        for cpus in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
                mp.setattr(vouchsafe.resolution, "_CPU_QUOTA_FILES", ())
                mp.setattr(os, "fork", lambda: forks.append(cpus) or real_fork())
                gc.collect()  # no Token of the previous run, or its report, is reused
                outputs.append(run(*argv))
        assert forks == [2]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] in (0, 1) and outputs[0][1]

    def test_same_output_when_started_with_sigchld_ignored(self, big_bundle):
        """A parent that ignores SIGCHLD passes that on through exec; then the
        children would be reaped unseen, so the CLI verifies serially."""
        bundle, _, _ = big_bundle
        argv = [sys.executable, "-m", "vouchsafe.cli", "resolve", bundle, "--json"]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        runs = [
            subprocess.run(argv, capture_output=True, timeout=120, env=env, preexec_fn=preexec)
            for preexec in (None, lambda: signal.signal(signal.SIGCHLD, signal.SIG_IGN))
        ]
        outputs = [(r.returncode, r.stdout, r.stderr) for r in runs]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] in (0, 1) and outputs[0][1]

    def test_unflushed_stdio_is_written_once(self):
        script = """if True:
            import os, sys
            import vouchsafe as vs
            import vouchsafe.resolution
            kp = vs.generate_keypair(bytes(32))
            ident = vs.derive_identity(kp.public, "a")
            wires = [vs.issue_attest(kp, ident).wire for _ in range(6)]
            vouchsafe.resolution._FORK_MIN_TOKENS = 2
            vouchsafe.resolution._usable_cpus = lambda: 2
            forks, real_fork = [], os.fork
            os.fork = lambda: forks.append(1) or real_fork()
            sys.stdout.write("out-before ")
            sys.stderr.write("err-before ")
            valid, _ = vs.filter_valid(vs.TokenSet(vs.decode(w) for w in wires))
            print(f"valid={len(valid)} forks={len(forks)}")
        """
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, b"out-before valid=6 forks=1\n", b"err-before "
        )


def _three_hop_chain() -> list[str]:
    """Wires of an attest by id4 and vouches by id2, id1 and id0 above it,
    subject first; only wires are kept, so no Token outlives a run."""
    kp, ident = generators.POOL[4]
    chain = [issue_attest(kp, ident, purpose="read")]
    for i in (2, 1, 0):
        kp, ident = generators.POOL[i]
        chain.append(issue_vouch(kp, ident, chain[-1], purpose="read"))
    return [t.wire for t in chain]


def test_evaluate_verifies_only_the_request_closure(tmp_path, run, monkeypatch):
    """Unrelated and invalid tokens added to a bundle cost ``evaluate`` no
    Token and no signature check: the Tokens built and the ``verify`` calls
    are the 4-token chain's, with 150 and with 300 noise lines."""
    chain = _three_hop_chain()
    subject = oracles.tid_hex_of(chain[0])
    trust = write(tmp_path / "trust.json", json.dumps([{"identity": generators.POOL[0][1].urn,
                                                         "scope": "*"}]))
    built, verified = [], []
    real_decode, real_verify = vouchsafe.tokens._decode_unseen, vouchsafe.tokens.verify
    monkeypatch.setattr(vouchsafe.tokens, "_decode_unseen", lambda w: built.append(w) or real_decode(w))
    monkeypatch.setattr(vouchsafe.tokens, "verify", lambda t: verified.append(t.tid) or real_verify(t))
    n = 150
    counts, outputs = [], []
    for size in (n, 2 * n):
        noise = generators.random_wire_mix(random.Random(size), size)
        bundle = write(tmp_path / f"b{size}.jsonl", "".join(w + "\n" for w in noise + chain))
        gc.collect()  # no Token of the previous run, or its report, is reused
        built.clear()
        verified.clear()
        code, out, _ = run("evaluate", bundle, "--trust", trust, "--subject", subject,
                           "--require", "read", "--explain", "--json")
        counts.append((sorted(built), len(verified)))
        outputs.append((code, json.loads(out)["witness"]))
    assert counts == [(sorted(chain), len(chain))] * 2
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_evaluate_computes_no_near_miss(tmp_path, run, monkeypatch):
    """An attest, n vouches of it sharing one (issuer, jti), and n vouches
    whose ``vch_sum`` is the attest's tid but whose reference names that
    pair: all 2n + 1 are in the attest's closure, and its graph has n * n
    near-misses.  ``evaluate`` computes none of them; reading the graph's
    diagnostics afterwards gives all of them."""
    n = 12
    seed4, seed1 = (generators.SEED_BY_URN[generators.POOL[i][1].urn] for i in (4, 1))
    attest = oracles.craft_wire(seed4, oracles.standard_claims(seed4, "id4", oracles.ATTEST, "a"))
    ref = {"sub": "a", "vch_iss": generators.POOL[4][1].urn, "vch_sum": oracles.tid_hex_of(attest)}
    shared = [oracles.craft_wire(seed1, oracles.standard_claims(seed1, "id1", oracles.VOUCH, "same", **ref,
                                                                note=str(i))) for i in range(n)]
    misnamed = {**ref, "sub": "same", "vch_iss": generators.POOL[1][1].urn}
    wrong = [oracles.craft_wire(seed1, oracles.standard_claims(seed1, "id1", oracles.VOUCH, f"w{i}", **misnamed))
             for i in range(n)]
    bundle = write(tmp_path / "b.jsonl", "".join(w + "\n" for w in [attest, *shared, *wrong]))
    trust = write(tmp_path / "trust.json", json.dumps([{"identity": generators.POOL[1][1].urn,
                                                         "scope": "*"}]))
    pairs, cleans = [], []
    real_evaluate = vouchsafe.cli.evaluate
    diagnostics = vouchsafe.graph.CapabilityGraph.diagnostics
    monkeypatch.setattr(vouchsafe.cli, "evaluate", lambda clean, *a, **k: cleans.append(clean)
                        or real_evaluate(clean, *a, **k))
    monkeypatch.setattr(vouchsafe.graph.CapabilityGraph, "diagnostics",
                        property(lambda g: pairs.extend(diagnostics.fget(g)) or g._diagnostics))
    code, out, _ = run("evaluate", bundle, "--trust", trust, "--subject", oracles.tid_hex_of(attest), "--json")
    assert (code, json.loads(out)["verdict"], pairs) == (0, "ACCEPT", [])
    (clean,) = cleans
    assert len(clean.tokens) == 2 * n + 1 and clean.graph._diagnostics is None
    assert len(clean.graph.diagnostics) == len(pairs) == n * n


def test_cli_import_skips_keygen_and_issuance_modules():
    """Starting the CLI needs none of these (key generation, issuance and
    forked verification import what they use); every CLI start would pay for them."""
    script = (
        "import sys, vouchsafe.cli; "
        "print(sorted({'uuid', 'cryptography.hazmat.primitives.serialization', 'pickle', 'signal', "
        "'logging', 'secrets', 'hmac'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


class TestNeverExitOneWithoutReject:
    def test_unexpected_failure_exits_3_with_one_line(self, tmp_path, run, monkeypatch):
        def boom(valid):
            raise RuntimeError("internal\nfailure")

        monkeypatch.setattr(vouchsafe.cli, "resolve", boom)
        bundle = tmp_path / "b.jsonl"
        bundle.write_text("")
        code, stdout, err = run("resolve", str(bundle))
        assert code == 3
        assert (stdout, err) == ("", "error: unexpected RuntimeError: internal failure\n")


@given(seed=st.integers(0, 2**32 - 1), now=st.sampled_from([None, 120, 400]))
@settings(max_examples=40, deadline=None)
def test_resolve_fates_partition_the_bundle(tmp_path_factory, seed, now):
    """Each token of the bundle is kept or has exactly one omission entry, and
    each entry's reason agrees with the stage outputs."""
    rng = random.Random(seed)
    wires = [t.wire for t in generators.random_token_set(rng, max_tokens=10)]
    wires += generators.random_wire_mix(rng, 6)
    for _ in range(rng.randint(1, 2)):
        _, ident = generators.POOL[rng.randrange(len(generators.POOL))]
        wires.append(generators.craft(rng, ident.urn, oracles.ATTEST, exp=rng.choice([100, 200, 500])).wire)
        wires.append(generators.craft(rng, ident.urn, oracles.ATTEST, nbf=rng.choice([50, 300, 450])).wire)
    lines = wires + [rng.choice(wires), json.dumps(rng.choice(wires)), "garbage"]
    rng.shuffle(lines)
    path = tmp_path_factory.getbasetemp() / "fates.jsonl"  # rewritten by every example
    path.write_text("\n".join(lines) + "\n")
    argv = ["resolve", str(path), "--json"] + ([] if now is None else ["--now", str(now)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    doc = json.loads(out.getvalue())

    bundle = load_bundle([path])
    filtered = temporal_filter(bundle, now)
    valid, rejected = filter_valid(filtered.tokens)
    clean = resolve(valid)
    surviving = {e["tid"] for e in doc["surviving"]}
    omitted = {e["tid"]: e["reason"] for e in doc["omitted"]}
    assert len(doc["surviving"]) + len(doc["omitted"]) == len(bundle.tokens)
    assert (len(surviving), len(omitted)) == (len(doc["surviving"]), len(doc["omitted"]))
    rejected_tids = {r.token.tid for r in rejected}
    for token in bundle.tokens:
        assert (token.tid_hex in surviving) != (token.tid_hex in omitted)
        if token.tid_hex in surviving:
            assert token.tid in clean.tokens
            continue
        reason = omitted[token.tid_hex]
        assert (reason in ("EXPIRED", "NOT_YET_VALID")) == (token.tid not in filtered.tokens)
        assert (reason == "INVALID") == (token.tid in rejected_tids)
        if reason in ("BURNED", "REVOKED"):
            assert (reason == "BURNED") == (token.claims.iss in clean.burned_identities)


_CHAIN, _, _SUBJECT, _, _ROOTS = generators.accepting_instance(random.Random(5))
_FUZZ_TOKENS = _CHAIN + generators.random_token_set(random.Random(6), max_tokens=8)
_FUZZ_WIRES = [t.wire for t in _FUZZ_TOKENS] + generators.random_wire_mix(random.Random(7), 6)
_DEEP = oracles.b64url(b"[" * 100000)
_TRUST = json.dumps([{"identity": urn, "scope": "*"} for urn, _ in _ROOTS])

_lines = st.one_of(
    st.sampled_from(_FUZZ_WIRES).map(str.encode),
    st.sampled_from(_FUZZ_WIRES).map(str.encode),  # twice, so more lines are tokens
    st.sampled_from(_FUZZ_WIRES).map(lambda w: json.dumps(w).encode()),
    st.sampled_from(_FUZZ_WIRES).map(lambda w: (w[:-3] + "AAA").encode()),
    st.just(f"{_DEEP}.{_DEEP}.{_DEEP}".encode()),
    st.binary(max_size=40),
)
_bundles = st.builds(
    lambda chain, lines: b"\n".join([t.wire.encode() for t in chain] + lines),
    st.sampled_from([[], _CHAIN]), st.lists(_lines, max_size=12),
)
_files = st.one_of(
    st.sampled_from(_FUZZ_WIRES).map(str.encode), st.just(_TRUST.encode()), st.just(b"[" * 100000),
    st.binary(max_size=40),
)
_subjects = st.one_of(
    st.just(_SUBJECT.tid_hex), st.sampled_from([t.tid_hex for t in _FUZZ_TOKENS]), st.just("file"),
    st.text(alphabet="0123456789abcdefg", max_size=64),
)
_FLAGS = {
    "resolve": [["--json"], ["--now", "50"], ["--now", "-1"]],
    "inspect": [["--json"]],
    "evaluate": [["--json"], ["--explain"], ["--now", "50"], ["--require", "read"],
                 ["--require", "read write"], ["--max-depth", "0"], ["--max-depth", "2"],
                 ["--max-paths", "1"]],
}
_JUNK_FLAGS = [["--bogus"], ["x"], ["--now"], ["--now", "soon"], ["--max-depth", "-1"],
               ["--max-paths", "0"], ["--explain", "--json"]]


@given(
    command=st.sampled_from(["resolve", "evaluate", "evaluate", "inspect"]),
    bundle=_bundles,
    trust=st.one_of(st.just(_TRUST.encode()), _files),
    token_file=_files,
    subject=_subjects,
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_cli_fuzz_exit_codes(tmp_path_factory, command, bundle, trust, token_file, subject, data):
    """Any bundle bytes and flags end in a documented exit code, never a
    traceback nor the top-level guard's catch-all, and exit 1 only with a
    REJECT verdict."""
    d = tmp_path_factory.getbasetemp() / "fuzz"  # rewritten by every example
    d.mkdir(exist_ok=True)
    (d / "b.jsonl").write_bytes(bundle)
    (d / "trust.json").write_bytes(trust)
    (d / "t.jwt").write_bytes(token_file)
    argv = {
        "resolve": ["resolve", str(d / "b.jsonl")],
        "evaluate": ["evaluate", str(d / "b.jsonl"), "--trust", str(d / "trust.json"),
                     "--subject", str(d / "t.jwt") if subject == "file" else subject],
        "inspect": ["inspect", str(d / "t.jwt")],
    }[command]
    flags = data.draw(st.lists(st.sampled_from(_FLAGS[command]), max_size=4))
    if data.draw(st.sampled_from([False, False, False, True])):
        flags.append(data.draw(st.sampled_from(_JUNK_FLAGS)))
    argv += [arg for flag in flags for arg in flag]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, stderr)
    assert "Traceback" not in stdout + stderr
    assert "error: unexpected" not in stderr
    if code == 1:
        assert re.search(r"^REJECT reason=", stdout, re.M) or '"verdict": "REJECT"' in stdout

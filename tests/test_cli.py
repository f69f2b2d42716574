import contextlib
import io
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generators
import oracles
import vouchsafe.cli
from vouchsafe import TokenSet, decode, filter_valid, resolve, verify
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
    def test_out_of_range_limit_exits_2(self, chain_setup, flag, value):
        bundle, trust, a_path, _ = chain_setup
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", bundle, "--trust", trust, "--subject", a_path, "--explain", flag, value])
        assert exc.value.code == 2

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

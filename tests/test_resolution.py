import contextlib
import dataclasses
import json
import os
import pickle
import random
import signal
import threading

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
    Verdict,
    decode,
    enumerate_paths,
    evaluate,
    filter_valid,
    issue_attest,
    issue_burn,
    issue_revoke,
    issue_vouch,
    load_bundle,
    resolve,
    temporal_filter,
    verify,
)

import generators
from vouchsafe.bundles import _load_closure, _scan_bundle


def kinds(clean):
    return sorted(t.claims.kind.value for t in clean.tokens)


def tids(tokens):
    return {t.tid for t in tokens}


class TestTokenSet:
    def test_exact_duplicates_collapse(self, alice):
        kp, ident = alice
        t = issue_attest(kp, ident)
        ts = TokenSet([t, decode(t.wire)])
        assert len(ts) == 1

    def test_duplicate_statement_ids_flagged(self, alice):
        kp, ident = alice
        t = issue_attest(kp, ident)
        dup = decode(
            oracles.craft_wire(
                b"\x11" * 32,
                oracles.standard_claims(b"\x11" * 32, "alice", "vch:attest", t.claims.jti, note="x"),
            )
        )
        ts = TokenSet([t, dup])
        assert len(ts) == 2
        assert ts.duplicate_statement_ids() == [(ident.urn, t.claims.jti)]

    @staticmethod
    def _same_statement(alice, n):
        """An attest and n other wires claiming its (issuer, jti)."""
        kp, ident = alice
        t = issue_attest(kp, ident)
        seed = b"\x11" * 32
        claims = [
            oracles.standard_claims(seed, "alice", "vch:attest", t.claims.jti, note=str(i))
            for i in range(n)
        ]
        others = [decode(oracles.craft_wire(seed, c)) for c in claims]
        return t, others

    def test_iteration_in_insertion_order(self, alice):
        t, (d1, d2) = self._same_statement(alice, 2)
        for order in ([d2, t, d1], [d1, d2, t], [t, d2, d1]):
            assert list(TokenSet(order)) == order

    def test_first_token_per_tid_kept(self, alice):
        kp, ident = alice
        a, b = issue_attest(kp, ident), issue_attest(kp, ident)
        a_copy = dataclasses.replace(a)  # a second Token for the same wire
        cases = [
            ([a, b, a_copy], [a, b]),
            ([a_copy, a, b], [a_copy, b]),
            ([b, a_copy, a, b], [b, a_copy]),
        ]
        for order, kept in cases:
            ts = TokenSet(order)
            assert [id(x) for x in ts] == [id(x) for x in kept]
            assert {x.tid: x for x in ts}[a.tid] is kept[kept.index(a)]


class TestFilterValid:
    def test_tampered_token_dropped_with_diagnostic(self, alice):
        kp, ident = alice
        good = [issue_attest(kp, ident) for _ in range(3)]
        h, p, s = good[0].wire.split(".")
        tampered = decode(f"{h}.{p}.{'B' if s[0] != 'B' else 'C'}{s[1:]}")
        valid, rejected = filter_valid(TokenSet(good + [tampered]))
        assert len(valid) == 3
        assert len(rejected) == 1
        assert not rejected[0].report.sig_ok

    def test_empty_set(self):
        valid, rejected = filter_valid(TokenSet())
        assert len(valid) == 0 and rejected == []

    def test_burn_of_other_identity_excluded_as_invalid(self, alice, mallory):
        _, ident_m = mallory
        wire = oracles.craft_wire(
            b"\x11" * 32,
            oracles.standard_claims(b"\x11" * 32, "alice", "vch:burn", "j9", burns=ident_m.urn),
        )
        valid, rejected = filter_valid(TokenSet([decode(wire)]))
        assert len(valid) == 0 and len(rejected) == 1


class TestBurnPredicate:
    def test_attest_by_burned_identity(self, alice):
        kp, ident = alice
        a = issue_attest(kp, ident)
        b = issue_burn(kp, ident)
        assert a.tid not in resolve(TokenSet([a, b])).tokens

    def test_burn_token_itself_immune(self, alice):
        kp, ident = alice
        b1, b2 = issue_burn(kp, ident), issue_burn(kp, ident)
        clean = resolve(TokenSet([b1, b2]))
        assert b1.tid in clean.tokens and b2.tid in clean.tokens

    def test_burn_by_other_identity_no_effect(self, alice, mallory):
        kp_a, ident_a = alice
        kp_m, ident_m = mallory
        a = issue_attest(kp_a, ident_a)
        assert a.tid in resolve(TokenSet([a, issue_burn(kp_m, ident_m)])).tokens


class TestRevokesMatches:
    def test_constructed_revocation_matches(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a)
        r = issue_revoke(kp_r, ident_r, v)
        clean = resolve(TokenSet([a, v, r]))
        assert v.tid not in clean.tokens
        assert a.tid in clean.tokens

    def test_garbled_subject_hash_does_not_match(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a)
        seed = b"\x22" * 32
        crafted = decode(
            oracles.craft_wire(
                seed,
                oracles.standard_claims(
                    seed, "root", "vch:revoke", "jr",
                    sub=v.claims.sub, vch_iss=v.claims.vch_iss, vch_sum="0" * 64,
                    revokes=v.claims.jti,
                ),
            )
        )
        assert crafted.claims.iss == ident_r.urn  # only the subject hash differs
        assert v.tid in resolve(TokenSet([v, crafted])).tokens

    def test_revocation_is_never_revoked(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        v = issue_vouch(kp_r, ident_r, issue_attest(kp_a, ident_a))
        r = issue_revoke(kp_r, ident_r, v)
        seed = b"\x22" * 32
        sub, vch_iss, vch_sum = r.subject_triple()
        # Names r by issuer, jti and subject triple, as if r were a statement.
        again = decode(oracles.craft_wire(seed, oracles.standard_claims(
            seed, "root", "vch:revoke", "jr2", sub=sub, vch_iss=vch_iss, vch_sum=vch_sum,
            revokes=r.claims.jti,
        )))
        clean = resolve(TokenSet([v, r, again]))
        assert tids(clean.tokens) == {r.tid, again.tid}

    def test_foreign_issuer_does_not_match(self, alice, mallory):
        kp_a, ident_a = alice
        kp_m, ident_m = mallory
        a = issue_attest(kp_a, ident_a)
        own = issue_attest(kp_m, ident_m)
        r = issue_revoke(kp_m, ident_m, own)
        clean = resolve(TokenSet([a, own, r]))
        assert a.tid in clean.tokens
        assert own.tid not in clean.tokens

class TestResolve:
    def test_burn_omits_attest(self, alice):
        kp, ident = alice
        a = issue_attest(kp, ident)
        b = issue_burn(kp, ident)
        clean = resolve(TokenSet([a, b]))
        assert kinds(clean) == ["vch:burn"]
        assert clean.burned_identities == {ident.urn}

    def test_revoke_omits_vouch(self, alice, root):
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a)
        r = issue_revoke(kp_r, ident_r, v)
        clean = resolve(TokenSet([v, r]))
        assert kinds(clean) == ["vch:revoke"]
        assert clean.revoked_statements == {(ident_r.urn, v.claims.jti): r.tid}

    def test_burning_voucher_leaves_subject_untouched(self, alice, root):
        # Hand-computed omission on the 3-token instance: the burn hits only
        # the voucher's statements; the vouched-for attestation is someone
        # else's statement and stays.
        kp_a, ident_a = alice
        kp_r, ident_r = root
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a)
        b = issue_burn(kp_r, ident_r)
        clean = resolve(TokenSet([a, v, b]))
        assert tids(clean.tokens) == {a.tid, b.tid}

    def test_burned_revoker_revocation_still_counted(self, alice):
        # The revocation predicate ranges over the valid set, so a burned
        # issuer's revocation still matches -- though everything of that
        # issuer is gone anyway.
        kp, ident = alice
        a = issue_attest(kp, ident)
        r = issue_revoke(kp, ident, a)
        b = issue_burn(kp, ident)
        clean = resolve(TokenSet([a, r, b]))
        assert kinds(clean) == ["vch:burn"]
        assert (ident.urn, a.claims.jti) not in clean.revoked_statements  # burned first

    def test_dangling_revocation_is_inert(self, alice, root):
        kp_r, ident_r = root
        kp_a, ident_a = alice
        a = issue_attest(kp_a, ident_a)
        v = issue_vouch(kp_r, ident_r, a)
        r = issue_revoke(kp_r, ident_r, v)
        clean = resolve(TokenSet([a, r]))  # v itself absent
        assert tids(clean.tokens) == {a.tid, r.tid}

    def test_duplicate_statement_disambiguated_by_triple(self, alice):
        kp, ident = alice
        a = issue_attest(kp, ident)
        dup = decode(
            oracles.craft_wire(
                b"\x11" * 32,
                oracles.standard_claims(b"\x11" * 32, "alice", "vch:attest", a.claims.jti, note="x"),
            )
        )
        r = issue_revoke(kp, ident, a)
        clean = resolve(TokenSet([a, dup, r]))
        # Only the hash-committed original is revoked; the duplicate survives.
        assert tids(clean.tokens) == {dup.tid, r.tid}


class TestResolveProperties:
    def test_monotonicity_of_omission(self):
        rng = random.Random(7)
        for _ in range(150):
            tokens = generators.random_token_set(rng)
            before = tids(resolve(TokenSet(tokens)).tokens)
            kp, ident = generators.POOL[rng.randrange(len(generators.POOL))]
            delegable = [t for t in tokens if t.claims.kind.value in ("vch:attest", "vch:vouch")]
            if rng.random() < 0.5 and delegable:
                target = rng.choice(delegable)
                kp_t, ident_t = generators.POOL_BY_URN[target.claims.iss]
                control = issue_revoke(kp_t, ident_t, target)
            else:
                control = issue_burn(kp, ident)
            after = tids(resolve(TokenSet(tokens + [control])).tokens)
            assert after <= before | {control.tid}

    def test_shuffle_determinism(self):
        rng = random.Random(8)
        for _ in range(50):
            tokens = generators.random_token_set(rng)
            base = resolve(TokenSet(tokens))
            for _ in range(3):
                shuffled = tokens[:]
                rng.shuffle(shuffled)
                again = resolve(TokenSet(shuffled))
                assert tids(again.tokens) == tids(base.tokens)
                assert again.burned_identities == base.burned_identities
                assert again.revoked_statements == base.revoked_statements

    def test_burn_dominance(self):
        rng = random.Random(9)
        for _ in range(100):
            tokens = generators.random_token_set(rng)
            clean = resolve(TokenSet(tokens))
            for t in clean.tokens:
                if t.claims.kind.value != "vch:burn":
                    assert t.claims.iss not in clean.burned_identities

    def test_idempotence(self):
        rng = random.Random(10)
        for _ in range(100):
            tokens = generators.random_token_set(rng)
            once = resolve(TokenSet(tokens))
            twice = resolve(TokenSet(list(once.tokens)))
            assert tids(twice.tokens) == tids(once.tokens)

    def test_oracle_equivalence_sample(self):
        rng = random.Random(11)
        for _ in range(300):
            tokens = generators.random_token_set(rng)
            got = {t.tid_hex for t in resolve(TokenSet(tokens)).tokens}
            want = oracles.oracle_clean_tids([t.wire for t in tokens])
            assert got == want


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_resolve_equals_oracle_on_shared_statement_ids(seed):
    """Many wires share each (issuer, jti), and several revocations name it:
    the survivors and ``revoked_statements`` (smallest matching revocation
    tid per statement id) are the double-loop oracle's."""
    tokens = generators.random_token_set(random.Random(seed), max_tokens=16, shared_ids=True)
    wires = [t.wire for t in tokens]
    clean = resolve(TokenSet(tokens))
    assert {t.tid_hex for t in clean.tokens} == oracles.oracle_clean_tids(wires)
    revoked = {key: tid.hex() for key, tid in clean.revoked_statements.items()}
    assert revoked == oracles.oracle_revoked_statements(wires)


@pytest.mark.parametrize("n", [30, 60])
def test_resolve_reads_each_subject_triple_at_most_once(n, monkeypatch):
    """One signer's shared jti, named by n revocations that match nothing:
    each statement makes one index lookup, not one test per revocation."""
    tokens = generators.shared_id_bundle(random.Random(n), n)
    calls = []
    real = vouchsafe.tokens.Token.subject_triple
    monkeypatch.setattr(
        vouchsafe.tokens.Token, "subject_triple", lambda self: calls.append(self.tid) or real(self)
    )
    clean = resolve(TokenSet(tokens))
    assert len(clean.tokens) == 3 * n and clean.revoked_statements == {}
    assert len(calls) == len(set(calls)) <= 3 * n


def _corrupt(wire: str, rng: random.Random) -> str:
    """The wire with its header or signature segment broken: ``decode``
    fails, but the payload, and so every link it makes, is intact."""
    head, payload, sig = wire.split(".")
    if rng.random() < 0.5:
        return f"!{head[1:]}.{payload}.{sig}"
    return f"{head}.{payload}.{sig[:-2]}!!"


@given(
    seed=st.integers(0, 2**32 - 1),
    now=st.one_of(st.none(), st.integers(0, 400)),
    pick=st.sampled_from(["statement", "control", "absent", "chain", "broken"]),
    max_depth=st.sampled_from([0, 1, 2, 4]),
    limit=st.sampled_from([1, 3, 100]),
)
@settings(max_examples=300, deadline=None)
def test_closure_decides_as_the_whole_set(tmp_path_factory, seed, now, pick, max_depth, limit):
    """Decoding, verifying and resolving only the lines of a request's
    closure gives the verdict, witness and path listing of the whole-bundle
    pipeline (``load_bundle``, ``temporal_filter``, ``filter_valid``,
    ``resolve``), and the oracle's verdict.

    The bundle mixes shared statement ids and mismatched revocations, a
    chain of vouches longer than ``max_depth`` with validity windows,
    bad-signature copies of random tokens, sometimes a revocation of a chain
    vouch, and lines that fail ``decode`` while their payload still links
    into the closure (a chain vouch's or a random token's header or
    signature broken), a JSON-quoted copy, an exact duplicate, a non-UTF-8
    line and garbage."""
    rng = random.Random(seed)
    tokens = generators.random_token_set(rng, max_tokens=14, shared_ids=True)
    statements = [t for t in tokens if t.claims.kind in (TokenKind.ATTEST, TokenKind.VOUCH)]
    if statements and rng.random() < 0.5:
        chain = [rng.choice(statements)]
    else:
        chain = [issue_attest(*generators.POOL[rng.randrange(len(generators.POOL))])]
        tokens.append(chain[0])
    for _ in range(max_depth + 2):
        kp, ident = generators.POOL[rng.randrange(len(generators.POOL))]
        window = {"exp": rng.randint(0, 400)} if rng.random() < 0.2 else {}
        if rng.random() < 0.2:
            window["nbf"] = rng.randint(0, 400)
        chain.append(
            issue_vouch(kp, ident, chain[-1], purpose=generators.random_purpose(rng), **window)
        )
    tokens += chain[1:]
    if rng.random() < 0.3:
        vouch = rng.choice(chain[1:])
        tokens.append(issue_revoke(*generators.POOL_BY_URN[vouch.claims.iss], vouch))
    tokens += [decode(generators.bad_signature(t)) for t in rng.sample(tokens, 3)]
    broken = [_corrupt(t.wire, rng) for t in (rng.choice(chain[1:]), rng.choice(tokens))]
    controls = [t for t in tokens if t.claims.kind in (TokenKind.REVOKE, TokenKind.BURN)]
    if pick == "statement":
        subject_tid = rng.choice([t for t in tokens if t not in controls]).tid
    elif pick == "control" and controls:
        subject_tid = rng.choice(controls).tid
    elif pick == "chain":
        subject_tid = chain[0].tid
    elif pick == "broken":
        subject_tid = bytes.fromhex(oracles.tid_hex_of(broken[0]))
    else:
        subject_tid = rng.getrandbits(256).to_bytes(32, "big")
    lines = [t.wire.encode() for t in tokens] + [w.encode() for w in broken]
    lines += [
        json.dumps(rng.choice(tokens).wire).encode(),
        rng.choice(tokens).wire.encode(),
        b"\xff" + rng.choice(tokens).wire.encode(),
        b"garbage",
    ]
    rng.shuffle(lines)
    path = tmp_path_factory.getbasetemp() / "closure.jsonl"  # rewritten by every example
    path.write_bytes(b"\n".join(lines) + b"\n")

    filtered = temporal_filter(load_bundle([path]), now).tokens
    closure = temporal_filter(_load_closure(_scan_bundle([path]), subject_tid), now).tokens
    assert [t.tid for t in closure] == [t.tid for t in filtered if t.tid in closure]
    whole, part = (resolve(filter_valid(s)[0]) for s in (filtered, closure))
    roots_raw = generators.random_roots(rng)
    request = Request(subject_tid, generators.random_required(rng), generators.as_principals(roots_raw))
    decision = evaluate(part, request, max_depth=max_depth)
    assert decision == evaluate(whole, request, max_depth=max_depth)
    assert enumerate_paths(part, request, limit, max_depth) == enumerate_paths(
        whole, request, limit, max_depth
    )

    want = oracles.oracle_decision(
        [t.wire for t in filtered if t.validity.ok],
        subject_tid.hex(), roots_raw, request.required, max_depth,
    )
    assert decision.verdict.value == want["verdict"]
    if decision.verdict is Verdict.ACCEPT:
        assert [t.tid_hex for t in decision.witness.path] == want["path"]
        assert decision.witness.root == request.roots[want["root"]]
        assert decision.witness.effective_scope.labels == want["effective_scope"]
    else:
        assert decision.reason.value == want["reason"]
        assert decision.depth_limited == want["depth_limited"]


@contextlib.contextmanager
def _split(cpus: int = 3, threshold: int = 2):
    """filter_valid as on a host with ``cpus`` usable CPUs, no CPU quota and
    a fork threshold of ``threshold`` tokens; yields the pids that called fork."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vouchsafe.resolution, "_FORK_MIN_TOKENS", threshold)
        mp.setattr(vouchsafe.resolution, "_CPU_QUOTA_FILES", ())
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        mp.setattr(os, "fork", counted_fork)
        yield forks


@contextlib.contextmanager
def _sigchld(handler):
    old = signal.signal(signal.SIGCHLD, handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGCHLD, old)


def _reap_any(signum, frame):
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass


def _fresh(wires):
    tokens = [decode(w) for w in wires]
    for t in tokens:
        object.__setattr__(t, "_validity", None)
    return tokens


def _outcome(valid, rejected):
    return [t.tid for t in valid], [(r.token.tid, r.report) for r in rejected]


def _serial_outcome(tokens, reports):
    return (
        [t.tid for t, r in zip(tokens, reports) if r.ok],
        [(t.tid, r) for t, r in zip(tokens, reports) if not r.ok],
    )


def _forbidden_fork():
    raise AssertionError("filter_valid forked")


def _blocked_signals():
    return signal.pthread_sigmask(signal.SIG_BLOCK, [])


class TestSplitVerify:
    """Large unverified sets are verified in forked children; the reports,
    and so every result, are exactly those of the serial pass."""

    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 24))
    @settings(max_examples=20, deadline=None)
    def test_split_matches_serial_and_fresh_verify(self, seed, size):
        tokens = _fresh(generators.random_wire_mix(random.Random(seed), size))
        with _split() as forks:
            split = _outcome(*filter_valid(TokenSet(tokens)))
        assert forks, "the split did not run"
        reports = [t.validity for t in tokens]
        for t in tokens:
            object.__setattr__(t, "_validity", None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "fork", _forbidden_fork)
            assert _outcome(*filter_valid(TokenSet(tokens))) == split
        assert reports == [t.validity for t in tokens] == [verify(t) for t in tokens]

    @pytest.mark.parametrize("failure", ["exit", "raise"])
    def test_failed_child_slice_is_verified_here(self, monkeypatch, failure):
        tokens = _fresh(generators.random_wire_mix(random.Random(9), 16))
        expected = [verify(t) for t in tokens]
        parent, real = os.getpid(), vouchsafe.tokens.verify

        def failing(token):
            if os.getpid() == parent:
                return real(token)
            if failure == "exit":
                os._exit(1)
            raise RuntimeError("verify failed in a child")

        monkeypatch.setattr(vouchsafe.tokens, "verify", failing)
        with _split() as forks:
            valid, rejected = filter_valid(TokenSet(tokens))
        assert len(forks) == 2
        assert [t.validity for t in tokens] == expected
        assert _outcome(valid, rejected) == _serial_outcome(tokens, expected)

    def test_child_reaped_elsewhere_is_verified_here(self, monkeypatch):
        """A child whose exit status someone else collected (waitpid raises
        ChildProcessError) is tolerated: every report is still right, and
        nothing is killed or waited for twice."""
        tokens = _fresh(generators.random_wire_mix(random.Random(12), 16))
        expected = [verify(t) for t in tokens]
        real_waitpid, real_kill, stolen, waited, killed = os.waitpid, os.kill, [], [], []

        def waitpid(pid, options):
            waited.append(pid)
            if not stolen:
                stolen.append(real_waitpid(pid, options))
                raise ChildProcessError(10, "No child processes")
            return real_waitpid(pid, options)

        def kill(pid, sig):
            killed.append(pid)
            real_kill(pid, sig)

        monkeypatch.setattr(os, "waitpid", waitpid)
        monkeypatch.setattr(os, "kill", kill)
        with _split() as forks:
            valid, rejected = filter_valid(TokenSet(tokens))
        monkeypatch.undo()
        assert len(forks) == 2 and stolen
        assert len(waited) == len(set(waited)) == 2 and not killed
        assert [t.validity for t in tokens] == expected
        assert _outcome(valid, rejected) == _serial_outcome(tokens, expected)

    def test_child_stream_cut_short_is_verified_here(self, monkeypatch):
        """A child whose stream stops before its pickle ends (it failed or was
        killed mid-write) sends nothing that is used, whatever its exit status:
        its slice is verified here."""
        tokens = _fresh(generators.random_wire_mix(random.Random(15), 16))
        expected = [verify(t) for t in tokens]
        real_dumps = pickle.dumps

        def half_dump(obj, file, *args, **kwargs):
            data = real_dumps(obj, *args, **kwargs)
            file.write(data[: len(data) // 2])

        monkeypatch.setattr(pickle, "dump", half_dump)
        with _split() as forks:
            valid, rejected = filter_valid(TokenSet(tokens))
        assert len(forks) == 2
        assert [t.validity for t in tokens] == expected
        assert _outcome(valid, rejected) == _serial_outcome(tokens, expected)

    def test_child_reaped_elsewhere_keeps_its_reports(self, monkeypatch):
        """The exit status is not consulted: a child whose status someone else
        collected sent a complete stream, so only the first slice is verified here."""
        tokens = _fresh(generators.random_wire_mix(random.Random(12), 16))
        expected = [verify(t) for t in tokens]
        parent, real_verify, real_waitpid = os.getpid(), vouchsafe.tokens.verify, os.waitpid
        verified_here, stolen = [], []

        def counted(token):
            if os.getpid() == parent:
                verified_here.append(token)
            return real_verify(token)

        def waitpid(pid, options):
            if not stolen:
                stolen.append(real_waitpid(pid, options))
                raise ChildProcessError(10, "No child processes")
            return real_waitpid(pid, options)

        monkeypatch.setattr(vouchsafe.tokens, "verify", counted)
        monkeypatch.setattr(os, "waitpid", waitpid)
        with _split() as forks:
            valid, rejected = filter_valid(TokenSet(tokens))
        monkeypatch.undo()
        assert len(forks) == 2 and stolen
        assert len(verified_here) == 5  # only the first of three slices
        assert [t.validity for t in tokens] == expected
        assert _outcome(valid, rejected) == _serial_outcome(tokens, expected)

    def test_fork_failure_falls_back_to_serial(self):
        tokens = _fresh(generators.random_wire_mix(random.Random(10), 8))
        expected = [verify(t) for t in tokens]

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        with _split(), pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "fork", no_fork)
            filter_valid(TokenSet(tokens))
        assert [t.validity for t in tokens] == expected

    def test_children_run_no_signal_handler(self, monkeypatch):
        """Ctrl-C reaches the whole process group: a child that gets SIGINT
        still finishes its slice (it runs no KeyboardInterrupt), and this
        process's signal mask is unchanged afterwards."""
        tokens = _fresh(generators.random_wire_mix(random.Random(13), 12))
        expected = [verify(t) for t in tokens]
        parent, real = os.getpid(), vouchsafe.tokens.verify
        verified_here = []

        def interrupted(token):
            if os.getpid() == parent:
                verified_here.append(token)
            else:
                os.kill(os.getpid(), signal.SIGINT)
            return real(token)

        mask = _blocked_signals()
        monkeypatch.setattr(vouchsafe.tokens, "verify", interrupted)
        with _split() as forks:
            valid, rejected = filter_valid(TokenSet(tokens))
        assert len(forks) == 2
        assert len(verified_here) == 4  # only the first of three slices
        assert [t.validity for t in tokens] == expected
        assert _outcome(valid, rejected) == _serial_outcome(tokens, expected)
        assert _blocked_signals() == mask

    def test_interrupt_here_kills_and_reaps_children(self, monkeypatch):
        tokens = _fresh(generators.random_wire_mix(random.Random(14), 12))
        parent, real = os.getpid(), vouchsafe.tokens.verify

        def interrupt_here(token):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(token)

        mask = _blocked_signals()
        monkeypatch.setattr(vouchsafe.tokens, "verify", interrupt_here)
        with _split() as forks, pytest.raises(KeyboardInterrupt):
            filter_valid(TokenSet(tokens))
        assert len(forks) == 2  # both reaped: the autouse fixture checks
        assert _blocked_signals() == mask

    @pytest.mark.parametrize(
        "condition",
        ["second thread", "one cpu", "cpu quota", "no fork", "below threshold",
         "SIGCHLD ignored", "SIGCHLD handled"],
    )
    def test_no_fork(self, condition, tmp_path):
        tokens = _fresh(generators.random_wire_mix(random.Random(11), 8))
        expected = [verify(t) for t in tokens]
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(10,))
        cpus = 1 if condition == "one cpu" else 3
        threshold = len(tokens) + 1 if condition == "below threshold" else 2
        handler = {"SIGCHLD ignored": signal.SIG_IGN, "SIGCHLD handled": _reap_any}
        with _split(cpus, threshold), pytest.MonkeyPatch.context() as mp:
            if condition == "no fork":
                mp.delattr(os, "fork")
            else:
                mp.setattr(os, "fork", _forbidden_fork)
            if condition == "cpu quota":  # docker --cpus=1.5 on a 3-CPU host
                (tmp_path / "cpu.max").write_text("150000 100000\n")
                mp.setattr(vouchsafe.resolution, "_CPU_QUOTA_FILES", ((str(tmp_path / "cpu.max"),),))
            if condition == "second thread":
                thread.start()
            try:
                with _sigchld(handler.get(condition, signal.SIG_DFL)):
                    valid, rejected = filter_valid(TokenSet(tokens))
            finally:
                stop.set()
        if condition == "second thread":
            thread.join(10)
            assert not thread.is_alive()
        assert [t.validity for t in tokens] == expected
        assert _outcome(valid, rejected) == _serial_outcome(tokens, expected)

    @pytest.mark.parametrize(
        "files, quota",
        [
            ({"cpu.max": "max 100000\n"}, None),
            ({"cpu.max": "150000 100000\n"}, 1),
            ({"cpu.max": "50000 100000\n"}, 1),
            ({"cpu.max": "400000 100000\n"}, 4),
            ({"quota": "-1\n", "period": "100000\n"}, None),
            ({"quota": "250000\n", "period": "100000\n"}, 2),
            ({"cpu.max": "300000 100000\n", "quota": "100000\n", "period": "100000\n"}, 3),
            ({}, None),
        ],
    )
    def test_cpu_quota_caps_usable_cpus(self, monkeypatch, tmp_path, files, quota):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.setattr(vouchsafe.resolution, "_CPU_QUOTA_FILES", (
            (str(tmp_path / "cpu.max"),),
            (str(tmp_path / "quota"), str(tmp_path / "period")),
        ))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
        assert vouchsafe.resolution._cpu_quota() == quota
        assert vouchsafe.resolution._usable_cpus() == min(3, quota or 3)

"""State resolution by proof of omission.

Given a set of tokens, the effective state is computed locally: a statement
stands exactly when the set contains no valid contradicting statement.  Two
predicates drive the omission pass:

* a token is *burned* when any valid burn token names its issuer (burn tokens
  themselves are immune, so their effect persists);
* an attest/vouch is *revoked* when the same issuer published a revocation
  whose ``revokes`` matches its jti and whose subject triple matches exactly.

Both predicates quantify over the validity-filtered input set, never over the
result, so resolution is a single deterministic pass with no fixpoint.
Adding control tokens can only shrink the result; nothing is ever reinstated.
"""

from __future__ import annotations

import gc
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import BinaryIO, Iterable, Iterator, NoReturn

from .graph import CapabilityGraph, build_graph
from .tokens import _BURN, _REVOKE, _STATEMENT_KINDS, _VOUCH, Token, ValidityReport, _links


class TokenSet:
    """A fixed token collection keyed by tid, in the order given.

    Exact duplicates (same wire, hence same tid) collapse to the first token
    given.  Distinct wires reusing an (issuer, jti) pair are all retained;
    content hashes keep references unambiguous, and
    :meth:`duplicate_statement_ids` surfaces the issuer-uniqueness violation
    for diagnostics.

    The members are fixed by the constructor; no method adds or removes one.
    The (issuer, jti) index behind :meth:`duplicate_statement_ids` and the
    graph's near-misses is built on the first such query, so a set that is
    never asked (every pipeline stage's intermediate set) never pays for it.
    """

    def __init__(self, tokens: Iterable[Token] = ()) -> None:
        listed = list(tokens)
        self._by_tid: dict[bytes, Token] = {t.tid: t for t in listed}
        if len(self._by_tid) < len(listed):  # a repeated tid: keep its first token
            for t in reversed(listed):
                self._by_tid[t.tid] = t
        self._statements: dict[tuple[str, str], list[Token]] | None = None

    def _by_statement(self) -> dict[tuple[str, str], list[Token]]:
        if self._statements is None:
            self._statements = {}
            for t in self._by_tid.values():
                self._statements.setdefault((t.claims.iss, t.claims.jti), []).append(t)
        return self._statements

    def duplicate_statement_ids(self) -> list[tuple[str, str]]:
        """(issuer, jti) pairs claimed by more than one distinct wire."""
        return sorted(key for key, tokens in self._by_statement().items() if len(tokens) > 1)

    def __iter__(self) -> Iterator[Token]:
        return iter(self._by_tid.values())

    def __len__(self) -> int:
        return len(self._by_tid)

    def __contains__(self, tid: bytes) -> bool:
        return tid in self._by_tid


@dataclass(frozen=True)
class RejectedToken:
    """A token dropped by validity filtering, with the full report."""

    token: Token
    report: ValidityReport


@dataclass(frozen=True)
class CleanSet:
    """The effective token set after burn and revocation omission.

    ``burned_identities`` lists every issuer named by a surviving-kind burn;
    ``revoked_statements`` maps the (issuer, jti) id of each revoked, unburned
    attest or vouch to the smallest tid among the revocations that match a
    statement with that id (several distinct wires may share one id).

    Its capability graph is built once, lazily, on first use of
    :attr:`graph`, and every request against this set reuses it: its
    :class:`TokenSet` cannot change, so the graph cannot go stale.
    """

    tokens: TokenSet
    burned_identities: frozenset[str]
    revoked_statements: dict[tuple[str, str], bytes] = field(default_factory=dict)

    @cached_property
    def graph(self) -> CapabilityGraph:
        return build_graph(self)


# Fewest unverified tokens worth one forked verifier.  On a 2-vCPU x86-64 host
# under CPython 3.11 the parent spends about 1 ms in fork() and 1.3 ms reading,
# reaping and unpickling a child's 600 reports, against 135-150 us per Ed25519
# verify; so 400 tokens (55-60 ms of serial verify) keep that 2.5-3 ms near 5%.
_FORK_MIN_TOKENS = 400


# Where a container's CPU quota (``docker --cpus``) is read: cgroup v2's
# ``cpu.max`` ("<quota|max> <period>"), else cgroup v1's two CFS files.
_CPU_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)


def _cpu_quota() -> int | None:
    """Whole CPUs this process's cgroup may use (at least 1), or None if unlimited."""
    for paths in _CPU_QUOTA_FILES:
        fields: list[str] = []
        try:
            for path in paths:
                with open(path) as f:
                    fields += f.read().split()
            quota, period = map(int, fields)
        except OSError:
            continue
        except ValueError:  # "max": no quota
            return None
        return max(1, quota // period) if quota > 0 and period > 0 else None
    return None


def _usable_cpus() -> int:
    """CPUs this process may run on, capped by its cgroup's CPU quota: the
    affinity mask alone counts every core of a quota-limited container's host."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every POSIX system has it
        cpus = os.cpu_count() or 1
    return min(cpus, _cpu_quota() or cpus)


def _verify_and_send(pipe_fd: int, part: list[Token]) -> NoReturn:
    """In a forked child: verify ``part``, pickle its reports to the pipe, exit.

    ``os._exit`` keeps the child out of its caller's code, exit handlers and
    unflushed stdio buffers; with the collector off, it cannot finalize the
    parent's garbage a second time either.  Every signal with a Python handler
    is blocked in the child, so no handler (Ctrl-C's KeyboardInterrupt among
    them) runs caller code here.
    """
    import pickle

    try:
        gc.disable()
        reports = [t.validity for t in part]
        with open(pipe_fd, "wb") as pipe:
            pickle.dump(reports, pipe)
    finally:
        os._exit(0)


def _verify_on_spare_cpus(tokens: Iterable[Token]) -> None:
    """Cache the verify reports of a large unverified set using spare CPUs.

    ``cryptography``'s Ed25519 verify holds the GIL, so threads cannot help;
    instead one child is forked per spare CPU (at most one per
    ``_FORK_MIN_TOKENS`` unverified tokens), each verifies a contiguous slice
    while this process verifies the first.  A child's pipe holds its whole
    slice's reports or a stream that fails to load; each report loaded is
    stored on its own token, and the other tokens are left to the caller's
    serial pass.  Nothing is forked without ``os.fork``, on one usable CPU,
    while another thread runs (it could hold a lock the child would need), or
    unless SIGCHLD has its default action (when ignored, or handled by Python
    code that may reap, a child's pid could be reused before it is killed).
    """
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return
    pending = [t for t in tokens if t._validity is None]
    if len(pending) < _FORK_MIN_TOKENS:
        return
    n = 1 + min(_usable_cpus() - 1, len(pending) // _FORK_MIN_TOKENS)
    if n == 1:
        return
    # Imported only here: they add ~4 ms to every CLI start otherwise.
    import pickle
    import signal

    if signal.getsignal(signal.SIGCHLD) is not signal.SIG_DFL:
        return
    cuts = [len(pending) * i // n for i in range(n + 1)]
    parts = [pending[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    # Signals with a Python handler are blocked while forking, so each child
    # keeps them blocked, and while reaping, so none can leave a child unreaped.
    handled = {s for s in signal.valid_signals() if callable(signal.getsignal(s))}
    unblocked = signal.pthread_sigmask(signal.SIG_BLOCK, handled)
    children: list[tuple[int, BinaryIO]] = []
    sent: list[bytes] = []
    try:
        for part in parts[1:]:
            try:
                read_fd, write_fd = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                _verify_and_send(write_fd, part)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        signal.pthread_sigmask(signal.SIG_SETMASK, unblocked)
        for t in parts[0]:
            t.validity
        sent = [pipe.read() for _, pipe in children]
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, handled)
        for pid, pipe in children:
            pipe.close()
            try:
                if not sent:  # interrupted: the child may still be verifying
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)  # prompt: the child closed its pipe or was killed
            except (ProcessLookupError, ChildProcessError):
                pass
        signal.pthread_sigmask(signal.SIG_SETMASK, unblocked)
    for part, data in zip(parts[1:], sent):
        try:
            reports = pickle.loads(data)
        except (pickle.UnpicklingError, EOFError):  # cut short: no final STOP opcode
            continue
        for t, report in zip(part, reports):
            object.__setattr__(t, "_validity", report)


def _request_closure(wires: list[str], subject_tid: bytes) -> list[str]:
    """The wires, in order, that a request about ``subject_tid`` can depend
    on, read from their :func:`~vouchsafe.tokens._links` records; a wire
    with no record is never taken.

    Starting from the first wire with the subject's tid, it takes every
    vouch whose ``vch_sum`` is the hex tid of a statement already taken, and
    for each statement taken every burn whose ``burns`` is its issuer and
    every revocation whose (issuer, ``revokes``) is its (issuer, jti).  Each
    index entry is consumed once, so the work is linear in the wires.

    Some taken wires may later fail decoding or the clock filter.  Let W be
    the bundle's decodable, clock-filtered tokens and C this rule applied to
    W alone.  Every token of W has a record with the same links, and the
    rule only grows with its input, so the taken wires that survive decoding
    and the clock filter are a set S with C inside S and S inside W.
    Verifying and resolving any such S gives every request about this
    subject the verdict, witness and path listing of W:

    * a statement's clean-set membership depends only on the statement
      itself, its issuer's burns and its own revocations, all in C with it;
    * a clean edge requires ``vch_sum`` to be its subject's hex tid, so
      every voucher in W of a statement in C is in C;
    * so every node that a backward walk from the subject reaches, every
      edge between such nodes, every ``reverse_edges`` entry that decides
      ``depth_limited``, and the subject's own membership are the same in
      the graphs of S and W: a token of S outside C is reached by no such
      walk, and every burn or revocation of W that bears on a statement of
      C is in C.
    """
    records = {i: record for i, wire in enumerate(wires) if (record := _links(wire)) is not None}
    vouchers: dict[str, list[int]] = {}
    burns: dict[str, list[int]] = {}
    revocations: dict[tuple[str, str], list[int]] = {}
    start = None
    for i, (tid, kind, iss, _, link) in records.items():
        if kind is _VOUCH:
            vouchers.setdefault(link, []).append(i)
        elif kind is _BURN:
            burns.setdefault(link, []).append(i)
        elif kind is _REVOKE:
            revocations.setdefault((iss, link), []).append(i)
        if start is None and tid == subject_tid:
            start = i
    if start is None:
        return []
    taken = {start}
    queue = [start]
    # Positions appended while iterating are visited too.
    for i in queue:
        tid, kind, iss, jti, _ = records[i]
        if kind not in _STATEMENT_KINDS:
            continue
        for j in (*vouchers.pop(tid.hex(), ()), *burns.pop(iss, ()), *revocations.pop((iss, jti), ())):
            if j not in taken:
                taken.add(j)
                queue.append(j)
    return [wires[i] for i in sorted(taken)]


def filter_valid(tokens: TokenSet) -> tuple[TokenSet, list[RejectedToken]]:
    """Keep exactly the tokens whose validity report is all-ok.

    Invalid tokens come back as diagnostics; they never influence state.
    Each report is the token's cached :attr:`~vouchsafe.tokens.Token.validity`,
    so a Token is verified once however often it is filtered; and since
    :func:`~vouchsafe.tokens.decode` returns the same Token for the exact same
    wire while a caller still holds it, re-filtering a grown bundle verifies
    only its new wires.

    When at least a few hundred tokens are still unverified, on a POSIX system
    with more than one usable CPU (within the cgroup's CPU quota, if any), no
    other thread running and SIGCHLD at its default action, their signatures
    are checked in forked child processes, one per spare CPU (there is no
    setting); any slice whose child did not send one complete report per token
    is verified here.  The reports, and so the result, are the serial pass's.
    """
    _verify_on_spare_cpus(tokens)
    valid: list[Token] = []
    rejected: list[RejectedToken] = []
    for token in tokens:
        report = token.validity
        if report.ok:
            valid.append(token)
        else:
            rejected.append(RejectedToken(token=token, report=report))
    return TokenSet(valid), rejected


def resolve(valid: TokenSet) -> CleanSet:
    """Apply the omission pass to an already validity-filtered set.

    Membership is decided per token against the whole input set, so the
    outcome is independent of iteration order.  Revocation and burn tokens
    that survive their own checks remain members; their effects must stay
    visible to any evaluator handed the same set.

    Revocations are indexed by their whole reference (issuer, ``revokes``,
    subject triple), so each attest or vouch makes at most one lookup and the
    work is linear in the tokens, however many wires share an (issuer, jti).
    """
    burns: list[str] = []
    # (issuer, revoked jti) -> subject triple -> smallest revoking tid.
    revocations: dict[tuple[str, str], dict[tuple, bytes]] = {}
    for t in valid:
        c = t.claims
        if c.kind is _BURN:
            if c.burns is not None:
                burns.append(c.burns)
        elif c.kind is _REVOKE:
            by_triple = revocations.setdefault((c.iss, c.revokes), {})
            triple = (c.sub, c.vch_iss, c.vch_sum)
            by_triple[triple] = min(t.tid, by_triple.get(triple, t.tid))
    burned_ids = frozenset(burns)

    surviving: list[Token] = []
    revoked_statements: dict[tuple[str, str], bytes] = {}
    for token in valid:
        c = token.claims
        if c.iss in burned_ids and c.kind is not _BURN:
            continue
        key = (c.iss, c.jti)
        if key in revocations and c.kind in _STATEMENT_KINDS:
            tid = revocations[key].get(token.subject_triple())
            if tid is not None:
                revoked_statements[key] = min(tid, revoked_statements.get(key, tid))
                continue
        surviving.append(token)
    return CleanSet(
        tokens=TokenSet(surviving),
        burned_identities=burned_ids,
        revoked_statements=revoked_statements,
    )

"""Deterministic capability evaluation over the delegation graph.

A request is accepted when at least one delegation path runs from a statement
issued by a trusted principal down to the subject token with every required
label surviving the scope intersections along the way.  Paths are judged one
at a time; scopes from different paths are never merged, so authority cannot
be assembled from fragments.

Each request is one backward walk from the subject over the clean set's
cached graph, marking the nodes whose unique path down carries every required
label; that one walk yields the verdict, the reject reason and the explain
listing.  The witness reported on accept is the shortest qualifying path,
ties broken by the lexicographic tid sequence, making audits reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graph import CapabilityGraph, Scope, parse_scope
from .resolution import CleanSet
from .tokens import Token, TokenKind

DEFAULT_MAX_DEPTH = 64


@dataclass(frozen=True)
class TrustedPrincipal:
    """An identity the verifier trusts, bounded by a maximum scope.

    Nothing is implicitly trusted for everything: an unconstrained root scope
    is an explicit configuration choice.
    """

    identity: str
    root_scope: Scope


@dataclass(frozen=True)
class Request:
    """What is being asked: subject token, required labels, trust roots."""

    subject_tid: bytes
    required: frozenset[str]
    roots: tuple[TrustedPrincipal, ...]


class Verdict(Enum):
    ACCEPT = "ACCEPT"
    REJECT = "REJECT"


class RejectReason(Enum):
    SUBJECT_NOT_IN_CLEAN_SET = "SUBJECT_NOT_IN_CLEAN_SET"
    NO_ROOTED_PATH = "NO_ROOTED_PATH"
    SCOPE_INSUFFICIENT = "SCOPE_INSUFFICIENT"


@dataclass(frozen=True)
class Witness:
    """One rooted path to the subject with its effective scope: the path
    justifying an accept, and each entry of an explain listing."""

    path: tuple[Token, ...]
    effective_scope: Scope
    root: TrustedPrincipal


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    witness: Witness | None = None
    reason: RejectReason | None = None
    # A REJECT whose search stopped at max_depth with longer paths unexplored.
    depth_limited: bool = False


@dataclass(frozen=True)
class PathReport:
    """Bounded enumeration of rooted paths to a subject, for audit queries."""

    entries: tuple[Witness, ...]
    truncated: bool


def path_scope(root: TrustedPrincipal, path: list[Token] | tuple[Token, ...]) -> Scope:
    """Effective scope of one delegation path ending at the subject.

    Intersects the root scope, the scope of every vouch the path traverses,
    and the subject's own scope constraint.  A zero-length path (the subject
    itself issued by the root) reduces to root scope intersected with the
    subject's scope.

    Raises ValueError unless the nodes form a real chain: every non-terminal
    node must be a vouch whose subject reference commits to the next node's
    (jti, issuer, content hash).
    """
    if not path:
        raise ValueError("path must contain at least the subject node")
    if path[0].claims.iss != root.identity:
        raise ValueError("path is not rooted in the given principal")
    effective = root.root_scope
    for node, nxt in zip(path, path[1:]):
        if node.claims.kind is not TokenKind.VOUCH:
            raise ValueError(f"non-terminal node {node.tid_hex} is not a vouch")
        if node.subject_triple() != (nxt.claims.jti, nxt.claims.iss, nxt.tid_hex):
            raise ValueError(
                f"nodes {node.tid_hex} -> {nxt.tid_hex} are not a delegation edge"
            )
        effective = effective.intersect(parse_scope(node.claims.purpose))
    return effective.intersect(parse_scope(path[-1].claims.purpose))


def _chain_to_subject(graph: CapabilityGraph, start: bytes, subject_tid: bytes) -> tuple[Token, ...]:
    # Out-degree is at most one, so the forward path from any node is unique;
    # it ends at the subject, which may itself have an onward edge.
    path = [graph.nodes[start]]
    tid = start
    while tid != subject_tid:
        tid = graph.edges[tid][0]
        path.append(graph.nodes[tid])
    return tuple(path)


def _walk(
    graph: CapabilityGraph,
    subject_tid: bytes,
    required: frozenset[str],
    max_depth: int,
) -> tuple[list[tuple[int, bytes, bool]], bool]:
    """Backward BFS from the subject, returning ``(depth, tid, covers)`` in
    (depth, tid) order, where ``covers`` says every vouch on the node's path
    down covers ``required``.  Out-degree is at most one, so that path is
    unique and each node is reached once.  The flag is True when the walk
    stopped at ``max_depth`` while a node at that depth still had vouchers.
    """
    frontier = [(0, subject_tid, True)]
    reached = list(frontier)
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        frontier = sorted(
            (depth, voucher_tid, covers and graph.edges[voucher_tid][1].covers(required))
            for _, tid, covers in frontier
            for voucher_tid in graph.reverse_edges.get(tid, ())
        )
        reached += frontier
    return reached, any(tid in graph.reverse_edges for _, tid, _ in frontier)


def evaluate(clean: CleanSet, request: Request, max_depth: int = DEFAULT_MAX_DEPTH) -> Decision:
    """Decide a capability request against a resolved token set.

    Deterministic in all inputs: same clean set, roots, subject, and
    requirement always produce the same verdict, reason, and witness,
    whatever order the tokens arrived in.
    """
    graph = clean.graph
    subject = graph.nodes.get(request.subject_tid)
    if subject is None:
        return Decision(verdict=Verdict.REJECT, reason=RejectReason.SUBJECT_NOT_IN_CLEAN_SET)

    reached, depth_limited = _walk(graph, subject.tid, request.required, max_depth)
    if parse_scope(subject.claims.purpose).covers(request.required):
        # Reversed, so the first qualifying root in configuration order wins.
        qualifying = {
            r.identity: r for r in reversed(request.roots) if r.root_scope.covers(request.required)
        }
        # Nodes arrive shortest path first; among equally short paths the tid
        # sequences differ at the start node, so the first hit is the lex minimum.
        for _, tid, covers in reached:
            root = qualifying.get(graph.nodes[tid].claims.iss) if covers else None
            if root is not None:
                path = _chain_to_subject(graph, tid, subject.tid)
                return Decision(
                    verdict=Verdict.ACCEPT,
                    witness=Witness(path=path, effective_scope=path_scope(root, path), root=root),
                )

    # No qualifying path: distinguish "no rooted path at all" from "rooted
    # paths exist but none carries the required scope".
    root_identities = {r.identity for r in request.roots}
    if any(graph.nodes[tid].claims.iss in root_identities for _, tid, _ in reached):
        reason = RejectReason.SCOPE_INSUFFICIENT
    else:
        reason = RejectReason.NO_ROOTED_PATH
    return Decision(verdict=Verdict.REJECT, reason=reason, depth_limited=depth_limited)


def enumerate_paths(
    clean: CleanSet,
    request: Request,
    limit: int = 100,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> PathReport:
    """List every rooted path to the subject with its effective scope.

    Ordered by path length then lexicographic tid sequence; one entry per
    (path, matching root) pair, roots in configuration order.  Stops after
    ``limit`` entries and flags the truncation.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    graph = clean.graph
    if request.subject_tid not in graph.nodes:
        return PathReport(entries=(), truncated=False)
    reached, _ = _walk(graph, request.subject_tid, request.required, max_depth)
    entries: list[Witness] = []
    truncated = False
    for _, tid, _ in reached:
        issuer = graph.nodes[tid].claims.iss
        matching = [r for r in request.roots if r.identity == issuer]
        if not matching:
            continue
        path = _chain_to_subject(graph, tid, request.subject_tid)
        for root in matching:
            if len(entries) >= limit:
                truncated = True
                break
            entries.append(Witness(path=path, effective_scope=path_scope(root, path), root=root))
        if truncated:
            break
    return PathReport(entries=tuple(entries), truncated=truncated)

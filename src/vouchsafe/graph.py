"""Scope algebra and capability-graph construction.

Nodes are the attest/vouch tokens that survive state resolution.  Each vouch
contributes at most one directed edge toward its subject, found by content:
the subject's tid must equal the vouch's ``vch_sum``, and its (jti, issuer)
must match the reference.  Edges carry the vouch's scope label.

The graph is acyclic by construction: each node has at most one outgoing
edge, and an edge commits to its subject by SHA-256 of the subject's exact
wire, so a cycle would need a SHA-256 fixpoint.  Evaluation needs no cycle
check either way: every walk over the graph stops at a depth bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .tokens import Token, TokenKind

if TYPE_CHECKING:
    from .resolution import CleanSet


@dataclass(frozen=True)
class Scope:
    """A capability set, or the unconstrained top element.

    ``labels`` is None for the unconstrained scope, which is the identity of
    intersection and covers every requirement.
    """

    labels: frozenset[str] | None

    @classmethod
    def of(cls, *labels: str) -> "Scope":
        return cls(labels=frozenset(labels))

    @property
    def unconstrained(self) -> bool:
        return self.labels is None

    def intersect(self, other: "Scope") -> "Scope":
        if self.labels is None:
            return other
        if other.labels is None:
            return self
        return Scope(labels=self.labels & other.labels)

    def covers(self, required: frozenset[str]) -> bool:
        """True iff every required label is in scope (vacuously for empty)."""
        return self.labels is None or required <= self.labels

    def __str__(self) -> str:
        if self.labels is None:
            return "*"
        return "{" + " ".join(sorted(self.labels)) + "}"


UNCONSTRAINED = Scope(labels=None)


def parse_scope(purpose: str | None) -> Scope:
    """Parse a whitespace-separated capability list.

    An absent purpose is unconstrained.  A present-but-blank purpose is the
    empty scope -- a real constraint that admits nothing.
    """
    if purpose is None:
        return UNCONSTRAINED
    return Scope(labels=frozenset(purpose.split()))


@dataclass
class CapabilityGraph:
    """Immutable-after-build delegation graph over surviving statements.

    ``edges`` maps a vouch tid to its (subject tid, scope) pair; a vouch has
    at most one outgoing edge.  ``reverse_edges`` inverts that for backward
    search.  ``diagnostics`` records vouches whose reference nearly matched a
    present token but failed the content hash (possible substitution attempt).
    """

    nodes: dict[bytes, Token] = field(default_factory=dict)
    edges: dict[bytes, tuple[bytes, Scope]] = field(default_factory=dict)
    reverse_edges: dict[bytes, list[bytes]] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)

    def dump(self) -> str:
        """Deterministic text rendering in tid order, for audit diffing."""
        lines = []
        for tid in sorted(self.nodes):
            t = self.nodes[tid]
            lines.append(f"node {tid.hex()} {t.claims.kind.value} iss={t.claims.iss}")
        for src in sorted(self.edges):
            dst, scope = self.edges[src]
            lines.append(f"edge {src.hex()} -> {dst.hex()} scope={scope}")
        return "\n".join(lines) + ("\n" if lines else "")


def build_graph(clean: CleanSet) -> CapabilityGraph:
    """Construct the delegation graph from a resolved token set.

    A vouch whose subject is absent (never supplied, omitted, or forged) stays
    as an isolated node: an endorsement of nothing delegates nothing.
    """
    graph = CapabilityGraph()
    for token in clean.tokens:
        if token.claims.kind in (TokenKind.ATTEST, TokenKind.VOUCH):
            graph.nodes[token.tid] = token

    for tid, token in graph.nodes.items():
        if token.claims.kind is not TokenKind.VOUCH:
            continue
        c = token.claims
        try:
            subject_tid = bytes.fromhex(c.vch_sum) if c.vch_sum else None
        except ValueError:
            subject_tid = None
        subject = graph.nodes.get(subject_tid) if subject_tid else None
        if (
            subject is not None
            and subject.claims.jti == c.sub
            and subject.claims.iss == c.vch_iss
        ):
            graph.edges[tid] = (subject.tid, parse_scope(c.purpose))
            graph.reverse_edges.setdefault(subject.tid, []).append(tid)
            continue
        # No edge.  If some present statement matches the (issuer, jti)
        # reference but not the content hash, flag the near-miss.
        if c.vch_iss is not None and c.sub is not None:
            for candidate in clean.tokens.by_statement(c.vch_iss, c.sub):
                if candidate.tid_hex != c.vch_sum:
                    graph.diagnostics.append(
                        f"vouch {tid.hex()} references statement ({c.vch_iss}, {c.sub}) "
                        f"but the content hash does not match token {candidate.tid_hex}"
                    )
    for dsts in graph.reverse_edges.values():
        dsts.sort()
    graph.diagnostics.sort()
    return graph

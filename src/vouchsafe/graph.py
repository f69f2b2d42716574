"""Scope algebra and capability-graph construction.

Nodes are the attest/vouch tokens that survive state resolution.  Each vouch
contributes at most one directed edge toward its subject, found by content:
the subject's tid must equal the vouch's ``vch_sum``, and its (jti, issuer)
must match the reference.  Edges carry the vouch's scope label.  A vouch
left without an edge whose (issuer, jti) reference names present tokens
gives one near-miss per such token, listed when the graph's diagnostics
are first read.

The graph is acyclic by construction: each node has at most one outgoing
edge, and an edge commits to its subject by SHA-256 of the subject's exact
wire, so a cycle would need a SHA-256 fixpoint.  Evaluation needs no cycle
check either way: every walk over the graph stops at a depth bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .tokens import _STATEMENT_KINDS, _VOUCH, Token

if TYPE_CHECKING:
    from .resolution import CleanSet, TokenSet


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

    ``scopes`` maps each node's tid to its ``purpose``, parsed once per graph.
    ``edges`` maps a vouch tid to its (subject tid, scope) pair; a vouch has
    at most one outgoing edge.  ``reverse_edges`` inverts that for backward
    search.  :attr:`diagnostics` lists the near-misses, computed on first read.
    """

    nodes: dict[bytes, Token] = field(default_factory=dict)
    scopes: dict[bytes, Scope] = field(default_factory=dict)
    edges: dict[bytes, tuple[bytes, Scope]] = field(default_factory=dict)
    reverse_edges: dict[bytes, list[bytes]] = field(default_factory=dict)
    # What diagnostics reads: the resolved set, unset in a graph built by hand.
    # Declared fields, like Token._validity, so no later write adds a key to
    # the instance __dict__.
    _tokens: TokenSet | None = field(default=None, init=False, repr=False, compare=False)
    _diagnostics: list[tuple[bytes, bytes]] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def diagnostics(self) -> list[tuple[bytes, bytes]]:
        """One sorted ``(vouch tid, candidate tid)`` pair per near-miss: the
        vouch got no edge, and the candidate is a present token that its
        (issuer, jti) reference names but whose tid is not its ``vch_sum``
        (possibly a substitution attempt).  Their number can grow with the
        product of the two, so they are computed on first read, and kept;
        deciding a request never reads them."""
        if self._diagnostics is None:
            by_statement = self._tokens._by_statement() if self._tokens is not None else {}
            self._diagnostics = sorted(
                (tid, candidate.tid)
                for tid, vouch in self.nodes.items()
                if vouch.claims.kind is _VOUCH and tid not in self.edges
                for candidate in by_statement.get((vouch.claims.vch_iss, vouch.claims.sub), ())
                if candidate.tid_hex != vouch.claims.vch_sum
            )
        return self._diagnostics

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

    A vouch gets an edge exactly when its subject reference equals a node's
    ``(jti, iss, tid_hex)``, by one lookup of the exact ``vch_sum`` string:
    the link that :func:`~vouchsafe.evaluation.path_scope` accepts.  A vouch
    whose subject is absent (never supplied, omitted, or forged) stays as an
    isolated node: an endorsement of nothing delegates nothing.  Its
    near-misses are sought only when :attr:`CapabilityGraph.diagnostics` is read.
    """
    graph = CapabilityGraph()
    graph._tokens = clean.tokens
    parse = functools.cache(parse_scope)  # one shared Scope per distinct purpose
    by_hex: dict[str, Token] = {}
    for token in clean.tokens:
        if token.claims.kind in _STATEMENT_KINDS:
            graph.nodes[token.tid] = token
            graph.scopes[token.tid] = parse(token.claims.purpose)
            by_hex[token.tid_hex] = token

    for tid, token in graph.nodes.items():
        if token.claims.kind is not _VOUCH:
            continue
        c = token.claims
        subject = by_hex.get(c.vch_sum)
        if subject is not None and subject.claims.jti == c.sub and subject.claims.iss == c.vch_iss:
            graph.edges[tid] = (subject.tid, graph.scopes[tid])
            graph.reverse_edges.setdefault(subject.tid, []).append(tid)
    for dsts in graph.reverse_edges.values():
        dsts.sort()
    return graph

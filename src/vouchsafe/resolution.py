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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from .graph import CapabilityGraph, build_graph
from .tokens import Token, TokenKind, ValidityReport


class TokenSet:
    """A finite token collection indexed by tid and by (issuer, jti).

    Exact duplicates (same wire, hence same tid) collapse on insert.  Distinct
    wires reusing an (issuer, jti) pair are all retained; content hashes keep
    references unambiguous, and :meth:`duplicate_statement_ids` surfaces the
    issuer-uniqueness violation for diagnostics.
    """

    def __init__(self, tokens: Iterable[Token] = ()) -> None:
        self._by_tid: dict[bytes, Token] = {}
        self._by_statement: dict[tuple[str, str], list[bytes]] = {}
        for token in tokens:
            self.add(token)

    def add(self, token: Token) -> bool:
        """Insert a token; returns False if an identical wire was present."""
        if token.tid in self._by_tid:
            return False
        self._by_tid[token.tid] = token
        self._by_statement.setdefault((token.claims.iss, token.claims.jti), []).append(token.tid)
        return True

    def get(self, tid: bytes) -> Token | None:
        return self._by_tid.get(tid)

    def by_statement(self, iss: str, jti: str) -> list[Token]:
        return [self._by_tid[t] for t in self._by_statement.get((iss, jti), ())]

    def duplicate_statement_ids(self) -> list[tuple[str, str]]:
        """(issuer, jti) pairs claimed by more than one distinct wire."""
        return sorted(key for key, tids in self._by_statement.items() if len(tids) > 1)

    def __iter__(self) -> Iterator[Token]:
        return iter(self._by_tid.values())

    def __len__(self) -> int:
        return len(self._by_tid)

    def __contains__(self, tid: bytes) -> bool:
        return tid in self._by_tid

    @property
    def tids(self) -> set[bytes]:
        return set(self._by_tid)


@dataclass(frozen=True)
class RejectedToken:
    """A token dropped by validity filtering, with the full report."""

    token: Token
    report: ValidityReport


@dataclass(frozen=True)
class CleanSet:
    """The effective token set after burn and revocation omission.

    ``burned_identities`` lists every issuer named by a surviving-kind burn;
    ``revoked_statements`` maps each omitted (issuer, jti) statement to the
    tid of one matching revocation (smallest tid when several match).

    Its capability graph is built once, lazily, on first use of
    :attr:`graph`, and every request against this set reuses it; so a clean
    set must not be mutated after :func:`resolve` returns it.
    """

    tokens: TokenSet
    burned_identities: frozenset[str]
    revoked_statements: dict[tuple[str, str], bytes] = field(default_factory=dict)

    @cached_property
    def graph(self) -> CapabilityGraph:
        return build_graph(self)


def filter_valid(tokens: TokenSet) -> tuple[TokenSet, list[RejectedToken]]:
    """Keep exactly the tokens whose validity report is all-ok.

    Invalid tokens come back as diagnostics; they never influence state.
    Each report is the token's cached :attr:`~vouchsafe.tokens.Token.validity`,
    so a Token is verified once however often it is filtered; and since
    :func:`~vouchsafe.tokens.decode` returns the same Token for the exact same
    wire while a caller still holds it, re-filtering a grown bundle verifies
    only its new wires.
    """
    valid = TokenSet()
    rejected: list[RejectedToken] = []
    for token in tokens:
        report = token.validity
        if report.ok:
            valid.add(token)
        else:
            rejected.append(RejectedToken(token=token, report=report))
    return valid, rejected


def revokes_matches(revocation: Token, token: Token) -> bool:
    """Does this revocation retract this statement?

    Requires: the target is an attest or vouch, the issuers match, ``revokes``
    names the target's jti, and the revocation's subject triple equals the
    target's.  The triple comparison is what pins the revocation to one exact
    prior act; it cannot be redirected to a re-encoded or substituted subject.
    """
    if revocation.claims.kind is not TokenKind.REVOKE:
        return False
    if token.claims.kind not in (TokenKind.ATTEST, TokenKind.VOUCH):
        return False
    if revocation.claims.iss != token.claims.iss:
        return False
    if revocation.claims.revokes != token.claims.jti:
        return False
    r = revocation.claims
    return (r.sub, r.vch_iss, r.vch_sum) == token.subject_triple()


def resolve(valid: TokenSet) -> CleanSet:
    """Apply the omission pass to an already validity-filtered set.

    Membership is decided per token against the whole input set, so the
    outcome is independent of iteration order.  Revocation and burn tokens
    that survive their own checks remain members; their effects must stay
    visible to any evaluator handed the same set.
    """
    burned_ids = frozenset(
        t.claims.burns
        for t in valid
        if t.claims.kind is TokenKind.BURN and t.claims.burns is not None
    )
    # Revocations indexed by the (issuer, jti) statement they claim to retract.
    revocations: dict[tuple[str, str], list[Token]] = {}
    for t in valid:
        if t.claims.kind is TokenKind.REVOKE and t.claims.revokes is not None:
            revocations.setdefault((t.claims.iss, t.claims.revokes), []).append(t)

    surviving = TokenSet()
    revoked_statements: dict[tuple[str, str], bytes] = {}
    for token in valid:
        if token.claims.kind is not TokenKind.BURN and token.claims.iss in burned_ids:
            continue
        matching = [
            r
            for r in revocations.get((token.claims.iss, token.claims.jti), ())
            if revokes_matches(r, token)
        ]
        if matching:
            key = (token.claims.iss, token.claims.jti)
            tid = min(r.tid for r in matching)
            if key not in revoked_statements or tid < revoked_statements[key]:
                revoked_statements[key] = tid
            continue
        surviving.add(token)
    return CleanSet(
        tokens=surviving,
        burned_identities=burned_ids,
        revoked_statements=revoked_statements,
    )

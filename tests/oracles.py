"""Independent reference implementations used to check the library.

Everything here works directly on wire strings with json/base64/hashlib and
applies the defining formulas literally (double loops, exhaustive path
enumeration).  Nothing is shared with the library's resolution, graph, or
evaluation code paths, so agreement is meaningful.

Also provides a raw token crafter that signs arbitrary claim dicts, for
adversarial shapes the library's issuance API refuses to construct.
"""

from __future__ import annotations

import base64
import hashlib
import json

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

ATTEST = "vch:attest"
VOUCH = "vch:vouch"
REVOKE = "vch:revoke"
BURN = "vch:burn"

SPKI_PREFIX = bytes.fromhex("302a300506032b6570032100")


def b64url(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).decode().rstrip("=")


def craft_wire(seed: bytes, claims: dict) -> str:
    """Sign an arbitrary claims dict into compact wire text.

    The caller supplies every claim verbatim, including iss and iss_key, so
    malformed or adversarial layouts can be produced at will.
    """
    key = Ed25519PrivateKey.from_private_bytes(seed)
    header = b64url(json.dumps({"alg": "EdDSA", "typ": "JWT"}, separators=(",", ":")).encode())
    payload = b64url(json.dumps(claims, separators=(",", ":")).encode())
    sig = key.sign(f"{header}.{payload}".encode("ascii"))
    return f"{header}.{payload}.{b64url(sig)}"


def standard_claims(seed: bytes, label: str, kind: str, jti: str, **rest) -> dict:
    """Well-formed claim scaffolding for :func:`craft_wire`."""
    key = Ed25519PrivateKey.from_private_bytes(seed)
    from cryptography.hazmat.primitives import serialization

    raw = key.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    digest = base64.b32encode(hashlib.sha256(raw).digest()).decode().rstrip("=").lower()
    claims = {
        "iss": f"urn:vouchsafe:{label}.{digest}",
        "iss_key": base64.b64encode(SPKI_PREFIX + raw).decode(),
        "kind": kind,
        "jti": jti,
        "sub": rest.pop("sub", jti),
    }
    claims.update(rest)
    return claims


# ---------------------------------------------------------------------------
# Wire-level views
# ---------------------------------------------------------------------------

def payload_of(wire: str) -> dict:
    seg = wire.split(".")[1]
    return json.loads(base64.urlsafe_b64decode(seg + "=" * (-len(seg) % 4)))


def tid_hex_of(wire: str) -> str:
    return hashlib.sha256(wire.encode("ascii")).hexdigest()


def subject_triple_of(wire: str) -> tuple | None:
    p = payload_of(wire)
    if p.get("kind") in (VOUCH, REVOKE):
        return (p.get("sub"), p.get("vch_iss"), p.get("vch_sum"))
    if p.get("kind") == ATTEST:
        return (p.get("jti"), p.get("iss"), tid_hex_of(wire))
    return None


# ---------------------------------------------------------------------------
# State-resolution oracle: the omission formula by double loop
# ---------------------------------------------------------------------------

def oracle_clean_tids(wires: list[str]) -> set[str]:
    """Surviving tid hexes of a valid token set, predicates applied literally."""
    payloads = {w: payload_of(w) for w in wires}

    def is_burned(w: str) -> bool:
        if payloads[w]["kind"] == BURN:
            return False
        return any(
            payloads[b]["kind"] == BURN and payloads[b].get("burns") == payloads[w]["iss"]
            for b in wires
        )

    def is_revoked(w: str) -> bool:
        if payloads[w]["kind"] not in (ATTEST, VOUCH):
            return False
        return any(
            payloads[r]["kind"] == REVOKE
            and payloads[r]["iss"] == payloads[w]["iss"]
            and payloads[r].get("revokes") == payloads[w]["jti"]
            and (payloads[r].get("sub"), payloads[r].get("vch_iss"), payloads[r].get("vch_sum"))
            == subject_triple_of(w)
            for r in wires
        )

    return {tid_hex_of(w) for w in wires if not is_burned(w) and not is_revoked(w)}


# ---------------------------------------------------------------------------
# Evaluation oracle: exhaustive simple-path enumeration plus the scope formula
# ---------------------------------------------------------------------------

def _parse_purpose(p) -> frozenset | None:
    # None encodes the unconstrained scope (the whole capability space).
    if p is None:
        return None
    return frozenset(p.split())


def _intersect(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def _covers(scope, required: frozenset) -> bool:
    return scope is None or required <= scope


def _clean_paths(wires: list[str], subject_tid_hex: str):
    """Payloads by tid hex and every simple path ending at the subject.

    Applies the omission formula, derives nodes and edges from the wire data,
    and enumerates paths backward by DFS; each path is a list of tid hexes,
    subject last.  None when the subject is not a clean attest or vouch.
    """
    clean_tids = oracle_clean_tids(wires)
    clean = [w for w in wires if tid_hex_of(w) in clean_tids]
    payloads = {tid_hex_of(w): payload_of(w) for w in clean}
    by_tid = {
        tid_hex_of(w): w
        for w in clean
        if payload_of(w)["kind"] in (ATTEST, VOUCH)
    }
    if subject_tid_hex not in by_tid:
        return None

    edges: dict[str, list[str]] = {t: [] for t in by_tid}
    for t in by_tid:
        p = payloads[t]
        if p["kind"] != VOUCH:
            continue
        for u in by_tid:
            q = payloads[u]
            if (
                q.get("jti") == p.get("sub")
                and q.get("iss") == p.get("vch_iss")
                and u == p.get("vch_sum")
            ):
                edges[t].append(u)

    paths: list[list[str]] = []

    def extend(path: list[str]) -> None:
        paths.append(list(path))
        head = path[0]
        for v, targets in edges.items():
            if head in targets and v not in path:
                extend([v] + path)

    extend([subject_tid_hex])
    return payloads, paths


def _path_scope(payloads: dict, path: list[str]):
    """Intersection of the purpose of every statement on the path."""
    scope = _parse_purpose(payloads[path[-1]].get("purpose"))
    for v in path[:-1]:
        scope = _intersect(scope, _parse_purpose(payloads[v].get("purpose")))
    return scope


def oracle_accepts(
    wires: list[str],
    subject_tid_hex: str,
    roots: list[tuple[str, frozenset | None]],
    required: frozenset,
) -> bool:
    """Brute-force accept decision over a valid token set.

    Enumerates every simple path terminating at the subject and checks the
    per-path scope intersection for each root independently.
    """
    found = _clean_paths(wires, subject_tid_hex)
    if found is None:
        return False
    payloads, paths = found
    for path in paths:
        head_iss = payloads[path[0]]["iss"]
        scope = _path_scope(payloads, path)
        for identity, root_scope in roots:
            if identity != head_iss:
                continue
            if _covers(_intersect(root_scope, scope), required):
                return True
    return False


def oracle_decision(
    wires: list[str],
    subject_tid_hex: str,
    roots: list[tuple[str, frozenset | None]],
    required: frozenset,
    max_depth: int,
) -> dict:
    """Brute-force verdict, reason and witness over a valid token set.

    Only paths of at most ``max_depth`` edges count.  The witness is the
    accepting path that is shortest, then smallest by tid sequence, paired
    with the first root in configuration order that accepts it.  A reject is
    SCOPE_INSUFFICIENT when some counted path starts at any root's identity,
    else NO_ROOTED_PATH; it is ``depth_limited`` when a longer path exists.
    """
    found = _clean_paths(wires, subject_tid_hex)
    if found is None:
        return {"verdict": "REJECT", "reason": "SUBJECT_NOT_IN_CLEAN_SET", "depth_limited": False}
    payloads, paths = found
    counted = [path for path in paths if len(path) - 1 <= max_depth]
    accepting = [
        (len(path), path, index)
        for path in counted
        for index, (identity, root_scope) in enumerate(roots)
        if identity == payloads[path[0]]["iss"]
        and _covers(_intersect(root_scope, _path_scope(payloads, path)), required)
    ]
    if accepting:
        _, path, index = min(accepting)
        scope = _intersect(roots[index][1], _path_scope(payloads, path))
        return {"verdict": "ACCEPT", "path": path, "root": index, "effective_scope": scope}
    identities = {identity for identity, _ in roots}
    rooted = any(payloads[path[0]]["iss"] in identities for path in counted)
    return {
        "verdict": "REJECT",
        "reason": "SCOPE_INSUFFICIENT" if rooted else "NO_ROOTED_PATH",
        "depth_limited": len(counted) < len(paths),
    }

"""Checks of the program's outputs against the truths fixed at build time.

Each function returns a list of problems; an empty list means the output is
right.  Nothing here calls the library: paths are re-checked from the raw
wires with ``base64``, ``json`` and ``hashlib``.
"""

from __future__ import annotations

import base64
import hashlib
import json

from corpus import Expect, Req, Truth, covers, parse_purpose, scope_and


def _payload(wire: str) -> dict:
    seg = wire.split(".")[1]
    return json.loads(base64.urlsafe_b64decode(seg + "=" * (-len(seg) % 4)))


def _labels(scope):
    """A library Scope as a frozenset, or None when unconstrained."""
    return scope.labels


def _json_scope(value):
    return None if value == "*" else frozenset(value)


def _diff(what: str, got, want) -> list[str]:
    if got == want:
        return []
    if isinstance(got, (set, frozenset)) and isinstance(want, (set, frozenset)):
        return [f"{what}: {len(got - want)} unexpected, {len(want - got)} missing"]
    if isinstance(got, dict) and isinstance(want, dict):
        bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return [f"{what}: {len(bad)} entries differ, e.g. {bad[0]}"]
    return [f"{what}: got {got!r}, want {want!r}"]


def link_check(wires: list[str], root_urn: str, root_labels, required, reported) -> list[str]:
    """Re-check one delegation path from its wires alone.

    Each hop's ``vch_sum`` must be the SHA-256 of the next wire and its
    (jti, issuer) reference must match; the path must start at the root's
    identity; and the scope intersection must equal the reported one.  When
    ``required`` is given the intersection must also cover it.
    """
    problems = []
    payloads = [_payload(w) for w in wires]
    for i, (p, q) in enumerate(zip(payloads, payloads[1:])):
        nxt = hashlib.sha256(wires[i + 1].encode("ascii")).hexdigest()
        if p.get("kind") != "vch:vouch" or p.get("vch_sum") != nxt:
            problems.append(f"hop {i}: vch_sum is not the hash of the next wire")
        if p.get("sub") != q.get("jti") or p.get("vch_iss") != q.get("iss"):
            problems.append(f"hop {i}: jti/iss reference does not match the next token")
    if payloads[0].get("iss") != root_urn:
        problems.append("path is not rooted in the trusted issuer")
    eff = None if root_labels is None else frozenset(root_labels)
    for p in payloads:
        eff = scope_and(eff, parse_purpose(p.get("purpose")))
    if eff != reported:
        problems.append(f"effective scope {reported} differs from the path's {eff}")
    if required is not None and not covers(eff, required):
        problems.append("witness scope does not cover the request")
    return problems


def ingest(truth: Truth, names: dict, bundle, filtered, valid, rejected, clean, graph) -> list[str]:
    """Fates of every line, the surviving set and the graph after one ingest.

    ``names`` maps each bundle source string to its file index.
    """
    diags = {(names.get(d.source), d.line): d.code for d in bundle.diagnostics}
    problems = _diff("decode diagnostics", set(diags), set(truth.diagnostics))
    problems += [
        f"line {key}: diagnostic {code!r} is not {truth.diagnostics[key]!r}"
        for key, code in diags.items()
        if key in truth.diagnostics and not code.startswith(truth.diagnostics[key])
    ]
    read = len(bundle.tokens) + len(bundle.diagnostics)
    problems += _diff("lines read", read, truth.lines)
    dropped = {t.tid_hex for t in bundle.tokens} - {t.tid_hex for t in filtered.tokens}
    problems += _diff("temporally dropped", dropped, set(truth.dropped))
    problems += _diff("rejected", {r.token.tid_hex for r in rejected}, truth.rejected)
    problems += _diff("duplicate statement ids", set(valid.duplicate_statement_ids()), truth.duplicates)
    problems += _diff("surviving", {t.tid_hex for t in clean.tokens}, truth.surviving)
    edges = {src.hex(): dst.hex() for src, (dst, _) in graph.edges.items()}
    problems += _diff("edges", edges, truth.edges)
    problems += _diff("near misses", len(graph.diagnostics), truth.near_misses)
    return problems


def _root(req: Req, i: int):
    urn, labels = req.roots[i]
    return urn, None if labels is None else frozenset(labels)


def decision(wires: dict, req: Req, want: Expect, got) -> list[str]:
    """One evaluate() result against the planted verdict, reason and witness."""
    verdict = got.verdict.value
    reason = got.reason.value if got.reason is not None else None
    if (verdict, reason) != (want.verdict, want.reason):
        return [f"verdict {verdict}/{reason}, planted {want.verdict}/{want.reason}"]
    if want.witness is None:
        return []
    i, path, eff = want.witness
    w = got.witness
    tids = tuple(t.tid_hex for t in w.path)
    problems = []
    if tids != path:
        problems.append("witness is not the minimum (length, tid sequence) covering path")
    if (w.root.identity, _labels(w.root.root_scope)) != _root(req, i):
        problems.append("witness names the wrong trusted root")
    if _labels(w.effective_scope) != eff:
        problems.append("witness effective scope differs from the planted one")
    urn, labels = _root(req, i)
    return problems + link_check([t.wire for t in w.path], urn, labels, req.required,
                                 _labels(w.effective_scope))


def paths(req: Req, want: Expect, report) -> list[str]:
    """An enumerate_paths() listing: order, roots, scopes and every link."""
    got = [
        ((e.root.identity, _labels(e.root.root_scope)), tuple(t.tid_hex for t in e.path),
         _labels(e.effective_scope))
        for e in report.entries
    ]
    expected = [(_root(req, i), path, eff) for i, path, eff in want.paths]
    problems = []
    if len(got) != len(expected):
        problems.append(f"explain lists {len(got)} paths, planted {len(expected)}")
    elif got != expected:
        problems.append("explain paths differ from the planted listing in order, roots or scopes")
    if report.truncated != want.truncated:
        problems.append("explain truncation flag is wrong")
    for e in report.entries:
        problems += link_check([t.wire for t in e.path], e.root.identity,
                               _labels(e.root.root_scope), None, _labels(e.effective_scope))
    return problems


def cli_resolve(truth: Truth, names: dict, code: int, out: bytes) -> list[str]:
    if code != 0:
        return [f"resolve exited {code}"]
    doc = json.loads(out)
    problems = _diff("cli surviving", {s["tid"] for s in doc["surviving"]}, truth.surviving)
    problems += _diff("cli omitted", {o["tid"]: o["reason"] for o in doc["omitted"]}, truth.omitted)
    decode_diags = {(names.get(d["source"]), d["line"]) for d in doc["diagnostics"] if "source" in d}
    problems += _diff("cli diagnostics", decode_diags, set(truth.diagnostics))
    dups = {(d["iss"], d["jti"]) for d in doc["diagnostics"] if d.get("code") == "duplicate-statement-id"}
    return problems + _diff("cli duplicate ids", dups, truth.duplicates)


def cli_evaluate(wires: dict, req: Req, want: Expect, code: int, out: bytes) -> list[str]:
    want_code = 0 if want.verdict == "ACCEPT" else 1
    if code != want_code:
        return [f"evaluate exited {code} for {want.verdict}"]
    doc = json.loads(out)
    if (doc["verdict"], doc.get("reason")) != (want.verdict, want.reason):
        return [f"cli verdict {doc['verdict']}/{doc.get('reason')}, planted {want.verdict}/{want.reason}"]
    problems = []
    if want.witness is not None:
        i, path, eff = want.witness
        w = doc["witness"]
        tids = tuple(p["tid"] for p in w["path"])
        if tids != path:
            problems.append("cli witness is not the minimum covering path")
        root = (w["root"]["identity"], _json_scope(w["root"]["scope"]))
        if root != _root(req, i):
            problems.append("cli witness names the wrong trusted root")
        problems += _cli_links(wires, tids, root[0], root[1], req.required,
                               _json_scope(w["effective_scope"]))
    listed = [
        ((p["root"]["identity"], _json_scope(p["root"]["scope"])), tuple(p["tids"]),
         _json_scope(p["effective_scope"]))
        for p in doc["explain"]["paths"]
    ]
    expected = [(_root(req, i), path, eff) for i, path, eff in want.paths]
    if listed != expected:
        problems.append("cli explain listing differs from the planted paths")
    for (urn, labels), tids, eff in listed:
        problems += _cli_links(wires, tids, urn, labels, None, eff)
    return problems


def _cli_links(wires: dict, tids, urn, labels, required, eff) -> list[str]:
    unknown = [t for t in tids if t not in wires]
    if unknown:
        return [f"cli path names unknown tid {unknown[0]}"]
    return link_check([wires[t] for t in tids], urn, labels, required, eff)

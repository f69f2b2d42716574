"""Seeded token corpus with the truths fixed while it is built.

The generator signs its own wires with ``cryptography`` and takes every
``jti`` and key seed from one seeded RNG, so a seed gives a byte-identical
bundle (Ed25519 signing is deterministic).  It never calls the library under
test: every expected fate, edge and verdict comes from its own bookkeeping
and from the small reference evaluator at the bottom of this file.

A corpus is a list of bundle files.  File 0 is what a verifier sees first;
files 1.. arrive later, one at a time.  ``truth(k)`` gives the expected
outcome of ingesting files ``0..k``.

Two shapes are deliberately never built:

* ``exp``/``nbf`` on revoke and burn tokens -- ``temporal_filter`` drops
  control tokens too, which resurrects what they retracted;
* chains deeper than the evaluator's default ``max_depth`` -- the search stops
  there silently and reports NO_ROOTED_PATH.
"""

from __future__ import annotations

import base64
import hashlib
import json
import random
import uuid
from dataclasses import dataclass, field

from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

ATTEST, VOUCH, REVOKE, BURN = "vch:attest", "vch:vouch", "vch:revoke", "vch:burn"
STATEMENTS = (ATTEST, VOUCH)
LABELS = ("read", "write", "admin", "audit")
NOW = 1_760_000_000  # the clock handed to temporal_filter and `--now`
MAX_CHAIN = 48  # longest delegation chain built; evaluation's default max_depth is 64
EXPLAIN_LIMIT = 100  # enumerate_paths' default limit
SPKI_PREFIX = bytes.fromhex("302a300506032b6570032100")


def b64url(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).decode("ascii").rstrip("=")


HEADER_B64 = b64url(json.dumps({"alg": "EdDSA", "typ": "JWT"}, separators=(",", ":")).encode())

# Share of a file's lines given to each move, and the lines one move writes.
# What is left over after rounding becomes plain attestations.
MIX = (
    ("chain", 0.22, 1),
    ("hub", 0.18, 1),
    ("vouch", 0.10, 1),
    ("revoke", 0.05, 1),
    ("expired", 0.02, 1),
    ("not_yet_valid", 0.02, 1),
    ("windowed", 0.03, 1),
    ("forged", 0.03, 1),
    ("bad", 0.04, 1),
    ("duplicate", 0.02, 1),
    ("doomed", 0.04, 4),
    ("garbage", 0.03, 1),
)
MOVE_COST = {name: cost for name, _, cost in MIX}
MOVE_COST["attest"] = 1

# Garbage lines and the diagnostic code prefix each must produce.
GARBAGE = (
    ("garbage-{}", "decode: expected 3 dot-separated segments, got 1"),
    ("{}.{}", "decode: expected 3 dot-separated segments, got 2"),
    ("!{}.?{}.*{}", "decode: segment is not valid base64url"),
    ('"{}', "bad-json-string"),
)


class Signer:
    """A keypair with its identity, signing arbitrary claim dicts."""

    def __init__(self, seed: bytes, label: str):
        self.key = Ed25519PrivateKey.from_private_bytes(seed)
        raw = self.key.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )
        digest = base64.b32encode(hashlib.sha256(raw).digest()).decode().rstrip("=").lower()
        self.urn = f"urn:vouchsafe:{label}.{digest}"
        self.key_b64 = base64.b64encode(SPKI_PREFIX + raw).decode()

    def sign(self, claims: dict) -> str:
        payload = b64url(json.dumps(claims, separators=(",", ":")).encode())
        signing_input = f"{HEADER_B64}.{payload}"
        return f"{signing_input}.{b64url(self.key.sign(signing_input.encode('ascii')))}"


@dataclass
class Rec:
    """One token line and what the generator knows about it."""

    wire: str
    kind: str
    iss: str
    jti: str
    sub: str
    file: int
    vch_iss: str | None = None
    vch_sum: str | None = None
    scope: frozenset | None = None  # the token's own scope; None is unconstrained
    valid: bool = True
    window: str = "ok"  # "ok", "EXPIRED" or "NOT_YET_VALID" at NOW
    target: str | None = None  # tid of the statement it endorses or revokes
    down: int = 0  # edges on its forward chain when issued
    tid: str = ""

    def __post_init__(self):
        self.tid = hashlib.sha256(self.wire.encode("ascii")).hexdigest()


@dataclass
class Garbage:
    text: str
    code: str
    file: int


@dataclass(frozen=True)
class Req:
    """A planted request; ``roots`` holds (urn, labels or None for "*")."""

    subject: str
    required: tuple[str, ...]
    roots: tuple[tuple[str, tuple[str, ...] | None], ...]
    prefix: int  # asked after files 0..prefix have arrived


@dataclass
class Expect:
    verdict: str
    reason: str | None = None
    witness: tuple | None = None  # (root index, tid path, effective scope)
    paths: list = field(default_factory=list)  # [(root index, tid path, effective scope)]
    truncated: bool = False


@dataclass
class Truth:
    """The outcome of ingesting files 0..k, as the generator planted it."""

    lines: int
    diagnostics: dict  # (file, line) -> code prefix
    dropped: dict  # tid -> "EXPIRED" | "NOT_YET_VALID"
    rejected: set
    surviving: set
    omitted: dict  # tid -> resolve's omission reason
    nodes: dict  # tid -> Rec, surviving statements
    edges: dict  # vouch tid -> subject tid
    reverse: dict  # subject tid -> sorted voucher tids
    near_misses: int
    duplicates: set  # (iss, jti) shared by distinct valid wires


def render(items: list) -> str:
    """The text of a bundle file holding these lines."""
    return "".join((x.wire if isinstance(x, Rec) else x.text) + "\n" for x in items)


def scope_and(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def covers(scope, required) -> bool:
    return scope is None or set(required) <= scope


def parse_purpose(purpose: str | None):
    return None if purpose is None else frozenset(purpose.split())


class Corpus:
    """Bundle files for one seed plus their truths and planted requests."""

    def __init__(self, rng: random.Random, file_lines: list[int], requests: list[int]):
        self.rng = rng
        self.pool = [self._signer(f"p{i}") for i in range(16)]
        self.signer_of = {s.urn: s for s in self.pool}
        self.outsider = self._signer("outsider")  # trusted in requests, issues nothing
        self.recs: list[Rec] = []
        self.garbage: list[Garbage] = []
        self.heads: list[Rec] = []  # chain tips
        self.hubs: list[Rec] = []  # fan-in targets
        self.delegable: list[Rec] = []  # statements later vouches may endorse
        self.revocable: list[Rec] = []  # valid pool statements not yet revoked
        self.reused: set[str] = set()  # jtis a duplicate has been made of
        self.n_doomed = 0
        self.files: list[list] = []
        for f, n in enumerate(file_lines):
            self._fill(f, n)
        # Line numbers, 1-based, after each file's lines are shuffled.
        self.place: dict[int, tuple[int, int]] = {}
        for f, items in enumerate(self.files):
            rng.shuffle(items)
            for i, item in enumerate(items):
                self.place[id(item)] = (f, i + 1)
        self._truths = [self._truth(k) for k in range(len(self.files))]
        self.requests: list[list[Req]] = [
            [self._request(k, i) for i in range(n)] for k, n in enumerate(requests)
        ]
        # What the CLI is asked once every file has arrived.
        last = len(self.files) - 1
        self.cli_accept = self._request(last, 0, tries=500)
        self.cli_reject = self._request(last, 1, tries=500)
        self.wires = {r.tid: r.wire for r in self.recs}

    # -- generation ---------------------------------------------------------

    def _signer(self, label: str) -> Signer:
        return Signer(self.rng.randbytes(32), label)

    def _jti(self) -> str:
        return str(uuid.UUID(int=self.rng.getrandbits(128), version=4))

    def _purpose(self) -> str | None:
        if self.rng.random() < 0.35:
            return None
        labels = [x for x in LABELS if self.rng.random() < 0.6] or [self.rng.choice(LABELS)]
        return " ".join(labels)

    def _emit(self, f: int, signer: Signer, kind: str, rest: dict, **meta) -> Rec:
        claims = {"iss": signer.urn, "iss_key": signer.key_b64, "kind": kind, **rest}
        rec = Rec(
            wire=meta.pop("wire", None) or signer.sign(claims),
            kind=kind,
            iss=claims["iss"],
            jti=claims["jti"],
            sub=claims["sub"],
            file=f,
            vch_iss=claims.get("vch_iss"),
            vch_sum=claims.get("vch_sum"),
            scope=parse_purpose(claims.get("purpose")),
            **meta,
        )
        self.recs.append(rec)
        self.files[f].append(rec)
        return rec

    def _attest(self, f, signer=None, purpose=None, times=None, jti=None, **meta) -> Rec:
        signer = signer or self.rng.choice(self.pool)
        jti = jti or self._jti()
        rest = {"jti": jti, "sub": jti}
        if purpose is not None:
            rest["purpose"] = purpose
        rest.update(times or {})
        return self._emit(f, signer, ATTEST, rest, **meta)

    def _vouch(self, f, subject: Rec, signer=None, purpose=None, times=None, **meta) -> Rec:
        signer = signer or self.rng.choice(self.pool)
        rest = {"jti": self._jti(), "sub": subject.jti, "vch_iss": subject.iss, "vch_sum": subject.tid}
        if purpose is not None:
            rest["purpose"] = purpose
        rest.update(times or {})
        return self._emit(f, signer, VOUCH, rest, target=subject.tid, down=subject.down + 1, **meta)

    def _statement(self, f) -> Rec:
        rec = self._attest(f, purpose=self._purpose())
        self.delegable.append(rec)
        self.revocable.append(rec)
        if len(self.heads) < 3:
            self.heads.append(rec)
        elif len(self.hubs) < 4:
            self.hubs.append(rec)
        return rec

    def _fill(self, f: int, n: int) -> None:
        rng = self.rng
        self.files.append([])
        moves = []
        for name, share, cost in MIX:
            moves += [name] * int(share * n / cost + 0.5)
        used = sum(MOVE_COST[m] for m in moves)
        moves += ["attest"] * (n - used)
        rng.shuffle(moves)
        for move in moves:
            if move != "attest" and move != "garbage" and not self.delegable:
                move = "attest"
            getattr(self, "_move_" + move)(f)

    def _move_attest(self, f):
        self._statement(f)

    def _move_chain(self, f):
        if not self.heads:
            return self._statement(f)
        i = self.rng.randrange(len(self.heads))
        # Chains mostly pass their labels on, so long chains can still accept.
        purpose = None if self.rng.random() < 0.7 else self._purpose()
        rec = self._vouch(f, self.heads[i], purpose=purpose)
        if rec.down < MAX_CHAIN:
            self.heads[i] = rec
        else:
            self.heads.pop(i)
        self.delegable.append(rec)
        self.revocable.append(rec)

    def _move_hub(self, f):
        hub = self.rng.choice(self.hubs or self.delegable)
        rec = self._vouch(f, hub, purpose=self._purpose())
        self.delegable.append(rec)
        self.revocable.append(rec)

    def _move_vouch(self, f):
        subject = self.rng.choice(self.delegable)
        if subject.down >= MAX_CHAIN:
            subject = self.rng.choice(self.hubs or self.delegable[:1])
        rec = self._vouch(f, subject, purpose=self._purpose())
        self.delegable.append(rec)
        self.revocable.append(rec)

    def _move_revoke(self, f):
        if not self.revocable:
            return self._statement(f)
        target = self.revocable.pop(self.rng.randrange(len(self.revocable)))
        signer = self.signer_of[target.iss]
        triple = (target.jti, target.iss, target.tid) if target.kind == ATTEST else (
            target.sub, target.vch_iss, target.vch_sum)
        rest = {"jti": self._jti(), "sub": triple[0], "vch_iss": triple[1],
                "vch_sum": triple[2], "revokes": target.jti}
        self._emit(f, signer, REVOKE, rest, target=target.tid)

    def _timed(self, f, times: dict, window: str):
        if self.rng.random() < 0.5:
            rec = self._attest(f, purpose=self._purpose(), times=times, window=window)
        else:
            subject = self.rng.choice(self.hubs or self.delegable)
            rec = self._vouch(f, subject, purpose=self._purpose(), times=times, window=window)
        self.delegable.append(rec)
        if window == "ok":
            self.revocable.append(rec)

    def _move_expired(self, f):
        self._timed(f, {"iat": NOW - 2_000_000, "exp": NOW - self.rng.randint(0, 10**6)}, "EXPIRED")

    def _move_not_yet_valid(self, f):
        self._timed(f, {"nbf": NOW + self.rng.randint(1, 10**6)}, "NOT_YET_VALID")

    def _move_windowed(self, f):
        self._timed(
            f, {"nbf": NOW - self.rng.randint(0, 10**6), "exp": NOW + self.rng.randint(1, 10**6)}, "ok"
        )

    def _move_forged(self, f):
        # Right statement id, wrong content hash: a near-miss reference.
        victim = self.rng.choice(self.delegable)
        rest = {"jti": self._jti(), "sub": victim.jti, "vch_iss": victim.iss,
                "vch_sum": self.rng.randbytes(32).hex(), "purpose": "read write"}
        self._emit(f, self.rng.choice(self.pool), VOUCH, rest)

    def _move_bad(self, f):
        signer, other = self.rng.sample(self.pool, 2)
        jti = self._jti()
        rest = {"jti": jti, "sub": jti, "purpose": "read"}
        flavour = self.rng.randrange(3)
        if flavour == 0:  # signature over other bytes
            claims = {"iss": signer.urn, "iss_key": signer.key_b64, "kind": ATTEST, **rest}
            wire = signer.sign(claims).rsplit(".", 1)[0] + "." + b64url(signer.key.sign(b"other"))
            self._emit(f, signer, ATTEST, rest, wire=wire, valid=False)
        elif flavour == 1:  # identity of one key, signed and keyed by another
            claims = {"iss": signer.urn, "iss_key": other.key_b64, "kind": ATTEST, **rest}
            self._emit(f, signer, ATTEST, rest, wire=other.sign(claims), valid=False)
        else:  # a vouch whose content hash is not 64 hex digits
            subject = self.rng.choice(self.delegable)
            rest = {"jti": jti, "sub": subject.jti, "vch_iss": subject.iss, "vch_sum": "zz" * 32}
            self._emit(f, signer, VOUCH, rest, valid=False)

    def _move_duplicate(self, f):
        # The same issuer reuses a jti on a different wire.
        originals = [r for r in self.revocable if r.kind == ATTEST and r.jti not in self.reused]
        if not originals:
            return self._statement(f)
        orig = self.rng.choice(originals)
        self.reused.add(orig.jti)
        purpose = self._purpose()
        if parse_purpose(purpose) == orig.scope:
            purpose = "audit" if orig.scope != frozenset({"audit"}) else "read"
        rec = self._attest(f, self.signer_of[orig.iss], purpose=purpose, jti=orig.jti)
        self.delegable.append(rec)

    def _move_doomed(self, f):
        # A throwaway identity makes two statements, gets endorsed, then burns.
        self.n_doomed += 1
        doomed = self._signer(f"d{self.n_doomed}")
        mine = self._attest(f, doomed, purpose=self._purpose())
        self._vouch(f, self.rng.choice(self.delegable), doomed, purpose=self._purpose())
        self.delegable.append(self._vouch(f, mine, purpose=self._purpose()))
        self._emit(f, doomed, BURN, {"jti": (j := self._jti()), "sub": j, "burns": doomed.urn})

    def _move_garbage(self, f):
        template, code = GARBAGE[self.rng.randrange(len(GARBAGE))]
        text = template.format(*(self.rng.randbytes(8).hex() for _ in range(3)))
        g = Garbage(text=text, code=code, file=f)
        self.garbage.append(g)
        self.files[f].append(g)

    # -- truth ----------------------------------------------------------------

    def truth(self, k: int) -> Truth:
        return self._truths[k]

    def _truth(self, k: int) -> Truth:
        recs = [r for r in self.recs if r.file <= k]
        dropped = {r.tid: r.window for r in recs if r.window != "ok"}
        rejected = {r.tid for r in recs if r.window == "ok" and not r.valid}
        valid_recs = [r for r in recs if r.window == "ok" and r.valid]
        burned = {r.iss for r in valid_recs if r.kind == BURN}
        revoked = {r.target for r in valid_recs if r.kind == REVOKE}
        omitted = dict(dropped)
        omitted.update((t, "INVALID") for t in rejected)
        surviving = set()
        for r in valid_recs:
            if r.kind != BURN and r.iss in burned:
                omitted[r.tid] = "BURNED"
            elif r.kind in STATEMENTS and r.tid in revoked:
                omitted[r.tid] = "REVOKED"
            else:
                surviving.add(r.tid)
        nodes = {r.tid: r for r in valid_recs if r.tid in surviving and r.kind in STATEMENTS}
        edges, reverse = {}, {}
        for tid, r in nodes.items():
            if r.kind == VOUCH and r.target in nodes:
                edges[tid] = r.target
                reverse.setdefault(r.target, []).append(tid)
        for voucher_tids in reverse.values():
            voucher_tids.sort()
        by_statement: dict = {}
        for r in valid_recs:
            if r.tid in surviving:
                by_statement.setdefault((r.iss, r.jti), []).append(r.tid)
        near_misses = sum(
            1
            for tid, r in nodes.items()
            if r.kind == VOUCH and tid not in edges
            for other in by_statement.get((r.vch_iss, r.sub), ())
            if other != r.vch_sum
        )
        wires_per_id: dict = {}
        for r in valid_recs:
            wires_per_id.setdefault((r.iss, r.jti), set()).add(r.tid)
        garbage = [g for g in self.garbage if g.file <= k]
        return Truth(
            lines=len(recs) + len(garbage),
            diagnostics={self.place[id(g)]: g.code for g in garbage},
            dropped=dropped,
            rejected=rejected,
            surviving=surviving,
            omitted=omitted,
            nodes=nodes,
            edges=edges,
            reverse=reverse,
            near_misses=near_misses,
            duplicates={key for key, tids in wires_per_id.items() if len(tids) > 1},
        )

    # -- requests -------------------------------------------------------------

    def _request(self, k: int, i: int, tries: int = 30) -> Req:
        """Plant one request, cycling through the four outcomes."""
        rng, truth = self.rng, self._truths[k]
        want = ("ACCEPT", "SCOPE_INSUFFICIENT", "NO_ROOTED_PATH", "SUBJECT_NOT_IN_CLEAN_SET")[i % 4]
        statements = sorted(truth.nodes)
        deep = [t for t in statements if t in truth.reverse]
        gone = [r.tid for r in self.recs if r.kind in STATEMENTS and r.tid not in truth.nodes]
        req = None
        for _ in range(tries):
            if want == "SUBJECT_NOT_IN_CLEAN_SET" and gone:
                subject = rng.choice(gone)
            else:
                # Most subjects sit under a hub or at the foot of a chain.
                subject = rng.choice(deep if deep and rng.random() < 0.6 else statements)
            anc = ancestors(truth, subject)
            required = tuple(sorted(rng.sample(LABELS, rng.randint(1, 2))))
            root_scope = None if rng.random() < 0.4 else tuple(
                sorted(rng.sample(LABELS, rng.randint(2, 4))))
            if want == "NO_ROOTED_PATH" or not anc:
                issuers = {truth.nodes[t].iss for t in anc}
                root_urn = rng.choice([s.urn for s in self.pool if s.urn not in issuers]
                                      + [self.outsider.urn])
            else:
                # Prefer the farthest ancestors, so deep chains get asked about.
                far = sorted(anc, key=lambda t: (-anc[t], t))[: max(1, len(anc) // 4)]
                start = rng.choice(far if rng.random() < 0.6 else sorted(anc))
                root_urn = truth.nodes[start].iss
                eff = None if root_scope is None else frozenset(root_scope)
                for t in chain(truth, start, subject):
                    eff = scope_and(eff, truth.nodes[t].scope)
                inside = sorted(LABELS if eff is None else eff)
                outside = [x for x in LABELS if x not in inside]
                if want == "ACCEPT" and inside:
                    required = tuple(sorted(rng.sample(inside, min(len(inside), rng.randint(1, 2)))))
                elif want == "SCOPE_INSUFFICIENT" and outside:
                    required = (rng.choice(outside),)
            if rng.random() < 0.05:
                required = ()
            roots = ((root_urn, root_scope),)
            if rng.random() < 0.25:
                roots += ((rng.choice(self.pool).urn, None if rng.random() < 0.5 else tuple(LABELS)),)
            req = Req(subject=subject, required=required, roots=roots, prefix=k)
            e = expect(truth, req)
            if (e.reason or e.verdict) == want:
                break
        return req


# -- reference evaluator over the planted graph ---------------------------------

def ancestors(truth: Truth, subject: str) -> dict:
    """Every node with a path down to the subject, with its length in edges."""
    if subject not in truth.nodes:
        return {}
    depth = {subject: 0}
    frontier = [subject]
    while frontier:
        nxt = []
        for t in frontier:
            for v in truth.reverse.get(t, ()):
                depth[v] = depth[t] + 1
                nxt.append(v)
        frontier = nxt
    return depth


def chain(truth: Truth, start: str, subject: str) -> tuple:
    path = [start]
    while path[-1] != subject:
        path.append(truth.edges[path[-1]])
    return tuple(path)


def expect(truth: Truth, req: Req) -> Expect:
    """The decision and path listing the planted graph implies."""
    if req.subject not in truth.nodes:
        return Expect("REJECT", "SUBJECT_NOT_IN_CLEAN_SET")
    anc = ancestors(truth, req.subject)
    paths, covering = [], []
    for start in sorted(anc, key=lambda t: (anc[t], t)):
        path = chain(truth, start, req.subject)
        own = None
        for t in path:
            own = scope_and(own, truth.nodes[t].scope)
        for i, (urn, labels) in enumerate(req.roots):
            if urn != truth.nodes[start].iss:
                continue
            root = None if labels is None else frozenset(labels)
            eff = scope_and(root, own)
            paths.append((i, path, eff))
            if covers(eff, req.required):
                covering.append((len(path), path, i, eff))
    listed = paths[:EXPLAIN_LIMIT]
    truncated = len(paths) > EXPLAIN_LIMIT
    if covering:
        length, path, i, eff = min(covering, key=lambda c: (c[0], c[1], c[2]))
        return Expect("ACCEPT", witness=(i, path, eff), paths=listed, truncated=truncated)
    reason = "SCOPE_INSUFFICIENT" if paths else "NO_ROOTED_PATH"
    return Expect("REJECT", reason, paths=listed, truncated=truncated)

"""Synchronous dataflow graph core.

An Sdfg is actors joined by FIFO channels.  Channels carry the token
rates of both endpoints and an initial token load (the delay).  The
operations here are purely structural: solve the balance equations for
the repetition vector, align it across components, play the token game to
build the one flat iteration schedule that every engine runs (recording
peak queue occupancy), classify a graph, and render Graphviz text.  No
block semantics appear at this level.

Balance equation per channel c: q[src] * rate_src == q[dst] * rate_dst.
The repetition vector is the smallest positive integer solution, solved
per weakly-connected component.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import kinds
from .errors import DeadlockError, InconsistentError, SchemaError

Endpoint = tuple[str, int]  # (actor id, port slot)


@dataclass
class Port:
    """One bound port slot.  origin is the pre-replication port index of
    the source block, so replicated fanout slots share an origin."""

    dtype: str
    width: int
    origin: int = 0
    event: bool = False


@dataclass
class Actor:
    id: str
    kind: str
    params: dict
    period: Fraction
    in_ports: list[Port] = field(default_factory=list)
    out_ports: list[Port] = field(default_factory=list)
    # In-memory only: Subsystem actors keep the original block so the
    # schedule interpreter can run their diagram.  Not serialized; a graph
    # loaded from JSON must be re-translated if it contains subsystems.
    impl: object = field(default=None, compare=False, repr=False)

    def full_out_specs(self) -> list[tuple[str, int]]:
        """Out specs indexed by the original (pre-replication) port index.
        Dropped ports get a placeholder spec; their values are never used."""
        if self.kind == "Subsystem" and self.impl is not None:
            return [tuple(s) for s in self.impl.out_ports]
        specs = [("f64", 1)] * (1 + max((p.origin for p in self.out_ports), default=-1))
        for p in self.out_ports:
            specs[p.origin] = (p.dtype, p.width)
        return specs


@dataclass
class Channel:
    id: str
    src: Endpoint
    dst: Endpoint
    rate_src: int
    rate_dst: int
    delay: int = 0
    initial_values: list = field(default_factory=list)
    dtype: str = "f64"
    width: int = 1


@dataclass
class Sdfg:
    name: str
    actors: list[Actor] = field(default_factory=list)
    channels: list[Channel] = field(default_factory=list)

    def actor(self, aid: str) -> Actor:
        for a in self.actors:
            if a.id == aid:
                return a
        raise KeyError(aid)

    def in_channels(self) -> dict[str, list[Channel]]:
        out: dict[str, list[Channel]] = {a.id: [] for a in self.actors}
        for c in self.channels:
            out[c.dst[0]].append(c)
        return out

    def out_channels(self) -> dict[str, list[Channel]]:
        out: dict[str, list[Channel]] = {a.id: [] for a in self.actors}
        for c in self.channels:
            out[c.src[0]].append(c)
        return out

    def check_wellformed(self):
        """Structural sanity; raises SchemaError on the first problem."""
        ids = [a.id for a in self.actors]
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate actor ids")
        cids = [c.id for c in self.channels]
        if len(set(cids)) != len(cids):
            raise SchemaError("duplicate channel ids")
        actors = {a.id: a for a in self.actors}
        bound: set[tuple] = set()
        for c in self.channels:
            for label, (aid, slot), plist in (("src", c.src, "out_ports"),
                                              ("dst", c.dst, "in_ports")):
                if aid not in actors:
                    raise SchemaError(f"channel {c.id}: unknown actor {aid!r}")
                ports = getattr(actors[aid], plist)
                if slot >= len(ports):
                    raise SchemaError(f"channel {c.id}: {aid!r} has no {label} slot {slot}")
                key = (label, aid, slot)
                if key in bound:
                    raise SchemaError(f"channel {c.id}: port {key} bound twice")
                bound.add(key)
                if (ports[slot].dtype, ports[slot].width) != (c.dtype, c.width):
                    raise SchemaError(f"channel {c.id}: token spec mismatch at {label}")
            if c.rate_src < 1 or c.rate_dst < 1:
                raise SchemaError(f"channel {c.id}: rates must be >= 1")
            if c.delay < 0 or len(c.initial_values) != c.delay:
                raise SchemaError(f"channel {c.id}: needs exactly delay={c.delay} initial values")
        for a in self.actors:
            for label, plist in (("in", a.in_ports), ("out", a.out_ports)):
                for slot in range(len(plist)):
                    if (("dst" if label == "in" else "src"), a.id, slot) not in bound:
                        raise SchemaError(f"actor {a.id}: unbound {label} port {slot}")


# ---------------------------------------------------------------------------
# balance equations


def repetition_vector(g: Sdfg) -> dict[str, int]:
    """Smallest positive integer solution of the balance equations,
    normalized per weakly-connected component."""
    neighbours: dict[str, list[tuple[str, Fraction, Channel]]] = {a.id: [] for a in g.actors}
    for c in g.channels:
        s, t = c.src[0], c.dst[0]
        neighbours[s].append((t, Fraction(c.rate_src, c.rate_dst), c))
        neighbours[t].append((s, Fraction(c.rate_dst, c.rate_src), c))

    q: dict[str, Fraction] = {}
    for seed in sorted(neighbours):
        if seed in q:
            continue
        q[seed] = Fraction(1)
        component = [seed]
        stack = [seed]
        while stack:
            a = stack.pop()
            for b, ratio, ch in neighbours[a]:
                want = q[a] * ratio
                if b in q:
                    if q[b] != want:
                        raise InconsistentError(
                            f"channel {ch.id} ({ch.src} -> {ch.dst}, rates "
                            f"{ch.rate_src}/{ch.rate_dst}) contradicts the balance equations")
                else:
                    q[b] = want
                    component.append(b)
                    stack.append(b)
        scale = 1
        for a in component:
            scale = scale * q[a].denominator // gcd(scale, q[a].denominator)
        norm = 0
        for a in component:
            q[a] *= scale
            norm = gcd(norm, int(q[a]))
        for a in component:
            q[a] = Fraction(int(q[a]) // norm)
    return {a: int(v) for a, v in q.items()}


def aligned_repetition(g: Sdfg, q: dict[str, int]) -> tuple[dict[str, int], Fraction]:
    """Scale the per-component repetition counts so one iteration spans the
    same wall-clock time in every weakly-connected component.

    Returns the scaled vector and that common span.  For a connected graph
    this is the plain repetition vector and the lcm of its periods.  An
    already aligned vector comes back unchanged."""
    parent = {a.id: a.id for a in g.actors}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in g.channels:
        a, b = find(c.src[0]), find(c.dst[0])
        if a != b:
            parent[a] = b
    spans: dict[str, Fraction] = {}
    for a in g.actors:
        root = find(a.id)
        span = q[a.id] * a.period
        spans[root] = max(spans.get(root, Fraction(0)), span)
    h = None
    for v in spans.values():
        if h is None:
            h = v
        else:
            h = Fraction(h.numerator * v.numerator // gcd(h.numerator, v.numerator),
                         gcd(h.denominator, v.denominator))
    if h is None:
        h = Fraction(1)
    scaled = {}
    for a in g.actors:
        s = h / spans[find(a.id)]
        if s.denominator != 1:
            raise InconsistentError(f"actor {a.id}: span {spans[find(a.id)]} "
                                    f"does not divide the iteration span {h}")
        scaled[a.id] = q[a.id] * int(s)
    return scaled, h


def sil_span(g: Sdfg) -> Fraction:
    """Wall-clock time covered by one aligned schedule iteration."""
    _, h = aligned_repetition(g, repetition_vector(g))
    return h


# ---------------------------------------------------------------------------
# scheduling


@dataclass
class Schedule:
    """One flat iteration: q[a] firings of each actor, in an order that a
    plain FIFO replay can execute without underflow.  `repetition` is the
    aligned vector and `span` the wall-clock time the iteration covers."""

    firings: list[str]
    peaks: dict[str, int]
    repetition: dict[str, int]
    span: Fraction

    def to_json(self) -> dict:
        return {"firings": list(self.firings),
                "peaks": dict(sorted(self.peaks.items())),
                "repetition": dict(sorted(self.repetition.items()))}


def build_schedule(g: Sdfg, q: dict[str, int] | None = None) -> Schedule:
    """The iteration every engine runs: the repetition vector (solved, or
    `q`) aligned across components, ordered by the token game with ties
    broken by ascending actor id.

    The fireable actors wait in a heap, so each firing costs the fired
    actor's in- and out-degree plus a heap operation, not a scan of every
    actor.  A channel has one consumer, so a firing only adds tokens to
    other actors' inputs: a queued actor stays fireable until it is
    popped, and only the fired actor and its consumers need re-checking."""
    if q is None:
        q = repetition_vector(g)
    else:
        _check_counts(g, q)
    q, span = aligned_repetition(g, q)
    ins = g.in_channels()
    outs = g.out_channels()
    tokens = {c.id: c.delay for c in g.channels}
    peaks = dict(tokens)
    remaining = dict(q)
    firings: list[str] = []

    def fireable(aid: str) -> bool:
        return remaining[aid] > 0 and all(tokens[c.id] >= c.rate_dst for c in ins[aid])

    ready = [aid for aid in remaining if fireable(aid)]
    heapq.heapify(ready)
    queued = set(ready)
    while ready:
        pick = heapq.heappop(ready)
        queued.discard(pick)
        for c in ins[pick]:
            tokens[c.id] -= c.rate_dst
        for c in outs[pick]:
            tokens[c.id] += c.rate_src
            if tokens[c.id] > peaks[c.id]:
                peaks[c.id] = tokens[c.id]
        remaining[pick] -= 1
        firings.append(pick)
        for aid in (pick, *(c.dst[0] for c in outs[pick])):
            if aid not in queued and fireable(aid):
                heapq.heappush(ready, aid)
                queued.add(aid)
    blocked = sorted(a for a in remaining if remaining[a] > 0)
    if blocked:
        raise DeadlockError(f"no fireable actor; blocked: {', '.join(blocked)}")

    for c in g.channels:
        if tokens[c.id] != c.delay:
            raise InconsistentError(f"channel {c.id} holds {tokens[c.id]} tokens after "
                                    f"one iteration, not its delay {c.delay}")
    return Schedule(firings, peaks, q, span)


def _check_counts(g: Sdfg, q: dict[str, int]) -> None:
    """A caller-supplied vector names every actor once, with a positive
    integer count."""
    ids = {a.id for a in g.actors}
    missing = sorted(ids - q.keys())
    if missing:
        raise InconsistentError(f"repetition vector has no count for actor {missing[0]}")
    unknown = sorted(map(str, q.keys() - ids))
    if unknown:
        raise InconsistentError(f"repetition vector names unknown actor {unknown[0]}")
    for aid, n in sorted(q.items()):
        if type(n) is not int or n < 1:
            raise InconsistentError(f"actor {aid}: repetition count must be a "
                                    f"positive integer, got {n!r}")


@dataclass
class ConsistencyReport:
    """`repetition` is the aligned vector (None when inconsistent);
    `schedule` is the iteration built for a consistent graph."""

    status: str  # "consistent" | "inconsistent" | "deadlocked"
    detail: str
    repetition: dict[str, int] | None
    schedule: Schedule | None = None

    @property
    def ok(self) -> bool:
        return self.status == "consistent"


def check_consistency(g: Sdfg) -> ConsistencyReport:
    try:
        q = repetition_vector(g)
    except InconsistentError as e:
        return ConsistencyReport("inconsistent", str(e), None)
    try:
        sched = build_schedule(g, q)
    except DeadlockError as e:
        return ConsistencyReport("deadlocked", str(e), aligned_repetition(g, q)[0])
    return ConsistencyReport("consistent", "", sched.repetition, sched)


# ---------------------------------------------------------------------------
# export


def export_dot(g: Sdfg) -> str:
    """Graphviz text; node and edge order is sorted, so output is stable."""
    by_id = {a.id: a for a in g.actors}
    lines = [f'digraph "{g.name}" {{', "  rankdir=LR;",
             "  node [shape=box, fontname=monospace];"]
    for a in sorted(g.actors, key=lambda a: a.id):
        lines.append(f'  "{a.id}" [label="{a.id}\\n{a.kind}"];')
    for c in sorted(g.channels, key=lambda c: (c.src, c.dst, c.id)):
        parts = [f"rate {c.rate_src}/{c.rate_dst}", f"{c.dtype}[{c.width}]"]
        if c.delay:
            parts.append(f"delay {c.delay} " + "●" * min(c.delay, 4))
        dst = by_id[c.dst[0]]
        event = c.dst[1] < len(dst.in_ports) and dst.in_ports[c.dst[1]].event
        style = ", style=dashed" if event else ""
        lines.append(f'  "{c.src[0]}" -> "{c.dst[0]}" [label="{" / ".join(parts)}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON round-trip


def _port_json(p: Port) -> dict:
    return {"dtype": p.dtype, "width": p.width, "origin": p.origin, "event": p.event}


def save_sdfg(g: Sdfg) -> dict:
    return {
        "name": g.name,
        "actors": [{
            "id": a.id,
            "kind": a.kind,
            "ports": {"in": [_port_json(p) for p in a.in_ports],
                      "out": [_port_json(p) for p in a.out_ports]},
            "state": {"params": _params_json(a.params),
                      "period": [a.period.numerator, a.period.denominator]},
        } for a in g.actors],
        "channels": [{
            "id": c.id,
            "src": list(c.src),
            "dst": list(c.dst),
            "rate_src": c.rate_src,
            "rate_dst": c.rate_dst,
            "delay": c.delay,
            "dtype": c.dtype,
            "width": c.width,
            "initial_values": [list(v) if isinstance(v, tuple) else v
                               for v in c.initial_values],
        } for c in g.channels],
    }


def _params_json(params: dict):
    def conv(v):
        if isinstance(v, tuple):
            return list(v)
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        if isinstance(v, list):
            return [conv(x) for x in v]
        return v
    return {k: conv(v) for k, v in params.items()}


def _canon_params(a: Actor) -> dict:
    """Re-canonicalize a loaded actor's params against its recorded specs.
    An output no channel consumes records no spec, and no engine reads the
    params behind it, so such an actor keeps its params as loaded, as do
    unknown kinds and the param-less actors of purely structural graphs."""
    if not isinstance(a.params, dict):
        raise SchemaError(f"actor {a.id}: params must be an object")
    k = kinds.KINDS.get(a.kind)
    if k is None or not a.params:
        return dict(a.params)
    specs = a.full_out_specs()
    n_out = k.arity(a.params)[1]
    if {p.origin for p in a.out_ports} != set(range(len(specs) if n_out is None else n_out)):
        return dict(a.params)
    data_in = [(p.dtype, p.width) for p in a.in_ports if not p.event]
    try:
        return k.canon_params(a.params, data_in, specs)
    except SchemaError as e:
        raise SchemaError(f"actor {a.id}: {e}") from None
    except (KeyError, TypeError) as e:
        raise SchemaError(f"actor {a.id}: malformed params ({type(e).__name__}: {e})") from None


def load_sdfg(doc: dict) -> Sdfg:
    g = Sdfg(doc["name"])
    for a in doc["actors"]:
        period = Fraction(a["state"]["period"][0], a["state"]["period"][1])
        in_ports = [Port(p["dtype"], p["width"], p.get("origin", 0), p.get("event", False))
                    for p in a["ports"]["in"]]
        out_ports = [Port(p["dtype"], p["width"], p.get("origin", 0), p.get("event", False))
                     for p in a["ports"]["out"]]
        actor = Actor(a["id"], a["kind"], a["state"].get("params", {}), period,
                      in_ports, out_ports)
        actor.params = _canon_params(actor)
        g.actors.append(actor)
    for c in doc["channels"]:
        vals = [kinds.canon_token(c["dtype"], c["width"], v) for v in c["initial_values"]]
        g.channels.append(Channel(c["id"], tuple(c["src"]), tuple(c["dst"]),
                                  c["rate_src"], c["rate_dst"], c["delay"], vals,
                                  c["dtype"], c["width"]))
    g.check_wellformed()
    return g


def dump_sdfg_file(g: Sdfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(save_sdfg(g), fh, indent=2, sort_keys=True)
        fh.write("\n")

"""Synchronous dataflow graph core.

An Sdfg is actors joined by FIFO channels.  Channels carry the token
rates of both endpoints and an initial token load (the delay).  The
operations here are purely structural: solve the balance equations for
the repetition vector, align it across components, play the token game to
build the one flat iteration schedule that every engine runs (recording
peak queue occupancy), and render Graphviz text.  An inconsistent or
deadlocked graph has no schedule: build_schedule raises InconsistentError
or DeadlockError, and that is the graph's verdict.  No block semantics
appear at this level.

The firing plan, the data that SIL and the C emitter both replay from one
schedule, lives here too.  firing_plan is where a replay gets its
schedule: built for the graph, or a caller's checked by check_schedule.

Balance equation per channel c: q[src] * rate_src == q[dst] * rate_dst.
The repetition vector is the smallest positive integer solution, solved
per weakly-connected component.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from . import kinds
from .errors import (DeadlockError, InconsistentError, SchemaError, SdflowError,
                     UnderflowError, UnsupportedKindError)
from .trace import Trace, canon_time, stimulus_table

Endpoint = tuple[str, int]  # (actor id, port slot)


@dataclass
class Port:
    """One port of an actor: the token spec of the block port at the same
    index, and whether it is an enable (event) input."""

    dtype: str
    width: int
    event: bool = False


@dataclass
class Actor:
    """One block as an actor: its ports are the block's ports, in block
    order.  An in-port is bound to exactly one channel; an out-port feeds
    any number of channels, none included."""

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
        """Structural sanity; raises SchemaError on the first problem.
        Every in-port is bound exactly once; an out-port may feed any
        number of channels."""
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
                if (ports[slot].dtype, ports[slot].width) != (c.dtype, c.width):
                    raise SchemaError(f"channel {c.id}: token spec mismatch at {label}")
            if c.dst in bound:
                raise SchemaError(f"channel {c.id}: in-port {c.dst} bound twice")
            bound.add(c.dst)
            if c.rate_src < 1 or c.rate_dst < 1:
                raise SchemaError(f"channel {c.id}: rates must be >= 1")
            if c.delay < 0 or len(c.initial_values) != c.delay:
                raise SchemaError(f"channel {c.id}: needs exactly delay={c.delay} initial values")
        for a in self.actors:
            for slot in range(len(a.in_ports)):
                if (a.id, slot) not in bound:
                    raise SchemaError(f"actor {a.id}: unbound in port {slot}")


# ---------------------------------------------------------------------------
# balance equations


def repetition_vector(g: Sdfg) -> dict[str, int]:
    """Smallest positive integer solution of the balance equations,
    normalized per weakly-connected component.  Counts relative to the
    component's seed are reduced integer (num, den) pairs."""
    neighbours: dict[str, list[tuple[str, int, int, Channel]]] = {a.id: [] for a in g.actors}
    for c in g.channels:
        s, t = c.src[0], c.dst[0]
        neighbours[s].append((t, c.rate_src, c.rate_dst, c))
        neighbours[t].append((s, c.rate_dst, c.rate_src, c))

    q: dict[str, tuple[int, int]] = {}
    out: dict[str, int] = {}
    for seed in sorted(neighbours):
        if seed in q:
            continue
        q[seed] = (1, 1)
        component = [seed]
        stack = [seed]
        while stack:
            a = stack.pop()
            num, den = q[a]
            for b, r_a, r_b, ch in neighbours[a]:
                n, d = num * r_a, den * r_b
                k = gcd(n, d)
                want = (n // k, d // k)
                if b in q:
                    if q[b] != want:
                        raise InconsistentError(
                            f"channel {ch.id} ({ch.src} -> {ch.dst}, rates "
                            f"{ch.rate_src}/{ch.rate_dst}) contradicts the balance equations")
                else:
                    q[b] = want
                    component.append(b)
                    stack.append(b)
        scale = lcm(*(q[a][1] for a in component))
        counts = [q[a][0] * (scale // q[a][1]) for a in component]
        norm = gcd(*counts)
        for a, n in zip(component, counts):
            out[a] = n // norm
    return out


def aligned_repetition(g: Sdfg, q: dict[str, int]) -> tuple[dict[str, int], Fraction]:
    """Scale the per-component repetition counts so one iteration spans the
    same wall-clock time in every weakly-connected component.

    Returns the scaled vector and that common span.  For a connected graph
    this is the plain repetition vector and the lcm of its periods.  An
    already aligned vector comes back unchanged.  Spans are counted in
    units of 1/den, den the lcm of the period denominators; the common span
    is the lcm of the component spans, so each of them divides it."""
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
    den = lcm(*(a.period.denominator for a in g.actors))
    spans: dict[str, int] = {}
    for a in g.actors:
        root = find(a.id)
        span = q[a.id] * a.period.numerator * (den // a.period.denominator)
        spans[root] = max(spans.get(root, 0), span)
    h = lcm(*spans.values())
    scaled = {a.id: q[a.id] * (h // spans[find(a.id)]) for a in g.actors}
    return scaled, Fraction(h, den)


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


def check_schedule(g: Sdfg, sched: Schedule) -> None:
    """Raise unless `sched` is an iteration of `g` that the engines can
    replay as given: its `repetition` is a positive aligned vector with
    `span` as its span; its firings never underflow a channel, leave every
    channel at its delay and fire each actor `repetition` times; and its
    `peaks` are the occupancy those firings reach, since the C buffers are
    sized from them.  Neither solves nor builds a schedule."""
    q = sched.repetition
    _check_counts(g, q)
    if aligned_repetition(g, q) != (q, sched.span):
        raise InconsistentError(f"schedule repetition and span {sched.span} are "
                                "not an aligned iteration")
    ins, outs = g.in_channels(), g.out_channels()
    tokens = {c.id: c.delay for c in g.channels}
    peaks = dict(tokens)
    fired = dict.fromkeys(q, 0)
    for aid in sched.firings:
        if aid not in fired:
            raise InconsistentError(f"schedule fires unknown actor {aid!r}")
        for c in ins[aid]:
            if tokens[c.id] < c.rate_dst:
                raise UnderflowError(f"firing {aid} needs {c.rate_dst} tokens on "
                                     f"{c.id}, found {tokens[c.id]}")
            tokens[c.id] -= c.rate_dst
        for c in outs[aid]:
            tokens[c.id] += c.rate_src
            peaks[c.id] = max(peaks[c.id], tokens[c.id])
        fired[aid] += 1
    for c in g.channels:
        if tokens[c.id] != c.delay:
            raise InconsistentError(f"channel {c.id} holds {tokens[c.id]} "
                                    "tokens at the iteration boundary")
    for aid, n in fired.items():
        if n != q[aid]:
            raise InconsistentError(f"actor {aid} fires {n} times, not its "
                                    f"repetition {q[aid]}")
    for cid in (*peaks, *sched.peaks):
        if sched.peaks.get(cid) != peaks.get(cid):
            raise InconsistentError(f"channel {cid}: schedule peak {sched.peaks.get(cid)}, "
                                    f"but its firings reach {peaks.get(cid)}")


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
class FiringPlan:
    """What run_sil and the C emitter both replay: the schedule, the
    channel into each in-port, each actor's out-channels and specs, the
    stimulus token of every Inport firing (an Inport without a signal
    reads zero) and the time of every Outport firing (one sequence per
    period, shared)."""

    schedule: Schedule
    ch_in: dict[tuple[str, int], Channel]
    ch_out: dict[str, list[Channel]]
    data_specs: dict[str, list[tuple[str, int]]]
    out_specs: dict[str, list[tuple[str, int]]]
    stim: dict[str, list]
    times: dict[str, range | list[int | Fraction]]


def firing_plan(g: Sdfg, periods: int, stimulus: Trace | None,
                sched: Schedule | None) -> FiringPlan:
    """The plan for `periods` iterations of `sched`: the schedule built
    for `g` when None, else one `check_schedule` accepts.  A graph that is
    not well formed, a count below 1 or an inadmissible schedule is
    rejected before any of the plan is built."""
    g.check_wellformed()
    if periods < 1:
        raise SdflowError("periods must be at least 1")
    if sched is None:
        sched = build_schedule(g)
    else:
        check_schedule(g, sched)
    inports = {a.id: (a.period, (a.out_ports[0].dtype, a.out_ports[0].width))
               for a in g.actors if a.kind == "Inport"}
    table = stimulus_table(stimulus, inports)
    ch_out = g.out_channels()
    data_specs, out_specs, stim, times = {}, {}, {}, {}
    # Outports of one period share one sequence of firing times, as long
    # as the longest of them needs; a range when the period is whole
    firings: dict[Fraction, int] = {}
    for a in g.actors:
        if a.kind == "Outport":
            firings[a.period] = max(firings.get(a.period, 0),
                                    sched.repetition[a.id] * periods)
    by_period = {}
    for period, count in firings.items():
        unit = canon_time(period)
        by_period[period] = (range(0, count * unit, unit) if type(unit) is int
                             else [canon_time(n * unit) for n in range(count)])
    for a in g.actors:
        if a.kind not in kinds.KINDS:
            raise UnsupportedKindError(f"actor {a.id}: unknown kind {a.kind!r}")
        data_specs[a.id] = [(p.dtype, p.width) for p in a.in_ports if not p.event]
        out_specs[a.id] = [(p.dtype, p.width) for p in a.out_ports]
        if a.kind == "Outport":
            times[a.id] = by_period[a.period]
        if a.kind != "Inport" or a.id not in table or not ch_out[a.id]:
            continue
        samples = table[a.id]
        try:
            stim[a.id] = [samples[n] for n in range(sched.repetition[a.id] * periods)]
        except KeyError as e:
            raise SdflowError(f"stimulus for {a.id!r} has no sample "
                              f"at t={e.args[0] * a.period}") from None
    return FiringPlan(sched, {c.dst: c for c in g.channels}, ch_out,
                      data_specs, out_specs, stim, times)


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
    return {"dtype": p.dtype, "width": p.width, "event": p.event}


def save_sdfg(g: Sdfg) -> dict:
    return {
        "name": g.name,
        "actors": [{
            "id": a.id,
            "kind": a.kind,
            "ports": {"in": [_port_json(p) for p in a.in_ports],
                      "out": [_port_json(p) for p in a.out_ports]},
            "state": {"params": kinds.json_value(a.params),
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
            "initial_values": kinds.json_value(c.initial_values),
        } for c in g.channels],
    }


def _canon_params(a: Actor) -> dict:
    """Run a loaded actor through the model loader's gate, against its
    recorded specs.  Actors of unknown kinds keep their params as loaded."""
    if not isinstance(a.params, dict):
        raise SchemaError(f"actor {a.id}: params must be an object")
    k = kinds.KINDS.get(a.kind)
    if k is None:
        return dict(a.params)
    specs = [(p.dtype, p.width) for p in a.out_ports]
    data_in = [(p.dtype, p.width) for p in a.in_ports if not p.event]
    if a.kind == "DataStoreMemory":
        # Routing removal gives a register without a writer no in-port;
        # its out-spec stands for both sides.
        data_in = data_in or specs
    try:
        return k.canon_params(a.params, data_in, specs)
    except SchemaError as e:
        raise SchemaError(f"actor {a.id}: {e}") from None
    except (KeyError, TypeError) as e:
        raise SchemaError(f"actor {a.id}: malformed params ({type(e).__name__}: {e})") from None


def _field(obj: dict, key: str, where: str, what: str, ok):
    """obj[key], which `ok` must accept; else a SchemaError naming `where`."""
    if key not in obj:
        raise SchemaError(f"{where}: missing {key!r}")
    v = obj[key]
    if not ok(v):
        raise SchemaError(f"{where}: {key!r} must be {what}, got {v!r}")
    return v


def _count(lo: int):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _of(t: type):
    return lambda v: isinstance(v, t)


def _is_dtype(v) -> bool:
    return isinstance(v, str) and v in kinds.DTYPES


def _is_slot(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and isinstance(v[0], str) and _count(0)(v[1])


def _entries(doc: dict, key: str, what: str):
    """(entry, its name for messages) for each entry of the list doc[key]."""
    for i, e in enumerate(_field(doc, key, "graph", "a list", _of(list))):
        if not isinstance(e, dict):
            raise SchemaError(f"{what} #{i}: must be an object, got {e!r}")
        yield e, f"{what} {_field(e, 'id', f'{what} #{i}', 'a string', _of(str))}"


def _ports(ports: dict, key: str, where: str) -> list[Port]:
    out = []
    for p in _field(ports, key, where, "a list", _of(list)):
        pw = f"{where}: {key} port {len(out)}"
        if not isinstance(p, dict):
            raise SchemaError(f"{pw}: must be an object, got {p!r}")
        out.append(Port(_field(p, "dtype", pw, f"one of {kinds.DTYPES}", _is_dtype),
                        _field(p, "width", pw, "an integer >= 1", _count(1)),
                        _field(p, "event", pw, "a boolean",
                               _of(bool)) if "event" in p else False))
    return out


def _period(state: dict, where: str) -> Fraction:
    """An actor's period: [num, den], both positive integers."""
    p = state.get("period")
    if not (isinstance(p, list) and len(p) == 2 and all(_count(1)(x) for x in p)):
        raise SchemaError(f"{where}: period must be [num, den] with "
                          f"two positive integers, got {p!r}")
    return Fraction(*p)


def load_sdfg(doc: dict) -> Sdfg:
    """The graph `save_sdfg` wrote.  A document of another shape, or
    params that fail their kind's gate, raise a SchemaError naming the
    actor or channel."""
    if not isinstance(doc, dict):
        raise SchemaError(f"graph: must be an object, got {type(doc).__name__}")
    g = Sdfg(_field(doc, "name", "graph", "a string", _of(str)))
    for a, where in _entries(doc, "actors", "actor"):
        ports = _field(a, "ports", where, "an object", _of(dict))
        state = _field(a, "state", where, "an object", _of(dict))
        actor = Actor(a["id"], _field(a, "kind", where, "a string", _of(str)),
                      state.get("params", {}), _period(state, where),
                      _ports(ports, "in", where), _ports(ports, "out", where))
        actor.params = _canon_params(actor)
        g.actors.append(actor)
    for c, where in _entries(doc, "channels", "channel"):
        src, dst = (_field(c, k, where, "[actor id, port index]", _is_slot)
                    for k in ("src", "dst"))
        rates = [_field(c, k, where, "an integer >= 1", _count(1))
                 for k in ("rate_src", "rate_dst")]
        delay = _field(c, "delay", where, "an integer >= 0", _count(0))
        dtype = _field(c, "dtype", where, f"one of {kinds.DTYPES}", _is_dtype)
        width = _field(c, "width", where, "an integer >= 1", _count(1))
        init = _field(c, "initial_values", where, "a list", _of(list))
        try:
            vals = [kinds.canon_token(dtype, width, v) for v in init]
        except SchemaError as e:
            raise SchemaError(f"{where}: initial value: {e}") from None
        g.channels.append(Channel(c["id"], tuple(src), tuple(dst), *rates, delay, vals,
                                  dtype, width))
    g.check_wellformed()
    return g


def dump_sdfg_file(g: Sdfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(save_sdfg(g), fh, indent=2, sort_keys=True)
        fh.write("\n")

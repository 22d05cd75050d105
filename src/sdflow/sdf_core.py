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
schedule: the graph's own, or a caller's checked by check_schedule.

Balance equation per channel c: q[src] * rate_src == q[dst] * rate_dst.
The repetition vector is the smallest positive integer solution, solved
per weakly-connected component.  A graph is immutable, so one index built
on first use holds what is derived from it, by actor and channel position:
one depth-first walk, seeded in id order, finds the components and solves
them, and the token game counts each actor's inputs short of a firing.
An iteration over MAX_ITERATION firings is refused first.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from types import MappingProxyType

from . import kinds
from .errors import (DeadlockError, InconsistentError, SchemaError, SdflowError,
                     UnderflowError, UnsupportedKindError)
from .trace import Trace, canon_time, stimulus_table

Endpoint = tuple[str, int]  # (actor id, port slot)

# An iteration fires at most this many times, and a channel starts with at
# most this many tokens: a period ratio of 10**30 fails before any such work.
MAX_ITERATION = 1_000_000


@dataclass(frozen=True)
class Port:
    """One port of an actor: the token spec of the block port at the same
    index, and whether it is an enable (event) input."""

    dtype: str
    width: int
    event: bool = False


@dataclass(frozen=True, slots=True)
class Actor:
    """One block as an actor: its ports are the block's ports, in block
    order.  An in-port is bound to exactly one channel; an out-port feeds
    any number of channels, none included."""

    id: str
    kind: str
    params: dict
    period: Fraction
    in_ports: tuple[Port, ...] = ()
    out_ports: tuple[Port, ...] = ()
    # In-memory only: Subsystem actors keep the original block so the
    # schedule interpreter can run their diagram.  Not serialized; a graph
    # loaded from JSON must be re-translated if it contains subsystems.
    impl: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Channel:
    id: str
    src: Endpoint
    dst: Endpoint
    rate_src: int
    rate_dst: int
    delay: int = 0
    initial_values: tuple = ()
    dtype: str = "f64"
    width: int = 1


@dataclass(frozen=True)
class Sdfg:
    name: str
    actors: tuple[Actor, ...] = ()
    channels: tuple[Channel, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "actors", tuple(self.actors))
        object.__setattr__(self, "channels", tuple(self.channels))

    def actor(self, aid: str) -> Actor:
        for a in self.actors:
            if a.id == aid:
                return a
        raise KeyError(aid)

    def check_wellformed(self):
        """Structural sanity; raises SchemaError on the first problem.
        Every in-port is bound exactly once, and an event in-port is
        scalar; an out-port may feed any number of channels.  The checks
        run until they pass once."""
        if "_wellformed" in vars(self):
            return
        actors = {a.id: a for a in self.actors}
        if len(actors) != len(self.actors):
            raise SchemaError("duplicate actor ids")
        if len({c.id for c in self.channels}) != len(self.channels):
            raise SchemaError("duplicate channel ids")
        bound: set[tuple] = set()
        for c in self.channels:
            for label, (aid, slot), out in (("src", c.src, True), ("dst", c.dst, False)):
                if aid not in actors:
                    raise SchemaError(f"channel {c.id}: unknown actor {aid!r}")
                ports = actors[aid].out_ports if out else actors[aid].in_ports
                if not 0 <= slot < len(ports):
                    raise SchemaError(f"channel {c.id}: {aid!r} has no {label} slot {slot}")
                if ports[slot].dtype != c.dtype or ports[slot].width != c.width:
                    raise SchemaError(f"channel {c.id}: token spec mismatch at {label}")
            if c.dst in bound:
                raise SchemaError(f"channel {c.id}: in-port {c.dst} bound twice")
            bound.add(c.dst)
            if c.rate_src < 1 or c.rate_dst < 1:
                raise SchemaError(f"channel {c.id}: rates must be >= 1")
            if c.delay < 0 or len(c.initial_values) != c.delay:
                raise SchemaError(f"channel {c.id}: needs exactly delay={c.delay} initial values")
        for a in self.actors:
            for slot, p in enumerate(a.in_ports):
                if (a.id, slot) not in bound:
                    raise SchemaError(f"actor {a.id}: unbound in port {slot}")
                if p.event and p.width != 1:
                    raise SchemaError(f"actor {a.id}: event in port {slot} has width "
                                      f"{p.width}; event ports are scalar")
        vars(self)["_wellformed"] = True

    _index = cached_property(lambda g: _Index(g))  # built on first use


# ---------------------------------------------------------------------------
# the index, and the balance equations


class _Index:
    """A graph by actor and channel position: channel ends and rates, each
    actor's channels, the walk's components and counts, and periods in units
    of 1/den.  Needs only that every channel names an actor of the graph."""

    def __init__(self, g: Sdfg):
        self.channels = chans = g.channels
        self.ids = ids = [a.id for a in g.actors]
        pos = {aid: a for a, aid in enumerate(ids)}
        self.by_rank = by_rank = sorted(range(len(ids)), key=ids.__getitem__)  # id order
        src = [pos[c.src[0]] for c in chans]
        self.dst = dst = [pos[c.dst[0]] for c in chans]
        self.rs, self.rd = rs, rd = [c.rate_src for c in chans], [c.rate_dst for c in chans]
        ins, outs = [[] for _ in ids], [[] for _ in ids]
        adj: list[list[int]] = [[] for _ in ids]  # channel k, or ~k seen from its consumer
        for k, s, t in zip(range(len(chans)), src, dst):
            outs[s].append(k)
            ins[t].append(k)
            adj[s].append(k)
            adj[t].append(~k)
        self.ins, self.outs = list(map(tuple, ins)), list(map(tuple, outs))  # smaller, GC-untracked
        self.comp, self.num, self.order = comp, num, order = [-1] * len(ids), [1] * len(ids), []
        den = num[:]
        self.clash = None  # what the first contradicting channel in walk order says
        for seed in by_rank:
            if comp[seed] >= 0:
                continue
            comp[seed], first, stack = seed, len(order), [seed]
            order.append(seed)
            while stack:
                a = stack.pop()
                for k in adj[a]:
                    b, x, y = (dst[k], rs[k], rd[k]) if k >= 0 else (src[~k], rd[~k], rs[~k])
                    x, y = num[a] * x, den[a] * y
                    f = gcd(x, y)
                    x, y = x // f, y // f
                    if comp[b] < 0:
                        comp[b], num[b], den[b] = seed, x, y
                        order.append(b)
                        stack.append(b)
                    elif (num[b] != x or den[b] != y) and self.clash is None:
                        ch = chans[k if k >= 0 else ~k]
                        self.clash = (f"channel {ch.id} ({ch.src} -> {ch.dst}, rates {ch.rate_src}"
                                      f"/{ch.rate_dst}) contradicts the balance equations")
            members = order[first:]
            scale = lcm(*[den[a] for a in members])
            norm = gcd(*[num[a] * (scale // den[a]) for a in members])
            for a in members:
                num[a] = num[a] * (scale // den[a]) // norm
        periods = [a.period.as_integer_ratio() for a in g.actors]
        self.den = lcm(*{d for _, d in periods})
        self.ticks = [p * (self.den // d) for p, d in periods]
        self.built: Schedule | None = None  # the graph's own schedule, once played

    def align(self, q: list[int]) -> tuple[list[int], Fraction]:
        """aligned_repetition on positions; an iteration over
        MAX_ITERATION firings raises, naming its busiest actor."""
        spans = [0] * len(q)
        for n, c, t in zip(q, self.comp, self.ticks):
            spans[c] = max(spans[c], n * t)
        h = lcm(*{s for s in spans if s})
        scaled = [n * (h // spans[c]) for n, c in zip(q, self.comp)]
        if sum(scaled) > MAX_ITERATION:
            n, a = max(((scaled[a], a) for a in self.by_rank), key=lambda x: x[0])
            raise SdflowError(f"actor {self.ids[a]} fires {n} times in an iteration of "
                              f"{sum(scaled)} firings; at most {MAX_ITERATION} are allowed")
        return scaled, Fraction(h, self.den)

    @cached_property
    def aligned(self) -> tuple[list[int], Fraction]:
        if self.clash:
            raise InconsistentError(self.clash)
        return self.align(self.num)

    def play(self, q: list[int], span: Fraction) -> Schedule:
        """The token game over aligned counts `q`.  Each actor counts its
        inputs short of a firing; one with firings left and none short waits
        in a heap of ranks.  A firing updates only its own count and those
        of the consumers it fills."""
        ids, by_rank = self.ids, self.by_rank
        rank = sorted(by_rank, key=by_rank.__getitem__)
        dst, rs, rd, ins, outs = self.dst, self.rs, self.rd, self.ins, self.outs
        remaining = q[:]
        tokens = [c.delay for c in self.channels]
        peaks = tokens[:]
        short = [0] * len(ids)
        for k, t in enumerate(dst):
            short[t] += tokens[k] < rd[k]
        ready = [rank[a] for a, n in enumerate(remaining) if n and not short[a]]
        heapq.heapify(ready)
        firings: list[str] = []
        while ready:
            a = by_rank[heapq.heappop(ready)]
            for k in ins[a]:
                tokens[k] -= rd[k]
                short[a] += tokens[k] < rd[k]
            again = not short[a]  # still fireable: the loop below re-queues only a refilled one
            remaining[a] -= 1
            for k in outs[a]:
                n = tokens[k] + rs[k]
                if tokens[k] < rd[k] <= n:
                    b = dst[k]
                    short[b] -= 1
                    if not short[b] and remaining[b]:
                        heapq.heappush(ready, rank[b])
                tokens[k] = n
                if n > peaks[k]:
                    peaks[k] = n
            firings.append(ids[a])
            if again and remaining[a]:
                heapq.heappush(ready, rank[a])
        blocked = [ids[a] for a in by_rank if remaining[a] > 0]
        if blocked:
            raise DeadlockError(f"no fireable actor; blocked: {', '.join(blocked)}")

        for c, n in zip(self.channels, tokens):
            if n != c.delay:
                raise InconsistentError(f"channel {c.id} holds {n} tokens after "
                                        f"one iteration, not its delay {c.delay}")
        return Schedule(firings, dict(zip((c.id for c in self.channels), peaks)),
                        {ids[a]: q[a] for a in by_rank}, span)  # repetition in id order


def repetition_vector(g: Sdfg) -> dict[str, int]:
    """Smallest positive integer solution of the balance equations, per
    weakly-connected component, in the order the walk visits the actors."""
    ix = g._index
    if ix.clash:
        raise InconsistentError(ix.clash)
    return {ix.ids[a]: ix.num[a] for a in ix.order}


def aligned_repetition(g: Sdfg, q: dict[str, int]) -> tuple[dict[str, int], Fraction]:
    """Scale the per-component repetition counts so one iteration spans the
    same wall-clock time in every weakly-connected component.

    Returns the scaled vector and that common span.  For a connected graph
    this is the plain repetition vector and the lcm of its periods.  An
    already aligned vector comes back unchanged.  Spans are counted in
    units of 1/den, den the lcm of the period denominators; the common span
    is the lcm of the component spans, so each of them divides it."""
    ix = g._index
    at = {ix.ids[a]: q[ix.ids[a]] for a in ix.by_rank}  # KeyError: the first missing id
    scaled, span = ix.align([at[aid] for aid in ix.ids])
    return dict(zip(ix.ids, scaled)), span


def sil_span(g: Sdfg) -> Fraction:
    """Wall-clock time covered by one aligned schedule iteration."""
    return g._index.aligned[1]


# ---------------------------------------------------------------------------
# scheduling


@dataclass(frozen=True, eq=False)
class Schedule:
    """One flat iteration: q[a] firings of each actor, in an order that a
    plain FIFO replay can execute without underflow.  `repetition` is the
    aligned vector and `span` the wall-clock time the iteration covers.
    The graph's own schedule holds a tuple and read-only mappings; one
    played for a caller's vector holds a list and dicts, the caller's."""

    firings: list[str] | tuple[str, ...]
    peaks: dict[str, int] | MappingProxyType
    repetition: dict[str, int] | MappingProxyType
    span: Fraction

    def to_json(self) -> dict:
        return {"firings": list(self.firings),
                "peaks": dict(sorted(self.peaks.items())),
                "repetition": dict(sorted(self.repetition.items()))}

    def __eq__(self, o) -> bool:  # a tuple of firings equals a list of the same
        return isinstance(o, Schedule) and (self.to_json(), self.span) == (o.to_json(), o.span)


def build_schedule(g: Sdfg, q: dict[str, int] | None = None) -> Schedule:
    """The iteration every engine runs: the repetition vector (solved, or
    `q`) aligned across components, ordered by the token game with ties
    broken by ascending actor id.  Without `q` this is the graph's one
    schedule: played on the first call, the same object on every later one.
    With `q` it is a new schedule, played for that vector."""
    ix = g._index
    if q is not None:
        _check_counts(ix, q)
        return ix.play(*ix.align([q[aid] for aid in ix.ids]))
    if ix.built is None:  # held read-only, as every later call returns it
        s = ix.play(*ix.aligned)
        ix.built = replace(s, firings=tuple(s.firings), peaks=MappingProxyType(s.peaks),
                           repetition=MappingProxyType(s.repetition))
    return ix.built


def check_schedule(g: Sdfg, sched: Schedule) -> None:
    """Raise unless `sched` is an iteration of `g` that the engines can
    replay as given: its `repetition` is a positive aligned vector with
    `span` as its span; its firings never underflow a channel, leave every
    channel at its delay and fire each actor `repetition` times; and its
    `peaks` are the occupancy those firings reach, since the C buffers are
    sized from them.  Neither solves nor builds a schedule."""
    ix = g._index
    q = sched.repetition
    _check_counts(ix, q)
    vec = [q[aid] for aid in ix.ids]
    if ix.align(vec) != (vec, sched.span):
        raise InconsistentError(f"schedule repetition and span {sched.span} are "
                                "not an aligned iteration")
    tokens = [c.delay for c in g.channels]
    peaks = tokens[:]
    pos = {aid: a for a, aid in enumerate(ix.ids)}
    for aid in sched.firings:
        if aid not in pos:
            raise InconsistentError(f"schedule fires unknown actor {aid!r}")
        a = pos[aid]
        for k in ix.ins[a]:
            if tokens[k] < ix.rd[k]:
                raise UnderflowError(f"firing {aid} needs {ix.rd[k]} tokens on "
                                     f"{g.channels[k].id}, found {tokens[k]}")
            tokens[k] -= ix.rd[k]
        for k in ix.outs[a]:
            tokens[k] += ix.rs[k]
            peaks[k] = max(peaks[k], tokens[k])
        vec[a] -= 1  # firings left
    for c, n in zip(g.channels, tokens):
        if n != c.delay:
            raise InconsistentError(f"channel {c.id} holds {n} "
                                    "tokens at the iteration boundary")
    for aid, n in q.items():
        if vec[pos[aid]]:
            raise InconsistentError(f"actor {aid} fires {n - vec[pos[aid]]} times, not its "
                                    f"repetition {n}")
    reach = dict(zip((c.id for c in g.channels), peaks))
    for cid in (*reach, *sched.peaks):
        if sched.peaks.get(cid) != reach.get(cid):
            raise InconsistentError(f"channel {cid}: schedule peak {sched.peaks.get(cid)}, "
                                    f"but its firings reach {reach.get(cid)}")


def _check_counts(ix: _Index, q: dict[str, int] | MappingProxyType) -> None:
    """A caller-supplied vector names every actor once, with a positive
    integer count."""
    ids = set(ix.ids)
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
    """What run_sil and the C emitter both replay, by actor and channel
    position: the schedule and its firings, the channel into each in-port,
    each actor's out-channels and specs, the stimulus token of every Inport
    firing (None where there is none) and the time of every Outport firing
    (one sequence per period, shared)."""

    schedule: Schedule
    steps: list[int]
    ch_in: list[list[int]]
    ch_out: list[list[int]]
    data_specs: list[list[tuple[str, int]]]
    out_specs: list[list[tuple[str, int]]]
    stim: list[list | None]
    times: list[range | list[int | Fraction] | None]


def firing_plan(g: Sdfg, periods: int, stimulus: Trace | None,
                sched: Schedule | None) -> FiringPlan:
    """The plan for `periods` iterations of `sched`: the graph's own
    schedule when None, else one `check_schedule` accepts.  A graph that
    is not well formed, a count below 1 or an inadmissible schedule is
    rejected before any of the plan is built."""
    g.check_wellformed()
    if periods < 1:
        raise SdflowError("periods must be at least 1")
    ix = g._index
    if sched is None:
        sched = build_schedule(g)
    elif sched is not ix.built:  # the graph's own schedule cannot change
        check_schedule(g, sched)
    inports = {a.id: (a.period, (a.out_ports[0].dtype, a.out_ports[0].width))
               for a in g.actors if a.kind == "Inport"}
    table = stimulus_table(stimulus, inports)
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
    pos = {aid: a for a, aid in enumerate(ix.ids)}
    ch_in = [sorted(ks, key=lambda k: g.channels[k].dst[1]) for ks in ix.ins]  # in slot order
    data_specs, out_specs, stim, times = [], [], [None] * len(ix.ids), [None] * len(ix.ids)
    for k, a in enumerate(g.actors):
        if a.kind not in kinds.KINDS:
            raise UnsupportedKindError(f"actor {a.id}: unknown kind {a.kind!r}")
        data_specs.append([(p.dtype, p.width) for p in a.in_ports if not p.event])
        out_specs.append([(p.dtype, p.width) for p in a.out_ports])
        if a.kind == "Outport":
            times[k] = by_period[a.period]
        if a.kind != "Inport" or a.id not in table or not ix.outs[k]:
            continue
        samples = table[a.id]
        try:
            stim[k] = [samples[n] for n in range(sched.repetition[a.id] * periods)]
        except KeyError as e:
            raise SdflowError(f"stimulus for {a.id!r} has no sample "
                              f"at t={e.args[0] * a.period}") from None
    return FiringPlan(sched, [pos[aid] for aid in sched.firings], ch_in, ix.outs,
                      data_specs, out_specs, stim, times)


# ---------------------------------------------------------------------------
# export


def _dot(*lines: str) -> str:
    """A quoted DOT string of `lines`, joined by DOT's line break, each
    with its backslashes and double quotes escaped."""
    return '"' + "\\n".join(s.replace("\\", "\\\\").replace('"', '\\"') for s in lines) + '"'


def export_dot(g: Sdfg) -> str:
    """Graphviz text; node and edge order is sorted, so output is stable."""
    by_id = {a.id: a for a in g.actors}
    lines = [f"digraph {_dot(g.name)} {{", "  rankdir=LR;",
             "  node [shape=box, fontname=monospace];"]
    for a in sorted(g.actors, key=lambda a: a.id):
        lines.append(f"  {_dot(a.id)} [label={_dot(a.id, a.kind)}];")
    for c in sorted(g.channels, key=lambda c: (c.src, c.dst, c.id)):
        parts = [f"rate {c.rate_src}/{c.rate_dst}", f"{c.dtype}[{c.width}]"]
        if c.delay:
            parts.append(f"delay {c.delay} " + "●" * min(c.delay, 4))
        dst = by_id[c.dst[0]]
        event = c.dst[1] < len(dst.in_ports) and dst.in_ports[c.dst[1]].event
        style = ", style=dashed" if event else ""
        lines.append(f"  {_dot(c.src[0])} -> {_dot(c.dst[0])} "
                     f"[label={_dot(' / '.join(parts))}{style}];")
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


def _ports(ports: dict, key: str, where: str) -> tuple[Port, ...]:
    out = []
    for p in _field(ports, key, where, "a list", _of(list)):
        pw = f"{where}: {key} port {len(out)}"
        if not isinstance(p, dict):
            raise SchemaError(f"{pw}: must be an object, got {p!r}")
        out.append(Port(_field(p, "dtype", pw, f"one of {kinds.DTYPES}", _is_dtype),
                        _field(p, "width", pw, "an integer >= 1", _count(1)),
                        _field(p, "event", pw, "a boolean",
                               _of(bool)) if "event" in p else False))
    return tuple(out)


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
    name, actors, channels = _field(doc, "name", "graph", "a string", _of(str)), [], []
    for a, where in _entries(doc, "actors", "actor"):
        ports = _field(a, "ports", where, "an object", _of(dict))
        state = _field(a, "state", where, "an object", _of(dict))
        actor = Actor(a["id"], _field(a, "kind", where, "a string", _of(str)),
                      state.get("params", {}), _period(state, where),
                      _ports(ports, "in", where), _ports(ports, "out", where))
        actors.append(replace(actor, params=_canon_params(actor)))
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
            vals = tuple(kinds.canon_token(dtype, width, v) for v in init)
        except SchemaError as e:
            raise SchemaError(f"{where}: initial value: {e}") from None
        channels.append(Channel(c["id"], tuple(src), tuple(dst), *rates, delay, vals,
                                dtype, width))
    g = Sdfg(name, actors, channels)
    g.check_wellformed()
    return g

"""Reference execution of models and graphs, plus trace comparison.

Two interpreters live here and they deliberately share no plumbing with
the normalizer:

* run_mil evaluates the hierarchical block diagram directly.  A wiring
  resolver chases connections through subsystem boundaries, tag and
  data-store routing and bus pairs, producing for every leaf block the
  leaf that feeds each of its in-ports.  Evaluation is fixed-step and
  two-phase: outputs settle in feedthrough topological order, then the
  stateful blocks latch their next state.
* run_sil replays a dataflow schedule with plain FIFO queues, one token
  at a time.

Both produce a Trace: per output signal, (time, value) samples with the
signal's type and width.  compare_traces checks two traces sample by
sample, exactly for bool/i32 and within a relative tolerance for f64.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import isinf, isnan

from . import kinds
from .errors import (AlgebraicLoopError, InconsistentError, NormalizationError,
                     SchemaError, SdflowError, ShapeError, SignalTypeError,
                     UnderflowError, UnsupportedKindError)
from .model_ir import Block, BlockModel
from .sdf_core import Channel, Schedule, Sdfg, build_schedule

# ---------------------------------------------------------------------------
# Trace


def time_str(t: Fraction) -> str:
    """Exact decimal when the denominator allows one, else "num/den"."""
    den = t.denominator
    k2 = 0
    while den % 2 == 0:
        den //= 2
        k2 += 1
    k5 = 0
    while den % 5 == 0:
        den //= 5
        k5 += 1
    if den != 1:
        return f"{t.numerator}/{t.denominator}"
    digits = max(k2, k5)
    scaled = t.numerator * 10 ** digits // t.denominator
    if digits == 0:
        return str(scaled)
    s = str(scaled).rjust(digits + 1, "0")
    return f"{s[:-digits]}.{s[-digits:]}"


def parse_time(s: str) -> Fraction:
    return Fraction(s)


def _fmt_scalar(dtype: str, v) -> str:
    if dtype == "bool":
        return "1" if v else "0"
    if dtype == "i32":
        return str(v)
    return repr(v)


def fmt_value(dtype: str, width: int, v) -> str:
    if width == 1:
        return _fmt_scalar(dtype, v)
    return ";".join(_fmt_scalar(dtype, e) for e in v)


def _parse_scalar(dtype: str, s: str):
    if dtype == "bool":
        if s not in ("0", "1"):
            raise SchemaError(f"bool sample must be 0 or 1, got {s!r}")
        return s == "1"
    if dtype == "i32":
        return int(s)
    return float(s)


def parse_value(dtype: str, width: int, s: str):
    if width == 1:
        return _parse_scalar(dtype, s)
    parts = s.split(";")
    if len(parts) != width:
        raise SchemaError(f"expected {width} elements, got {len(parts)}")
    return tuple(_parse_scalar(dtype, p) for p in parts)


class Trace:
    """Per-signal sample lists.  Signals keep insertion order; samples are
    appended in time order by the engines."""

    def __init__(self):
        self.samples: dict[str, list[tuple[Fraction, object]]] = {}
        self.specs: dict[str, tuple[str, int]] = {}

    def declare(self, signal: str, dtype: str, width: int):
        if signal in self.specs and self.specs[signal] != (dtype, width):
            raise ShapeError(f"signal {signal!r} re-declared with a different spec")
        self.specs.setdefault(signal, (dtype, width))
        self.samples.setdefault(signal, [])

    def add(self, signal: str, t: Fraction, value):
        self.samples[signal].append((t, value))

    def signals(self) -> list[str]:
        return list(self.samples)

    def clip(self, t_end: Fraction) -> "Trace":
        """Samples strictly before t_end."""
        out = Trace()
        for sig in self.samples:
            out.declare(sig, *self.specs[sig])
            out.samples[sig] = [(t, v) for t, v in self.samples[sig] if t < t_end]
        return out

    def to_csv(self) -> str:
        rows = ["time,signal,value"]
        merged = []
        for sig, pts in self.samples.items():
            d, w = self.specs[sig]
            merged.extend((t, sig, fmt_value(d, w, v)) for t, v in pts)
        merged.sort(key=lambda r: (r[0], r[1]))
        rows.extend(f"{time_str(t)},{sig},{val}" for t, sig, val in merged)
        return "\n".join(rows) + "\n"

    @classmethod
    def from_csv(cls, text: str, specs: dict[str, tuple[str, int]]) -> "Trace":
        """Specs come from the reference side; CSV itself is untyped."""
        tr = cls()
        lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines or lines[0][1] != "time,signal,value":
            raise SchemaError("trace CSV must start with 'time,signal,value'")
        for n, ln in lines[1:]:
            fields = ln.split(",", 2)
            if len(fields) != 3:
                raise SchemaError(f"trace CSV line {n}: expected time,signal,value")
            ts, sig, val = fields
            if sig not in specs:
                raise ShapeError(f"trace CSV mentions unknown signal {sig!r}")
            d, w = specs[sig]
            tr.declare(sig, d, w)
            try:
                tr.add(sig, parse_time(ts), parse_value(d, w, val))
            except (SchemaError, ValueError, ZeroDivisionError) as e:
                raise SchemaError(f"trace CSV line {n}: {e}") from None
        for sig in tr.samples:
            tr.samples[sig].sort(key=lambda p: p[0])
        return tr

    def to_json(self) -> dict:
        return {"signals": [{
            "name": sig,
            "dtype": self.specs[sig][0],
            "width": self.specs[sig][1],
            "samples": [[[t.numerator, t.denominator],
                         list(v) if isinstance(v, tuple) else v]
                        for t, v in pts],
        } for sig, pts in self.samples.items()]}

    @classmethod
    def from_json(cls, doc: dict) -> "Trace":
        tr = cls()
        for s in doc["signals"]:
            d, w = s["dtype"], s["width"]
            tr.declare(s["name"], d, w)
            for (num, den), v in s["samples"]:
                tr.add(s["name"], Fraction(num, den), kinds.canon_token(d, w, v))
        return tr


@dataclass
class Comparison:
    ok: bool
    samples: int
    max_rel: float
    divergence: dict | None = None

    def to_json(self) -> dict:
        return {"ok": self.ok, "samples": self.samples, "max_rel": self.max_rel,
                "divergence": self.divergence}

    def __str__(self) -> str:
        if self.ok:
            return f"traces match over {self.samples} samples (max rel err {self.max_rel:.3g})"
        d = self.divergence
        return (f"traces diverge at {d['signal']} t={d['time']} sample {d['index']}: "
                f"{d['a']} vs {d['b']}")


def _scalar_close(dtype: str, x, y, tol: float):
    """(equal, relative error)"""
    if dtype != "f64":
        return x == y, 0.0
    if isnan(x) or isnan(y):
        return isnan(x) and isnan(y), 0.0
    if isinf(x) or isinf(y):
        return x == y, 0.0
    d = abs(x - y)
    m = max(abs(x), abs(y))
    if d == 0.0:
        return True, 0.0
    rel = d / m
    return d <= tol * m, rel


def compare_traces(a: Trace, b: Trace, tol: float = 0.0) -> Comparison:
    if set(a.samples) != set(b.samples):
        only_a = sorted(set(a.samples) - set(b.samples))
        only_b = sorted(set(b.samples) - set(a.samples))
        raise ShapeError(f"signal sets differ (only left: {only_a}, only right: {only_b})")
    total = 0
    max_rel = 0.0
    for sig in a.samples:
        d, w = a.specs[sig]
        if sig in b.specs and b.specs[sig] != (d, w):
            raise ShapeError(f"signal {sig!r} spec differs: {a.specs[sig]} vs {b.specs[sig]}")
        pa, pb = a.samples[sig], b.samples[sig]
        if len(pa) != len(pb):
            raise ShapeError(f"signal {sig!r} has {len(pa)} vs {len(pb)} samples")
        for i, ((ta, va), (tb, vb)) in enumerate(zip(pa, pb)):
            if ta != tb:
                raise ShapeError(f"signal {sig!r} sample {i} at t={ta} vs t={tb}")
            total += 1
            xs = kinds.token_elems(va, w)
            ys = kinds.token_elems(vb, w)
            for x, y in zip(xs, ys):
                eq, rel = _scalar_close(d, x, y, tol)
                max_rel = max(max_rel, rel)
                if not eq:
                    return Comparison(False, total, max_rel, {
                        "signal": sig, "time": str(ta), "index": i,
                        "a": fmt_value(d, w, va), "b": fmt_value(d, w, vb)})
    return Comparison(True, total, max_rel)


# ---------------------------------------------------------------------------
# Wiring resolution

Ref = tuple  # (leaf path, out port)


class Resolution:
    """Flat view of one diagram for evaluation purposes: the leaf blocks,
    who feeds each leaf in-port, the enable chain gating each leaf, and a
    feedthrough-safe evaluation order."""

    def __init__(self):
        self.leaves: dict[str, Block] = {}
        self.producers: dict[str, list[Ref]] = {}
        self.controls: dict[str, list[Ref]] = {}
        self.order: list[str] = []
        self.inports: list[str] = []
        self.outports: list[str] = []
        self.memories: dict[str, str] = {}        # store name -> leaf path
        self.mem_writer: dict[str, Ref] = {}      # leaf path -> writer's driver
        self.mem_spec: dict[str, tuple] = {}      # leaf path -> (dtype, width)


def _join(scope: str, bid: str) -> str:
    return f"{scope}/{bid}" if scope else bid


def resolve_wiring(top: Block, triggers=()) -> Resolution:
    res = Resolution()
    scopes: dict[str, Block] = {"": top}
    scope_of: dict[str, str] = {}
    blocks: dict[str, Block] = {}
    gotos: dict[str, str] = {}
    writers: dict[str, str] = {}

    def collect(scope_path: str, sub: Block):
        for c in sub.children:
            path = _join(scope_path, c.id)
            blocks[path] = c
            scope_of[path] = scope_path
            if c.is_subsystem():
                scopes[path] = c
                collect(path, c)
            elif c.kind == "Goto":
                gotos[c.params["tag"]] = path
            elif c.kind == "DataStoreWrite":
                writers[c.params["store"]] = path
            elif c.kind == "DataStoreMemory":
                res.memories[c.params["store"]] = path

    collect("", top)

    def driver(scope_path: str, bid: str, port: int) -> tuple[str, int]:
        for cn in scopes[scope_path].connections:
            if cn.dst == (bid, port):
                return cn.src
        raise NormalizationError(
            f"{_join(scope_path, bid)}: in-port {port} has no driver")

    def resolve(scope_path: str, ep: tuple[str, int]) -> Ref:
        bid, port = ep
        pending: list[int] = []  # bus element indices awaiting their creator
        seen = set()
        while True:
            key = (scope_path, bid, port, len(pending))
            if key in seen:
                raise NormalizationError(
                    f"wiring cycle while resolving {_join(scope_path, bid)}")
            seen.add(key)
            path = _join(scope_path, bid)
            b = blocks[path]
            if b.is_subsystem():
                inner = next(c for c in b.children
                             if c.kind == "Outport" and c.params.get("index", 0) == port)
                scope_path = path
                bid, port = driver(scope_path, inner.id, 0)
            elif b.kind == "Inport" and scope_path != "":
                # strip the parent prefix to recover the subsystem's block
                # id; flattened ids may themselves contain '/'
                sub_path = scope_path
                scope_path = scope_of[sub_path]
                sub_id = sub_path[len(scope_path) + 1:] if scope_path else sub_path
                bid, port = driver(scope_path, sub_id, b.params.get("index", 0))
            elif b.kind == "From":
                tag = b.params["tag"]
                if tag not in gotos:
                    raise NormalizationError(f"{path}: tag {tag!r} has no Goto writer")
                gp = gotos[tag]
                scope_path = scope_of[gp]
                bid, port = driver(scope_path, blocks[gp].id, 0)
            elif b.kind == "DataStoreRead":
                store = b.params["store"]
                if store not in res.memories:
                    raise NormalizationError(f"{path}: store {store!r} has no memory")
                return (res.memories[store], 0)
            elif b.kind == "BusSelector":
                if pending:
                    raise NormalizationError(
                        f"{path}: BusSelector output consumed as a bus")
                indices = b.params.get("indices") or list(range(len(b.out_ports)))
                pending.append(indices[port])
                bid, port = driver(scope_path, b.id, 0)
            elif b.kind == "BusCreator":
                if not pending:
                    raise NormalizationError(f"{path}: bus feeds a non-selector consumer")
                e = pending.pop()
                if e >= len(b.in_ports):
                    raise NormalizationError(f"{path}: bus has no element {e}")
                bid, port = driver(scope_path, b.id, e)
            elif b.kind in ("Goto", "DataStoreWrite"):
                raise NormalizationError(f"{path}: {b.kind} cannot drive a signal")
            else:
                if pending:
                    raise NormalizationError(
                        f"{path}: expected a BusCreator on this bus wire")
                return (path, port)

    def walk(scope_path: str, sub: Block, chain: list[Ref]):
        for c in sub.children:
            path = _join(scope_path, c.id)
            if c.is_subsystem():
                chain2 = chain
                if c.mode() in ("triggered", "enabled"):
                    cp = c.params["control_port"]
                    chain2 = chain + [resolve(scope_path, driver(scope_path, c.id, cp))]
                walk(path, c, chain2)
                continue
            if c.kind in kinds.ROUTING_KINDS:
                continue
            if c.kind in ("Inport", "Outport") and scope_path != "":
                continue  # boundary ports of inner scopes are spliced away
            if c.kind not in kinds.KINDS:
                raise UnsupportedKindError(f"{path}: unknown kind {c.kind!r}")
            res.leaves[path] = c
            res.controls[path] = list(chain)
            res.producers[path] = [resolve(scope_path, driver(scope_path, c.id, i))
                                   for i in range(len(c.in_ports))]
            if c.kind == "Inport":
                res.inports.append(path)
            elif c.kind == "Outport":
                res.outports.append(path)

    walk("", top, [])

    # Flattening dissolves conditional subsystems and records them as
    # trigger groups; re-attach their gating so a normalized model keeps
    # the original hold semantics.
    for tg in triggers:
        ref = resolve("", tg.control)
        for mid in tg.members:
            for path in res.leaves:
                if path == mid or path.startswith(mid + "/"):
                    res.controls[path].append(ref)

    for store, wpath in writers.items():
        if store not in res.memories:
            raise NormalizationError(f"{wpath}: store {store!r} has no memory")
        mp = res.memories[store]
        res.mem_writer[mp] = resolve(scope_of[wpath], driver(scope_of[wpath],
                                                             blocks[wpath].id, 0))
        res.mem_spec[mp] = tuple(blocks[wpath].in_ports[0])
    for path, b in blocks.items():
        if b.kind == "DataStoreRead":
            mp = res.memories.get(b.params["store"])
            if mp is not None and mp not in res.mem_spec:
                res.mem_spec[mp] = tuple(b.out_ports[0])
    for mp in res.memories.values():
        if mp in res.leaves and blocks[mp].out_ports:
            res.mem_spec[mp] = tuple(blocks[mp].out_ports[0])

    # Output-phase order: a feedthrough leaf needs all its producers first,
    # and every leaf needs its enable chain first.
    deps: dict[str, set[str]] = {p: set() for p in res.leaves}
    for p, leaf in res.leaves.items():
        if kinds.KINDS[leaf.kind].feedthrough:
            deps[p].update(src for src, _ in res.producers[p] if src != p)
        deps[p].update(src for src, _ in res.controls[p] if src != p)
    ready = sorted(p for p in deps if not deps[p])
    consumers: dict[str, list[str]] = {p: [] for p in deps}
    pending_count = {}
    for p, ds in deps.items():
        pending_count[p] = len(ds)
        for d in ds:
            consumers[d].append(p)
    order: list[str] = []
    while ready:
        p = ready.pop(0)
        order.append(p)
        freed = []
        for c in consumers[p]:
            pending_count[c] -= 1
            if pending_count[c] == 0:
                freed.append(c)
        if freed:
            ready = sorted(ready + freed)
    if len(order) != len(deps):
        loop = sorted(p for p in deps if pending_count[p] > 0)
        raise AlgebraicLoopError(
            "zero-delay feedthrough cycle through: " + ", ".join(loop))
    res.order = order
    return res


# ---------------------------------------------------------------------------
# Block-diagram engine


class DiagramEngine:
    """Two-phase evaluation over a Resolution.

    `last[path]` holds each leaf's most recent output list; consumers and
    the trace always read from it, so values naturally hold between
    activations and while an enclosing subsystem is disabled.
    """

    def __init__(self, top: Block, triggers=()):
        self.res = resolve_wiring(top, triggers)
        self.in_specs: dict[str, list] = {}
        self.out_specs: dict[str, list] = {}
        self.state: dict[str, object] = {}
        self.last: dict[str, list] = {}
        for path, leaf in self.res.leaves.items():
            k = kinds.KINDS[leaf.kind]
            ispecs = [tuple(s) for s in leaf.in_ports]
            ospecs = [tuple(s) for s in leaf.out_ports]
            if leaf.kind == "DataStoreMemory" and not ospecs:
                spec = self.res.mem_spec.get(path)
                if spec is None:
                    # store never read nor written; keep the literal as-is
                    self.state[path] = leaf.params["initial"]
                    self.last[path] = [self.state[path]]
                    self.in_specs[path] = []
                    self.out_specs[path] = [("f64", 1)]
                    continue
                ispecs = [spec] if path in self.res.mem_writer else []
                ospecs = [spec]
                d, w = spec
                self.state[path] = kinds.canon_token(d, w, leaf.params["initial"])
                self.last[path] = [self.state[path]]
            else:
                if k.stateful:
                    self.state[path] = k.init_state(leaf.params, ispecs, ospecs)
                self.last[path] = list(k.initial_output(leaf.params, ispecs, ospecs))
            self.in_specs[path] = ispecs
            self.out_specs[path] = ospecs

    def value(self, ref: Ref):
        return self.last[ref[0]][ref[1]]

    def _in_refs(self, path: str) -> list[Ref]:
        leaf = self.res.leaves[path]
        if leaf.kind == "DataStoreMemory" and not leaf.in_ports:
            w = self.res.mem_writer.get(path)
            return [w] if w is not None else []
        return self.res.producers[path]

    def enabled(self, path: str) -> bool:
        return all(kinds.truth(self.value(r)) for r in self.res.controls[path])

    def tick(self, active, stim=None):
        """Output phase.  Returns ((outport, value) pairs, enable map)."""
        recorded = []
        en: dict[str, bool] = {}
        for path in self.res.order:
            if active is not None and path not in active:
                continue
            leaf = self.res.leaves[path]
            en[path] = self.enabled(path)
            if not en[path]:
                continue
            if leaf.kind == "Inport":
                if stim is not None:
                    self.last[path] = [stim(path)]
            elif leaf.kind == "Outport":
                recorded.append((path, self.value(self.res.producers[path][0])))
            else:
                k = kinds.KINDS[leaf.kind]
                ins = [self.value(r) for r in self._in_refs(path)]
                self.last[path] = list(k.output(leaf.params, self.in_specs[path],
                                                self.out_specs[path],
                                                self.state.get(path), ins))
        return recorded, en

    def update(self, active, en):
        """State phase, after every output of the tick has settled."""
        for path, leaf in self.res.leaves.items():
            if active is not None and path not in active:
                continue
            k = kinds.KINDS[leaf.kind]
            if not k.stateful or not en.get(path, False):
                continue
            refs = self._in_refs(path)
            if leaf.kind == "DataStoreMemory" and not refs:
                continue
            ins = [self.value(r) for r in refs]
            self.state[path] = k.update(leaf.params, self.in_specs[path],
                                        self.out_specs[path], self.state[path], ins)


def _stim_table(stimulus: "Trace | None"):
    if stimulus is None:
        return {}
    table = {}
    for sig in stimulus.samples:
        d, w = stimulus.specs[sig]
        table[sig] = {t: kinds.canon_token(d, w, v) for t, v in stimulus.samples[sig]}
    return table


@dataclass
class _FiringPlan:
    """What run_sil and the C emitter both replay: the channel into each
    in-port, each actor's out-channels and specs, and the stimulus token of
    every Inport firing (an Inport without a signal reads zero)."""

    ch_in: dict[tuple[str, int], Channel]
    ch_out: dict[str, list[Channel]]
    data_specs: dict[str, list[tuple[str, int]]]
    out_specs: dict[str, list[tuple[str, int]]]
    stim: dict[str, list]


def _firing_plan(g: Sdfg, sched: Schedule, periods: int,
                 stimulus: Trace | None) -> _FiringPlan:
    table = _stim_table(stimulus)
    data_specs, out_specs, stim = {}, {}, {}
    for a in g.actors:
        if a.kind not in kinds.KINDS:
            raise UnsupportedKindError(f"actor {a.id}: unknown kind {a.kind!r}")
        data_specs[a.id] = [(p.dtype, p.width) for p in a.in_ports if not p.event]
        out_specs[a.id] = a.full_out_specs()
        if a.kind != "Inport" or a.id not in table or not a.out_ports:
            continue
        (d, w), (sd, sw) = out_specs[a.id][0], stimulus.specs[a.id]
        if (sd, sw) != (d, w):
            raise SignalTypeError(
                f"stimulus {a.id!r} is ({sd} x{sw}), the port wants ({d} x{w})")
        samples, rows = table[a.id], []
        for n in range(sched.repetition[a.id] * periods):
            t = n * a.period
            if t not in samples:
                raise SdflowError(f"stimulus for {a.id!r} has no sample at t={t}")
            rows.append(samples[t])
        stim[a.id] = rows
    return _FiringPlan({c.dst: c for c in g.channels}, g.out_channels(),
                       data_specs, out_specs, stim)


def run_mil(m: BlockModel, steps: int, stimulus: Trace | None = None) -> Trace:
    """Fixed-step run of the hierarchical model over `steps` base steps.

    Stimulus signals are matched to top-level Inport blocks by id and
    must provide a sample at every activation time; absent signals read
    as the zero token.
    """
    eng = DiagramEngine(m.root, m.triggers)
    table = _stim_table(stimulus)
    trace = Trace()
    for path in eng.res.outports:
        d, w = eng.res.leaves[path].in_ports[0]
        trace.declare(path, d, w)

    def stim(path):
        leaf = eng.res.leaves[path]
        d, w = leaf.out_ports[0]
        if path not in table:
            return kinds.zero_token(d, w)
        try:
            return table[path][t]
        except KeyError:
            raise SdflowError(f"stimulus for {path!r} has no sample at t={t}") from None

    for step in range(steps):
        t = step * m.base_step
        active = {path for path, leaf in eng.res.leaves.items()
                  if t % leaf.period == 0}
        recorded, en = eng.tick(active, stim)
        for path, v in recorded:
            trace.add(path, t, v)
        eng.update(active, en)
    return trace


class EmbeddedDiagram:
    """One opaque subsystem run as a dataflow actor: a firing is one tick
    of its inner diagram; while disabled the inner state and outputs are
    simply left untouched."""

    def __init__(self, block: Block):
        self.eng = DiagramEngine(block)
        self.in_index: dict[int, str] = {}
        for path in self.eng.res.inports:
            self.in_index[self.eng.res.leaves[path].params.get("index", 0)] = path
        by_index = {}
        for path in self.eng.res.outports:
            by_index[self.eng.res.leaves[path].params.get("index", 0)] = path
        self.out_refs = [self.eng.res.producers[by_index[j]][0]
                         for j in range(len(block.out_ports))]

    def fire(self, in_tokens: list, enabled: bool) -> list:
        if enabled:
            for idx, path in self.in_index.items():
                self.eng.last[path] = [in_tokens[idx]]
            _, en = self.eng.tick(None, stim=None)
            self.eng.update(None, en)
        return [self.eng.value(r) for r in self.out_refs]


# ---------------------------------------------------------------------------
# Dataflow engine


def run_sil(g: Sdfg, periods: int = 1, stimulus: Trace | None = None) -> Trace:
    """Replay `periods` iterations of the schedule with FIFO queues."""
    g.check_wellformed()
    return _replay(g, build_schedule(g), periods, stimulus)


def _replay(g: Sdfg, sched: Schedule, periods: int, stimulus: Trace | None) -> Trace:
    """run_sil for a graph already scheduled as `sched`."""
    plan = _firing_plan(g, sched, periods, stimulus)
    data_specs, out_specs = plan.data_specs, plan.out_specs
    actors = {a.id: a for a in g.actors}
    fifos = {c.id: deque(c.initial_values) for c in g.channels}
    trace = Trace()
    state: dict[str, object] = {}
    held: dict[str, list] = {}
    embedded: dict[str, EmbeddedDiagram] = {}
    fired: dict[str, int] = {a.id: 0 for a in g.actors}

    for a in g.actors:
        k = kinds.KINDS[a.kind]
        if a.kind == "Subsystem":
            if a.impl is None:
                raise SdflowError(
                    f"actor {a.id}: subsystem internals are not serialized; "
                    "re-translate the model instead of loading the graph")
            embedded[a.id] = EmbeddedDiagram(a.impl)
        elif a.kind == "Outport":
            d, w = data_specs[a.id][0]
            trace.declare(a.id, d, w)
        elif k.stateful:
            state[a.id] = k.init_state(a.params, data_specs[a.id], out_specs[a.id])
        if a.kind not in ("Subsystem", "Outport"):
            held[a.id] = list(k.initial_output(a.params, data_specs[a.id],
                                               out_specs[a.id]))

    def fire(aid: str):
        a = actors[aid]
        k = kinds.KINDS[a.kind]
        ins: list[list] = []
        enabled = True
        for slot, port in enumerate(a.in_ports):
            c = plan.ch_in[(aid, slot)]
            f = fifos[c.id]
            if len(f) < c.rate_dst:
                raise UnderflowError(
                    f"firing {aid} needs {c.rate_dst} tokens on {c.id}, "
                    f"found {len(f)}")
            toks = [f.popleft() for _ in range(c.rate_dst)]
            if port.event:
                enabled = enabled and all(kinds.truth(x) for x in toks)
            else:
                ins.append(toks)

        if a.kind == "Outport":
            trace.add(aid, fired[aid] * a.period, ins[0][0])
            fired[aid] += 1
            return

        if a.kind == "Subsystem":
            mode = a.params.get("mode", "normal")
            sub_en = enabled
            if mode in ("triggered", "enabled"):
                sub_en = enabled and kinds.truth(ins[a.params["control_port"]][0])
            produced = embedded[aid].fire([tk[0] for tk in ins], sub_en)
        elif a.kind == "Inport":
            if not a.out_ports:   # nothing consumes this input
                produced = []
            elif not enabled:
                produced = held[aid]
            elif aid in plan.stim:
                produced = held[aid] = [plan.stim[aid][fired[aid]]]
            else:
                produced = held[aid] = [kinds.zero_token(*out_specs[aid][0])]
        elif a.kind == "RateTransition":
            produced = [ins[0][-1]] if enabled else held[aid]  # freshest token
            if enabled:
                held[aid] = produced
        else:
            vals = [tk[0] for tk in ins]
            if enabled:
                if a.out_ports:
                    produced = list(k.output(a.params, data_specs[aid],
                                             out_specs[aid], state.get(aid), vals))
                else:
                    produced = []
                held[aid] = produced
                if k.stateful:
                    state[aid] = k.update(a.params, data_specs[aid], out_specs[aid],
                                          state[aid], vals)
            else:
                produced = held[aid]

        for c in plan.ch_out[aid]:
            v = produced[a.out_ports[c.src[1]].origin]
            for _ in range(c.rate_src):
                fifos[c.id].append(v)
        fired[aid] += 1

    for _ in range(max(0, periods)):
        for aid in sched.firings:
            fire(aid)
        for c in g.channels:
            if len(fifos[c.id]) != c.delay:
                raise InconsistentError(f"channel {c.id} holds {len(fifos[c.id])} "
                                        "tokens at the iteration boundary")
    return trace

"""Reference execution of models and graphs, plus trace comparison.

Two interpreters live here and they deliberately share no plumbing with
the normalizer:

* run_mil evaluates the hierarchical block diagram directly.  A wiring
  resolver chases connections through subsystem boundaries, tag and
  data-store routing and bus pairs, producing for every leaf block the
  leaf that feeds each of its in-ports.  Evaluation is fixed-step and
  two-phase: outputs settle in feedthrough topological order, then the
  stateful blocks latch their next state.  Each leaf's kind is bound once
  per run (Kind.bind) into a step tuple: enable and input references and
  the bound output and update functions.  A leaf is active at base step s
  when the denominator of base_step / period divides s, so gcd(s, lcm of
  the denominators) names the active set; its ordered list of steps is
  built on first use and reused, and each base step walks one such list.
* run_sil replays a dataflow schedule with plain FIFO queues, one token
  at a time.  Each actor is bound once per run to a firing tuple
  specialised by kind: its input FIFOs, rates and kept token (the last of
  a multi-token read for a RateTransition, else the first), its output
  FIFOs with the out-port each one leaves, its state cell and its kind's
  bound functions.  An actor with no out-channel only consumes its input
  tokens.  The replay walks those tuples in schedule order.  The
  firing plan, shared with the C emitter, holds every Inport firing's
  stimulus row and every Outport firing's time.

Both produce a Trace: per output signal, (time, value) samples with the
signal's type and width; a time is an int when whole, else a reduced
Fraction.  compare_traces checks two traces sample by sample, exactly for
bool/i32 and within a relative tolerance for f64.

Per-sample work is one typed pass, with every per-signal choice made
once.  Trace.to_csv makes each time canonical so whole times sort as
ints, and formats values with one function per signal; Trace.from_csv
parses with one function per signal, which also range-checks i32, so
every token it returns is canonical.  The stimulus lookup passes a
signal's tokens through when all are canonical by exact type and indexes
them by time directly when the grid unit is 1.  With a whole base step
MIL records times as step * unit; with a whole period the Outport times
of the firing plan are a range.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, isinf, isnan, lcm
from operator import eq, itemgetter

from . import kinds
from .errors import (AlgebraicLoopError, InconsistentError, NormalizationError,
                     SchemaError, SdflowError, ShapeError, SignalTypeError,
                     UnderflowError, UnsupportedKindError)
from .model_ir import Block, BlockModel
from .sdf_core import Channel, Schedule, Sdfg, build_schedule

_first, _second = itemgetter(0), itemgetter(1)

# ---------------------------------------------------------------------------
# Trace


def time_str(t: int | Fraction) -> str:
    """Exact decimal when the denominator allows one, else "num/den"."""
    den = t.denominator
    if den == 1:
        return str(t.numerator)
    # den divides 10**k for some k exactly when it has no prime factor but
    # 2 and 5, and then the least such k is below its bit length
    digits = next((k for k in range(1, den.bit_length()) if 10 ** k % den == 0), None)
    if digits is None:
        return f"{t.numerator}/{den}"
    scaled = t.numerator * 10 ** digits // den
    s = str(scaled).rjust(digits + 1, "0")
    return f"{s[:-digits]}.{s[-digits:]}"


def canon_time(t: int | Fraction) -> int | Fraction:
    """An int when `t` is whole, else `t` itself."""
    return t.numerator if t.denominator == 1 else t


def parse_time(s: str) -> int | Fraction:
    if s.isdigit() and s.isascii():
        return int(s)
    return canon_time(Fraction(s))


def _fmt_bool(v) -> str:
    return "1" if v else "0"


def _formatter(dtype: str, width: int):
    """fmt_value for one spec, as a function of the value alone."""
    scalar = {"bool": _fmt_bool, "i32": str}.get(dtype, repr)
    if width == 1:
        return scalar
    return lambda v: ";".join(map(scalar, v))


def fmt_value(dtype: str, width: int, v) -> str:
    return _formatter(dtype, width)(v)


_I32_MIN, _I32_END = -2 ** 31, 2 ** 31


def _parse_bool(s: str) -> bool:
    if s not in ("0", "1"):
        raise SchemaError(f"bool sample must be 0 or 1, got {s!r}")
    return s == "1"


def _parse_i32(s: str) -> int:
    v = int(s)
    if not _I32_MIN <= v < _I32_END:
        raise SchemaError(f"i32 literal out of range: {v}")
    return v


def _parser(dtype: str, width: int):
    """The canonical token of one CSV value of this spec, as a function of
    the text alone."""
    scalar = {"bool": _parse_bool, "i32": _parse_i32}.get(dtype, float)
    if width == 1:
        return scalar

    def parse(s: str) -> tuple:
        parts = s.split(";")
        if len(parts) != width:
            raise SchemaError(f"expected {width} elements, got {len(parts)}")
        return tuple(map(scalar, parts))
    return parse


def _reject_repeat(rows, start: int, signals: set[str]):
    """Raise for the first of `rows`, numbered from `start`, that repeats
    the signal and time of an earlier row, looking only at `signals`.
    Trace.from_csv has parsed every row already."""
    seen = set()
    for n, ln in enumerate(rows, start):
        fields = ln.split(",", 2)
        if len(fields) == 3 and fields[1] in signals:
            key = (fields[1], parse_time(fields[0]))
            if key in seen:
                raise SchemaError(f"trace CSV line {n}: a second sample of "
                                  f"{key[0]!r} at t={time_str(key[1])}")
            seen.add(key)


class Trace:
    """Per-signal sample lists.  Signals keep insertion order; samples are
    appended in time order by the engines.  The engines, from_csv and
    from_json give each time in canonical form: an int when whole, else a
    reduced Fraction (an int equals and hashes like its Fraction)."""

    def __init__(self):
        self.samples: dict[str, list[tuple[int | Fraction, object]]] = {}
        self.specs: dict[str, tuple[str, int]] = {}

    def declare(self, signal: str, dtype: str, width: int):
        if signal in self.specs and self.specs[signal] != (dtype, width):
            raise ShapeError(f"signal {signal!r} re-declared with a different spec")
        self.specs.setdefault(signal, (dtype, width))
        self.samples.setdefault(signal, [])

    def add(self, signal: str, t: int | Fraction, value):
        self.samples[signal].append((t, value))

    def signals(self) -> list[str]:
        return list(self.samples)

    def clip(self, t_end: int | Fraction) -> "Trace":
        """Samples strictly before t_end."""
        t_end = canon_time(t_end)
        out = Trace()
        for sig in self.samples:
            out.declare(sig, *self.specs[sig])
            out.samples[sig] = [(t, v) for t, v in self.samples[sig] if t < t_end]
        return out

    def to_csv(self) -> str:
        """Rows sorted by time, then signal; samples of one signal at one
        time keep their order.  Times are made canonical before the sort,
        so whole times compare as ints."""
        merged = []
        for sig, pts in self.samples.items():
            fmt = _formatter(*self.specs[sig])
            merged.extend([(t if type(t) is int else canon_time(t), sig, fmt(v))
                           for t, v in pts])
        merged.sort(key=itemgetter(0, 1))
        rows = ["time,signal,value"]
        rows.extend([f"{t if type(t) is int else time_str(t)},{sig},{val}"
                     for t, sig, val in merged])
        return "\n".join(rows) + "\n"

    @classmethod
    def from_csv(cls, text: str, specs: dict[str, tuple[str, int]]) -> "Trace":
        """Specs come from the reference side; CSV itself is untyped.  Blank
        lines are skipped; the first other line is the header.  Every token
        is canonical: an i32 outside its range is an error, and so is a
        second row for one signal and time, reported at that row's line once
        every row has parsed."""
        tr = cls()
        lines = text.splitlines()
        first = next((n for n, ln in enumerate(lines) if ln.strip()), None)
        if first is None or lines[first] != "time,signal,value":
            raise SchemaError("trace CSV must start with 'time,signal,value'")
        columns = {}  # signal -> (append to its samples, value parser)
        rows = islice(lines, first + 1, None)
        for n, ln in enumerate(rows, first + 2):
            fields = ln.split(",", 2)
            if len(fields) != 3:
                if not ln.strip():
                    continue
                raise SchemaError(f"trace CSV line {n}: expected time,signal,value")
            ts, sig, val = fields
            col = columns.get(sig)
            if col is None:
                if sig not in specs:
                    raise ShapeError(f"trace CSV mentions unknown signal {sig!r}")
                tr.declare(sig, *specs[sig])
                col = columns[sig] = (tr.samples[sig].append, _parser(*specs[sig]))
            add, parse = col
            try:  # parse_time, inline
                add((int(ts) if ts.isdigit() and ts.isascii() else canon_time(Fraction(ts)),
                     parse(val)))
            except (SchemaError, ValueError, ZeroDivisionError) as e:
                raise SchemaError(f"trace CSV line {n}: {e}") from None
        repeated = set()
        for sig, pts in tr.samples.items():
            pts.sort(key=_first)
            times = list(map(_first, pts))
            if any(map(eq, times, islice(times, 1, None))):
                repeated.add(sig)
        if repeated:
            _reject_repeat(islice(lines, first + 1, None), first + 2, repeated)
        return tr

    def to_json(self) -> dict:
        return {"signals": [{
            "name": sig,
            "dtype": self.specs[sig][0],
            "width": self.specs[sig][1],
            "samples": [[[t.numerator, t.denominator], kinds.json_value(v)]
                        for t, v in pts],
        } for sig, pts in self.samples.items()]}

    @classmethod
    def from_json(cls, doc: dict) -> "Trace":
        tr = cls()
        for s in doc["signals"]:
            d, w = s["dtype"], s["width"]
            tr.declare(s["name"], d, w)
            for (num, den), v in s["samples"]:
                tr.add(s["name"], canon_time(Fraction(num, den)), kinds.canon_token(d, w, v))
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
    """Compare two traces sample by sample.  Each signal is compared up to
    its first sample that is not close; the divergence reported is the
    earliest of those by time, ties broken by signal name.  `samples`
    counts the samples compared."""
    if set(a.samples) != set(b.samples):
        only_a = sorted(set(a.samples) - set(b.samples))
        only_b = sorted(set(b.samples) - set(a.samples))
        raise ShapeError(f"signal sets differ (only left: {only_a}, only right: {only_b})")
    total = 0
    max_rel = 0.0
    earliest = None  # (time, signal, divergence)
    for sig, pa in a.samples.items():
        d, w = spec = a.specs[sig]
        if sig in b.specs and b.specs[sig] != spec:
            raise ShapeError(f"signal {sig!r} spec differs: {spec} vs {b.specs[sig]}")
        pb = b.samples[sig]
        if len(pa) != len(pb):
            raise ShapeError(f"signal {sig!r} has {len(pa)} vs {len(pb)} samples")
        n = len(pa)
        for i, ((ta, va), (tb, vb)) in enumerate(zip(pa, pb)):
            if ta != tb:
                raise ShapeError(f"signal {sig!r} sample {i} at t={ta} vs t={tb}")
            if va == vb:
                continue  # equal elements are close with relative error 0
            for x, y in ((va, vb),) if w == 1 else zip(va, vb):
                eq, rel = _scalar_close(d, x, y, tol)
                max_rel = max(max_rel, rel)
                if not eq:
                    break
            else:
                continue  # every element is close
            n = i + 1
            if earliest is None or (ta, sig) < earliest[:2]:
                earliest = (ta, sig, {
                    "signal": sig, "time": str(ta), "index": i,
                    "a": fmt_value(d, w, va), "b": fmt_value(d, w, vb)})
            break
        total += n
    if earliest is None:
        return Comparison(True, total, max_rel)
    return Comparison(False, total, max_rel, earliest[2])


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
    outports: dict[str, dict[int, Block]] = {}  # scope path -> its Outports by number
    scope_of: dict[str, str] = {}
    blocks: dict[str, Block] = {}
    gotos: dict[str, str] = {}
    writers: dict[str, str] = {}

    def collect(scope_path: str, sub: Block):
        outs = outports[scope_path] = {}
        for c in sub.children:
            path = _join(scope_path, c.id)
            blocks[path] = c
            scope_of[path] = scope_path
            if c.is_subsystem():
                scopes[path] = c
                collect(path, c)
            elif c.kind == "Outport":
                outs[c.port_index()] = c
            elif c.kind == "Goto":
                gotos[c.params["tag"]] = path
            elif c.kind == "DataStoreWrite":
                writers[c.params["store"]] = path
            elif c.kind == "DataStoreMemory":
                res.memories[c.params["store"]] = path

    collect("", top)
    # the first connection into each in-port drives it
    drivers: dict[str, dict[tuple[str, int], tuple[str, int]]] = {}
    for scope_path, sub in scopes.items():
        into = drivers[scope_path] = {}
        for cn in sub.connections:
            into.setdefault(cn.dst, cn.src)

    def driver(scope_path: str, bid: str, port: int) -> tuple[str, int]:
        src = drivers[scope_path].get((bid, port))
        if src is None:
            raise NormalizationError(
                f"{_join(scope_path, bid)}: in-port {port} has no driver")
        return src

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
                scope_path = path
                bid, port = driver(scope_path, outports[path][port].id, 0)
            elif b.kind == "Inport" and scope_path != "":
                # strip the parent prefix to recover the subsystem's block
                # id; flattened ids may themselves contain '/'
                sub_path = scope_path
                scope_path = scope_of[sub_path]
                sub_id = sub_path[len(scope_path) + 1:] if scope_path else sub_path
                bid, port = driver(scope_path, sub_id, b.port_index())
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
    # the original hold semantics.  A member gates the leaf of its id and
    # every leaf under it, in trigger and member order.
    gates: dict[str, list[tuple[tuple[int, int], Ref]]] = {}
    for t, tg in enumerate(triggers):
        ref = resolve("", tg.control)
        for m, mid in enumerate(tg.members):
            gates.setdefault(mid, []).append(((t, m), ref))
    if gates:
        for path, chain in res.controls.items():
            ends = [i for i, ch in enumerate(path) if ch == "/"] + [len(path)]
            found = [gate for end in ends for gate in gates.get(path[:end], ())]
            chain.extend(ref for _, ref in sorted(found))

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
    # Among the leaves whose dependencies are met, the smallest path goes first.
    ready = [p for p in deps if not deps[p]]
    heapq.heapify(ready)
    consumers: dict[str, list[str]] = {p: [] for p in deps}
    pending_count = {}
    for p, ds in deps.items():
        pending_count[p] = len(ds)
        for d in ds:
            consumers[d].append(p)
    order: list[str] = []
    while ready:
        p = heapq.heappop(ready)
        order.append(p)
        for c in consumers[p]:
            pending_count[c] -= 1
            if pending_count[c] == 0:
                heapq.heappush(ready, c)
    if len(order) != len(deps):
        loop = sorted(p for p in deps if pending_count[p] > 0)
        raise AlgebraicLoopError(
            "zero-delay feedthrough cycle through: " + ", ".join(loop))
    res.order = order
    return res


# ---------------------------------------------------------------------------
# Block-diagram engine


_EVAL, _INPORT, _OUTPORT, _EMBED, _SINK = range(5)  # step roles, MIL and SIL


class DiagramEngine:
    """Two-phase evaluation over a Resolution.

    `last[path]` holds each leaf's most recent output list; consumers and
    the trace always read from it, so values naturally hold between
    activations and while an enclosing subsystem is disabled.

    `steps` holds one tuple per leaf in evaluation order: (path, role,
    enable refs, input refs, output function, update function or None),
    the functions bound once from the leaf's kind.  tick and update walk a
    list of them, the leaves active at one step.
    """

    def __init__(self, top: Block, triggers=()):
        self.res = resolve_wiring(top, triggers)
        self.state: dict[str, object] = {}
        self.last: dict[str, list] = {}
        self.steps = [self._bind(path) for path in self.res.order]

    def _bind(self, path: str) -> tuple:
        leaf = self.res.leaves[path]
        refs, ispecs, ospecs = self.res.producers[path], leaf.in_ports, leaf.out_ports
        if leaf.kind == "DataStoreMemory" and not ospecs:
            # A store in source form takes its accessors' spec and its
            # writer's driver; nothing accessing it leaves it without specs.
            writer, spec = self.res.mem_writer.get(path), self.res.mem_spec.get(path)
            refs, ispecs = ([], []) if writer is None else ([writer], [spec])
            ospecs = [] if spec is None else [spec]
        self.state[path], self.last[path], output, update = \
            kinds.KINDS[leaf.kind].bind(leaf.params, ispecs, ospecs)
        role = {"Inport": _INPORT, "Outport": _OUTPORT}.get(leaf.kind, _EVAL)
        return (path, role, tuple(self.res.controls[path]), tuple(refs), output, update)

    def value(self, ref: Ref):
        return self.last[ref[0]][ref[1]]

    def tick(self, steps, stim=None):
        """Output phase over `steps`, in evaluation order.  Returns the
        (outport, value) pairs recorded and the steps of the enabled
        stateful leaves, for update."""
        last, state, truth = self.last, self.state, kinds.truth
        recorded, latch = [], []
        for st in steps:
            path, role, controls, refs, output, update = st
            if controls:
                for p, i in controls:
                    if not truth(last[p][i]):
                        break
                else:
                    controls = None  # every control is on
                if controls:
                    continue  # a control is off: the leaf holds
            if role == _EVAL:
                last[path] = output(state[path], [last[p][i] for p, i in refs])
            elif role == _OUTPORT:
                p, i = refs[0]
                recorded.append((path, last[p][i]))
            elif stim is not None:
                last[path] = [stim(path)]
            if update is not None:
                latch.append(st)
        return recorded, latch

    def update(self, latch):
        """State phase, after every output of the tick has settled.  Each
        update reads only `last` and its own state, so order is free."""
        last, state = self.last, self.state
        for path, _, _, refs, _, update in latch:
            state[path] = update(state[path], [last[p][i] for p, i in refs])


_CANON_TYPE = {"f64": float, "i32": int, "bool": bool}


def _canon_tokens(dtype: str, width: int, values: list) -> list:
    """kinds.canon_token of each value.  Width-1 values all of the dtype's
    exact type (an i32 within its range) are canonical already and pass
    straight through."""
    if width == 1 and set(map(type, values)) == {_CANON_TYPE.get(dtype)}:
        if dtype != "i32" or (_I32_MIN <= min(values) and max(values) < _I32_END):
            return values
    return [kinds.canon_token(dtype, width, v) for v in values]


def _stim_table(stimulus: "Trace | None", units: dict[str, Fraction]):
    """The canonical tokens of each stimulus signal named in `units`, by
    sample index: the sample at time t sits at index t / units[signal]
    when that is an integer.  Every sample is canonicalised, on that grid
    or not."""
    if stimulus is None:
        return {}
    table = {}
    for sig, pts in stimulus.samples.items():
        times = list(map(_first, pts))
        toks = _canon_tokens(*stimulus.specs[sig], list(map(_second, pts)))
        unit = units.get(sig)
        if unit is None:
            continue
        if unit == 1 and set(map(type, times)) == {int}:
            table[sig] = dict(zip(times, toks))
            continue
        rows = table[sig] = {}
        for t, tok in zip(times, toks):
            n, r = divmod(t.numerator * unit.denominator, t.denominator * unit.numerator)
            if not r:
                rows[n] = tok
    return table


@dataclass
class _FiringPlan:
    """What run_sil and the C emitter both replay: the channel into each
    in-port, each actor's out-channels and specs, the stimulus token of
    every Inport firing (an Inport without a signal reads zero) and the
    time of every Outport firing (one sequence per period, shared)."""

    ch_in: dict[tuple[str, int], Channel]
    ch_out: dict[str, list[Channel]]
    data_specs: dict[str, list[tuple[str, int]]]
    out_specs: dict[str, list[tuple[str, int]]]
    stim: dict[str, list]
    times: dict[str, range | list[int | Fraction]]


def _firing_plan(g: Sdfg, sched: Schedule, periods: int,
                 stimulus: Trace | None) -> _FiringPlan:
    table = _stim_table(stimulus, {a.id: a.period for a in g.actors if a.kind == "Inport"})
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
        (d, w), (sd, sw) = out_specs[a.id][0], stimulus.specs[a.id]
        if (sd, sw) != (d, w):
            raise SignalTypeError(
                f"stimulus {a.id!r} is ({sd} x{sw}), the port wants ({d} x{w})")
        samples = table[a.id]
        try:
            stim[a.id] = [samples[n] for n in range(sched.repetition[a.id] * periods)]
        except KeyError as e:
            raise SdflowError(f"stimulus for {a.id!r} has no sample "
                              f"at t={e.args[0] * a.period}") from None
    return _FiringPlan({c.dst: c for c in g.channels}, ch_out,
                       data_specs, out_specs, stim, times)


def _activation(eng: DiagramEngine, base: Fraction):
    """step -> the steps of the leaves active at base step `step`, in
    evaluation order.

    A leaf is active at step s when s * base is a multiple of its period,
    which holds exactly when the denominator of base / period divides s.
    So gcd(s, lcm of those denominators) names the set of active leaves,
    and each set's list is built once, on first use."""
    div = {path: (base / leaf.period).denominator for path, leaf in eng.res.leaves.items()}
    span = lcm(*div.values())
    lists: dict[int, list] = {}

    def active(step: int) -> list:
        key = gcd(step, span)
        now = lists.get(key)
        if now is None:
            now = lists[key] = [st for st in eng.steps if key % div[st[0]] == 0]
        return now
    return active


def run_mil(m: BlockModel, steps: int, stimulus: Trace | None = None) -> Trace:
    """Fixed-step run of the hierarchical model over `steps` base steps.

    Stimulus signals are matched to top-level Inport blocks by id and
    must provide a sample at every activation time; absent signals read
    as the zero token.
    """
    eng = DiagramEngine(m.root, m.triggers)
    base = m.base_step
    trace = Trace()
    for path in eng.res.outports:
        d, w = eng.res.leaves[path].in_ports[0]
        trace.declare(path, d, w)
    # stimulus samples by step number; an Inport without a signal reads zero
    table = _stim_table(stimulus, dict.fromkeys(eng.res.inports, base))
    if steps <= 0:
        return trace
    zeros = {path: kinds.zero_token(*eng.res.leaves[path].out_ports[0])
             for path in eng.res.inports}

    def stim(path):
        if path not in table:
            return zeros[path]
        try:
            return table[path][step]
        except KeyError:
            raise SdflowError(f"stimulus for {path!r} has no sample "
                              f"at t={step * base}") from None

    active = _activation(eng, base)
    unit = canon_time(base)
    whole = type(unit) is int
    append = {path: trace.samples[path].append for path in eng.res.outports}
    for step in range(steps):
        recorded, latch = eng.tick(active(step), stim)
        if recorded:
            t = step * unit if whole else canon_time(step * unit)
            for path, v in recorded:
                append[path]((t, v))
        eng.update(latch)
    return trace


class EmbeddedDiagram:
    """One opaque subsystem run as a dataflow actor: a firing is one tick
    of its inner diagram; while disabled the inner state and outputs are
    simply left untouched."""

    def __init__(self, block: Block):
        self.eng = DiagramEngine(block)
        leaves = self.eng.res.leaves
        self.in_index = {leaves[path].port_index(): path for path in self.eng.res.inports}
        by_index = {leaves[path].port_index(): path for path in self.eng.res.outports}
        self.out_refs = [self.eng.res.producers[by_index[j]][0]
                         for j in range(len(block.out_ports))]

    def fire(self, in_tokens: list, enabled: bool) -> list:
        if enabled:
            for idx, path in self.in_index.items():
                self.eng.last[path] = [in_tokens[idx]]
            _, latch = self.eng.tick(self.eng.steps)
            self.eng.update(latch)
        return [self.eng.value(r) for r in self.out_refs]


# ---------------------------------------------------------------------------
# Dataflow engine


def run_sil(g: Sdfg, periods: int = 1, stimulus: Trace | None = None) -> Trace:
    """Replay `periods` iterations of the schedule with FIFO queues."""
    g.check_wellformed()
    return _replay(g, build_schedule(g), periods, stimulus)


def _replay(g: Sdfg, sched: Schedule, periods: int, stimulus: Trace | None) -> Trace:
    """run_sil for a graph already scheduled as `sched`.

    Each actor is bound once to a tuple: its role, id, in-port reads (FIFO,
    rate, event flag, channel id, kept token index) in slot order,
    out-channel writes (FIFO, out-port index, rate), a [firings, held
    outputs, state] cell, the output and update functions bound from its
    kind (None where unused), and a role-specific extra: an Inport's
    stimulus rows, an Outport's firing times and sample list, a
    Subsystem's diagram and control slot.
    An actor with no out-channel is a sink: nothing can observe its
    outputs or state, so it is not bound and only consumes its input
    tokens.  The firing loop walks those tuples in schedule order.
    """
    plan = _firing_plan(g, sched, periods, stimulus)
    fifos = {c.id: deque(c.initial_values) for c in g.channels}
    trace = Trace()
    bound = {}
    for a in g.actors:
        cell = [0, None, None]
        output = update = extra = None
        if a.kind == "Subsystem":
            if a.impl is None:
                raise SdflowError(
                    f"actor {a.id}: subsystem internals are not serialized; "
                    "re-translate the model instead of loading the graph")
            role = _EMBED
            gated = a.params.get("mode", "normal") in ("triggered", "enabled")
            extra = (EmbeddedDiagram(a.impl), a.params["control_port"] if gated else None)
        elif a.kind == "Outport":
            role = _OUTPORT
            trace.declare(a.id, *plan.data_specs[a.id][0])
            extra = (plan.times[a.id], trace.samples[a.id].append)
        elif not plan.ch_out[a.id]:
            role = _SINK
        else:
            role = _INPORT if a.kind == "Inport" else _EVAL
            cell[2], cell[1], output, update = kinds.KINDS[a.kind].bind(
                a.params, plan.data_specs[a.id], plan.out_specs[a.id])
            extra = plan.stim.get(a.id)
        keep = -1 if a.kind == "RateTransition" else 0
        reads = []
        for slot, port in enumerate(a.in_ports):
            c = plan.ch_in[(a.id, slot)]
            reads.append((fifos[c.id], c.rate_dst, port.event, c.id, keep))
        writes = tuple((fifos[c.id], c.src[1], c.rate_src) for c in plan.ch_out[a.id])
        bound[a.id] = (role, a.id, tuple(reads), writes, cell, output, update, extra)
    seq = [bound[aid] for aid in sched.firings]
    queues = [fifos[c.id] for c in g.channels]
    delays = [c.delay for c in g.channels]
    truth = kinds.truth

    for _ in range(max(0, periods)):
        for role, aid, reads, writes, cell, output, update, extra in seq:
            vals = []
            enabled = True
            for f, r, event, cid, keep in reads:
                if r == 1:
                    try:
                        v = f.popleft()
                    except IndexError:
                        raise UnderflowError(f"firing {aid} needs 1 tokens on {cid}, "
                                             "found 0") from None
                    if not event:
                        vals.append(v)
                    elif enabled:
                        enabled = truth(v)
                    continue
                if len(f) < r:
                    raise UnderflowError(f"firing {aid} needs {r} tokens on {cid}, "
                                         f"found {len(f)}")
                toks = [f.popleft() for _ in range(r)]
                if not event:
                    vals.append(toks[keep])
                elif enabled:
                    enabled = all(truth(x) for x in toks)

            if role == _EVAL:
                if enabled:
                    produced = cell[1] = output(cell[2], vals)
                    if update is not None:
                        cell[2] = update(cell[2], vals)
                else:
                    produced = cell[1]
            elif role == _OUTPORT:
                times, add = extra
                add((times[cell[0]], vals[0]))
                cell[0] += 1
                continue
            elif role == _SINK:
                continue
            elif role == _INPORT:
                if enabled and extra is not None:
                    cell[1] = [extra[cell[0]]]
                produced = cell[1]
            else:
                diagram, control = extra
                if control is not None and enabled:
                    enabled = truth(vals[control])
                produced = diagram.fire(vals, enabled)
            for f, j, r in writes:
                if r == 1:
                    f.append(produced[j])
                else:
                    f.extend([produced[j]] * r)
            cell[0] += 1
        if list(map(len, queues)) != delays:
            c, f = next((c, f) for c, f in zip(g.channels, queues) if len(f) != c.delay)
            raise InconsistentError(f"channel {c.id} holds {len(f)} "
                                    "tokens at the iteration boundary")
    return trace

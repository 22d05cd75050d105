"""Model in the loop: run_mil evaluates the hierarchical block diagram.

A wiring resolver, independent of the normalizer, chases connections
through subsystem boundaries, tag and data-store routing and bus pairs,
producing for every leaf block the leaf that feeds each of its in-ports.
Evaluation is fixed-step and two-phase: outputs settle in feedthrough
topological order, then the stateful blocks latch their next state.
Each leaf's kind is bound once per run (Kind.bind) into a step tuple:
enable and input references and the bound output and update functions.
A leaf is active at base step s when the denominator of base_step /
period divides s, so gcd(s, lcm of the denominators) names the active
set, and the pattern repeats every hyperperiod of that lcm's base steps.
A run takes one of two forms:

* a run of fewer than _COMPILE_SPANS hyperperiods ticks the engine one
  base step at a time, each step walking the ordered list of its active
  leaves, built on first use and reused;
* a longer run generates one Python function from the wiring order,
  enable chains and activation lists, compiles it once and runs it: a
  loop whose body is one hyperperiod in straight-line code, with each
  leaf's outputs and state in locals.  A leaf with no in-port, update or
  enable chain fires once, before the loop; each enable chain is tested
  once per step.  The steps past its last whole hyperperiod are ticked.

In both, an Outport appends only values: its times, the steps its
period divides, are set before the run.  Both call the same bound
functions in the same order, the unchanging leaves once only in the
compiled form, so they give the same trace, or raise the same error.  Compiling costs about 20-35 us per
leaf activation of a hyperperiod, and the compiled form saves about
0.3-0.45 us per activation run, so it pays from 40-125 hyperperiods on.

MIL shares only the kinds' bind closures with SIL, on purpose: so
MIL = SIL checks structure (wiring, rates, delays, schedule), and only
SIL = C checks kind arithmetic.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm

from . import kinds
from .errors import AlgebraicLoopError, NormalizationError, UnsupportedKindError
from .model_ir import Block, BlockModel
from .trace import Trace, canon_time, stimulus_table

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
        self.mem_spec: dict[str, tuple] = {}      # store name -> its ends' (dtype, width)


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
            if c.kind in ("DataStoreWrite", "DataStoreRead", "DataStoreMemory"):
                for spec in c.in_ports[:1] or c.out_ports[:1]:  # the loader made them one
                    res.mem_spec[c.params["store"]] = tuple(spec)

    collect("", top)
    # the loader binds every in-port, gives every subsystem out-port an
    # inner Outport and keeps a control port below the in-port count
    drivers = {scope_path: {cn.dst: cn.src for cn in sub.connections}
               for scope_path, sub in scopes.items()}

    def driver(scope_path: str, bid: str, port: int) -> tuple[str, int]:
        return drivers[scope_path][(bid, port)]

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
                pending.append(b.params["indices"][port])
                bid, port = driver(scope_path, b.id, 0)
            elif b.kind == "BusCreator":
                if not pending:
                    raise NormalizationError(f"{path}: bus feeds a non-selector consumer")
                e = pending.pop()
                if e >= len(b.in_ports):
                    raise NormalizationError(f"{path}: bus has no element {e}")
                bid, port = driver(scope_path, b.id, e)
            else:  # a leaf: a Goto or DataStoreWrite has no out-port to be a source
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
    del collect, driver, resolve, walk  # each recursive one holds the cell that holds it

    # Output-phase order: a feedthrough leaf needs all its producers first,
    # and every leaf needs its enable chain first, itself included in both.
    deps: dict[str, set[str]] = {p: set() for p in res.leaves}
    for p, leaf in res.leaves.items():
        if kinds.KINDS[leaf.kind].feedthrough:
            deps[p].update(src for src, _ in res.producers[p])
        deps[p].update(src for src, _ in res.controls[p])
    # Among the leaves whose dependencies are met, the smallest path goes first.
    ready = [p for p in deps if not deps[p]]
    heapq.heapify(ready)
    consumers: dict[str, list[str]] = {p: [] for p in deps}
    pending_count = {p: len(ds) for p, ds in deps.items()}
    for p, ds in deps.items():
        for d in ds:
            consumers[d].append(p)
    while ready:
        p = heapq.heappop(ready)
        res.order.append(p)
        for c in consumers[p]:
            pending_count[c] -= 1
            if pending_count[c] == 0:
                heapq.heappush(ready, c)
    if len(res.order) != len(deps):
        raise AlgebraicLoopError("zero-delay cycle: " + " -> ".join(
            _one_cycle(deps, pending_count)))
    return res


def _one_cycle(deps: dict[str, set[str]], pending_count: dict[str, int]) -> list[str]:
    """One cycle among the leaves still waiting, in dataflow order from its
    smallest member back to it.  Every waiting leaf waits on a waiting
    dependency, so the walk from the smallest one through its smallest
    waiting dependency must close a cycle."""
    at: dict[str, int] = {}  # the walk so far, each leaf at its step
    p = min(q for q, n in pending_count.items() if n > 0)
    while p not in at:
        at[p] = len(at)
        p = min(d for d in deps[p] if pending_count[d] > 0)
    cycle = list(at)[at[p]:][::-1]
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k + 1]


_EVAL, _INPORT, _OUTPORT = range(3)  # step roles

# A run of at least this many hyperperiods runs through one generated
# function: above the measured crossover, with room for slower hosts.
_COMPILE_SPANS = 256


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
            writer = self.res.mem_writer.get(path)
            spec = self.res.mem_spec.get(leaf.params["store"])
            refs, ispecs = ([], []) if writer is None else ([writer], [spec])
            ospecs = [] if spec is None else [spec]
        self.state[path], self.last[path], output, update = \
            kinds.KINDS[leaf.kind].bind(leaf.params, ispecs, ospecs)
        role = {"Inport": _INPORT, "Outport": _OUTPORT}.get(leaf.kind, _EVAL)
        return (path, role, tuple(self.res.controls[path]), tuple(refs), output, update)

    def tick(self, steps, table=None, step=0):
        """Output phase over `steps`, in evaluation order, at base step
        `step` of the stimulus `table`.  Returns the (outport, value) pairs
        recorded and the steps of the enabled stateful leaves, for update."""
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
                # inline gathers for the common arities: on Python 3.11 a
                # list comprehension is a function call
                if len(refs) == 1:
                    (p, i), = refs
                    ins = [last[p][i]]
                elif len(refs) == 2:
                    (p, i), (p2, i2) = refs
                    ins = [last[p][i], last[p2][i2]]
                else:
                    ins = [last[p][i] for p, i in refs]
                last[path] = output(state[path], ins)
            elif role == _OUTPORT:
                p, i = refs[0]
                recorded.append((path, last[p][i]))
            elif table and path in table:
                last[path] = [table[path][step]]
            if update is not None:
                latch.append(st)
        return recorded, latch

    def update(self, latch):
        """State phase, after every output of the tick has settled.  Each
        update reads only `last` and its own state, so order is free."""
        last, state = self.last, self.state
        for path, _, _, refs, _, update in latch:
            if len(refs) == 1:
                (p, i), = refs
                ins = [last[p][i]]
            else:
                ins = [last[p][i] for p, i in refs]
            state[path] = update(state[path], ins)


def _activation(eng: DiagramEngine, base: Fraction):
    """(active, span, div): active(step) gives the steps of the leaves
    active at base step `step`, in evaluation order, and the pattern
    repeats every `span` base steps, the hyperperiod.

    A leaf is active at step s when s * base is a multiple of its period,
    which holds exactly when div[leaf], the denominator of base / period,
    divides s.  So gcd(s, span, the lcm of div) names the active set, and
    each set's list is built once, on first use."""
    bn, bd = base.as_integer_ratio()  # base / period is bn*pd / (bd*pn): div is its denominator
    ratios = {path: leaf.period.as_integer_ratio() for path, leaf in eng.res.leaves.items()}
    div = {path: bd * pn // gcd(bn * pd, bd * pn) for path, (pn, pd) in ratios.items()}
    span = lcm(*div.values())
    lists: dict[int, list] = {}

    def active(step: int) -> list:
        key = gcd(step, span)
        now = lists.get(key)
        if now is None:
            now = lists[key] = [st for st in eng.steps if key % div[st[0]] == 0]
        return now
    return active, span, div


def run_mil(m: BlockModel, steps: int, stimulus: Trace | None = None) -> Trace:
    """Fixed-step run of the hierarchical model over `steps` base steps.

    Stimulus signals are matched to top-level Inport blocks by id and
    must provide a sample at every activation time; absent signals read
    as the zero token.  An Outport's times, the steps its period divides,
    are known before the run; the run appends its values.

    A run of fewer than _COMPILE_SPANS (256) hyperperiods ticks the engine
    one base step at a time.  A longer one runs its whole hyperperiods
    through the function _span_code generates, as the module explains,
    then ticks the engine from its final outputs and states.
    """
    eng = DiagramEngine(m.root, m.triggers)
    base = m.base_step
    # stimulus samples by step number
    table = stimulus_table(stimulus, {path: (base, eng.res.leaves[path].out_ports[0])
                                      for path in eng.res.inports})
    active, span, div = _activation(eng, base)
    unit = canon_time(base)
    trace = Trace()
    for path in eng.res.outports:  # it fires at each step its period divides
        trace.declare(path, *eng.res.leaves[path].in_ports[0])
        trace.times[path] += (range(0, steps * unit, div[path] * unit) if type(unit) is int
                              else [canon_time(s * unit) for s in range(0, steps, div[path])])
    start = steps - steps % span if steps >= _COMPILE_SPANS * span else 0
    if start:
        src, ns = _span_code(eng, active, span, table,
                             {path: trace.values[path].append for path in eng.res.outports})
        try:
            exec(compile(src, "<mil hyperperiod>", "exec"), ns)
            last, state = ns["run"](start)
        finally:
            ns.clear()  # the function's globals hold the function
        for st, out, s in zip(eng.steps, last, state):
            eng.last[st[0]], eng.state[st[0]] = out, s
    for step in range(start, steps):
        recorded, latch = eng.tick(active(step), table, step)
        for path, v in recorded:
            trace.values[path].append(v)
        eng.update(latch)
    return trace


def _span_code(eng: DiagramEngine, active, span: int, table: dict,
               append: dict) -> tuple[str, dict]:
    """The source of run(n), which runs base steps 0 to n - 1, n a multiple
    of `span`, as tick and update run them, and returns every leaf's last
    outputs and state; and the namespace it runs in.

    The leaf at position k of the evaluation order keeps its outputs and
    state in the locals l{k} and s{k}.  A leaf with no in-port, update or
    enable chain outputs the same every time, so it fires once, before
    the loop.  The loop body is one hyperperiod: for each of its steps r,
    the leaves of active(r) in order, each one statement under its enable
    chain, tested once per step for every leaf that shares it, then the
    updates of the enabled stateful ones.  An Outport appends only its
    value, through `append`.  An Inport without a stimulus signal keeps
    the zero output it was bound with.
    Only positional names and integer literals appear in the source;
    every value arrives through the namespace."""
    at = {st[0]: k for k, st in enumerate(eng.steps)}
    ns = {"truth": kinds.truth}
    head, body, once = ["def run(n):"], [], set()
    for k, (path, role, controls, refs, output, update) in enumerate(eng.steps):
        head += [f" l{k} = L{k}", f" s{k} = S{k}"]
        if role == _EVAL and not (refs or update or controls):
            head.append(f" l{k} = F{k}(s{k}, [])")
            once.add(path)
        ns.update({f"L{k}": eng.last[path], f"S{k}": eng.state[path], f"F{k}": output,
                   f"U{k}": update, f"A{k}": append.get(path), f"X{k}": table.get(path)})

    def ins(refs) -> str:
        return "[" + ", ".join(f"l{at[p]}[{i}]" for p, i in refs) + "]"

    def gated(cond: str, fire: str) -> list[str]:
        return [f"  if {cond}:", f"   {fire}"] if cond else [f"  {fire}"]
    for r in range(span):
        step, latch, tested = f"p + {r}" if r else "p", [], {}
        for path, role, controls, refs, _, update in active(r):
            if path in once or role == _INPORT and path not in table:
                continue  # it keeps the output it has
            k = at[path]
            cond = tested.get(controls, "")
            if controls and not cond:
                body.append(f"  e{k} = " + " and ".join(f"truth(l{at[p]}[{i}])"
                                                        for p, i in controls))
                cond = tested[controls] = f"e{k}"
            fire = (f"l{k} = F{k}(s{k}, {ins(refs)})" if role == _EVAL else
                    f"A{k}({ins(refs)[1:-1]})" if role == _OUTPORT else
                    f"l{k} = [X{k}[{step}]]")
            body += gated(cond, fire)
            if update is not None:
                latch.append((k, cond, refs))
        for k, cond, refs in latch:
            body += gated(cond, f"s{k} = U{k}(s{k}, {ins(refs)})")
    last = ", ".join(f"l{k}" for k in range(len(eng.steps)))
    state = ", ".join(f"s{k}" for k in range(len(eng.steps)))
    return "\n".join(head + [f" for p in range(0, n, {span}):"] + body
                     + ["  pass", f" return [{last}], [{state}]\n"]), ns


class EmbeddedDiagram:
    """One opaque subsystem run as a dataflow actor.  bind gives Kind.bind's
    shape, (None, the inner outputs, output, None): a firing is one tick of
    the inner diagram, or, while the subsystem's own control port is off,
    leaves the inner state and outputs untouched."""

    def __init__(self, block: Block):
        self.eng = DiagramEngine(block)
        leaves = self.eng.res.leaves
        self.in_index = {leaves[path].port_index(): path for path in self.eng.res.inports}
        by_index = {leaves[path].port_index(): path for path in self.eng.res.outports}
        self.out_refs = [self.eng.res.producers[by_index[j]][0]
                         for j in range(len(block.out_ports))]
        self.control = block.params.get("control_port")  # only a gated one has one

    def bind(self) -> tuple:
        return None, self.outputs(), self.output, None

    def outputs(self) -> list:
        return [self.eng.last[p][i] for p, i in self.out_refs]

    def output(self, state, ins: list) -> list:
        if self.control is None or kinds.truth(ins[self.control]):
            for idx, path in self.in_index.items():
                self.eng.last[path] = [ins[idx]]
            _, latch = self.eng.tick(self.eng.steps)
            self.eng.update(latch)
        return self.outputs()

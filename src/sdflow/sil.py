"""Software in the loop: run_sil replays a dataflow schedule.

Each actor is bound once per run to a firing tuple specialised by kind:
its input FIFOs, rates and kept token (the last of a multi-token read
for a RateTransition, else the first), its output FIFOs with the
out-port each one leaves, its state cell and its kind's bound
functions.  An actor with no out-channel only consumes its input
tokens.  The replay walks sdf_core's firing plan, which the C emitter
replays too, in one of two ways:

* a run of fewer than _COMPILE_PERIODS periods walks those tuples in
  schedule order over plain FIFO queues, one token at a time;
* a longer run generates one Python function from the plan, compiles
  it once and runs it: a loop whose body is one period in straight-line
  code, with a fixed slot for every token and a few statements per
  firing.  An actor with no in-port and no update fires once, before
  the loop.

In both, an Outport appends only values: its times are the plan's.

Both call the same bound functions in the same order, the unchanging
actors once only in the compiled form, so they give the same trace, or
raise the same error.  Compiling costs about 20-70 us per
firing of the schedule, and the compiled form saves about 0.3 us per
firing run, so it pays from about 100 periods on; a run of the few
periods the command line's default 100 steps give never compiles.

SIL shares only the kinds' bind closures with MIL, on purpose: so
MIL = SIL checks structure (wiring, rates, delays, schedule), and only
SIL = C checks kind arithmetic.  An opaque subsystem is the exception
until it becomes a nested graph: mil.EmbeddedDiagram binds it, in
Kind.bind's shape, to an output that ticks its inner diagram.
"""

from __future__ import annotations

from collections import deque

from . import kinds
from .errors import SdflowError
from .mil import EmbeddedDiagram
from .sdf_core import FiringPlan, Schedule, Sdfg, firing_plan
from .trace import Trace

_EVAL, _INPORT, _OUTPORT, _SINK = range(4)  # firing roles

# A run of at least this many periods replays through one generated
# function: above the measured crossover, with room for slower hosts.
_COMPILE_PERIODS = 256


def run_sil(g: Sdfg, periods: int = 1, stimulus: Trace | None = None, *,
            schedule: Schedule | None = None) -> Trace:
    """Replay `periods` iterations of `schedule`: the graph's own schedule
    when None, else one `check_schedule` accepts.

    Each actor is bound once to a tuple: its role, in-port reads (FIFO,
    rate, event flag, kept token index) in slot order, out-channel writes
    (FIFO, out-port index, rate), a [firings, held outputs, state] cell,
    the output and update functions bound from its kind, or for an
    opaque Subsystem from its diagram (None where unused), and a
    role-specific extra: an Inport's stimulus rows, an Outport's append
    to its trace values, its times being the plan's.
    An actor with no out-channel is a sink: nothing can observe its
    outputs or state, so it is not bound and only consumes its input
    tokens.  The firing loop walks those tuples in schedule order and
    checks nothing: firing_plan built or checked the schedule, and token
    counts do not depend on token values, so no firing can underflow and
    every period ends with each channel back at its delay.

    A run of _COMPILE_PERIODS (256) periods or more runs the function
    _period_code generates from the plan instead, as the module explains.
    """
    plan = firing_plan(g, periods, stimulus, schedule)
    fifos = [deque(c.initial_values) for c in g.channels]
    channels = g.channels
    trace = Trace()
    bound = []  # by actor position
    for k, a in enumerate(g.actors):
        cell = [0, None, None]
        output = update = extra = None
        if a.kind == "Subsystem":
            if a.impl is None:
                raise SdflowError(
                    f"actor {a.id}: subsystem internals are not serialized; "
                    "re-translate the model instead of loading the graph")
            role = _EVAL
            cell[2], cell[1], output, update = EmbeddedDiagram(a.impl).bind()
        elif a.kind == "Outport":
            role = _OUTPORT
            trace.declare(a.id, *plan.data_specs[k][0])
            trace.times[a.id] += plan.times[k][:periods * plan.schedule.repetition[a.id]]
            extra = trace.values[a.id].append
        elif not plan.ch_out[k]:
            role = _SINK
        else:
            role = _INPORT if a.kind == "Inport" else _EVAL
            cell[2], cell[1], output, update = kinds.KINDS[a.kind].bind(
                a.params, plan.data_specs[k], plan.out_specs[k])
            extra = plan.stim[k]
        keep = kinds.KINDS[a.kind].keep
        reads = tuple((fifos[j], channels[j].rate_dst, port.event, keep)
                      for j, port in zip(plan.ch_in[k], a.in_ports))
        writes = tuple((fifos[j], channels[j].src[1], channels[j].rate_src)
                       for j in plan.ch_out[k])
        bound.append((role, reads, writes, cell, output, update, extra))
    if periods >= _COMPILE_PERIODS:
        src, ns = _period_code(g, plan, bound)
        try:
            exec(compile(src, "<sil period>", "exec"), ns)
            ns["run"](periods)
        finally:
            ns.clear()  # the function's globals hold the function
        return trace
    seq = [bound[k] for k in plan.steps]
    truth = kinds.truth

    for _ in range(periods):
        for role, reads, writes, cell, output, update, extra in seq:
            vals = []
            enabled = True
            for f, r, event, keep in reads:
                if r == 1:
                    v = f.popleft()
                    if not event:
                        vals.append(v)
                    elif enabled:
                        enabled = truth(v)
                    continue
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
                extra(vals[0])
                continue
            elif role == _SINK:
                continue
            else:  # _INPORT
                if enabled and extra is not None:
                    cell[1] = [extra[cell[0]]]
                produced = cell[1]
            for f, j, r in writes:
                if r == 1:
                    f.append(produced[j])
                else:
                    f.extend([produced[j]] * r)
            cell[0] += 1
    return trace


def _period_code(g: Sdfg, plan: FiringPlan, bound: list) -> tuple[str, dict]:
    """The source of run(periods), which replays the plan's firings that
    many times with the actors in `bound`, and the namespace it runs in.

    Token counts do not depend on token values, so each token of a period
    gets a fixed slot in the list b: a channel's delay tokens, then every
    token written to it in the period.  After each period, each delayed
    channel's last `delay` slots move back to its front.  Each firing is
    one statement or a few: gather its slots, call its bound closures,
    store its outputs.  Only positional names and integer literals appear
    in the source; every value arrives through the namespace."""
    chans, actors, q = g.channels, g.actors, plan.schedule.repetition
    base, slots = [], []
    for c in chans:
        base.append(len(slots))
        slots += c.initial_values
        slots += [None] * (q[c.src[0]] * c.rate_src)
    ns = {"B": slots, "truth": kinds.truth}
    head, counts, body = ["def run(periods):", " b = B"], [], []
    rd, wr, nth = [0] * len(chans), [0] * len(chans), [0] * len(actors)
    for k in plan.steps:
        role, _, _, cell, output, update, extra = bound[k]
        n, nth[k] = nth[k], nth[k] + 1
        if n == 0:  # the actor's names; X{k} is its role's extra
            ns[f"X{k}"] = extra
            if role in (_EVAL, _INPORT):
                head += [f" s{k} = S{k}", f" h{k} = H{k}"]
                ns.update({f"F{k}": output, f"U{k}": update, f"S{k}": cell[2], f"H{k}": cell[1]})
            if role == _INPORT and extra is not None:
                counts.append(f"  c{k} = p * {q[actors[k].id]}")  # its firings before this period
        keep = kinds.KINDS[actors[k].kind].keep
        data, events = [], []
        for j, port in zip(plan.ch_in[k], actors[k].in_ports):
            r, s = chans[j].rate_dst, base[j] + rd[j]
            rd[j] += r
            if port.event:
                events.append(f"truth(b[{s}])" if r == 1 else f"all(map(truth, b[{s}:{s + r}]))")
            else:
                data.append(f"b[{s + keep % r}]")
        ins, out, fire, lines, pad = "[" + ", ".join(data) + "]", "o", [], body, "  "
        fixed = role == _INPORT and extra is None or role == _EVAL and actors[k].kind != "Subsystem"
        if fixed and not actors[k].in_ports and update is None:
            # its outputs never change (an opaque Subsystem's output ticks
            # its diagram): it fires once and fills its slots before the loop
            out, lines, pad = f"h{k}", head, " "
            if n == 0 and role == _EVAL:
                head.append(f" h{k} = F{k}(s{k}, [])")
        elif role == _EVAL:
            if events:
                out = f"h{k}"  # held while disabled
            fire = [f"{out} = F{k}(s{k}, {ins})"]
            if update is not None:
                fire = [f"i = {ins}", f"{out} = F{k}(s{k}, i)", f"s{k} = U{k}(s{k}, i)"]
        elif role == _INPORT:
            out = f"h{k}"
            if extra is not None:
                fire = [f"h{k} = [X{k}[c{k} + {n}]]"]
        elif role == _OUTPORT:
            fire = [f"X{k}({data[0]})"]
        cond = " and ".join(events)
        if cond and fire and role in (_EVAL, _INPORT):
            body += [f"  if {cond}:"] + [f"   {x}" for x in fire]
        else:  # an unused condition is still evaluated, as the interpreter does
            body += ([f"  {cond}"] if cond else []) + [f"  {x}" for x in fire]
        if role in (_OUTPORT, _SINK):
            continue
        for j in plan.ch_out[k]:
            c = chans[j]
            s = base[j] + c.delay + wr[j]
            wr[j] += c.rate_src
            lines.append(f"{pad}b[{s}] = {out}[{c.src[1]}]" if c.rate_src == 1 else
                         f"{pad}b[{s}:{s + c.rate_src}] = [{out}[{c.src[1]}]] * {c.rate_src}")
    for j, c in enumerate(chans):
        if c.delay:
            s = base[j] + wr[j]
            body.append(f"  b[{base[j]}:{base[j] + c.delay}] = b[{s}:{s + c.delay}]")
    return "\n".join(head + [" for p in range(periods):"] + counts + body + ["  pass\n"]), ns

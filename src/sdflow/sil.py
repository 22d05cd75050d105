"""Software in the loop: run_sil replays a dataflow schedule.

The replay uses plain FIFO queues, one token at a time.  Each actor is
bound once per run to a firing tuple specialised by kind: its input
FIFOs, rates and kept token (the last of a multi-token read for a
RateTransition, else the first), its output FIFOs with the out-port each
one leaves, its state cell and its kind's bound functions.  An actor
with no out-channel only consumes its input tokens.  The replay walks
those tuples in schedule order over sdf_core's firing plan, which the C
emitter replays too.

SIL shares only the kinds' bind closures with MIL, on purpose: so
MIL = SIL checks structure (wiring, rates, delays, schedule), and only
SIL = C checks kind arithmetic.  An opaque subsystem is the exception
until it becomes a nested graph: it fires through mil.EmbeddedDiagram.
"""

from __future__ import annotations

from collections import deque

from . import kinds
from .errors import SdflowError
from .mil import EmbeddedDiagram
from .sdf_core import Schedule, Sdfg, firing_plan
from .trace import Trace

_EVAL, _INPORT, _OUTPORT, _EMBED, _SINK = range(5)  # firing roles


def run_sil(g: Sdfg, periods: int = 1, stimulus: Trace | None = None, *,
            schedule: Schedule | None = None) -> Trace:
    """Replay `periods` iterations of `schedule` with FIFO queues: the
    graph's own schedule when None, else one `check_schedule` accepts.

    Each actor is bound once to a tuple: its role, in-port reads (FIFO,
    rate, event flag, kept token index) in slot order, out-channel writes
    (FIFO, out-port index, rate), a [firings, held outputs, state] cell,
    the output and update functions bound from its kind (None where
    unused), and a role-specific extra: an Inport's stimulus rows, an
    Outport's firing times and sample list, a Subsystem's diagram and
    control slot.
    An actor with no out-channel is a sink: nothing can observe its
    outputs or state, so it is not bound and only consumes its input
    tokens.  The firing loop walks those tuples in schedule order and
    checks nothing: firing_plan built or checked the schedule, and token
    counts do not depend on token values, so no firing can underflow and
    every period ends with each channel back at its delay.
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
            role = _EMBED
            gated = a.params.get("mode", "normal") in ("triggered", "enabled")
            extra = (EmbeddedDiagram(a.impl), a.params["control_port"] if gated else None)
        elif a.kind == "Outport":
            role = _OUTPORT
            trace.declare(a.id, *plan.data_specs[k][0])
            extra = (plan.times[k], trace.samples[a.id].append)
        elif not plan.ch_out[k]:
            role = _SINK
        else:
            role = _INPORT if a.kind == "Inport" else _EVAL
            cell[2], cell[1], output, update = kinds.KINDS[a.kind].bind(
                a.params, plan.data_specs[k], plan.out_specs[k])
            extra = plan.stim[k]
        keep = -1 if a.kind == "RateTransition" else 0
        reads = tuple((fifos[j], channels[j].rate_dst, port.event, keep)
                      for j, port in zip(plan.ch_in[k], a.in_ports))
        writes = tuple((fifos[j], channels[j].src[1], channels[j].rate_src)
                       for j in plan.ch_out[k])
        bound.append((role, reads, writes, cell, output, update, extra))
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
    return trace

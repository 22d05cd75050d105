"""Mapping a flat block model onto a synchronous dataflow graph.

Every leaf block becomes one actor with the same id, kind, params,
period and ports.  Every connection becomes one channel from the
producing out-port to the consuming in-port: fan-out is several channels
leaving one out-port, each receiving the same tokens per firing, and an
out-port nothing consumes feeds no channel.  Port rates are 1 except at
RateTransition actors, where the period ratio of the neighbouring blocks
appears as a token rate; the fast-to-slow direction additionally
preloads its input channel with ratio-1 zero tokens so the first slow
firing does not have to wait a full slow period.

Translation invents no actor.  A conditional subsystem dissolved during
flattening leaves only its gating behind: every member actor gains one
event in-port per enclosing subsystem, fed over a rate-1 channel straight
from the control signal's out-port and carrying that signal's scalar
dtype.  A member fires its computation only when the token is > 0
(kinds.truth), whatever the dtype.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import kinds
from .errors import NonHarmonicError, SdflowError
from .model_ir import Connection
from .normalizer import NormalizedModel
from .sdf_core import MAX_ITERATION, Actor, Channel, Port, Sdfg


@dataclass
class TranslationReport:
    """Counts and per-channel facts about one translation run."""

    actors: int = 0
    channels: int = 0
    event_channels: int = 0    # control signal -> member taps
    replicated_ports: int = 0  # consumers beyond the first, per out-port
    dropped_ports: int = 0     # out-ports nobody consumes
    rate_transitions: list[dict] = field(default_factory=list)
    graph: Sdfg | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        out = {k: v for k, v in vars(self).items() if k != "graph"}
        return {**out, "rate_transitions": list(self.rate_transitions),
                "channel_rates": [{"id": c.id, "src": list(c.src), "dst": list(c.dst),
                                   "rate_src": c.rate_src, "rate_dst": c.rate_dst, "delay": c.delay}
                                  for c in getattr(self.graph, "channels", ())]}

    def summary(self) -> str:
        lines = [f"actors: {self.actors}",
                 f"channels: {self.channels} ({self.event_channels} event)",
                 f"replicated ports: {self.replicated_ports}, "
                 f"dropped ports: {self.dropped_ports}"]
        for rt in self.rate_transitions:
            lines.append(f"rate transition {rt['id']}: {rt['direction']}, "
                         f"ratio {rt['ratio']}, delay {rt['delay']}")
        return "\n".join(lines)


def rate_transition_rates(src_period: Fraction, dst_period: Fraction):
    """(rate_in, rate_out, delay) for a RateTransition between the given
    neighbour periods.  Slow-to-fast duplicates the token, fast-to-slow
    consumes a block of tokens and preloads the difference.  The periods
    are compared over their common denominator, in integers."""
    (sn, sd), (dn, dd) = src_period.as_integer_ratio(), dst_period.as_integer_ratio()
    s, d = sn * dd, dn * sd
    if max(s, d) % min(s, d):
        raise NonHarmonicError(
            f"periods {src_period} and {dst_period} do not divide one another")
    r = max(s, d) // min(s, d)
    return (r, 1, r - 1) if d > s else (1, r, 0)


def translate(n: NormalizedModel) -> tuple[Sdfg, TranslationReport]:
    m = n.model
    leaves = list(m.root.children)
    by_id = {b.id: b for b in leaves}
    conns = list(m.root.connections)

    # remove_routing left each member list only leaves
    groups = [(t, t.members) for t in m.triggers if t.members]

    # Consumers per producing (block id, out port): data connections, then
    # one control tap per member of a conditional subsystem.  A
    # RateTransition's rates come from its first data reader.
    taps = Counter(c.src for c in conns)
    first_reader: dict[tuple[str, int], Connection] = {}
    for c in conns:
        first_reader.setdefault(c.src, c)
    for t, members in groups:  # remove_routing chased each control to a leaf
        taps[t.control] += len(members)

    report = TranslationReport(replicated_ports=sum(n - 1 for n in taps.values()),
                               dropped_ports=sum(len(b.out_ports) for b in leaves) - len(taps))
    ports: dict = {}  # one Port per spec: Ports are immutable, so actors share them
    in_ports = {b.id: [ports.get(s) or ports.setdefault(s, Port(*s)) for s in b.in_ports]
                for b in leaves}  # event ports are added below

    # Token rates at RateTransition actors, from the neighbouring periods.
    in_rate: dict[str, int] = {}
    out_rate: dict[str, int] = {}
    preload: dict[str, int] = {}
    driver_of = {c.dst: c for c in conns}
    for b in leaves:
        if b.kind != "RateTransition":
            continue
        p_src = by_id[driver_of[(b.id, 0)].src[0]].period  # the loader drove its in-port
        tap = first_reader.get((b.id, 0))
        p_dst = by_id[tap.dst[0]].period if tap else p_src
        ri, ro, d = rate_transition_rates(p_src, p_dst)
        if d > MAX_ITERATION:
            raise SdflowError(f"rate transition {b.id}: periods {p_src} and {p_dst} "
                              f"need {d} initial tokens, more than {MAX_ITERATION}")
        if ri > 1:
            in_rate[b.id] = ri
            preload[b.id] = d
        if ro > 1:
            out_rate[b.id] = ro
        report.rate_transitions.append({
            "id": b.id,
            "direction": ("fast_to_slow" if ri > 1 else
                          "slow_to_fast" if ro > 1 else "unit"),
            "ratio": max(ri, ro),
            "delay": d,
        })

    channels = []
    for i, c in enumerate(conns):
        d = preload.get(c.dst[0], 0) if c.dst[1] == 0 else 0
        channels.append(Channel(
            f"ch_{i}", c.src, c.dst, out_rate.get(c.src[0], 1),
            in_rate.get(c.dst[0], 1) if c.dst[1] == 0 else 1, d,
            (kinds.zero_token(c.spec.dtype, c.spec.width),) * d if d else (),  # immutable
            c.spec.dtype, c.spec.width))

    for t, members in groups:
        spec = by_id[t.control[0]].out_ports[t.control[1]]  # scalar: the loader checked
        for mid in members:
            dst = (mid, len(in_ports[mid]))
            in_ports[mid].append(Port(spec.dtype, 1, event=True))
            channels.append(Channel(f"ch_{len(channels)}", t.control, dst,
                                    1, 1, 0, (), spec.dtype, 1))
            report.event_channels += 1

    actors = [Actor(b.id, b.kind, dict(b.params), b.period, tuple(in_ports[b.id]),
                    tuple([ports.get(s) or ports.setdefault(s, Port(*s)) for s in b.out_ports]),
                    b if b.is_subsystem() else None) for b in leaves]
    g = Sdfg(m.name, actors, channels)
    report.actors = len(g.actors)
    report.channels = len(g.channels)
    report.graph = g
    g.check_wellformed()
    return g, report

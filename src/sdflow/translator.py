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

Conditional subsystems dissolved during flattening come back as one
EnableSource actor each: it taps the original control signal and
broadcasts its truth value from its one out-port over a boolean rate-1
channel to every member actor, which gains one extra event in-port per
enclosing subsystem.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import kinds
from .errors import NonHarmonicError, NormalizationError, SdflowError
from .model_ir import Connection
from .normalizer import NormalizedModel
from .sdf_core import MAX_ITERATION, Actor, Channel, Port, Sdfg


@dataclass
class TranslationReport:
    """Counts and per-channel facts about one translation run."""

    actors: int = 0
    channels: int = 0
    event_channels: int = 0    # EnableSource -> member taps
    control_channels: int = 0  # control signal -> EnableSource
    replicated_ports: int = 0  # consumers beyond the first, per out-port
    dropped_ports: int = 0     # out-ports nobody consumes
    rate_transitions: list[dict] = field(default_factory=list)
    channel_rates: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {**vars(self), "rate_transitions": list(self.rate_transitions),
                "channel_rates": list(self.channel_rates)}

    def summary(self) -> str:
        lines = [f"actors: {self.actors}",
                 f"channels: {self.channels} "
                 f"({self.event_channels} event, {self.control_channels} control)",
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

    groups = []
    for t in m.triggers:
        members = [mid for mid in t.members if mid in by_id]
        if members:
            groups.append((t, members))

    # Consumers per producing (block id, out port): data connections, then
    # one control tap per conditional subsystem.  A RateTransition's rates
    # come from its first data reader.
    taps = Counter(c.src for c in conns)
    first_reader: dict[tuple[str, int], Connection] = {}
    for c in conns:
        first_reader.setdefault(c.src, c)
    for t, _ in groups:
        if t.control[0] not in by_id:
            raise NormalizationError(
                f"{t.path}: control signal source {t.control[0]!r} is not a leaf block")
        taps[t.control] += 1

    report = TranslationReport(replicated_ports=sum(n - 1 for n in taps.values()),
                               dropped_ports=sum(len(b.out_ports) for b in leaves) - len(taps))
    g = Sdfg(m.name)
    ports: dict = {}  # one Port per spec: Ports are immutable, so actors share them
    for b in leaves:
        g.actors.append(Actor(b.id, b.kind, dict(b.params), b.period,
                              [ports.get(s) or ports.setdefault(s, Port(*s)) for s in b.in_ports],
                              [ports.get(s) or ports.setdefault(s, Port(*s)) for s in b.out_ports],
                              b if b.is_subsystem() else None))

    # Token rates at RateTransition actors, from the neighbouring periods.
    in_rate: dict[str, int] = {}
    out_rate: dict[str, int] = {}
    preload: dict[str, int] = {}
    driver_of = {c.dst: c for c in conns}
    for b in leaves:
        if b.kind != "RateTransition":
            continue
        drv = driver_of.get((b.id, 0))
        p_src = by_id[drv.src[0]].period if drv else b.period
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

    for i, c in enumerate(conns):
        d = preload.get(c.dst[0], 0) if c.dst[1] == 0 else 0
        g.channels.append(Channel(
            f"ch_{i}", c.src, c.dst, out_rate.get(c.src[0], 1),
            in_rate.get(c.dst[0], 1) if c.dst[1] == 0 else 1, d,
            [kinds.zero_token(c.spec.dtype, c.spec.width)] * d if d else [],  # immutable
            c.spec.dtype, c.spec.width))

    ci = len(conns)
    actor_of = {a.id: a for a in g.actors}
    for t, members in groups:
        ctrl = by_id[t.control[0]]
        spec = ctrl.out_ports[t.control[1]]
        if spec.width != 1:
            raise NormalizationError(f"{t.path}: control signal must be scalar")
        es = Actor(f"{t.path}/enable", "EnableSource", {"mode": t.mode},
                   by_id[members[0]].period,
                   in_ports=[Port(spec.dtype, spec.width)], out_ports=[Port("bool", 1)])
        g.actors.append(es)
        g.channels.append(Channel(f"ch_{ci}", t.control, (es.id, 0),
                                  1, 1, 0, [], spec.dtype, spec.width))
        report.control_channels += 1
        ci += 1
        for mid in members:
            ma = actor_of[mid]
            slot = len(ma.in_ports)
            ma.in_ports.append(Port("bool", 1, event=True))
            g.channels.append(Channel(f"ch_{ci}", (es.id, 0), (mid, slot),
                                      1, 1, 0, [], "bool", 1))
            report.event_channels += 1
            ci += 1

    report.actors = len(g.actors)
    report.channels = len(g.channels)
    report.channel_rates = [{"id": c.id, "src": list(c.src), "dst": list(c.dst),
                             "rate_src": c.rate_src, "rate_dst": c.rate_dst,
                             "delay": c.delay} for c in g.channels]
    g.check_wellformed()
    return g, report

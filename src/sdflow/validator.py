"""Translatability checks.

check_requirements(m, depth) reports, never raises: each finding is a
Violation carrying a rule tag, a location path and a human-readable
message.  The rule tags are a fixed vocabulary:

  FixedStep             a period is not an integer multiple of base_step
  HarmonicRates         connected periods do not divide one another, a
                        surviving subsystem is internally multirate, or a
                        conditional subsystem mixes member rates
  E1_Hierarchy          a subsystem that stays atomic at this depth
                        contains a tag/store block whose peer is outside
  E2_VariableSize       a Switch does not pin its output size (its data
                        inputs and output differ in spec)
  E3_1_DanglingRouting  unmatched Goto/From or data-store accessors
  E3_2_BusPairing       BusCreator/BusSelector not directly paired
  E3_2_BusOutput        a BusSelector output consumed as a bus
  UnsupportedBlock      kind outside the closed vocabulary

Several rules are judged on the model as it will look after flattening
to the requested depth, since splicing boundary ports is what creates
the adjacent block pairs that translation sees.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kinds
from .errors import NormalizationError
from .model_ir import Block, BlockModel, iter_blocks
from .normalizer import _flatten, flatten

RULES = ("FixedStep", "HarmonicRates", "E1_Hierarchy", "E2_VariableSize",
         "E3_1_DanglingRouting", "E3_2_BusPairing", "E3_2_BusOutput",
         "UnsupportedBlock")


@dataclass(frozen=True)
class Violation:
    rule: str
    location: str
    message: str

    def to_json(self) -> dict:
        return {"rule": self.rule, "location": self.location, "message": self.message}

    def __str__(self) -> str:
        return f"{self.rule} at {self.location}: {self.message}"


def check_requirements(m: BlockModel, depth: int | None = None) -> list[Violation]:
    return _check(m, depth)[0]


def _check(m: BlockModel, depth: int | None):
    """check_requirements, plus flatten's model and depth (None if it failed)."""
    out: list[Violation] = []
    use = _routing_use(m.root)

    _check_blocks(m, out)
    _check_dangling_routing(use, out)

    try:
        flat, flat_depth = _flatten(m, depth)
    except NormalizationError as e:
        out.append(Violation("E3_1_DanglingRouting", m.root.id,
                             f"wiring could not be resolved: {e}"))
        flat = flat_depth = None

    if flat is not None:
        _check_harmonic_flat(flat, out)
        _check_bus_scope(flat, "", out)
        _check_triggers(flat, out)
        for leaf in flat.root.children:
            if leaf.is_subsystem():
                _check_atomic(leaf, m, use, out)

    uniq = sorted(set(out), key=lambda v: (v.location, v.rule, v.message))
    return uniq, flat, flat_depth


# ---------------------------------------------------------------------------


def _check_blocks(m: BlockModel, out: list[Violation]):
    """The one-block rules in one walk: vocabulary, fixed step, Switch sizes.
    A control input or port of width other than 1 fails the load."""
    bn, bd = m.base_step.as_integer_ratio()
    for path, b, _ in iter_blocks(m.root):
        if b.kind not in kinds.KINDS:
            out.append(Violation("UnsupportedBlock", path,
                                 f"kind {b.kind!r} is outside the supported vocabulary"))
        pn, pd = b.period.as_integer_ratio()
        if (pn * bd) % (pd * bn):  # period / base_step is not whole
            out.append(Violation("FixedStep", path,
                                 f"period {b.period} is not an integer multiple of the "
                                 f"base step {m.base_step}"))
        if b.kind == "Switch" and not (b.in_ports[0] == b.in_ports[2] == b.out_ports[0]):
            out.append(Violation("E2_VariableSize", path,
                                 "Switch data inputs and output must share one spec "
                                 f"(got {b.in_ports[0]}, {b.in_ports[2]} -> {b.out_ports[0]})"))


_STORE_KINDS = ("DataStoreWrite", "DataStoreRead", "DataStoreMemory")


def _routing_use(root: Block) -> dict[tuple[str, str], list[str]]:
    """Paths of the tag and store blocks below `root`, keyed by (kind, tag
    or store name)."""
    use: dict[tuple[str, str], list[str]] = {}
    for path, b, _ in iter_blocks(root):
        if b.kind in ("Goto", "From"):
            use.setdefault((b.kind, b.params["tag"]), []).append(path)
        elif b.kind in _STORE_KINDS:
            use.setdefault((b.kind, b.params["store"]), []).append(path)
    return use


def _check_dangling_routing(use: dict, out: list[Violation]):
    def flag(where, message):
        for p in where:
            out.append(Violation("E3_1_DanglingRouting", p, message))

    for (kind, name), where in use.items():
        if kind == "Goto":
            if len(where) > 1:
                flag(where, f"tag {name!r} has {len(where)} Goto writers")
            if ("From", name) not in use:
                flag(where, f"Goto tag {name!r} has no From reader")
        elif kind == "From":
            if ("Goto", name) not in use:
                flag(where, f"From tag {name!r} has no Goto writer")
        elif kind == "DataStoreWrite":
            if ("DataStoreMemory", name) not in use:
                flag(where, f"DataStoreWrite {name!r} has no DataStoreMemory")
            if ("DataStoreRead", name) not in use:
                flag(where, f"DataStoreWrite {name!r} has no DataStoreRead")
            if len(where) > 1:
                flag(where, f"store {name!r} has {len(where)} writers")
        elif kind == "DataStoreRead":
            if ("DataStoreMemory", name) not in use:
                flag(where, f"DataStoreRead {name!r} has no DataStoreMemory")
        elif len(where) > 1:
            flag(where, f"store {name!r} has {len(where)} memories")


def _check_harmonic_flat(flat: BlockModel, out: list[Violation]):
    """Over their common denominator, one period's numerator divides the other's."""
    by_id = {c.id: c for c in flat.root.children}
    for conn in flat.root.connections:
        src, dst = by_id[conn.src[0]], by_id[conn.dst[0]]
        (sn, sd), (dn, dd) = src.period.as_integer_ratio(), dst.period.as_integer_ratio()
        if max(sn * dd, dn * sd) % min(sn * dd, dn * sd):
            out.append(Violation("HarmonicRates", f"{conn.src[0]} -> {conn.dst[0]}",
                                 f"periods {src.period} and {dst.period} do not divide "
                                 "one another"))


def _check_triggers(flat: BlockModel, out: list[Violation]):
    by_id = {c.id: c for c in flat.root.children}
    for t in flat.triggers:
        periods = {by_id[mid].period for mid in t.members if mid in by_id}
        if len(periods) > 1:
            out.append(Violation("HarmonicRates", t.path,
                                 f"{t.mode} subsystem members span several periods "
                                 f"({', '.join(str(p) for p in sorted(periods))})"))
            continue
        if t.control[0] in by_id and periods:
            cper = by_id[t.control[0]].period
            if cper != next(iter(periods)):
                out.append(Violation("HarmonicRates", t.path,
                                     f"control signal period {cper} differs from the "
                                     f"member period {next(iter(periods))}"))


def _check_bus_scope(flat: BlockModel, where: str, out: list[Violation]):
    """Pairing rules on a flat scope: creators feed selectors directly."""
    by_id = {c.id: c for c in flat.root.children}
    for conn in flat.root.connections:
        src, dst = by_id[conn.src[0]], by_id[conn.dst[0]]
        loc = f"{where}{conn.src[0]} -> {where}{conn.dst[0]}"
        if src.kind == "BusSelector" and dst.kind == "BusSelector":
            out.append(Violation("E3_2_BusOutput", loc,
                                 "BusSelector output consumed as a bus"))
            continue
        if src.kind == "BusCreator" and dst.kind != "BusSelector":
            out.append(Violation("E3_2_BusPairing", loc,
                                 f"BusCreator must feed a BusSelector, found {dst.kind}"))
        if dst.kind == "BusSelector" and conn.dst[1] == 0 and src.kind != "BusCreator":
            out.append(Violation("E3_2_BusPairing", loc,
                                 f"BusSelector must be fed by a BusCreator, found {src.kind}"))
        if src.kind == "BusCreator" and dst.kind == "BusSelector":
            sel = dst
            for j, e in enumerate(sel.params["indices"]):
                if e >= len(src.in_ports):
                    out.append(Violation("E3_2_BusPairing", loc,
                                         f"selector output {j} asks for bus element {e}, "
                                         f"bus has {len(src.in_ports)}"))
                elif src.in_ports[e] != sel.out_ports[j]:
                    out.append(Violation("E3_2_BusPairing", loc,
                                         f"bus element {e} is {src.in_ports[e]} but selector "
                                         f"output {j} is {sel.out_ports[j]}"))


def _check_atomic(leaf: Block, m: BlockModel, use: dict, out: list[Violation]):
    """Checks on a subsystem that survives flattening as an opaque leaf;
    `use` is the tag and store usage of the whole model."""
    path = leaf.id  # flat ids are the original qualified paths

    for ipath, b, _ in iter_blocks(leaf, prefix=f"{path}/"):
        if b.period != leaf.period:
            out.append(Violation("HarmonicRates", ipath,
                                 f"block inside the opaque subsystem {path!r} runs at "
                                 f"{b.period}, the subsystem at {leaf.period}"))

    inner = _routing_use(leaf)

    def outside(kind, name):
        key = (kind, name)
        return len(use.get(key, ())) > len(inner.get(key, ()))

    for kind, name in inner:
        if kind == "Goto" and outside("From", name):
            out.append(Violation("E1_Hierarchy", path,
                                 f"tag {name!r} is written inside this opaque subsystem "
                                 "and read outside it"))
        elif kind == "From" and outside("Goto", name):
            out.append(Violation("E1_Hierarchy", path,
                                 f"tag {name!r} is read inside this opaque subsystem and "
                                 "written outside it"))
        elif kind in _STORE_KINDS and any(outside(k, name) for k in _STORE_KINDS):
            out.append(Violation("E1_Hierarchy", path,
                                 f"store {name!r} is accessed both inside and outside "
                                 "this opaque subsystem"))

    # Bus pairs inside the opaque subsystem, judged on its own flat view.
    try:
        inner_root = Block(leaf.id, "Subsystem", {"mode": "normal"}, leaf.sample_time,
                           [], [], leaf.children, leaf.connections)
        inner_flat = flatten(BlockModel(m.name, m.base_step, m.data_stores, inner_root))
    except NormalizationError as e:
        out.append(Violation("E3_1_DanglingRouting", path,
                             f"wiring could not be resolved: {e}"))
        return
    _check_bus_scope(inner_flat, f"{path}/", out)

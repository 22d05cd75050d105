"""Model normalization: flatten hierarchy, remove routing blocks, insert
rate transitions.

The pipeline is flatten -> remove_routing -> insert_rate_transitions.
Each pass returns a new BlockModel and never copies or mutates its
input: it shares the blocks it leaves unchanged (flatten re-ids them but
shares their params and port specs) and replaces a block it changes by a
new Block.  Running the full pipeline twice gives the same model as
running it once.  Only flatten clamps the depth to the model height.

Flattening dissolves subsystems top-down to the requested depth.  Block
ids are path-qualified with '/' so provenance stays readable; boundary
Inport/Outport blocks of dissolved subsystems are spliced away.  A
dissolved triggered/enabled subsystem leaves a TriggerGroup behind: the
resolved control source plus the flattened ids it governs.  Subsystems
below the depth survive as opaque leaves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

from .errors import DepthWarning, NormalizationError, SignalTypeError
from .kinds import ROUTING_KINDS
from .model_ir import (Block, BlockModel, Connection, SignalSpec, TriggerGroup,
                       model_height)


@dataclass
class NormalizedModel:
    """Flat model plus the bookkeeping the translator needs."""

    model: BlockModel
    depth: int
    provenance: dict[str, str]  # flat block id -> origin description


# ---------------------------------------------------------------------------
# flatten

# Endpoint forms used while splicing:
#   ("blk", flat_id, port)        a port of a surviving block
#   ("p_in", sub_path, index)     boundary in-port of a dissolved subsystem
#   ("p_out", sub_path, index)    boundary out-port of a dissolved subsystem


class _Flat:
    def __init__(self):
        self.blocks: list[Block] = []
        self.edges: list[tuple] = []
        self.triggers: list[dict] = []


def _collect(sub: Block, prefix: str, depth: int, is_root: bool, out: _Flat):
    bpath = prefix[:-1]  # this scope's own qualified path ('' for root)
    local: dict[str, tuple] = {}

    for c in sub.children:
        qual = prefix + c.id
        if not is_root and c.kind == "Inport":
            local[c.id] = ("p_in", bpath, c.port_index())
            continue
        if not is_root and c.kind == "Outport":
            local[c.id] = ("p_out", bpath, c.port_index())
            continue
        if c.is_subsystem() and depth > 0:
            first = len(out.blocks)
            _collect(c, qual + "/", depth - 1, False, out)
            local[c.id] = ("sub", qual)
            if c.mode() != "normal":
                out.triggers.append({
                    "path": qual,
                    "mode": c.mode(),
                    "control": ("p_in", qual, c.params["control_port"]),
                    "members": tuple(b.id for b in out.blocks[first:]),
                })
            continue
        out.blocks.append(c if qual == c.id else replace(c, id=qual))
        local[c.id] = ("blk", qual)

    for conn in sub.connections:
        sid, sp = conn.src
        did, dp = conn.dst
        stag = local[sid]
        dtag = local[did]
        src = (("blk", stag[1], sp) if stag[0] == "blk"
               else ("p_out", stag[1], sp) if stag[0] == "sub"
               else stag)  # p_in: reading this scope's boundary input
        dst = (("blk", dtag[1], dp) if dtag[0] == "blk"
               else ("p_in", dtag[1], dp) if dtag[0] == "sub"
               else dtag)  # p_out: feeding this scope's boundary output
        out.edges.append((src, dst, conn))


def _resolve(src, incoming: dict) -> tuple:
    """The block port behind `src`; the loader gave every boundary port a driver."""
    seen = set()
    while src[0] != "blk":
        if src in seen:
            raise NormalizationError(f"pass-through wiring cycle at {src}")
        seen.add(src)
        src = incoming[src]
    return src


def flatten(m: BlockModel, depth: int | None = None) -> BlockModel:
    """Dissolve subsystems for `depth` levels (None means fully)."""
    return _flatten(m, depth)[0]


def _flatten(m: BlockModel, depth: int | None) -> tuple[BlockModel, int]:
    """flatten, plus the depth it used once clamped to the model height."""
    height = model_height(m)
    if depth is None:
        depth = height
    elif depth > height:
        warnings.warn(f"flatten depth {depth} exceeds model height {height}; clamped",
                      DepthWarning, stacklevel=3)
        depth = height

    out = _Flat()
    _collect(m.root, "", depth, True, out)

    incoming = {dst: src for src, dst, _ in out.edges if dst[0] != "blk"}
    conns = []
    for src, dst, conn in out.edges:
        if dst[0] != "blk":
            continue
        rsrc = _resolve(src, incoming)
        ends = (rsrc[1], rsrc[2]), (dst[1], dst[2])
        conns.append(conn if ends == (conn.src, conn.dst) else Connection(*ends, conn.spec))

    triggers = list(m.triggers)
    for t in out.triggers:
        ctl = _resolve(t["control"], incoming)
        triggers.append(TriggerGroup(t["path"], t["mode"], (ctl[1], ctl[2]), t["members"]))

    root = Block(m.root.id, "Subsystem", {"mode": "normal"}, m.root.sample_time,
                 [], [], out.blocks, conns)
    return BlockModel(m.name, m.base_step, m.data_stores, root, triggers), depth


# ---------------------------------------------------------------------------
# remove_routing


def _chase(ep, ctx, selector: str | None = None) -> tuple[str, int]:
    """Follow routing blocks back to a real source port, or for the input
    of the BusSelector `selector`, back to the BusCreator that feeds it.
    remove_routing has checked that every store read has its memory."""
    by_id, driver, memories, gotos_by_tag, seen = ctx
    bid, port = ep
    if ep in seen:
        raise NormalizationError(f"routing cycle through {bid!r}")
    seen.add(ep)
    b = by_id[bid]
    if b.kind == "From":
        tag = b.params["tag"]
        gotos = gotos_by_tag.get(tag, [])
        if len(gotos) != 1:
            raise NormalizationError(f"tag {tag!r} has {len(gotos)} Goto writers")
        return _chase(driver[(gotos[0].id, 0)], ctx, selector)
    if b.kind == "DataStoreRead":
        b = memories[b.params["store"]]
        bid, port = b.id, 0
    elif b.kind == "BusSelector" and selector is None:
        creator = by_id[_chase(driver[(bid, 0)], ctx, bid)[0]]
        elem = b.params["indices"][port]
        if elem >= len(creator.in_ports):
            raise NormalizationError(f"BusSelector {bid!r} selects element {elem} "
                                     f"of a {len(creator.in_ports)}-wide bus")
        return _chase(driver[(creator.id, elem)], ctx)
    if selector is not None and b.kind != "BusCreator":
        raise NormalizationError(f"BusSelector {selector!r} is not fed by a BusCreator")
    if selector is None and b.kind == "BusCreator":
        raise NormalizationError(f"{bid}: bus feeds a non-selector consumer")
    return bid, port


def remove_routing(m: BlockModel) -> BlockModel:
    """Dissolve Goto/From, DataStore accessors and bus pairs at root level.

    DataStoreMemory survives as a register-like block: it gains one input
    (the writer's driver) and one output (feeding every reader's readers).
    """
    root = m.root
    by_id = {c.id: c for c in root.children}
    driver = {c.dst: c.src for c in root.connections}
    spec_of = {c.dst: c.spec for c in root.connections}
    memories = {c.params["store"]: c for c in root.children if c.kind == "DataStoreMemory"}

    writers: dict[str, list[Block]] = {}
    gotos: dict[str, list[Block]] = {}
    mem_spec: dict[str, SignalSpec] = {}  # the loader gave a store's accessors one spec
    for c in root.children:
        if c.kind == "DataStoreWrite":
            writers.setdefault(c.params["store"], []).append(c)
            mem_spec[c.params["store"]] = c.in_ports[0]
        elif c.kind == "DataStoreRead":
            mem_spec[c.params["store"]] = c.out_ports[0]
        elif c.kind == "Goto":
            gotos.setdefault(c.params["tag"], []).append(c)

    def chase(ep):
        return _chase(ep, (by_id, driver, memories, gotos, set()))

    # Replace each accessed memory by its register before rebuilding wires.
    for store, spec in sorted(mem_spec.items()):
        if store not in memories:
            raise NormalizationError(f"store {store!r} has no DataStoreMemory")
        mem = memories[store]
        ws = writers.get(store, [])
        if len(ws) > 1:
            raise NormalizationError(f"store {store!r} has {len(ws)} writers")
        by_id[mem.id] = replace(mem, in_ports=[spec] if ws else [], out_ports=[spec])

    conns: list[Connection] = []
    for c in root.connections:
        if by_id[c.dst[0]].kind in ROUTING_KINDS:
            continue  # consumed via chasing
        src = chase(c.src)
        sblk = by_id[src[0]]
        if sblk.out_ports[src[1]] != c.spec:
            raise SignalTypeError(f"routing chain into {c.dst} resolves to {src} "
                                  f"of spec {sblk.out_ports[src[1]]}, expected {c.spec}")
        conns.append(c if src == c.src else Connection(src, c.dst, c.spec))
    for store in sorted(mem_spec):
        for w in writers.get(store, []):
            src = chase(driver[(w.id, 0)])
            conns.append(Connection(src, (memories[store].id, 0), spec_of[(w.id, 0)]))

    removed = {c.id for c in root.children if c.kind in ROUTING_KINDS}
    children = [by_id[c.id] for c in root.children if c.id not in removed]
    triggers = [TriggerGroup(t.path, t.mode, chase(t.control),
                             tuple(b for b in t.members if b not in removed))
                for t in m.triggers]
    return replace(m, root=replace(root, children=children, connections=conns),
                   triggers=triggers)


# ---------------------------------------------------------------------------
# insert_rate_transitions


def insert_rate_transitions(m: BlockModel) -> BlockModel:
    """Splice a RateTransition into every root connection whose endpoint
    periods differ, one per connection (fanout branches get their own)."""
    root = m.root
    by_id = {c.id: c for c in root.children}  # inserted ids are reserved here too
    counter = 0
    conns: list[Connection] = []
    new_blocks: list[Block] = []

    for c in root.connections:
        sblk, dblk = by_id[c.src[0]], by_id[c.dst[0]]
        (sn, sd), (dn, dd) = sblk.period.as_integer_ratio(), dblk.period.as_integer_ratio()
        if (sn, sd) == (dn, dd) or "RateTransition" in (sblk.kind, dblk.kind):
            conns.append(c)
            continue
        while f"rt_{counter}" in by_id:
            counter += 1
        rid = f"rt_{counter}"
        rt = Block(rid, "RateTransition", {"src_period": [sn, sd], "dst_period": [dn, dd]},
                   sblk.sample_time if sn * dd > dn * sd else dblk.sample_time,  # the slower
                   [c.spec], [c.spec])
        new_blocks.append(rt)
        by_id[rid] = rt
        conns.append(Connection(c.src, (rid, 0), c.spec))
        conns.append(Connection((rid, 0), c.dst, c.spec))

    return replace(m, root=replace(root, children=root.children + new_blocks,
                                   connections=conns))


# ---------------------------------------------------------------------------
# pipeline


def normalize(m: BlockModel, depth: int | None = None) -> NormalizedModel:
    return _lower(*_flatten(m, depth))


def _lower(flat: BlockModel, depth: int) -> NormalizedModel:
    """The passes after flatten, on the flat model `flatten` built at `depth`."""
    flat = remove_routing(flat)
    prov = {c.id: c.id for c in flat.root.children}
    flat = insert_rate_transitions(flat)
    for x in flat.root.connections:  # an inserted RateTransition's wire in, then out
        if x.dst[0] not in prov:
            up = x.src
        elif x.src[0] not in prov:
            prov[x.src[0]] = f"{up[0]}:{up[1]} -> {x.dst[0]}:{x.dst[1]}"
    return NormalizedModel(flat, depth, prov)

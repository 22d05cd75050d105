"""Block-diagram model IR and its JSON document form.

The document schema is deliberately rigid: unknown fields are rejected,
connection endpoints must resolve, and every literal is coerced to its
canonical runtime type at load so that every later stage (and the C
emitter) sees identical values.

Invariants held by a loaded BlockModel:
  * sibling block ids are unique; source ids never contain '/'
    (the flattener uses '/' to path-qualify dissolved scopes)
  * every in-port of every block has exactly one driving connection
  * a connection's declared SignalSpec equals both endpoint port specs
  * every block has a resolved, positive sample period (inheritance is
    resolved at load: forward from drivers, then the enclosing scope,
    then the model base step)

Harmonicity and the translation constraints are deliberately NOT
enforced here; the validator reports those as diagnostics instead of
load failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from . import kinds
from .errors import ResolutionError, SchemaError, SignalTypeError


class SignalSpec(NamedTuple):
    """Token type of one port or connection."""

    dtype: str
    width: int


@dataclass(frozen=True)
class SampleTime:
    """Activation period as an exact rational; offsets are fixed at zero."""

    period: Fraction

    def to_json(self):
        return {"num": self.period.numerator, "den": self.period.denominator}


@dataclass(frozen=True)
class Connection:
    """Directed wire between sibling ports: (block id, port index) pairs."""

    src: tuple[str, int]
    dst: tuple[str, int]
    spec: SignalSpec


@dataclass
class Block:
    """One diagram element.  children/connections are only populated for
    Subsystem blocks; params have been canonicalized by the loader."""

    id: str
    kind: str
    params: dict
    sample_time: SampleTime | None
    in_ports: list[SignalSpec]
    out_ports: list[SignalSpec]
    children: list[Block] = field(default_factory=list)
    connections: list[Connection] = field(default_factory=list)

    @property
    def period(self) -> Fraction:
        if self.sample_time is None:
            raise ResolutionError(f"{self.id}: unresolved sample time")
        return self.sample_time.period

    def child(self, cid: str) -> Block:
        for c in self.children:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def is_subsystem(self) -> bool:
        return self.kind == "Subsystem"

    def mode(self) -> str:
        return self.params.get("mode", "normal") if self.is_subsystem() else "normal"


@dataclass(frozen=True)
class TriggerGroup:
    """Record of a dissolved triggered/enabled subsystem: which flattened
    blocks it governed and which port drives their shared enable."""

    path: str
    mode: str
    control: tuple[str, int]
    members: tuple[str, ...]


@dataclass
class BlockModel:
    name: str
    base_step: Fraction
    data_stores: list[str]
    root: Block
    # Populated by the flattener for dissolved conditional subsystems;
    # not part of the document schema (exported with provenance instead),
    # so it is excluded from structural equality.
    triggers: list[TriggerGroup] = field(default_factory=list, compare=False)


def iter_blocks(root: Block, prefix: str = ""):
    """Yield (path, block, parent) over the whole tree, root excluded."""
    for b in root.children:
        path = f"{prefix}{b.id}"
        yield path, b, root
        if b.is_subsystem():
            yield from iter_blocks(b, prefix=f"{path}/")


def model_height(m: BlockModel) -> int:
    def depth(b: Block) -> int:
        subs = [c for c in b.children if c.is_subsystem()]
        return 1 + max((depth(s) for s in subs), default=0) if subs else 0
    return depth(m.root)


# ---------------------------------------------------------------------------
# Loading


def _require_fields(obj: dict, where: str, required: tuple, optional: tuple):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
    missing = [f for f in required if f not in obj]
    if missing:
        raise SchemaError(f"{where}: missing fields {missing}")


def _parse_rational(obj, where: str) -> Fraction:
    _require_fields(obj, where, ("num", "den"), ())
    num, den = obj["num"], obj["den"]
    for label, v in (("num", num), ("den", den)):
        if isinstance(v, bool) or not isinstance(v, int):
            raise SchemaError(f"{where}.{label}: expected an integer")
    if den <= 0 or num <= 0:
        raise SchemaError(f"{where}: period must be positive")
    return Fraction(num, den)


def _parse_spec(obj, where: str) -> SignalSpec:
    _require_fields(obj, where, ("dtype", "width"), ())
    if obj["dtype"] not in kinds.DTYPES:
        raise SchemaError(f"{where}: dtype must be one of {kinds.DTYPES}")
    w = obj["width"]
    if isinstance(w, bool) or not isinstance(w, int) or w < 1:
        raise SchemaError(f"{where}: width must be an integer >= 1")
    return SignalSpec(obj["dtype"], w)


def _parse_endpoint(obj, where: str) -> tuple[str, int]:
    if (not isinstance(obj, list) or len(obj) != 2 or not isinstance(obj[0], str)
            or isinstance(obj[1], bool) or not isinstance(obj[1], int) or obj[1] < 0):
        raise SchemaError(f"{where}: endpoint must be [block_id, port_index]")
    return obj[0], obj[1]


def _parse_block(obj, where: str) -> Block:
    _require_fields(obj, where, ("id", "kind"),
                    ("params", "sample_time", "ports", "children", "connections"))
    bid = obj["id"]
    if not isinstance(bid, str) or not bid:
        raise SchemaError(f"{where}: id must be a non-empty string")
    if "/" in bid:
        raise SchemaError(f"{where}: id {bid!r} may not contain '/'")
    kind = obj["kind"]
    if not isinstance(kind, str) or not kind:
        raise SchemaError(f"{where}: kind must be a non-empty string")
    here = f"{where}/{bid}" if where else bid

    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError(f"{here}: params must be an object")

    st = None
    if obj.get("sample_time") is not None:
        st = SampleTime(_parse_rational(obj["sample_time"], f"{here}.sample_time"))

    ports = obj.get("ports", {})
    _require_fields(ports, f"{here}.ports", (), ("in", "out"))
    in_ports = [_parse_spec(p, f"{here}.ports.in[{i}]") for i, p in enumerate(ports.get("in", []))]
    out_ports = [_parse_spec(p, f"{here}.ports.out[{i}]") for i, p in enumerate(ports.get("out", []))]

    children = [_parse_block(c, here) for c in obj.get("children", [])]
    raw_conns = obj.get("connections", [])
    if (children or raw_conns) and kind != "Subsystem":
        raise SchemaError(f"{here}: only Subsystem blocks may carry children/connections")

    conns = []
    for i, c in enumerate(raw_conns):
        cw = f"{here}.connections[{i}]"
        _require_fields(c, cw, ("src", "dst", "dtype", "width"), ())
        spec = _parse_spec({"dtype": c["dtype"], "width": c["width"]}, cw)
        conns.append(Connection(_parse_endpoint(c["src"], f"{cw}.src"),
                                _parse_endpoint(c["dst"], f"{cw}.dst"), spec))

    return Block(bid, kind, dict(params), st, in_ports, out_ports, children, conns)


def _check_scope(sub: Block, path: str):
    """Sibling-level structural checks for one subsystem's diagram."""
    seen = set()
    for c in sub.children:
        if c.id in seen:
            raise ResolutionError(f"{path}: duplicate block id {c.id!r}")
        seen.add(c.id)

    by_id = {c.id: c for c in sub.children}
    driven: dict[tuple[str, int], Connection] = {}
    for conn in sub.connections:
        for label, (bid, port), plist in (("src", conn.src, "out_ports"),
                                          ("dst", conn.dst, "in_ports")):
            if bid not in by_id:
                raise ResolutionError(f"{path}: connection {label} references unknown block {bid!r}")
            specs = getattr(by_id[bid], plist)
            if port >= len(specs):
                raise ResolutionError(f"{path}: {bid!r} has no {label} port {port}")
            if specs[port] != conn.spec:
                raise SignalTypeError(
                    f"{path}: connection {conn.src}->{conn.dst} declares "
                    f"{conn.spec} but {bid!r} port {port} is {specs[port]}")
        if conn.dst in driven:
            raise ResolutionError(f"{path}: multiple drivers for {conn.dst}")
        driven[conn.dst] = conn

    for c in sub.children:
        for port in range(len(c.in_ports)):
            if (c.id, port) not in driven:
                raise ResolutionError(f"{path}: unconnected input port {(c.id, port)}")


def _check_boundary(sub: Block, path: str, is_root: bool):
    """Inner Inport/Outport blocks must tile the subsystem's port lists."""
    if is_root:
        if sub.in_ports or sub.out_ports:
            raise SchemaError(f"{path}: the root subsystem may not declare ports")
        return

    control = sub.params.get("control_port")
    in_seen: dict[int, str] = {}
    out_seen: dict[int, str] = {}
    for c in sub.children:
        if c.kind == "Inport":
            idx = c.params.get("index", 0)
            if idx >= len(sub.in_ports):
                raise ResolutionError(f"{path}/{c.id}: index {idx} exceeds the in-port list")
            if idx == control:
                raise SchemaError(f"{path}/{c.id}: the control port has no inner Inport")
            if idx in in_seen:
                raise ResolutionError(f"{path}: in-port {idx} has two Inports "
                                      f"({in_seen[idx]!r}, {c.id!r})")
            in_seen[idx] = c.id
            if c.out_ports[0] != sub.in_ports[idx]:
                raise SignalTypeError(f"{path}/{c.id}: spec {c.out_ports[0]} does not match "
                                      f"subsystem in-port {idx} {sub.in_ports[idx]}")
        elif c.kind == "Outport":
            idx = c.params.get("index", 0)
            if idx >= len(sub.out_ports):
                raise ResolutionError(f"{path}/{c.id}: index {idx} exceeds the out-port list")
            if idx in out_seen:
                raise ResolutionError(f"{path}: out-port {idx} has two Outports "
                                      f"({out_seen[idx]!r}, {c.id!r})")
            out_seen[idx] = c.id
            if c.in_ports[0] != sub.out_ports[idx]:
                raise SignalTypeError(f"{path}/{c.id}: spec {c.in_ports[0]} does not match "
                                      f"subsystem out-port {idx} {sub.out_ports[idx]}")
    missing = set(range(len(sub.out_ports))) - set(out_seen)
    if missing:
        raise ResolutionError(f"{path}: out-ports {sorted(missing)} lack inner Outports")


def _check_kinds(sub: Block, path: str, data_stores: list[str]):
    for c in sub.children:
        here = f"{path}/{c.id}" if path else c.id
        kind = kinds.KINDS.get(c.kind)
        if kind is None:
            continue  # validator reports UnsupportedBlock
        n_in, n_out = kind.arity(c.params)
        if n_in is not None and len(c.in_ports) != n_in:
            raise SchemaError(f"{here}: {c.kind} takes {n_in} inputs, has {len(c.in_ports)}")
        if n_out is not None and len(c.out_ports) != n_out:
            raise SchemaError(f"{here}: {c.kind} takes {n_out} outputs, has {len(c.out_ports)}")
        probs = kind.check(c.params, c.in_ports, c.out_ports)
        if probs:
            raise SchemaError(f"{here}: " + "; ".join(probs))
        c.params = kind.canon_params(c.params, c.in_ports, c.out_ports)
        if c.kind in ("DataStoreWrite", "DataStoreRead", "DataStoreMemory"):
            if c.params["store"] not in data_stores:
                raise ResolutionError(f"{here}: store {c.params['store']!r} is not declared "
                                      f"in data_stores")
        if c.is_subsystem():
            _check_scope(c, here)
            _check_kinds(c, here, data_stores)  # canonicalize inner params first
            _check_boundary(c, here, is_root=False)


def _resolve_sample_times(sub: Block, base: Fraction):
    """Forward propagation from drivers; whatever stays unresolved falls
    back to the solver base step."""
    by_id = {c.id: c for c in sub.children}
    changed = True
    while changed:
        changed = False
        for c in sub.children:
            if c.sample_time is not None:
                continue
            drivers = [by_id[conn.src[0]] for conn in sub.connections if conn.dst[0] == c.id]
            known = [d.period for d in drivers if d.sample_time is not None]
            if known and len(known) == len(drivers):
                c.sample_time = SampleTime(min(known))
                changed = True
    for c in sub.children:
        if c.sample_time is None:
            c.sample_time = SampleTime(base)
    for c in sub.children:
        if not c.is_subsystem():
            continue
        # An inner Inport is driven by the outer signal feeding that port.
        for conn in sub.connections:
            if conn.dst[0] != c.id:
                continue
            for inner in c.children:
                if (inner.kind == "Inport" and inner.sample_time is None
                        and inner.params.get("index") == conn.dst[1]):
                    inner.sample_time = SampleTime(by_id[conn.src[0]].period)
        _resolve_sample_times(c, base)


def load_model(doc: dict) -> BlockModel:
    """Build a BlockModel from a parsed JSON document."""
    _require_fields(doc, "model", ("name", "base_step", "root"), ("data_stores",))
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise SchemaError("model.name must be a non-empty string")
    base = _parse_rational(doc["base_step"], "model.base_step")

    stores = doc.get("data_stores", [])
    if not isinstance(stores, list) or any(not isinstance(s, str) or not s for s in stores):
        raise SchemaError("model.data_stores must be a list of names")
    if len(set(stores)) != len(stores):
        raise SchemaError("model.data_stores contains duplicates")

    root = _parse_block(doc["root"], "")
    if root.kind != "Subsystem" or root.mode() != "normal":
        raise SchemaError("model.root must be a normal Subsystem")

    _check_scope(root, root.id)
    _check_kinds(root, "", list(stores))
    _check_boundary(root, root.id, is_root=True)
    if root.sample_time is None:
        root.sample_time = SampleTime(base)
    _resolve_sample_times(root, base)
    return BlockModel(name, base, list(stores), root)


def load_model_file(path) -> BlockModel:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(json.load(fh))


# ---------------------------------------------------------------------------
# Saving


def _token_json(v):
    return list(v) if isinstance(v, tuple) else v


def _params_json(b: Block) -> dict:
    out = {}
    for k, v in sorted(b.params.items()):
        out[k] = _token_json(v)
    if b.kind == "Chart":
        out["outputs"] = {s: [_token_json(t) for t in row]
                          for s, row in sorted(b.params["outputs"].items())}
    return out


def _block_json(b: Block) -> dict:
    obj = {"id": b.id, "kind": b.kind, "params": _params_json(b)}
    obj["sample_time"] = b.sample_time.to_json() if b.sample_time else None
    obj["ports"] = {"in": [{"dtype": s.dtype, "width": s.width} for s in b.in_ports],
                    "out": [{"dtype": s.dtype, "width": s.width} for s in b.out_ports]}
    if b.is_subsystem():
        obj["children"] = [_block_json(c) for c in b.children]
        obj["connections"] = [
            {"src": list(c.src), "dst": list(c.dst), "dtype": c.spec.dtype, "width": c.spec.width}
            for c in b.connections]
    return obj


def save_model(m: BlockModel) -> dict:
    """Inverse of load_model up to canonicalization: load(save(m)) == m."""
    return {
        "name": m.name,
        "base_step": {"num": m.base_step.numerator, "den": m.base_step.denominator},
        "data_stores": list(m.data_stores),
        "root": _block_json(m.root),
    }


def dump_model_file(m: BlockModel, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(save_model(m), fh, indent=2, sort_keys=True)
        fh.write("\n")

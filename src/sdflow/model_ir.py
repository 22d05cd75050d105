"""Block-diagram model IR and its JSON document form.

The document schema is deliberately rigid: unknown fields are rejected,
connection endpoints must resolve, and every literal is coerced to its
canonical runtime type at load so that every later stage (and the C
emitter) sees identical values.

Invariants held by a loaded BlockModel:
  * sibling block ids are unique; source ids never contain '/' (the
    flattener uses '/' to path-qualify dissolved scopes), ',' (the trace
    CSV separator) or non-printable characters
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

    def port_index(self) -> int:
        """An Inport or Outport's number: its `index`, 0 when omitted."""
        return self.params.get("index", 0)


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


def _fields(required: tuple, optional: tuple = ()):
    """A rule for _require_fields: required names in order and as a set, and all allowed."""
    return required, frozenset(required), frozenset(required + optional)


_MODEL = _fields(("name", "base_step", "root"), ("data_stores",))
_BLOCK = _fields(("id", "kind"), ("params", "sample_time", "ports", "children", "connections"))
_PORTS = _fields((), ("in", "out"))
_RATIONAL = _fields(("num", "den"))
_SPEC = _fields(("dtype", "width"))
_CONNECTION = _fields(("src", "dst", "dtype", "width"))


def _at(where) -> str:
    """A location: a string, or a tuple of parts joined only for an error."""
    return where if isinstance(where, str) else "".join(map(str, where))


def _require_fields(obj, where, fields):
    order, required, allowed = fields
    if isinstance(obj, dict) and allowed.issuperset(obj) and obj.keys() >= required:
        return
    if not isinstance(obj, dict):
        raise SchemaError(f"{_at(where)}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"{_at(where)}: unknown fields {sorted(unknown)}")
    raise SchemaError(f"{_at(where)}: missing fields {[f for f in order if f not in obj]}")


def _parse_period(obj, where, shared: dict) -> SampleTime:
    _require_fields(obj, where, _RATIONAL)
    num, den = obj["num"], obj["den"]
    for label, v in (("num", num), ("den", den)):
        if isinstance(v, bool) or not isinstance(v, int):
            raise SchemaError(f"{_at(where)}.{label}: expected an integer")
    if den <= 0 or num <= 0:
        raise SchemaError(f"{_at(where)}: period must be positive")
    return shared.get((num, den)) or shared.setdefault((num, den),
                                                       SampleTime(Fraction(num, den)))


def _parse_spec(obj, where, shared: dict, fields=_SPEC) -> SignalSpec:
    """A port's spec, or with `fields` a connection's; one object per spec."""
    _require_fields(obj, where, fields)
    dtype, w = obj["dtype"], obj["width"]
    if dtype not in kinds.DTYPES:
        raise SchemaError(f"{_at(where)}: dtype must be one of {kinds.DTYPES}")
    if isinstance(w, bool) or not isinstance(w, int) or w < 1:
        raise SchemaError(f"{_at(where)}: width must be an integer >= 1")
    return shared.get((dtype, w)) or shared.setdefault((dtype, w), SignalSpec(dtype, w))


def _list(obj: dict, key: str, where) -> list:
    if isinstance(v := obj.get(key, []), list):
        return v
    raise SchemaError(f"{_at(where)}.{key}: expected a list, got {type(v).__name__}")


def _parse_endpoint(obj, where) -> tuple[str, int]:
    if (not isinstance(obj, list) or len(obj) != 2 or not isinstance(obj[0], str)
            or isinstance(obj[1], bool) or not isinstance(obj[1], int) or obj[1] < 0):
        raise SchemaError(f"{_at(where)}: endpoint must be [block_id, port_index]")
    return obj[0], obj[1]


# Subsystems may nest at most this many levels below the root.  The later
# stages walk the hierarchy recursively; 256 levels leave them headroom
# under Python's default recursion limit.
MAX_NESTING = 256


def _check_name(v, label: str, also: str = "") -> None:
    """Refuse `v` unless it is a non-empty string with no '/', none of the
    characters in `also` and no non-printable character: block ids and the
    model name reach paths, CSV rows and C string literals verbatim."""
    if not isinstance(v, str) or not v:
        raise SchemaError(f"{label} must be a non-empty string")
    if "/" in v:
        raise SchemaError(f"{label} {v!r} may not contain '/'")
    if any(ch in v for ch in also) or not v.isprintable():
        raise SchemaError(f"{label} {v!r} may not contain "
                          + "".join(f"{ch!r} or " for ch in also) + "control characters")


def _parse_block(obj, where: str, depth: int, shared: dict) -> Block:
    """One block and its subtree; `shared` holds this load's SignalSpec
    and SampleTime values by their fields, so blocks share equal ones."""
    _require_fields(obj, where, _BLOCK)
    bid = obj["id"]
    _check_name(bid, f"{where}: id", ",")
    kind = obj["kind"]
    if not isinstance(kind, str) or not kind:
        raise SchemaError(f"{where}: kind must be a non-empty string")
    here = f"{where}/{bid}" if where else bid
    if depth > MAX_NESTING and kind == "Subsystem":
        raise SchemaError(f"{here}: subsystems nest more than {MAX_NESTING} levels deep")

    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError(f"{here}: params must be an object")

    raw = obj.get("sample_time")
    st = None if raw is None else _parse_period(raw, (here, ".sample_time"), shared)

    ports = obj.get("ports", {})
    _require_fields(ports, (here, ".ports"), _PORTS)
    in_ports, out_ports = ([_parse_spec(p, (here, ".ports.", d, "[", i, "]"), shared) for i, p
                            in enumerate(_list(ports, d, (here, ".ports")))] for d in ("in", "out"))

    children = [_parse_block(c, here, depth + 1, shared) for c in _list(obj, "children", here)]
    raw_conns = _list(obj, "connections", here)
    if (children or raw_conns) and kind != "Subsystem":
        raise SchemaError(f"{here}: only Subsystem blocks may carry children/connections")

    conns = []
    for i, c in enumerate(raw_conns):
        cw = (here, ".connections[", i, "]")
        spec = _parse_spec(c, cw, shared, _CONNECTION)
        conns.append(Connection(_parse_endpoint(c["src"], (*cw, ".src")),
                                _parse_endpoint(c["dst"], (*cw, ".dst")), spec))

    return Block(bid, kind, dict(params), st, in_ports, out_ports, children, conns)


def _check_scope(sub: Block, path: str):
    """Sibling-level structural checks for one subsystem's diagram."""
    by_id: dict[str, Block] = {}
    for c in sub.children:
        if by_id.setdefault(c.id, c) is not c:
            raise ResolutionError(f"{path}: duplicate block id {c.id!r}")
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
    seen: dict[str, dict[int, str]] = {"Inport": {}, "Outport": {}}
    for c in sub.children:
        if c.kind not in seen:
            continue
        side, spec, specs = (("in", c.out_ports[0], sub.in_ports) if c.kind == "Inport"
                             else ("out", c.in_ports[0], sub.out_ports))
        idx = c.port_index()
        if idx >= len(specs):
            raise ResolutionError(f"{path}/{c.id}: index {idx} exceeds the {side}-port list")
        if side == "in" and idx == control:
            raise SchemaError(f"{path}/{c.id}: the control port has no inner Inport")
        if idx in seen[c.kind]:
            raise ResolutionError(f"{path}: {side}-port {idx} has two {c.kind}s "
                                  f"({seen[c.kind][idx]!r}, {c.id!r})")
        seen[c.kind][idx] = c.id
        if spec != specs[idx]:
            raise SignalTypeError(f"{path}/{c.id}: spec {spec} does not match "
                                  f"subsystem {side}-port {idx} {specs[idx]}")
    missing = set(range(len(sub.out_ports))) - set(seen["Outport"])
    if missing:
        raise ResolutionError(f"{path}: out-ports {sorted(missing)} lack inner Outports")


def _check_kinds(sub: Block, path: str, data_stores: list[str]):
    for c in sub.children:
        here = f"{path}/{c.id}" if path else c.id
        kind = kinds.KINDS.get(c.kind)
        if kind is None:
            continue  # validator reports UnsupportedBlock
        try:
            c.params = kind.canon_params(c.params, c.in_ports, c.out_ports)
        except SchemaError as e:
            raise SchemaError(f"{here}: {e}") from None
        if c.kind in ("DataStoreWrite", "DataStoreRead", "DataStoreMemory"):
            if c.params["store"] not in data_stores:
                raise ResolutionError(f"{here}: store {c.params['store']!r} is not declared "
                                      f"in data_stores")
        if c.is_subsystem():
            _check_scope(c, here)
            _check_kinds(c, here, data_stores)  # canonicalize inner params first
            _check_boundary(c, here, is_root=False)


def _resolve_sample_times(sub: Block, base: Fraction):
    """Forward propagation from drivers: a block without a sample time takes
    the fastest period of its drivers once every one of them is known;
    whatever stays unresolved falls back to the solver base step.  A
    worklist visits each connection once."""
    by_id = {c.id: c for c in sub.children}
    # the drivers and consumers of each block without a sample time
    drivers: dict[str, list[Block]] = {c.id: [] for c in sub.children if c.sample_time is None}
    consumers: dict[str, list[Block]] = {bid: [] for bid in drivers}
    for conn in sub.connections:
        if conn.dst[0] in drivers:
            drivers[conn.dst[0]].append(by_id[conn.src[0]])
        if conn.src[0] in consumers:
            consumers[conn.src[0]].append(by_id[conn.dst[0]])
    # each of them with drivers -> how many of those are unknown
    waiting = {bid: sum(d.sample_time is None for d in ds) for bid, ds in drivers.items() if ds}
    ready = [by_id[bid] for bid, n in waiting.items() if n == 0]
    while ready:
        c = ready.pop()
        c.sample_time = SampleTime(min(d.period for d in drivers[c.id]))
        for d in consumers[c.id]:
            if d.sample_time is None:
                waiting[d.id] -= 1
                if waiting[d.id] == 0:
                    ready.append(d)
    for bid in drivers:
        if by_id[bid].sample_time is None:
            by_id[bid].sample_time = SampleTime(base)
    # An inner Inport is driven by the outer signal feeding that port.
    inports = {c.id: {i.port_index(): i for i in c.children if i.kind == "Inport"}
               for c in sub.children if c.is_subsystem()}
    for conn in sub.connections:
        if conn.dst[0] in inports:
            inner = inports[conn.dst[0]].get(conn.dst[1])
            if inner is not None and inner.sample_time is None:
                inner.sample_time = SampleTime(by_id[conn.src[0]].period)
    for bid in inports:
        _resolve_sample_times(by_id[bid], base)


def load_model(doc: dict) -> BlockModel:
    """Build a BlockModel from a parsed JSON document."""
    _require_fields(doc, "model", _MODEL)
    name = doc["name"]
    _check_name(name, "model.name")
    shared: dict = {}
    base = _parse_period(doc["base_step"], "model.base_step", shared).period

    stores = doc.get("data_stores", [])
    if not isinstance(stores, list) or any(not isinstance(s, str) or not s for s in stores):
        raise SchemaError("model.data_stores must be a list of names")
    if len(set(stores)) != len(stores):
        raise SchemaError("model.data_stores contains duplicates")

    root = _parse_block(doc["root"], "", 0, shared)
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
        try:
            doc = json.load(fh)
        except json.JSONDecodeError:
            raise
        except ValueError as e:  # not UTF-8, or an integer literal too long to parse
            raise SchemaError(f"{path}: {e}") from None
        except RecursionError:
            raise SchemaError(f"{path}: JSON nested too deeply to parse") from None
    return load_model(doc)


# ---------------------------------------------------------------------------
# Saving


def _block_json(b: Block) -> dict:
    obj = {"id": b.id, "kind": b.kind, "params": kinds.json_value(b.params)}
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

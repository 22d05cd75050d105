"""Closed block vocabulary: arity rules, parameter checks, step semantics.

One implementation of each block's arithmetic lives here and is shared by
the block-diagram interpreter and the dataflow interpreter; the C emitter
mirrors the same operation order statement for statement.  Keeping a single
definition is what makes trace comparison at zero tolerance meaningful.
Each engine binds every block instance once per run (Kind.bind) and then
calls only the closures that bind returns.

Tokens are plain Python values: a scalar for width 1, a tuple for wider
signals.  f64 tokens are floats, i32 tokens are ints wrapped to 32 bits,
bool tokens are bools.  json_value is the one JSON form of a canonical
value (tuples become lists), used by both savers and Trace.to_json.
"""

from __future__ import annotations

import operator

from .errors import SchemaError

DTYPES = ("f64", "i32", "bool")

RELOPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
          ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
LOGICOPS = ("AND", "OR", "XOR", "NAND", "NOR", "NOT")

# Kinds that are pure wiring: they vanish during routing removal and are
# resolved structurally by the interpreters, never executed.
ROUTING_KINDS = ("Goto", "From", "DataStoreWrite", "DataStoreRead",
                 "BusCreator", "BusSelector")

SUBSYSTEM_MODES = ("normal", "triggered", "enabled")


def wrap32(v: int) -> int:
    """Reduce an unbounded int to two's-complement 32-bit range."""
    return ((int(v) + 0x80000000) & 0xFFFFFFFF) - 0x80000000


def trunc_div32(a: int, b: int) -> int:
    # C99 integer division truncates toward zero; Python // floors.
    q = abs(a) // abs(b)
    return wrap32(-q if (a < 0) != (b < 0) else q)


def truth(v) -> bool:
    """Control predicate for enable signals: bool as-is, numeric when > 0."""
    if isinstance(v, bool):
        return v
    return v > 0


def zero_token(dtype: str, width: int):
    z = {"f64": 0.0, "i32": 0, "bool": False}[dtype]
    return z if width == 1 else (z,) * width


def canon_scalar(dtype: str, v):
    """Coerce one JSON literal to its canonical runtime type, or raise."""
    if dtype == "f64":
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(f"expected f64 literal, got {v!r}")
        try:
            return float(v)
        except OverflowError:  # an int beyond the double range
            raise SchemaError(f"f64 literal out of range: {v!r}") from None
    if dtype == "i32":
        if isinstance(v, bool) or not isinstance(v, int):
            raise SchemaError(f"expected i32 literal, got {v!r}")
        if wrap32(v) != v:
            raise SchemaError(f"i32 literal out of range: {v!r}")
        return v
    if dtype == "bool":
        if not isinstance(v, bool):
            raise SchemaError(f"expected bool literal, got {v!r}")
        return v
    raise SchemaError(f"unknown dtype {dtype!r}")


def canon_token(dtype: str, width: int, v):
    """Coerce a JSON literal (scalar or list) to a canonical token.
    Accepts already-canonical tuples too, so the coercion is idempotent."""
    if width == 1:
        if isinstance(v, (list, tuple)):
            if len(v) != 1:
                raise SchemaError(f"width-1 literal has {len(v)} elements")
            v = v[0]
        return canon_scalar(dtype, v)
    if not isinstance(v, (list, tuple)) or len(v) != width:
        raise SchemaError(f"expected list of {width} literals, got {v!r}")
    return tuple(canon_scalar(dtype, x) for x in v)


def json_value(v):
    """The JSON form of a canonical value: tuples become lists, at any depth."""
    if isinstance(v, (tuple, list)):
        return [json_value(x) for x in v]
    if isinstance(v, dict):
        return {k: json_value(x) for k, x in v.items()}
    return v


def token_elems(v, width: int):
    return (v,) if width == 1 else tuple(v)


def _lift(width: int, f):
    """f over elements, lifted to tokens of `width`."""
    if width == 1:
        return f
    return lambda *tokens: tuple(map(f, *tokens))


def _stateless(out_specs, output):
    """bind's result for a kind without state: zero outputs until the first
    enabled firing."""
    return None, [zero_token(d, w) for d, w in out_specs], output, None


def _register(initial, written: bool):
    """bind's result for a one-token register: it outputs its state and
    latches its input, when it has one."""
    return (initial, [initial], lambda state, ins: [state],
            (lambda state, ins: ins[0]) if written else None)


# ---------------------------------------------------------------------------
# Kind table


def _nat(v) -> bool:
    """A JSON non-negative integer (bools are not integers here)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _one_of(v, names) -> bool:
    return isinstance(v, str) and v in names


class Kind:
    """One entry of the vocabulary.

    feedthrough  output at tick t depends on inputs at tick t
    n_in/n_out   fixed arity, or None when parameter-dependent
    keys         the params a block of this kind may carry
    keep         which token a dataflow firing that reads several tokens
                 from one channel keeps: 0 the first, -1 the last

    canon_params gates a block's params at load; bind turns one block
    instance into the functions an engine runs.
    """

    name = "?"
    feedthrough = True
    n_in: int | None = 0
    n_out: int | None = 1
    keys: tuple[str, ...] = ()
    keep = 0

    def arity(self, params) -> tuple[int | None, int | None]:
        return self.n_in, self.n_out

    def canon_params(self, params, in_specs, out_specs) -> dict:
        """The one gate for a block's arity and params, run by both loaders.
        Returns the canonical params, or raises one SchemaError listing every
        problem found; the loader attaches the block path."""
        n_in, n_out = self.arity(params)
        if n_in is not None and len(in_specs) != n_in:
            raise SchemaError(f"{self.name} takes {n_in} inputs, has {len(in_specs)}")
        if n_out is not None and len(out_specs) != n_out:
            raise SchemaError(f"{self.name} takes {n_out} outputs, has {len(out_specs)}")
        probs: list[str] = []
        canon = self._canon(params, in_specs, out_specs, probs)
        extra = set(params) - set(self.keys)
        if canon is not None and extra:
            probs.append(f"unknown {self.name} params {sorted(extra)}")
        if probs:
            raise SchemaError("; ".join(probs))
        return canon

    def _canon(self, params, in_specs, out_specs, probs: list) -> dict | None:
        """Append each problem to probs and return the canonical params, or
        None when a problem leaves nothing further worth checking."""
        return dict(params)

    def _param(self, params, key, probs: list, parse, *spec):
        """parse(*spec, params[key]), or None once the problem is noted."""
        if key not in params:
            probs.append(f"{self.name} requires params.{key}")
            return None
        try:
            return parse(*spec, params[key])
        except SchemaError as e:
            probs.append(f"{self.name} {key}: {e}")
            return None

    def bind(self, params, in_specs, out_specs) -> tuple:
        """One block instance, bound once per run: (initial state, outputs
        visible before the first enabled firing, output, update).

        output(state, ins) returns a firing's output list and update(state,
        ins) the next state; both close over the params and specs, and
        either is None where the kind has none.  Kinds the engines drive
        themselves (boundary ports, wiring, subsystems) have neither."""
        return _stateless(out_specs, None)


def _same_specs(specs):
    return all(s == specs[0] for s in specs[1:])


class _BoundaryPort(Kind):
    """Shared shape of Inport and Outport: an optional port index."""

    keys = ("index",)

    def _canon(self, params, in_specs, out_specs, probs):
        if not _nat(params.get("index", 0)):
            probs.append(f"{self.name} index must be a non-negative int")
        return dict(params)


class _Inport(_BoundaryPort):
    name = "Inport"
    n_in, n_out = 0, 1
    feedthrough = False


class _Outport(_BoundaryPort):
    name = "Outport"
    n_in, n_out = 1, 0


class _Constant(Kind):
    name = "Constant"
    n_in, n_out = 0, 1
    keys = ("value",)
    feedthrough = False  # source: no inputs to depend on

    def _canon(self, params, in_specs, out_specs, probs):
        value = self._param(params, "value", probs, canon_token, *out_specs[0])
        return None if probs else {"value": value}

    def bind(self, params, in_specs, out_specs):
        value = params["value"]
        return _stateless(out_specs, lambda state, ins: [value])


class _Gain(Kind):
    name = "Gain"
    n_in, n_out = 1, 1
    keys = ("gain",)

    def _canon(self, params, in_specs, out_specs, probs):
        if in_specs[0] != out_specs[0]:
            probs.append("Gain input and output specs must match")
        d = out_specs[0][0]
        gain = self._param(params, "gain", probs, canon_scalar, "i32" if d == "i32" else "f64")
        if d == "bool":
            probs.append("Gain is not defined on bool signals")
        return {"gain": gain}

    def bind(self, params, in_specs, out_specs):
        d, w = out_specs[0]
        g = params["gain"]
        f = _lift(w, (lambda u: wrap32(g * u)) if d == "i32" else (lambda u: g * u))
        return _stateless(out_specs, lambda state, ins: [f(ins[0])])


class _Fold(Kind):
    """Shared shape of Sum and Product: one input per symbol of the string
    param, all ports of one numeric SignalSpec."""

    n_in, n_out = None, 1
    symbols = ""

    def arity(self, params):
        s = params.get(self.keys[0])
        return (len(s) if isinstance(s, str) else None), 1

    def _canon(self, params, in_specs, out_specs, probs):
        s = params.get(self.keys[0])
        if not isinstance(s, str) or not s or set(s) - set(self.symbols):
            probs.append(f"{self.name} requires params.{self.keys[0]}, "
                         f"a non-empty string over '{self.symbols}'")
            return None
        if not _same_specs(list(in_specs) + list(out_specs)):
            probs.append(f"{self.name} ports must share one SignalSpec")
        if out_specs[0][0] == "bool":
            probs.append(f"{self.name} is not defined on bool signals")
        return dict(params)


class _Sum(_Fold):
    name = "Sum"
    keys = ("signs",)
    symbols = "+-"

    def bind(self, params, in_specs, out_specs):
        d, w = out_specs[0]
        signs = params["signs"]
        if d == "i32":
            def one(*us):
                acc = 0
                for s, u in zip(signs, us):
                    acc = wrap32(acc + u) if s == "+" else wrap32(acc - u)
                return acc
        else:
            def one(*us):
                acc = 0.0
                for s, u in zip(signs, us):
                    acc = acc + u if s == "+" else acc - u
                return acc
        f = _lift(w, one)
        return _stateless(out_specs, lambda state, ins: [f(*ins)])


class _Product(_Fold):
    name = "Product"
    keys = ("ops",)
    symbols = "*/"

    def bind(self, params, in_specs, out_specs):
        d, w = out_specs[0]
        ops = params["ops"]
        if d == "i32":
            def one(*us):
                acc = 1
                for o, u in zip(ops, us):
                    acc = wrap32(acc * u) if o == "*" else trunc_div32(acc, u)
                return acc
        else:
            def one(*us):
                acc = 1.0
                for o, u in zip(ops, us):
                    acc = acc * u if o == "*" else acc / u
                return acc
        f = _lift(w, one)
        return _stateless(out_specs, lambda state, ins: [f(*ins)])


class _UnitDelay(Kind):
    name = "UnitDelay"
    n_in, n_out = 1, 1
    keys = ("initial",)
    feedthrough = False

    def _canon(self, params, in_specs, out_specs, probs):
        if in_specs[0] != out_specs[0]:
            probs.append("UnitDelay input and output specs must match")
        return {"initial": self._param(params, "initial", probs, canon_token, *out_specs[0])}

    def bind(self, params, in_specs, out_specs):
        return _register(params["initial"], True)


class _Saturation(Kind):
    name = "Saturation"
    n_in, n_out = 1, 1
    keys = ("lower", "upper")

    def _canon(self, params, in_specs, out_specs, probs):
        if in_specs[0] != out_specs[0]:
            probs.append("Saturation input and output specs must match")
        d = out_specs[0][0]
        if d == "bool":
            probs.append("Saturation is not defined on bool signals")
            return None
        sd = "i32" if d == "i32" else "f64"
        p = {key: self._param(params, key, probs, canon_scalar, sd) for key in self.keys}
        if not probs and p["lower"] > p["upper"]:
            probs.append("Saturation lower bound exceeds upper bound")
        return p

    def bind(self, params, in_specs, out_specs):
        lo, hi = params["lower"], params["upper"]

        def one(u):
            if u < lo:
                return lo
            if u > hi:
                return hi
            return u
        f = _lift(out_specs[0][1], one)
        return _stateless(out_specs, lambda state, ins: [f(ins[0])])


class _Switch(Kind):
    name = "Switch"
    n_in, n_out = 3, 1
    keys = ("threshold",)

    def _canon(self, params, in_specs, out_specs, probs):
        # Width agreement of the data inputs is deliberately not checked
        # here; that is the validator's fixed-output-size rule.
        return {"threshold": self._param(params, "threshold", probs, canon_scalar, "f64")}

    def bind(self, params, in_specs, out_specs):
        threshold = params["threshold"]
        return _stateless(out_specs,
                          lambda state, ins: [ins[0] if ins[1] >= threshold else ins[2]])


class _RelationalOp(Kind):
    name = "RelationalOp"
    n_in, n_out = 2, 1
    keys = ("op",)

    def _canon(self, params, in_specs, out_specs, probs):
        if not _one_of(params.get("op"), RELOPS):
            probs.append(f"RelationalOp op must be one of {tuple(RELOPS)}")
        if in_specs[0] != in_specs[1]:
            probs.append("RelationalOp inputs must share one SignalSpec")
        if out_specs[0][0] != "bool" or out_specs[0][1] != in_specs[0][1]:
            probs.append("RelationalOp output must be bool with the input width")
        return dict(params)

    def bind(self, params, in_specs, out_specs):
        f = _lift(out_specs[0][1], RELOPS[params["op"]])
        return _stateless(out_specs, lambda state, ins: [f(ins[0], ins[1])])


class _LogicalOp(Kind):
    name = "LogicalOp"
    n_in, n_out = None, 1
    keys = ("op", "inputs")

    def arity(self, params):
        if params.get("op") == "NOT":
            return 1, 1
        n = params.get("inputs", 2)
        return (n if isinstance(n, int) and not isinstance(n, bool) else None), 1

    def _canon(self, params, in_specs, out_specs, probs):
        op = params.get("op")
        if not _one_of(op, LOGICOPS):
            probs.append(f"LogicalOp op must be one of {LOGICOPS}")
            return None
        if op != "NOT" and len(in_specs) < 2:
            probs.append(f"LogicalOp {op} takes at least two inputs")
        if not _same_specs(list(in_specs) + list(out_specs)):
            probs.append("LogicalOp ports must share one SignalSpec")
        if out_specs[0][0] != "bool":
            probs.append("LogicalOp is defined on bool signals only")
        return {"op": op, "inputs": len(in_specs)}

    def bind(self, params, in_specs, out_specs):
        op = params["op"]

        def one(*us):
            if op in ("AND", "NAND"):
                acc = all(us)
            elif op in ("OR", "NOR"):
                acc = any(us)
            else:  # XOR
                acc = False
                for u in us:
                    acc = acc != u
            if op in ("NAND", "NOR"):
                acc = not acc
            return acc
        f = _lift(out_specs[0][1], operator.not_ if op == "NOT" else one)
        return _stateless(out_specs, lambda state, ins: [f(*ins)])


class _Lookup1D(Kind):
    name = "Lookup1D"
    n_in, n_out = 1, 1
    keys = ("breakpoints", "table")

    def _canon(self, params, in_specs, out_specs, probs):
        if in_specs[0][0] != "f64" or out_specs[0][0] != "f64":
            probs.append("Lookup1D is defined on f64 signals only")
        if in_specs[0][1] != out_specs[0][1]:
            probs.append("Lookup1D input and output widths must match")
        p = {}
        for key in self.keys:
            arr = params.get(key)
            if not isinstance(arr, list) or len(arr) < 2:
                probs.append(f"Lookup1D {key} must be a list of at least 2 numbers")
                return None
            try:
                p[key] = [canon_scalar("f64", x) for x in arr]
            except SchemaError as e:
                probs.append(f"Lookup1D {key}: {e}")
                return None
        bp = p["breakpoints"]
        if len(bp) != len(p["table"]):
            probs.append("Lookup1D breakpoints and table lengths differ")
        if any(not (bp[i] < bp[i + 1]) for i in range(len(bp) - 1)):
            probs.append("Lookup1D breakpoints must be strictly increasing")
        return p

    def bind(self, params, in_specs, out_specs):
        bp, tab = params["breakpoints"], params["table"]
        n = len(bp)

        def one(u):
            # Clamped linear interpolation; the C emitter replays this
            # exact scan and expression so doubles match bit for bit.
            if u <= bp[0]:
                return tab[0]
            if u >= bp[n - 1]:
                return tab[n - 1]
            i = 0
            while u >= bp[i + 1]:
                i += 1
            t = (u - bp[i]) / (bp[i + 1] - bp[i])
            return tab[i] + t * (tab[i + 1] - tab[i])
        f = _lift(out_specs[0][1], one)
        return _stateless(out_specs, lambda state, ins: [f(ins[0])])


class _Chart(Kind):
    """Opaque Moore machine over an explicit transition table.

    Outputs are a function of the current state alone; the transition is
    evaluated once per firing, after the outputs are produced, taking the
    first matching row in table order.
    """

    name = "Chart"
    n_in, n_out = None, None
    keys = ("states", "initial", "transitions", "outputs")
    feedthrough = False

    def arity(self, params):
        # inputs are declared by the port list; one output per row literal
        rows = params.get("outputs")
        row = next(iter(rows.values()), None) if isinstance(rows, dict) else None
        return None, (len(row) if isinstance(row, list) else None)

    def _canon(self, params, in_specs, out_specs, probs):
        states = params.get("states")
        if not isinstance(states, list) or not states or \
                any(not isinstance(s, str) for s in states) or len(set(states)) != len(states):
            probs.append("Chart requires params.states, a list of unique names")
            return None
        if params.get("initial") not in states:
            probs.append("Chart initial state must be one of params.states")
        trans = params.get("transitions", [])
        if not isinstance(trans, list):
            probs.append("Chart transitions must be a list")
            return None
        canon_trans = []
        for i, tr in enumerate(trans):
            if not isinstance(tr, dict):
                probs.append(f"Chart transition {i} must be an object")
                continue
            if tr.get("from") not in states or tr.get("to") not in states:
                probs.append(f"Chart transition {i} references an unknown state")
            if not _one_of(tr.get("op"), RELOPS):
                probs.append(f"Chart transition {i} op must be one of {tuple(RELOPS)}")
            inp, el, value = tr.get("input"), tr.get("element", 0), None
            if not (_nat(inp) and inp < len(in_specs)):
                probs.append(f"Chart transition {i} input index out of range")
            elif not (_nat(el) and el < in_specs[inp][1]):
                probs.append(f"Chart transition {i} element index out of range")
            else:
                gd = "f64" if in_specs[inp][0] == "f64" else "i32"
                try:
                    value = canon_scalar(gd, tr.get("value"))
                except SchemaError as e:
                    probs.append(f"Chart transition {i} value: {e}")
            extra = set(tr) - {"from", "to", "input", "element", "op", "value"}
            if extra:
                probs.append(f"Chart transition {i} has unknown fields {sorted(extra)}")
            canon_trans.append({"from": tr.get("from"), "to": tr.get("to"), "input": inp,
                                "element": el, "op": tr.get("op"), "value": value})
        outs, canon_outs = params.get("outputs"), {}
        if not isinstance(outs, dict) or set(outs) != set(states):
            probs.append("Chart outputs must map every state to its output literals")
        else:
            for s, row in outs.items():
                if not isinstance(row, list) or len(row) != len(out_specs):
                    probs.append(f"Chart outputs[{s}] must list one literal per out port")
                    continue
                canon_outs[s] = []
                for j, lit in enumerate(row):
                    try:
                        canon_outs[s].append(canon_token(*out_specs[j], lit))
                    except SchemaError as e:
                        probs.append(f"Chart outputs[{s}][{j}]: {e}")
        return {"states": list(states), "initial": params.get("initial"),
                "transitions": canon_trans, "outputs": canon_outs}

    def bind(self, params, in_specs, out_specs):
        states = params["states"]
        rows = [params["outputs"][s] for s in states]
        # per state index, its transitions in table order: (input,
        # element, input width, test, value, target state index)
        moves = [[(tr["input"], tr["element"], in_specs[tr["input"]][1],
                   RELOPS[tr["op"]], tr["value"], states.index(tr["to"]))
                  for tr in params["transitions"] if tr["from"] == s] for s in states]

        def transition(state, ins):
            for inp, el, w, test, value, to in moves[state]:
                if test(ins[inp] if w == 1 else ins[inp][el], value):
                    return to
            return state
        init = states.index(params["initial"])
        return init, list(rows[init]), lambda state, ins: list(rows[state]), transition


class _RateTransition(Kind):
    """Period adapter.  In the block diagram it is a latch activating at the
    slow side's period; in the dataflow graph its ports carry the period
    ratio as a token rate, and a firing that reads several tokens keeps
    the last of them where every other kind keeps the first."""

    name = "RateTransition"
    n_in, n_out = 1, 1
    keep = -1
    keys = ("src_period", "dst_period")

    def _canon(self, params, in_specs, out_specs, probs):
        if in_specs[0] != out_specs[0]:
            probs.append("RateTransition input and output specs must match")
        return dict(params)

    def bind(self, params, in_specs, out_specs):
        return _stateless(out_specs, lambda state, ins: [ins[0]])


class _DataStoreMemory(Kind):
    """Named shared register.  Ports appear only after routing removal:
    the writer's driver feeds the single input, readers consume the single
    output.  A write becomes visible one tick later, which keeps the value
    independent of evaluation order."""

    name = "DataStoreMemory"
    n_in, n_out = None, None  # 0/0 before routing removal, 1/1 after
    keys = ("store", "initial")
    feedthrough = False

    def _canon(self, params, in_specs, out_specs, probs):
        if not isinstance(params.get("store"), str) or not params.get("store"):
            probs.append("DataStoreMemory requires params.store")
        if len(in_specs) not in (0, 1) or len(in_specs) != len(out_specs):
            probs.append("DataStoreMemory must have no ports, or one in and one out")
        elif in_specs and in_specs[0] != out_specs[0]:
            probs.append("DataStoreMemory input and output specs must match")
        initial = params.get("initial")
        if "initial" not in params:
            probs.append("DataStoreMemory requires params.initial")
        elif out_specs:
            initial = self._param(params, "initial", probs, canon_token, *out_specs[0])
        return {"store": params.get("store"), "initial": initial}

    def bind(self, params, in_specs, out_specs):
        # bound without an out-spec when nothing accesses the store: the
        # literal stays as written; without an in-spec nothing writes it
        initial = params["initial"]
        if out_specs:
            initial = canon_token(*out_specs[0], initial)
        return _register(initial, bool(in_specs))


class _TagParams(Kind):
    """Shared shape for the tag/store routing blocks: one name param."""

    def _canon(self, params, in_specs, out_specs, probs):
        key = self.keys[0]
        if not isinstance(params.get(key), str) or not params.get(key):
            probs.append(f"{self.name} requires params.{key}")
        return dict(params)


class _Goto(_TagParams):
    name, keys = "Goto", ("tag",)
    n_in, n_out = 1, 0


class _From(_TagParams):
    name, keys = "From", ("tag",)
    n_in, n_out = 0, 1
    feedthrough = False


class _DataStoreWrite(_TagParams):
    name, keys = "DataStoreWrite", ("store",)
    n_in, n_out = 1, 0


class _DataStoreRead(_TagParams):
    name, keys = "DataStoreRead", ("store",)
    n_in, n_out = 0, 1
    feedthrough = False


class _BusCreator(Kind):
    name = "BusCreator"
    n_in, n_out = None, 1

    def _canon(self, params, in_specs, out_specs, probs):
        if len(in_specs) < 1:
            probs.append("BusCreator needs at least one input")
        return dict(params)


class _BusSelector(Kind):
    name = "BusSelector"
    n_in, n_out = 1, None
    keys = ("indices",)
    feedthrough = False

    def _canon(self, params, in_specs, out_specs, probs):
        idx = params.get("indices")
        if idx is not None and (not isinstance(idx, list) or len(idx) != len(out_specs)
                                or not all(_nat(i) for i in idx)):
            probs.append("BusSelector indices must list one element index per output")
        return dict(params)


class _Subsystem(Kind):
    name = "Subsystem"
    n_in, n_out = None, None
    keys = ("mode", "control_port")

    def _canon(self, params, in_specs, out_specs, probs):
        p = {"mode": params.get("mode", "normal")}
        cp = params.get("control_port")
        if p["mode"] not in SUBSYSTEM_MODES:
            probs.append(f"Subsystem mode must be one of {SUBSYSTEM_MODES}")
        if p["mode"] in ("triggered", "enabled"):
            if not (_nat(cp) and cp < len(in_specs)):
                probs.append(f"{p['mode']} Subsystem requires params.control_port, "
                             "a valid in-port index")
            p["control_port"] = cp
        elif cp is not None:
            probs.append("control_port is only meaningful for triggered/enabled Subsystems")
        return p


KINDS: dict[str, Kind] = {k.name: k for k in (
    _Inport(), _Outport(), _Constant(), _Gain(), _Sum(), _Product(),
    _UnitDelay(), _Saturation(), _Switch(), _RelationalOp(), _LogicalOp(),
    _Lookup1D(), _Chart(), _RateTransition(), _DataStoreMemory(),
    _Goto(), _From(), _DataStoreWrite(), _DataStoreRead(),
    _BusCreator(), _BusSelector(), _Subsystem(),
)}

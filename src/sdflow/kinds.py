"""Closed block vocabulary: arity rules, parameter checks, step semantics.

One implementation of each block's arithmetic lives here and is shared by
the block-diagram interpreter and the dataflow interpreter; the C emitter
mirrors the same operation order statement for statement.  Keeping a single
definition is what makes trace comparison at zero tolerance meaningful.

Tokens are plain Python values: a scalar for width 1, a tuple for wider
signals.  f64 tokens are floats, i32 tokens are ints wrapped to 32 bits,
bool tokens are bools.
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
        return float(v)
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


def token_elems(v, width: int):
    return (v,) if width == 1 else tuple(v)


def _each(width: int, f, *tokens):
    if width == 1:
        return f(*tokens)
    return tuple(f(*(t[i] for t in tokens)) for i in range(width))


# ---------------------------------------------------------------------------
# Kind table


class Kind:
    """One entry of the vocabulary.

    feedthrough  output at tick t depends on inputs at tick t
    stateful     carries state between firings (two-phase evaluation)
    n_in/n_out   fixed arity, or None when parameter-dependent
    """

    name = "?"
    feedthrough = True
    stateful = False
    n_in: int | None = 0
    n_out: int | None = 1

    def arity(self, params) -> tuple[int | None, int | None]:
        return self.n_in, self.n_out

    def check(self, params, in_specs, out_specs) -> list[str]:
        """Return problem strings; loader attaches the block path."""
        return []

    def canon_params(self, params, in_specs, out_specs) -> dict:
        return dict(params)

    def init_state(self, params, in_specs, out_specs):
        return None

    def initial_output(self, params, in_specs, out_specs) -> list:
        """Outputs visible before the first enabled firing."""
        return [zero_token(d, w) for d, w in out_specs]

    def output(self, params, in_specs, out_specs, state, ins) -> list:
        raise NotImplementedError(self.name)

    def update(self, params, in_specs, out_specs, state, ins):
        return state


def _same_specs(specs):
    return all(s == specs[0] for s in specs[1:])


class _Inport(Kind):
    name = "Inport"
    n_in, n_out = 0, 1
    feedthrough = False

    def check(self, params, in_specs, out_specs):
        probs = []
        idx = params.get("index")
        if idx is not None and (isinstance(idx, bool) or not isinstance(idx, int) or idx < 0):
            probs.append("Inport index must be a non-negative int")
        if set(params) - {"index"}:
            probs.append(f"unknown Inport params {sorted(set(params) - {'index'})}")
        return probs

    # Output is supplied by the engine (stimulus or boundary injection).
    def output(self, params, in_specs, out_specs, state, ins):
        raise AssertionError("Inport is driven by the engine")


class _Outport(Kind):
    name = "Outport"
    n_in, n_out = 1, 0

    def check(self, params, in_specs, out_specs):
        probs = []
        idx = params.get("index")
        if idx is not None and (isinstance(idx, bool) or not isinstance(idx, int) or idx < 0):
            probs.append("Outport index must be a non-negative int")
        if set(params) - {"index"}:
            probs.append(f"unknown Outport params {sorted(set(params) - {'index'})}")
        return probs

    def output(self, params, in_specs, out_specs, state, ins):
        return []


class _Constant(Kind):
    name = "Constant"
    n_in, n_out = 0, 1
    feedthrough = False  # source: no inputs to depend on

    def check(self, params, in_specs, out_specs):
        if "value" not in params:
            return ["Constant requires params.value"]
        try:
            canon_token(out_specs[0][0], out_specs[0][1], params["value"])
        except SchemaError as e:
            return [f"Constant value: {e}"]
        if set(params) - {"value"}:
            return [f"unknown Constant params {sorted(set(params) - {'value'})}"]
        return []

    def canon_params(self, params, in_specs, out_specs):
        d, w = out_specs[0]
        return {"value": canon_token(d, w, params["value"])}

    def output(self, params, in_specs, out_specs, state, ins):
        return [params["value"]]


class _Gain(Kind):
    name = "Gain"
    n_in, n_out = 1, 1

    def check(self, params, in_specs, out_specs):
        probs = []
        if in_specs[0] != out_specs[0]:
            probs.append("Gain input and output specs must match")
        d = out_specs[0][0]
        if "gain" not in params:
            probs.append("Gain requires params.gain")
        else:
            try:
                canon_scalar("i32" if d == "i32" else "f64", params["gain"])
            except SchemaError as e:
                probs.append(f"Gain gain: {e}")
        if d == "bool":
            probs.append("Gain is not defined on bool signals")
        if set(params) - {"gain"}:
            probs.append(f"unknown Gain params {sorted(set(params) - {'gain'})}")
        return probs

    def canon_params(self, params, in_specs, out_specs):
        d = out_specs[0][0]
        return {"gain": canon_scalar("i32" if d == "i32" else "f64", params["gain"])}

    def output(self, params, in_specs, out_specs, state, ins):
        d, w = out_specs[0]
        g = params["gain"]
        if d == "i32":
            return [_each(w, lambda u: wrap32(g * u), ins[0])]
        return [_each(w, lambda u: g * u, ins[0])]


class _Sum(Kind):
    name = "Sum"
    n_in, n_out = None, 1

    def arity(self, params):
        signs = params.get("signs")
        return (len(signs) if isinstance(signs, str) else None), 1

    def check(self, params, in_specs, out_specs):
        probs = []
        signs = params.get("signs")
        if not isinstance(signs, str) or not signs or set(signs) - set("+-"):
            probs.append("Sum requires params.signs, a non-empty string over '+-'")
            return probs
        if len(signs) != len(in_specs):
            probs.append(f"Sum has {len(in_specs)} inputs but {len(signs)} signs")
        if not _same_specs(list(in_specs) + list(out_specs)):
            probs.append("Sum ports must share one SignalSpec")
        if out_specs[0][0] == "bool":
            probs.append("Sum is not defined on bool signals")
        if set(params) - {"signs"}:
            probs.append(f"unknown Sum params {sorted(set(params) - {'signs'})}")
        return probs

    def output(self, params, in_specs, out_specs, state, ins):
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
        return [_each(w, one, *ins)]


class _Product(Kind):
    name = "Product"
    n_in, n_out = None, 1

    def arity(self, params):
        ops = params.get("ops")
        return (len(ops) if isinstance(ops, str) else None), 1

    def check(self, params, in_specs, out_specs):
        probs = []
        ops = params.get("ops")
        if not isinstance(ops, str) or not ops or set(ops) - set("*/"):
            probs.append("Product requires params.ops, a non-empty string over '*/'")
            return probs
        if len(ops) != len(in_specs):
            probs.append(f"Product has {len(in_specs)} inputs but {len(ops)} ops")
        if not _same_specs(list(in_specs) + list(out_specs)):
            probs.append("Product ports must share one SignalSpec")
        if out_specs[0][0] == "bool":
            probs.append("Product is not defined on bool signals")
        if set(params) - {"ops"}:
            probs.append(f"unknown Product params {sorted(set(params) - {'ops'})}")
        return probs

    def output(self, params, in_specs, out_specs, state, ins):
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
        return [_each(w, one, *ins)]


class _UnitDelay(Kind):
    name = "UnitDelay"
    n_in, n_out = 1, 1
    feedthrough = False
    stateful = True

    def check(self, params, in_specs, out_specs):
        probs = []
        if in_specs[0] != out_specs[0]:
            probs.append("UnitDelay input and output specs must match")
        if "initial" not in params:
            probs.append("UnitDelay requires params.initial")
        else:
            try:
                canon_token(out_specs[0][0], out_specs[0][1], params["initial"])
            except SchemaError as e:
                probs.append(f"UnitDelay initial: {e}")
        if set(params) - {"initial"}:
            probs.append(f"unknown UnitDelay params {sorted(set(params) - {'initial'})}")
        return probs

    def canon_params(self, params, in_specs, out_specs):
        d, w = out_specs[0]
        return {"initial": canon_token(d, w, params["initial"])}

    def init_state(self, params, in_specs, out_specs):
        return params["initial"]

    def initial_output(self, params, in_specs, out_specs):
        return [params["initial"]]

    def output(self, params, in_specs, out_specs, state, ins):
        return [state]

    def update(self, params, in_specs, out_specs, state, ins):
        return ins[0]


class _Saturation(Kind):
    name = "Saturation"
    n_in, n_out = 1, 1

    def check(self, params, in_specs, out_specs):
        probs = []
        if in_specs[0] != out_specs[0]:
            probs.append("Saturation input and output specs must match")
        d = out_specs[0][0]
        if d == "bool":
            probs.append("Saturation is not defined on bool signals")
            return probs
        sd = "i32" if d == "i32" else "f64"
        for key in ("lower", "upper"):
            if key not in params:
                probs.append(f"Saturation requires params.{key}")
            else:
                try:
                    canon_scalar(sd, params[key])
                except SchemaError as e:
                    probs.append(f"Saturation {key}: {e}")
        if not probs and params["lower"] > params["upper"]:
            probs.append("Saturation lower bound exceeds upper bound")
        if set(params) - {"lower", "upper"}:
            probs.append(f"unknown Saturation params {sorted(set(params) - {'lower', 'upper'})}")
        return probs

    def canon_params(self, params, in_specs, out_specs):
        sd = "i32" if out_specs[0][0] == "i32" else "f64"
        return {"lower": canon_scalar(sd, params["lower"]),
                "upper": canon_scalar(sd, params["upper"])}

    def output(self, params, in_specs, out_specs, state, ins):
        lo, hi = params["lower"], params["upper"]

        def one(u):
            if u < lo:
                return lo
            if u > hi:
                return hi
            return u
        return [_each(out_specs[0][1], one, ins[0])]


class _Switch(Kind):
    name = "Switch"
    n_in, n_out = 3, 1

    def check(self, params, in_specs, out_specs):
        # Width agreement of the data inputs is deliberately not checked
        # here; that is the validator's fixed-output-size rule.
        probs = []
        if "threshold" not in params:
            probs.append("Switch requires params.threshold")
        else:
            try:
                canon_scalar("f64", params["threshold"])
            except SchemaError as e:
                probs.append(f"Switch threshold: {e}")
        if set(params) - {"threshold"}:
            probs.append(f"unknown Switch params {sorted(set(params) - {'threshold'})}")
        return probs

    def canon_params(self, params, in_specs, out_specs):
        return {"threshold": canon_scalar("f64", params["threshold"])}

    def output(self, params, in_specs, out_specs, state, ins):
        c = ins[1]
        taken = c >= params["threshold"]
        return [ins[0] if taken else ins[2]]


class _RelationalOp(Kind):
    name = "RelationalOp"
    n_in, n_out = 2, 1

    def check(self, params, in_specs, out_specs):
        probs = []
        if params.get("op") not in RELOPS:
            probs.append(f"RelationalOp op must be one of {tuple(RELOPS)}")
        if in_specs[0] != in_specs[1]:
            probs.append("RelationalOp inputs must share one SignalSpec")
        if out_specs[0][0] != "bool" or out_specs[0][1] != in_specs[0][1]:
            probs.append("RelationalOp output must be bool with the input width")
        if set(params) - {"op"}:
            probs.append(f"unknown RelationalOp params {sorted(set(params) - {'op'})}")
        return probs

    def output(self, params, in_specs, out_specs, state, ins):
        op = params["op"]
        return [_each(out_specs[0][1], RELOPS[op], ins[0], ins[1])]


class _LogicalOp(Kind):
    name = "LogicalOp"
    n_in, n_out = None, 1

    def arity(self, params):
        if params.get("op") == "NOT":
            return 1, 1
        n = params.get("inputs", 2)
        return (n if isinstance(n, int) and not isinstance(n, bool) else None), 1

    def check(self, params, in_specs, out_specs):
        probs = []
        op = params.get("op")
        if op not in LOGICOPS:
            probs.append(f"LogicalOp op must be one of {LOGICOPS}")
            return probs
        if op == "NOT" and len(in_specs) != 1:
            probs.append("LogicalOp NOT takes exactly one input")
        if op != "NOT" and len(in_specs) < 2:
            probs.append(f"LogicalOp {op} takes at least two inputs")
        if not _same_specs(list(in_specs) + list(out_specs)):
            probs.append("LogicalOp ports must share one SignalSpec")
        if out_specs[0][0] != "bool":
            probs.append("LogicalOp is defined on bool signals only")
        if set(params) - {"op", "inputs"}:
            probs.append(f"unknown LogicalOp params {sorted(set(params) - {'op', 'inputs'})}")
        return probs

    def canon_params(self, params, in_specs, out_specs):
        return {"op": params["op"], "inputs": len(in_specs)}

    def output(self, params, in_specs, out_specs, state, ins):
        op = params["op"]
        w = out_specs[0][1]
        if op == "NOT":
            return [_each(w, lambda u: not u, ins[0])]

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
        return [_each(w, one, *ins)]


class _Lookup1D(Kind):
    name = "Lookup1D"
    n_in, n_out = 1, 1

    def check(self, params, in_specs, out_specs):
        probs = []
        if in_specs[0][0] != "f64" or out_specs[0][0] != "f64":
            probs.append("Lookup1D is defined on f64 signals only")
        if in_specs[0][1] != out_specs[0][1]:
            probs.append("Lookup1D input and output widths must match")
        bp, tab = params.get("breakpoints"), params.get("table")
        for label, arr in (("breakpoints", bp), ("table", tab)):
            if not isinstance(arr, list) or len(arr) < 2:
                probs.append(f"Lookup1D {label} must be a list of at least 2 numbers")
                return probs
            try:
                [canon_scalar("f64", x) for x in arr]
            except SchemaError as e:
                probs.append(f"Lookup1D {label}: {e}")
                return probs
        if len(bp) != len(tab):
            probs.append("Lookup1D breakpoints and table lengths differ")
        if any(not (bp[i] < bp[i + 1]) for i in range(len(bp) - 1)):
            probs.append("Lookup1D breakpoints must be strictly increasing")
        if set(params) - {"breakpoints", "table"}:
            probs.append(f"unknown Lookup1D params {sorted(set(params) - {'breakpoints', 'table'})}")
        return probs

    def canon_params(self, params, in_specs, out_specs):
        return {"breakpoints": [canon_scalar("f64", x) for x in params["breakpoints"]],
                "table": [canon_scalar("f64", x) for x in params["table"]]}

    def output(self, params, in_specs, out_specs, state, ins):
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
        return [_each(out_specs[0][1], one, ins[0])]


class _Chart(Kind):
    """Opaque Moore machine over an explicit transition table.

    Outputs are a function of the current state alone; the transition is
    evaluated once per firing, after the outputs are produced, taking the
    first matching row in table order.
    """

    name = "Chart"
    n_in, n_out = None, None
    feedthrough = False
    stateful = True

    def arity(self, params):
        # inputs are declared by the port list; one output per row literal
        rows = params.get("outputs")
        row = next(iter(rows.values()), None) if isinstance(rows, dict) else None
        return None, (len(row) if isinstance(row, list) else None)

    def check(self, params, in_specs, out_specs):
        probs = []
        states = params.get("states")
        if not isinstance(states, list) or not states or \
                any(not isinstance(s, str) for s in states) or len(set(states)) != len(states):
            return ["Chart requires params.states, a list of unique names"]
        if params.get("initial") not in states:
            probs.append("Chart initial state must be one of params.states")
        trans = params.get("transitions", [])
        if not isinstance(trans, list):
            return ["Chart transitions must be a list"]
        for i, tr in enumerate(trans):
            if not isinstance(tr, dict):
                probs.append(f"Chart transition {i} must be an object")
                continue
            if tr.get("from") not in states or tr.get("to") not in states:
                probs.append(f"Chart transition {i} references an unknown state")
            if tr.get("op") not in RELOPS:
                probs.append(f"Chart transition {i} op must be one of {tuple(RELOPS)}")
            inp = tr.get("input")
            if not isinstance(inp, int) or isinstance(inp, bool) or not 0 <= inp < len(in_specs):
                probs.append(f"Chart transition {i} input index out of range")
            else:
                el = tr.get("element", 0)
                if not isinstance(el, int) or isinstance(el, bool) or not 0 <= el < in_specs[inp][1]:
                    probs.append(f"Chart transition {i} element index out of range")
                else:
                    gd = "f64" if in_specs[inp][0] == "f64" else "i32"
                    try:
                        canon_scalar(gd, tr.get("value"))
                    except SchemaError as e:
                        probs.append(f"Chart transition {i} value: {e}")
            extra = set(tr) - {"from", "to", "input", "element", "op", "value"}
            if extra:
                probs.append(f"Chart transition {i} has unknown fields {sorted(extra)}")
        outs = params.get("outputs")
        if not isinstance(outs, dict) or set(outs) != set(states):
            probs.append("Chart outputs must map every state to its output literals")
        else:
            for s, row in outs.items():
                if not isinstance(row, list) or len(row) != len(out_specs):
                    probs.append(f"Chart outputs[{s}] must list one literal per out port")
                    continue
                for j, lit in enumerate(row):
                    try:
                        canon_token(out_specs[j][0], out_specs[j][1], lit)
                    except SchemaError as e:
                        probs.append(f"Chart outputs[{s}][{j}]: {e}")
        extra = set(params) - {"states", "initial", "transitions", "outputs"}
        if extra:
            probs.append(f"unknown Chart params {sorted(extra)}")
        return probs

    def canon_params(self, params, in_specs, out_specs):
        out = {}
        for s, row in params["outputs"].items():
            out[s] = [canon_token(out_specs[j][0], out_specs[j][1], lit)
                      for j, lit in enumerate(row)]
        trans = []
        for tr in params.get("transitions", []):
            gd = "f64" if in_specs[tr["input"]][0] == "f64" else "i32"
            trans.append({"from": tr["from"], "to": tr["to"], "input": tr["input"],
                          "element": tr.get("element", 0), "op": tr["op"],
                          "value": canon_scalar(gd, tr["value"])})
        return {"states": list(params["states"]), "initial": params["initial"],
                "transitions": trans, "outputs": out}

    def init_state(self, params, in_specs, out_specs):
        return params["states"].index(params["initial"])

    def initial_output(self, params, in_specs, out_specs):
        return list(params["outputs"][params["initial"]])

    def output(self, params, in_specs, out_specs, state, ins):
        return list(params["outputs"][params["states"][state]])

    def update(self, params, in_specs, out_specs, state, ins):
        cur = params["states"][state]
        for tr in params["transitions"]:
            if tr["from"] != cur:
                continue
            u = token_elems(ins[tr["input"]], in_specs[tr["input"]][1])[tr["element"]]
            if RELOPS[tr["op"]](u, tr["value"]):
                return params["states"].index(tr["to"])
        return state


class _RateTransition(Kind):
    """Period adapter.  In the block diagram it is a latch activating at the
    slow side's period; in the dataflow graph its ports carry the period
    ratio as a token rate (the engines special-case it)."""

    name = "RateTransition"
    n_in, n_out = 1, 1

    def check(self, params, in_specs, out_specs):
        probs = []
        if in_specs[0] != out_specs[0]:
            probs.append("RateTransition input and output specs must match")
        extra = set(params) - {"src_period", "dst_period"}
        if extra:
            probs.append(f"unknown RateTransition params {sorted(extra)}")
        return probs

    def output(self, params, in_specs, out_specs, state, ins):
        return [ins[0]]


class _DataStoreMemory(Kind):
    """Named shared register.  Ports appear only after routing removal:
    the writer's driver feeds the single input, readers consume the single
    output.  A write becomes visible one tick later, which keeps the value
    independent of evaluation order."""

    name = "DataStoreMemory"
    n_in, n_out = None, None
    feedthrough = False
    stateful = True

    def arity(self, params):
        return None, None  # 0/0 before routing removal, 1/1 after

    def check(self, params, in_specs, out_specs):
        probs = []
        if not isinstance(params.get("store"), str) or not params.get("store"):
            probs.append("DataStoreMemory requires params.store")
        if len(in_specs) not in (0, 1) or len(in_specs) != len(out_specs):
            probs.append("DataStoreMemory must have no ports, or one in and one out")
        if in_specs and in_specs[0] != out_specs[0]:
            probs.append("DataStoreMemory input and output specs must match")
        if "initial" not in params:
            probs.append("DataStoreMemory requires params.initial")
        elif out_specs:
            try:
                canon_token(out_specs[0][0], out_specs[0][1], params["initial"])
            except SchemaError as e:
                probs.append(f"DataStoreMemory initial: {e}")
        extra = set(params) - {"store", "initial"}
        if extra:
            probs.append(f"unknown DataStoreMemory params {sorted(extra)}")
        return probs

    def canon_params(self, params, in_specs, out_specs):
        p = {"store": params["store"], "initial": params["initial"]}
        if out_specs:
            d, w = out_specs[0]
            p["initial"] = canon_token(d, w, params["initial"])
        return p

    def init_state(self, params, in_specs, out_specs):
        return params["initial"]

    def initial_output(self, params, in_specs, out_specs):
        return [params["initial"]]

    def output(self, params, in_specs, out_specs, state, ins):
        return [state]

    def update(self, params, in_specs, out_specs, state, ins):
        return ins[0]


class _TagParams(Kind):
    """Shared shape for the tag/store routing blocks."""

    key = "?"

    def check(self, params, in_specs, out_specs):
        probs = []
        if not isinstance(params.get(self.key), str) or not params.get(self.key):
            probs.append(f"{self.name} requires params.{self.key}")
        extra = set(params) - {self.key}
        if extra:
            probs.append(f"unknown {self.name} params {sorted(extra)}")
        return probs

    def output(self, params, in_specs, out_specs, state, ins):
        raise AssertionError(f"{self.name} is wiring, never executed")


class _Goto(_TagParams):
    name, key = "Goto", "tag"
    n_in, n_out = 1, 0


class _From(_TagParams):
    name, key = "From", "tag"
    n_in, n_out = 0, 1
    feedthrough = False


class _DataStoreWrite(_TagParams):
    name, key = "DataStoreWrite", "store"
    n_in, n_out = 1, 0


class _DataStoreRead(_TagParams):
    name, key = "DataStoreRead", "store"
    n_in, n_out = 0, 1
    feedthrough = False


class _BusCreator(Kind):
    name = "BusCreator"
    n_in, n_out = None, 1

    def arity(self, params):
        return None, 1

    def check(self, params, in_specs, out_specs):
        probs = []
        if len(in_specs) < 1:
            probs.append("BusCreator needs at least one input")
        if params:
            probs.append(f"unknown BusCreator params {sorted(params)}")
        return probs

    def output(self, params, in_specs, out_specs, state, ins):
        raise AssertionError("BusCreator is wiring, never executed")


class _BusSelector(Kind):
    name = "BusSelector"
    n_in, n_out = 1, None
    feedthrough = False

    def arity(self, params):
        return 1, None

    def check(self, params, in_specs, out_specs):
        probs = []
        idx = params.get("indices")
        if idx is not None:
            if not isinstance(idx, list) or len(idx) != len(out_specs) or \
                    any(isinstance(i, bool) or not isinstance(i, int) or i < 0 for i in idx):
                probs.append("BusSelector indices must list one element index per output")
        extra = set(params) - {"indices"}
        if extra:
            probs.append(f"unknown BusSelector params {sorted(extra)}")
        return probs

    def output(self, params, in_specs, out_specs, state, ins):
        raise AssertionError("BusSelector is wiring, never executed")


class _Subsystem(Kind):
    name = "Subsystem"
    n_in, n_out = None, None

    def arity(self, params):
        return None, None

    def check(self, params, in_specs, out_specs):
        probs = []
        mode = params.get("mode", "normal")
        if mode not in SUBSYSTEM_MODES:
            probs.append(f"Subsystem mode must be one of {SUBSYSTEM_MODES}")
        cp = params.get("control_port")
        if mode in ("triggered", "enabled"):
            if not isinstance(cp, int) or isinstance(cp, bool) or not 0 <= cp < len(in_specs):
                probs.append(f"{mode} Subsystem requires params.control_port, a valid in-port index")
        elif cp is not None:
            probs.append("control_port is only meaningful for triggered/enabled Subsystems")
        extra = set(params) - {"mode", "control_port"}
        if extra:
            probs.append(f"unknown Subsystem params {sorted(extra)}")
        return probs

    def canon_params(self, params, in_specs, out_specs):
        p = {"mode": params.get("mode", "normal")}
        if p["mode"] in ("triggered", "enabled"):
            p["control_port"] = params["control_port"]
        return p

    def output(self, params, in_specs, out_specs, state, ins):
        raise AssertionError("Subsystem execution is handled by the engines")


class _EnableSource(Kind):
    """Synthetic actor created during translation: broadcasts the truth
    value of a control signal to every member of a dissolved conditional
    subsystem.  Never appears in source documents."""

    name = "EnableSource"
    n_in, n_out = 1, None

    def arity(self, params):
        return 1, None

    def output(self, params, in_specs, out_specs, state, ins):
        v = truth(ins[0])
        return [v for _ in out_specs]


KINDS: dict[str, Kind] = {k.name: k for k in (
    _Inport(), _Outport(), _Constant(), _Gain(), _Sum(), _Product(),
    _UnitDelay(), _Saturation(), _Switch(), _RelationalOp(), _LogicalOp(),
    _Lookup1D(), _Chart(), _RateTransition(), _DataStoreMemory(),
    _Goto(), _From(), _DataStoreWrite(), _DataStoreRead(),
    _BusCreator(), _BusSelector(), _Subsystem(), _EnableSource(),
)}

VOCABULARY = tuple(sorted(set(KINDS) - {"EnableSource"}))

"""Traces: CSV and JSON forms, comparison and the stimulus table.

A Trace holds, per output signal, (time, value) samples with the signal's
type and width; a time is an int when whole, else a reduced Fraction.
compare_traces checks two traces sample by sample, exactly for bool/i32
and within a relative tolerance for f64.

Per-sample work is one typed pass, with every per-signal choice made
once.  Trace.to_csv makes each time canonical so whole times sort as
ints, and formats values with one function per signal; Trace.from_csv
parses with one function per signal, which also range-checks i32, so
every token it returns is canonical.  stimulus_table passes a signal's
tokens through when all are canonical by exact type and indexes them by
time directly when the grid unit is 1.
"""

from __future__ import annotations

from bisect import bisect_left, insort_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
from math import isinf, isnan
from operator import eq, itemgetter

from . import kinds
from .errors import SchemaError, ShapeError, SignalTypeError

_first, _second = itemgetter(0), itemgetter(1)


def time_str(t: int | Fraction) -> str:
    """Exact decimal when the denominator allows one, else "num/den"."""
    den = t.denominator
    if den == 1:
        return str(t.numerator)
    # den divides 10**k for some k exactly when it has no prime factor but
    # 2 and 5, and then the least such k is below its bit length
    digits = next((k for k in range(1, den.bit_length()) if 10 ** k % den == 0), None)
    if digits is None:
        return f"{t.numerator}/{den}"
    scaled = t.numerator * 10 ** digits // den
    s = str(scaled).rjust(digits + 1, "0")
    return f"{s[:-digits]}.{s[-digits:]}"


def canon_time(t: int | Fraction) -> int | Fraction:
    """An int when `t` is whole, else `t` itself."""
    return t.numerator if t.denominator == 1 else t


def _fmt_bool(v) -> str:
    return "1" if v else "0"


def _formatter(dtype: str, width: int):
    """fmt_value for one spec, as a function of the value alone."""
    scalar = {"bool": _fmt_bool, "i32": str}.get(dtype, repr)
    if width == 1:
        return scalar
    return lambda v: ";".join(map(scalar, v))


def fmt_value(dtype: str, width: int, v) -> str:
    return _formatter(dtype, width)(v)


_I32_MIN, _I32_END = -2 ** 31, 2 ** 31


def _parse_bool(s: str) -> bool:
    if s not in ("0", "1"):
        raise SchemaError(f"bool sample must be 0 or 1, got {s!r}")
    return s == "1"


def _parse_i32(s: str) -> int:
    v = int(s)
    if not _I32_MIN <= v < _I32_END:
        raise SchemaError(f"i32 literal out of range: {v}")
    return v


def _parser(dtype: str, width: int):
    """The canonical token of one CSV value of this spec, as a function of
    the text alone."""
    scalar = {"bool": _parse_bool, "i32": _parse_i32}.get(dtype, float)
    if width == 1:
        return scalar

    def parse(s: str) -> tuple:
        parts = s.split(";")
        if len(parts) != width:
            raise SchemaError(f"expected {width} elements, got {len(parts)}")
        return tuple(map(scalar, parts))
    return parse


def _reject_repeat(rows, start: int, signals: set[str]):
    """Raise for the first of `rows`, numbered from `start`, that repeats
    the signal and time of an earlier row, looking only at `signals`.
    Trace.from_csv has parsed every row already."""
    seen = set()
    for n, ln in enumerate(rows, start):
        fields = ln.split(",", 2)
        if len(fields) == 3 and fields[1] in signals:
            key = (fields[1], canon_time(Fraction(fields[0])))
            if key in seen:
                raise SchemaError(f"trace CSV line {n}: a second sample of "
                                  f"{key[0]!r} at t={time_str(key[1])}")
            seen.add(key)


class Trace:
    """Per-signal sample lists.  Signals keep insertion order; each
    signal's samples are in time order, which clip relies on: the engines
    append them in order, from_csv and from_json sort them, and add
    inserts each in place.  The engines, from_csv and from_json give each
    time in canonical form: an int when whole, else a reduced Fraction (an
    int equals and hashes like its Fraction)."""

    def __init__(self):
        self.samples: dict[str, list[tuple[int | Fraction, object]]] = {}
        self.specs: dict[str, tuple[str, int]] = {}

    def declare(self, signal: str, dtype: str, width: int):
        if signal in self.specs and self.specs[signal] != (dtype, width):
            raise ShapeError(f"signal {signal!r} re-declared with a different spec")
        self.specs.setdefault(signal, (dtype, width))
        self.samples.setdefault(signal, [])

    def add(self, signal: str, t: int | Fraction, value):
        """Insert after every sample at or before `t`, so a signal's samples
        stay in time order and samples at one time keep the order added.
        Callers add in time order, so a sample no earlier than the last is
        appended after one comparison, not a bisection's dozen: comparing
        two Fractions runs Python code."""
        pts = self.samples[signal]
        if pts and t < pts[-1][0]:
            insort_right(pts, (t, value), key=_first)
        else:
            pts.append((t, value))

    def signals(self) -> list[str]:
        return list(self.samples)

    def clip(self, t_end: int | Fraction) -> "Trace":
        """Samples strictly before t_end: a prefix of each signal's."""
        t_end = canon_time(t_end)
        out = Trace()
        for sig, pts in self.samples.items():
            out.declare(sig, *self.specs[sig])
            out.samples[sig] = pts[:bisect_left(pts, t_end, key=_first)]
        return out

    def to_csv(self) -> str:
        """Rows sorted by time, then signal; samples of one signal at one
        time keep their order.  Times are made canonical before the sort,
        so whole times compare as ints."""
        merged = []
        for sig, pts in self.samples.items():
            fmt = _formatter(*self.specs[sig])
            merged.extend([(t if type(t) is int else canon_time(t), sig, fmt(v))
                           for t, v in pts])
        merged.sort(key=itemgetter(0, 1))
        rows = ["time,signal,value"]
        rows.extend([f"{t if type(t) is int else time_str(t)},{sig},{val}"
                     for t, sig, val in merged])
        return "\n".join(rows) + "\n"

    @classmethod
    def from_csv(cls, text: str, specs: dict[str, tuple[str, int]]) -> "Trace":
        """Specs come from the reference side; CSV itself is untyped.  Blank
        lines are skipped; the first other line is the header.  Every token
        is canonical: an i32 outside its range is an error, and so is a
        second row for one signal and time, reported at that row's line once
        every row has parsed."""
        tr = cls()
        lines = text.splitlines()
        first = next((n for n, ln in enumerate(lines) if ln.strip()), None)
        if first is None or lines[first] != "time,signal,value":
            raise SchemaError("trace CSV must start with 'time,signal,value'")
        columns = {}  # signal -> (append to its samples, value parser)
        rows = islice(lines, first + 1, None)
        for n, ln in enumerate(rows, first + 2):
            fields = ln.split(",", 2)
            if len(fields) != 3:
                if not ln.strip():
                    continue
                raise SchemaError(f"trace CSV line {n}: expected time,signal,value")
            ts, sig, val = fields
            col = columns.get(sig)
            if col is None:
                if sig not in specs:
                    raise ShapeError(f"trace CSV mentions unknown signal {sig!r}")
                tr.declare(sig, *specs[sig])
                col = columns[sig] = (tr.samples[sig].append, _parser(*specs[sig]))
            add, parse = col
            try:  # digit strings take the int fast path
                add((int(ts) if ts.isdigit() and ts.isascii() else canon_time(Fraction(ts)),
                     parse(val)))
            except (SchemaError, ValueError, ZeroDivisionError) as e:
                raise SchemaError(f"trace CSV line {n}: {e}") from None
        repeated = tr._sort()
        if repeated:
            _reject_repeat(islice(lines, first + 1, None), first + 2, set(repeated))
        return tr

    def _sort(self) -> dict[str, int | Fraction]:
        """Sort each signal's samples by time, keeping the order of samples
        at one time.  Returns the earliest repeated time of each signal
        that has one."""
        repeated = {}
        for sig, pts in self.samples.items():
            pts.sort(key=_first)
            times = list(map(_first, pts))
            for t in compress(times, map(eq, times, islice(times, 1, None))):
                repeated[sig] = t
                break
        return repeated

    def to_json(self) -> dict:
        return {"signals": [{
            "name": sig,
            "dtype": self.specs[sig][0],
            "width": self.specs[sig][1],
            "samples": [[[t.numerator, t.denominator], kinds.json_value(v)]
                        for t, v in pts],
        } for sig, pts in self.samples.items()]}

    @classmethod
    def from_json(cls, doc: dict) -> "Trace":
        """The inverse of to_json.  Rejects what from_csv rejects, naming
        the signal: a malformed spec, time or token, and a second sample of
        one signal at one time."""
        signals = doc.get("signals") if isinstance(doc, dict) else None
        if not isinstance(signals, list):
            raise SchemaError("trace JSON must hold a 'signals' list")
        tr = cls()
        for s in signals:
            name = s.get("name") if isinstance(s, dict) else None
            try:
                d, w = s["dtype"], s["width"]
                if type(s["name"]) is not str:
                    raise SchemaError("the name must be a string")
                if d not in kinds.DTYPES or type(w) is not int or w < 1:
                    raise SchemaError(f"({d!r} x{w!r}) is not a signal spec")
                tr.declare(s["name"], d, w)
                tr.samples[name].extend(
                    (canon_time(Fraction(num, den)), kinds.canon_token(d, w, v))
                    for (num, den), v in s["samples"])
            except KeyError as e:
                raise SchemaError(f"trace JSON signal {name!r} has no {e} field") from None
            except (SchemaError, TypeError, ValueError, ZeroDivisionError) as e:
                raise SchemaError(f"trace JSON signal {name!r}: {e}") from None
        for sig, t in tr._sort().items():
            raise SchemaError(f"trace JSON signal {sig!r}: a second sample at "
                              f"t={time_str(t)}")
        return tr


@dataclass
class Comparison:
    ok: bool
    samples: int
    max_rel: float
    divergence: dict | None = None

    def __str__(self) -> str:
        if self.ok:
            return f"traces match over {self.samples} samples (max rel err {self.max_rel:.3g})"
        d = self.divergence
        return (f"traces diverge at {d['signal']} t={d['time']} sample {d['index']}: "
                f"{d['a']} vs {d['b']}")


def _scalar_close(dtype: str, x, y, tol: float):
    """(equal, relative error)"""
    if dtype != "f64":
        return x == y, 0.0
    if isnan(x) or isnan(y):
        return isnan(x) and isnan(y), 0.0
    if isinf(x) or isinf(y):
        return x == y, 0.0
    d = abs(x - y)
    m = max(abs(x), abs(y))
    if d == 0.0:
        return True, 0.0
    return d <= tol * m, d / m


def compare_traces(a: Trace, b: Trace, tol: float = 0.0) -> Comparison:
    """Compare two traces sample by sample.  Each signal is compared up to
    its first sample that is not close; the divergence reported is the
    earliest of those by time, ties broken by signal name.  `samples`
    counts the samples compared."""
    if set(a.samples) != set(b.samples):
        only_a = sorted(set(a.samples) - set(b.samples))
        only_b = sorted(set(b.samples) - set(a.samples))
        raise ShapeError(f"signal sets differ (only left: {only_a}, only right: {only_b})")
    total = 0
    max_rel = 0.0
    earliest = None  # (time, signal, divergence)
    for sig, pa in a.samples.items():
        d, w = spec = a.specs[sig]
        if sig in b.specs and b.specs[sig] != spec:
            raise ShapeError(f"signal {sig!r} spec differs: {spec} vs {b.specs[sig]}")
        pb = b.samples[sig]
        if len(pa) != len(pb):
            raise ShapeError(f"signal {sig!r} has {len(pa)} vs {len(pb)} samples")
        n = len(pa)
        for i, ((ta, va), (tb, vb)) in enumerate(zip(pa, pb)):
            if ta != tb:
                raise ShapeError(f"signal {sig!r} sample {i} at t={ta} vs t={tb}")
            if va == vb:
                continue  # equal elements are close with relative error 0
            for x, y in ((va, vb),) if w == 1 else zip(va, vb):
                eq, rel = _scalar_close(d, x, y, tol)
                max_rel = max(max_rel, rel)
                if not eq:
                    break
            else:
                continue  # every element is close
            n = i + 1
            if earliest is None or (ta, sig) < earliest[:2]:
                earliest = (ta, sig, {
                    "signal": sig, "time": str(ta), "index": i,
                    "a": fmt_value(d, w, va), "b": fmt_value(d, w, vb)})
            break
        total += n
    if earliest is None:
        return Comparison(True, total, max_rel)
    return Comparison(False, total, max_rel, earliest[2])


_CANON_TYPE = {"f64": float, "i32": int, "bool": bool}


def _canon_tokens(dtype: str, width: int, values: list) -> list:
    """kinds.canon_token of each value.  Width-1 values all of the dtype's
    exact type (an i32 within its range) are canonical already and pass
    straight through."""
    if width == 1 and set(map(type, values)) == {_CANON_TYPE.get(dtype)}:
        if dtype != "i32" or (_I32_MIN <= min(values) and max(values) < _I32_END):
            return values
    return [kinds.canon_token(dtype, width, v) for v in values]


def stimulus_table(stimulus: Trace | None,
                   ports: dict[str, tuple[Fraction, tuple[str, int]]]):
    """The canonical tokens of each stimulus signal named in `ports`, by
    sample index: for ports[signal] = (unit, spec), the sample at time t
    sits at index t / unit when that is an integer.  A signal whose spec
    is not its port's is a SignalTypeError.  Every sample is
    canonicalised, on that grid or not."""
    if stimulus is None:
        return {}
    table = {}
    for sig, pts in stimulus.samples.items():
        sd, sw = stimulus.specs[sig]
        times = list(map(_first, pts))
        toks = _canon_tokens(sd, sw, list(map(_second, pts)))
        if sig not in ports:
            continue
        unit, (d, w) = ports[sig]
        if (sd, sw) != (d, w):
            raise SignalTypeError(
                f"stimulus {sig!r} is ({sd} x{sw}), the port wants ({d} x{w})")
        if unit == 1 and set(map(type, times)) == {int}:
            table[sig] = dict(zip(times, toks))
            continue
        rows = table[sig] = {}
        for t, tok in zip(times, toks):
            n, r = divmod(t.numerator * unit.denominator, t.denominator * unit.numerator)
            if not r:
                rows[n] = tok
    return table

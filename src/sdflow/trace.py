"""Traces: CSV and JSON forms, comparison and the stimulus table.

A Trace holds, per output signal, two columns, the sample times and the
values, with the signal's type and width; a time is an int when whole,
else a reduced Fraction.  `samples` gives a read-only snapshot of
(time, value) pairs for readers outside the package.  compare_traces
checks two traces sample by sample, exactly for bool/i32 and within a
relative tolerance for f64; a signal whose columns are equal as lists is
equal sample by sample, so only a signal whose columns differ is walked.

Per-sample work is one typed pass, with every per-signal choice made
once.  Trace.to_csv makes each time canonical so whole times sort as
ints, and formats values with one function per signal; Trace.from_csv
parses with one function per signal, which also range-checks i32, so
every token it returns is canonical.  stimulus_table passes a signal's
tokens through when all are canonical by exact type and indexes them by
time directly when the grid unit is 1; a read of a sample it lacks
raises the one error that names the signal and the time.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
from math import isinf, isnan
from operator import eq, itemgetter, lt
from types import MappingProxyType

from . import kinds
from .errors import SchemaError, SdflowError, ShapeError, SignalTypeError


# A period's numerator and denominator and a run's count of base steps or
# iterations are below TIME_BOUND, so a time a run reaches has a few dozen
# digits at most.  A time read from a trace needs only to fit int64.
TIME_BOUND = 2 ** 31
_INT64 = 2 ** 63


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


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")  # Fraction's exponent syntax


def _parse_time(ts: str) -> int | Fraction:
    """A CSV time in canonical form.  Fraction builds 10**exp, for hours
    when exp has millions of digits, so an exponent beyond 40, more than
    an int64 time needs, is refused before it is built."""
    m = _EXPONENT.search(ts)
    if m and abs(exp := int(m[1])) > 40:
        raise SchemaError(f"time exponent out of range: {exp}")
    return _int64_time(Fraction(ts))


def _int64_time(t: Fraction) -> int | Fraction:
    """`t` in canonical form, once its numerator and denominator fit int64."""
    if not -_INT64 <= t.numerator < _INT64 or t.denominator >= _INT64:
        raise SchemaError("time out of range: its numerator or denominator "
                          "does not fit int64")
    return canon_time(t)


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
    """Per-signal columns: `times[sig]` and `values[sig]`, aligned.
    Signals keep insertion order; each signal's times are in order, which
    clip relies on: the engines append them in order, from_csv and
    from_json sort them, and add inserts each in place.  The engines,
    from_csv and from_json give each time in canonical form: an int when
    whole, else a reduced Fraction (an int equals and hashes like its
    Fraction)."""

    def __init__(self):
        self.times: dict[str, list[int | Fraction]] = {}
        self.values: dict[str, list] = {}
        self.specs: dict[str, tuple[str, int]] = {}

    @property
    def samples(self) -> MappingProxyType:
        """A read-only snapshot: each signal's (time, value) pairs, a tuple."""
        return MappingProxyType({sig: tuple(zip(ts, self.values[sig]))
                                 for sig, ts in self.times.items()})

    def declare(self, signal: str, dtype: str, width: int):
        if signal in self.specs and self.specs[signal] != (dtype, width):
            raise ShapeError(f"signal {signal!r} re-declared with a different spec")
        self.specs.setdefault(signal, (dtype, width))
        self.times.setdefault(signal, [])
        self.values.setdefault(signal, [])

    def add(self, signal: str, t: int | Fraction, value):
        """Insert after every sample at or before `t`, so a signal's samples
        stay in time order and samples at one time keep the order added.
        Callers add in time order, so a sample no earlier than the last is
        appended after one comparison, not a bisection's dozen: comparing
        two Fractions runs Python code."""
        ts, vs = self.times[signal], self.values[signal]
        if ts and t < ts[-1]:
            i = bisect_right(ts, t)
            ts.insert(i, t)
            vs.insert(i, value)
        else:
            ts.append(t)
            vs.append(value)

    def signals(self) -> list[str]:
        return list(self.times)

    def clip(self, t_end: int | Fraction) -> "Trace":
        """Samples strictly before t_end: a prefix of each signal's."""
        t_end = canon_time(t_end)
        out = Trace()
        for sig, ts in self.times.items():
            out.declare(sig, *self.specs[sig])
            n = bisect_left(ts, t_end)
            out.times[sig], out.values[sig] = ts[:n], self.values[sig][:n]
        return out

    def to_csv(self) -> str:
        """Rows sorted by time, then signal; samples of one signal at one
        time keep their order.  Times are made canonical before the sort,
        so whole times compare as ints."""
        merged = []
        for sig, ts in self.times.items():
            fmt = _formatter(*self.specs[sig])
            merged.extend([(t if type(t) is int else canon_time(t), sig, fmt(v))
                           for t, v in zip(ts, self.values[sig])])
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
        columns = {}  # signal -> (append a time, append a value, value parser)
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
                col = columns[sig] = (tr.times[sig].append, tr.values[sig].append,
                                      _parser(*specs[sig]))
            add_t, add_v, parse = col
            try:  # digit strings short enough to fit int64 take the int fast path
                add_t(int(ts) if ts.isdigit() and ts.isascii() and len(ts) < 19
                      else _parse_time(ts))
                add_v(parse(val))
            except (SchemaError, ValueError, ZeroDivisionError) as e:
                raise SchemaError(f"trace CSV line {n}: {e}") from None
        repeated = tr._sort()
        if repeated:
            _reject_repeat(islice(lines, first + 1, None), first + 2, set(repeated))
        return tr

    def _sort(self) -> dict[str, int | Fraction]:
        """Sort each signal's samples by time, keeping the order of samples
        at one time; a signal whose times strictly increase is left as it
        is.  Returns the earliest repeated time of each signal that has
        one."""
        repeated = {}
        for sig, ts in self.times.items():
            if all(map(lt, ts, islice(ts, 1, None))):
                continue
            vs = self.values[sig]
            order = sorted(range(len(ts)), key=ts.__getitem__)
            ts[:], vs[:] = [ts[i] for i in order], [vs[i] for i in order]
            for t in compress(ts, map(eq, ts, islice(ts, 1, None))):
                repeated[sig] = t
                break
        return repeated

    def to_json(self) -> dict:
        return {"signals": [{
            "name": sig,
            "dtype": self.specs[sig][0],
            "width": self.specs[sig][1],
            "samples": [[[t.numerator, t.denominator], kinds.json_value(v)]
                        for t, v in zip(ts, self.values[sig])],
        } for sig, ts in self.times.items()]}

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
                for (num, den), v in s["samples"]:
                    tr.times[name].append(_int64_time(Fraction(num, den)))
                    tr.values[name].append(kinds.canon_token(d, w, v))
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
    counts the samples compared.  Equal columns are equal sample by
    sample, so a signal is walked only when a column differs."""
    if set(a.times) != set(b.times):
        only_a = sorted(set(a.times) - set(b.times))
        only_b = sorted(set(b.times) - set(a.times))
        raise ShapeError(f"signal sets differ (only left: {only_a}, only right: {only_b})")
    total = 0
    max_rel = 0.0
    earliest = None  # (time, signal, divergence)
    for sig, tsa in a.times.items():
        d, w = spec = a.specs[sig]
        if sig in b.specs and b.specs[sig] != spec:
            raise ShapeError(f"signal {sig!r} spec differs: {spec} vs {b.specs[sig]}")
        tsb, vsa, vsb = b.times[sig], a.values[sig], b.values[sig]
        if len(tsa) != len(tsb):
            raise ShapeError(f"signal {sig!r} has {len(tsa)} vs {len(tsb)} samples")
        n = len(tsa)
        if tsa == tsb and vsa == vsb:
            total += n
            continue  # equal elements are close with relative error 0
        for i, (ta, tb, va, vb) in enumerate(zip(tsa, tsb, vsa, vsb)):
            if ta != tb:
                raise ShapeError(f"signal {sig!r} sample {i} at t={ta} vs t={tb}")
            if va == vb:
                continue
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


class _Rows(dict):
    """One stimulus signal's tokens by sample index, and its `signal` name
    and grid `unit`: reading an index without a sample raises."""

    def __missing__(self, n: int):
        raise SdflowError(f"stimulus for {self.signal!r} has no sample at t={n * self.unit}")


def stimulus_table(stimulus: Trace | None,
                   ports: dict[str, tuple[Fraction, tuple[str, int]]]):
    """The canonical tokens of each stimulus signal named in `ports`, by
    sample index: for ports[signal] = (unit, spec), the sample at time t
    sits at index t / unit when that is an integer, and reading an index
    without one raises.  A signal whose spec is not its port's is a
    SignalTypeError.  Every sample is canonicalised, on that grid or not."""
    if stimulus is None:
        return {}
    table = {}
    for sig, times in stimulus.times.items():
        sd, sw = stimulus.specs[sig]
        toks = _canon_tokens(sd, sw, stimulus.values[sig])
        if sig not in ports:
            continue
        unit, (d, w) = ports[sig]
        if (sd, sw) != (d, w):
            raise SignalTypeError(
                f"stimulus {sig!r} is ({sd} x{sw}), the port wants ({d} x{w})")
        rows = table[sig] = _Rows()
        rows.signal, rows.unit = sig, unit
        if unit == 1 and set(map(type, times)) == {int}:
            rows.update(zip(times, toks))
            continue
        for t, tok in zip(times, toks):
            n, r = divmod(t.numerator * unit.denominator, t.denominator * unit.numerator)
            if not r:
                rows[n] = tok
    return table

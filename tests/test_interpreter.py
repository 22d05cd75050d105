"""Diagram and schedule interpreters, traces and trace comparison.

Golden values in this file are worked out by hand; the comments next to
each case show the arithmetic.
"""

import math
from fractions import Fraction

import pytest

from sdflow import (AlgebraicLoopError, SdflowError, ShapeError, SignalTypeError,
                    Trace, compare_traces, load_model, normalize, run_mil,
                    run_sil, sil_span, translate)

F1 = {"dtype": "f64", "width": 1}
I1 = {"dtype": "i32", "width": 1}
B1 = {"dtype": "bool", "width": 1}


def blk(bid, kind, params=None, st=None, ins=(), outs=(), **rest):
    b = {"id": bid, "kind": kind, "params": params or {},
         "ports": {"in": list(ins), "out": list(outs)}}
    if st is not None:
        b["sample_time"] = {"num": st, "den": 1}
    b.update(rest)
    return b


def conn(src, dst, spec=F1):
    return {"src": list(src), "dst": list(dst),
            "dtype": spec["dtype"], "width": spec["width"]}


def model(children, connections, stores=()):
    return load_model({"name": "m", "base_step": {"num": 1, "den": 1},
                       "data_stores": list(stores),
                       "root": {"id": "root", "kind": "Subsystem",
                                "params": {"mode": "normal"},
                                "ports": {"in": [], "out": []},
                                "children": children,
                                "connections": connections}})


def out_values(trace, signal="y"):
    return [v for _, v in trace.samples[signal]]


# ---------------------------------------------------------------------------
# straight-line block semantics


def run1(children, conns, steps=1, signal="y"):
    return out_values(run_mil(model(children, conns), steps), signal)


def test_gain_and_sum():
    # 5 - 2 = 3, then x3 = 9
    got = run1([blk("a", "Constant", {"value": 5.0}, st=1, outs=[F1]),
                blk("b", "Constant", {"value": 2.0}, st=1, outs=[F1]),
                blk("s", "Sum", {"signs": "+-"}, ins=[F1, F1], outs=[F1]),
                blk("g", "Gain", {"gain": 3.0}, ins=[F1], outs=[F1]),
                blk("y", "Outport", {"index": 0}, ins=[F1])],
               [conn(("a", 0), ("s", 0)), conn(("b", 0), ("s", 1)),
                conn(("s", 0), ("g", 0)), conn(("g", 0), ("y", 0))])
    assert got == [9.0]


def test_product_with_division():
    # 1 * 8 / 2 = 4
    got = run1([blk("a", "Constant", {"value": 8.0}, st=1, outs=[F1]),
                blk("b", "Constant", {"value": 2.0}, st=1, outs=[F1]),
                blk("p", "Product", {"ops": "*/"}, ins=[F1, F1], outs=[F1]),
                blk("y", "Outport", {"index": 0}, ins=[F1])],
               [conn(("a", 0), ("p", 0)), conn(("b", 0), ("p", 1)),
                conn(("p", 0), ("y", 0))])
    assert got == [4.0]


def test_i32_sum_wraps():
    # INT_MAX + 1 wraps to INT_MIN
    got = run1([blk("a", "Constant", {"value": 2147483647}, st=1, outs=[I1]),
                blk("b", "Constant", {"value": 1}, st=1, outs=[I1]),
                blk("s", "Sum", {"signs": "++"}, ins=[I1, I1], outs=[I1]),
                blk("y", "Outport", {"index": 0}, ins=[I1])],
               [conn(("a", 0), ("s", 0), I1), conn(("b", 0), ("s", 1), I1),
                conn(("s", 0), ("y", 0), I1)])
    assert got == [-2147483648]


@pytest.mark.parametrize("x,expect", [(5.0, 2.0), (-1.0, 0.0), (1.5, 1.5)])
def test_saturation(x, expect):
    got = run1([blk("a", "Constant", {"value": x}, st=1, outs=[F1]),
                blk("sat", "Saturation", {"lower": 0.0, "upper": 2.0},
                    ins=[F1], outs=[F1]),
                blk("y", "Outport", {"index": 0}, ins=[F1])],
               [conn(("a", 0), ("sat", 0)), conn(("sat", 0), ("y", 0))])
    assert got == [expect]


@pytest.mark.parametrize("ctl,expect", [(1.0, 10.0), (0.5, 20.0)])
def test_switch_threshold(ctl, expect):
    # control >= threshold selects the first input, otherwise the third
    got = run1([blk("a", "Constant", {"value": 10.0}, st=1, outs=[F1]),
                blk("b", "Constant", {"value": 20.0}, st=1, outs=[F1]),
                blk("c", "Constant", {"value": ctl}, st=1, outs=[F1]),
                blk("sw", "Switch", {"threshold": 1.0},
                    ins=[F1, F1, F1], outs=[F1]),
                blk("y", "Outport", {"index": 0}, ins=[F1])],
               [conn(("a", 0), ("sw", 0)), conn(("c", 0), ("sw", 1)),
                conn(("b", 0), ("sw", 2)), conn(("sw", 0), ("y", 0))])
    assert got == [expect]


def test_relational_and_logical():
    # (3 > 2) XOR NOT(3 > 2) is always true
    got = run1([blk("a", "Constant", {"value": 3.0}, st=1, outs=[F1]),
                blk("b", "Constant", {"value": 2.0}, st=1, outs=[F1]),
                blk("r", "RelationalOp", {"op": ">"}, ins=[F1, F1], outs=[B1]),
                blk("n", "LogicalOp", {"op": "NOT"}, ins=[B1], outs=[B1]),
                blk("x", "LogicalOp", {"op": "XOR", "inputs": 2},
                    ins=[B1, B1], outs=[B1]),
                blk("y", "Outport", {"index": 0}, ins=[B1])],
               [conn(("a", 0), ("r", 0)), conn(("b", 0), ("r", 1)),
                conn(("r", 0), ("n", 0), B1),
                conn(("r", 0), ("x", 0), B1), conn(("n", 0), ("x", 1), B1),
                conn(("x", 0), ("y", 0), B1)])
    assert got == [True]


@pytest.mark.parametrize("x,expect", [
    (5.0, 50.0),     # midpoint of [0, 10] -> [0, 100]
    (-3.0, 0.0),     # clamps left
    (12.0, 100.0),   # clamps right
])
def test_lookup_interpolates_and_clamps(x, expect):
    got = run1([blk("a", "Constant", {"value": x}, st=1, outs=[F1]),
                blk("lut", "Lookup1D", {"breakpoints": [0.0, 10.0],
                                        "table": [0.0, 100.0]},
                    ins=[F1], outs=[F1]),
                blk("y", "Outport", {"index": 0}, ins=[F1])],
               [conn(("a", 0), ("lut", 0)), conn(("lut", 0), ("y", 0))])
    assert got == [expect]


def test_unit_delay_shifts_by_one_activation():
    got = run1([blk("a", "Constant", {"value": 1.0}, st=1, outs=[F1]),
                blk("d", "UnitDelay", {"initial": 7.0}, ins=[F1], outs=[F1]),
                blk("y", "Outport", {"index": 0}, ins=[F1])],
               [conn(("a", 0), ("d", 0)), conn(("d", 0), ("y", 0))],
               steps=3)
    assert got == [7.0, 1.0, 1.0]


def test_vector_signals_elementwise():
    got = run1([blk("a", "Constant", {"value": [1.0, 2.0]}, st=1,
                    outs=[{"dtype": "f64", "width": 2}]),
                blk("g", "Gain", {"gain": 10.0},
                    ins=[{"dtype": "f64", "width": 2}],
                    outs=[{"dtype": "f64", "width": 2}]),
                blk("y", "Outport", {"index": 0},
                    ins=[{"dtype": "f64", "width": 2}])],
               [conn(("a", 0), ("g", 0), {"dtype": "f64", "width": 2}),
                conn(("g", 0), ("y", 0), {"dtype": "f64", "width": 2})])
    assert got == [(10.0, 20.0)]


# ---------------------------------------------------------------------------
# stateful composites


def test_chart_emits_before_transitioning(multirate):
    # UnitDelay starts at 0, so the chart sees 0, 6, 6, ... at t=0,4,8.
    # It emits the current state's output first (low:0, high:1), then
    # takes the first matching transition (input > 4 moves low -> high).
    tr = run_mil(multirate, 16)
    assert [v for _, v in tr.samples["Out1"]] == [0.0, 0.0, 1.0, 1.0]
    assert tr.samples["Out1"] == tr.samples["Out2"]
    assert [t for t, _ in tr.samples["Out1"]] == [0, 4, 8, 12]


def test_data_store_reads_previous_write():
    m = model([blk("c", "Constant", {"value": 5.0}, st=1, outs=[F1]),
               blk("mem", "DataStoreMemory", {"store": "s", "initial": 0.0},
                   st=1),
               blk("w", "DataStoreWrite", {"store": "s"}, ins=[F1]),
               blk("r", "DataStoreRead", {"store": "s"}, outs=[F1]),
               blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("c", 0), ("w", 0)), conn(("r", 0), ("y", 0))],
              stores=["s"])
    assert out_values(run_mil(m, 3)) == [0.0, 5.0, 5.0]


def enabled_model(mode="enabled"):
    sub = blk("sub", "Subsystem", {"mode": mode, "control_port": 0},
              st=1, ins=[B1, F1], outs=[F1],
              children=[blk("i", "Inport", {"index": 1}, st=1, outs=[F1]),
                        blk("g", "Gain", {"gain": 2.0}, st=1,
                            ins=[F1], outs=[F1]),
                        blk("o", "Outport", {"index": 0}, st=1, ins=[F1])],
              connections=[conn(("i", 0), ("g", 0)), conn(("g", 0), ("o", 0))])
    return model([blk("en", "Inport", {"index": 0}, st=1, outs=[B1]),
                  blk("c", "Constant", {"value": 3.0}, st=1, outs=[F1]),
                  sub,
                  blk("y", "Outport", {"index": 0}, ins=[F1])],
                 [conn(("en", 0), ("sub", 0), B1), conn(("c", 0), ("sub", 1)),
                  conn(("sub", 0), ("y", 0))])


def gate_trace(pattern):
    st = Trace()
    st.declare("en", "bool", 1)
    for k, v in enumerate(pattern):
        st.add("en", Fraction(k), v)
    return st


@pytest.mark.parametrize("mode", ["enabled", "triggered"])
def test_conditional_subsystem_holds_output(mode):
    m = enabled_model(mode)
    tr = run_mil(m, 4, gate_trace([False, True, False, True]))
    # disabled ticks keep the last value; before any enable the inner
    # outputs read as zero
    assert out_values(tr) == [0.0, 6.0, 6.0, 6.0]


def test_conditional_gating_survives_flattening():
    m = enabled_model()
    stim = gate_trace([False, True, False, True, False, False, True, True])
    a = run_mil(m, 8, stim)
    b = run_mil(normalize(m).model, 8, stim)
    assert compare_traces(a, b).ok


# ---------------------------------------------------------------------------
# loops


def loop_model(break_with_delay):
    mid = (blk("d", "UnitDelay", {"initial": 0.0}, ins=[F1], outs=[F1])
           if break_with_delay else
           blk("d", "Gain", {"gain": 0.5}, ins=[F1], outs=[F1]))
    return model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
                  blk("s", "Sum", {"signs": "++"}, ins=[F1, F1], outs=[F1]),
                  mid,
                  blk("y", "Outport", {"index": 0}, ins=[F1])],
                 [conn(("c", 0), ("s", 0)), conn(("d", 0), ("s", 1)),
                  conn(("s", 0), ("d", 0)), conn(("s", 0), ("y", 0))])


def test_feedthrough_cycle_is_rejected():
    with pytest.raises(AlgebraicLoopError, match="zero-delay feedthrough cycle"):
        run_mil(loop_model(break_with_delay=False), 1)


def test_delay_breaks_algebraic_loop():
    # y[k] = 1 + d[k], d[k+1] = y[k]: 1, 2, 3, ...
    tr = run_mil(loop_model(break_with_delay=True), 3)
    assert out_values(tr) == [1.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# MIL vs SIL


def ramp(name, period, n, fn=float):
    st = Trace()
    st.declare(name, "f64", 1)
    for k in range(n):
        st.add(name, Fraction(k) * period, fn(k))
    return st


def test_mil_equals_sil_on_multirate(multirate):
    g, _ = translate(normalize(multirate))
    a = run_mil(multirate, 16)
    b = run_sil(g, int(Fraction(16) / sil_span(g)))
    assert compare_traces(a, b).ok


def test_mil_equals_sil_on_transmission(transmission):
    g, _ = translate(normalize(transmission))
    stim = ramp("throttle", Fraction(1), 40, lambda k: (k * 7) % 100 / 2.0)
    a = run_mil(transmission, 40, stim)
    b = run_sil(g, int(Fraction(40) / sil_span(g)), stim)
    c = compare_traces(a, b)
    assert c.ok and c.max_rel == 0.0


def test_mil_equals_sil_on_climate(climate):
    g, _ = translate(normalize(climate))
    stim = ramp("setpoint", Fraction(1), 24, lambda k: 20.0)
    stim.declare("sensor", "f64", 1)
    for k in range(24):
        stim.add("sensor", Fraction(k), 15.0 + k)
    a = run_mil(climate, 24, stim)
    b = run_sil(g, int(Fraction(24) / sil_span(g)), stim)
    assert compare_traces(a, b).ok


def test_missing_stimulus_sample_is_an_error(transmission):
    stim = ramp("throttle", Fraction(1), 1)   # only t=0
    with pytest.raises(SdflowError, match="no sample at"):
        run_mil(transmission, 2, stim)


def test_absent_stimulus_reads_zero(transmission):
    tr = run_mil(transmission, 4)
    # throttle reads 0.0, so rpm is 800 and the rev limit is not crossed
    assert tr.samples["high"][0][1] is False
    gear0 = tr.samples["gear"][0][1]
    assert tr.samples["torque"][0][1] == 800.0 * gear0


# ---------------------------------------------------------------------------
# traces


def sample_trace():
    tr = Trace()
    tr.declare("f", "f64", 1)
    tr.declare("v", "f64", 2)
    tr.declare("i", "i32", 1)
    tr.declare("b", "bool", 1)
    tr.add("f", Fraction(0), 0.1)
    tr.add("f", Fraction(1, 2), -1.5e-17)
    tr.add("v", Fraction(0), (1.0, math.pi))
    tr.add("i", Fraction(0), -2147483648)
    tr.add("b", Fraction(0), True)
    return tr


def test_trace_csv_round_trip():
    tr = sample_trace()
    back = Trace.from_csv(tr.to_csv(), tr.specs)
    c = compare_traces(tr, back)
    assert c.ok and c.max_rel == 0.0


def test_trace_json_round_trip():
    tr = sample_trace()
    back = Trace.from_json(tr.to_json())
    assert compare_traces(tr, back).ok


def test_csv_header_is_required():
    with pytest.raises(Exception, match="time,signal,value"):
        Trace.from_csv("nope\n", {})


def test_clip_is_strict():
    tr = Trace()
    tr.declare("y", "f64", 1)
    for k in range(3):
        tr.add("y", Fraction(k), float(k))
    assert out_values(tr.clip(Fraction(2))) == [0.0, 1.0]


def test_compare_rejects_different_signal_sets():
    a, b = Trace(), Trace()
    a.declare("x", "f64", 1)
    b.declare("y", "f64", 1)
    with pytest.raises(ShapeError, match="signal sets differ"):
        compare_traces(a, b)


def test_compare_rejects_length_and_time_mismatches():
    a, b = Trace(), Trace()
    for tr in (a, b):
        tr.declare("x", "f64", 1)
    a.add("x", Fraction(0), 1.0)
    with pytest.raises(ShapeError, match="1 vs 0 samples"):
        compare_traces(a, b)
    b.add("x", Fraction(1), 1.0)
    with pytest.raises(ShapeError, match="sample 0 at"):
        compare_traces(a, b)


def test_compare_tolerance_is_relative():
    a, b = Trace(), Trace()
    for tr in (a, b):
        tr.declare("x", "f64", 1)
    a.add("x", Fraction(0), 1.0)
    b.add("x", Fraction(0), 1.0 + 1e-13)
    assert not compare_traces(a, b).ok
    c = compare_traces(a, b, tol=1e-12)
    assert c.ok and 0.0 < c.max_rel <= 1e-12


def test_compare_integers_ignore_tolerance():
    a, b = Trace(), Trace()
    for tr in (a, b):
        tr.declare("x", "i32", 1)
    a.add("x", Fraction(0), 100)
    b.add("x", Fraction(0), 101)
    assert not compare_traces(a, b, tol=1.0).ok


def test_compare_handles_nan_and_inf():
    a, b = Trace(), Trace()
    for tr in (a, b):
        tr.declare("x", "f64", 1)
    for v in (math.nan, math.inf):
        a.add("x", Fraction(len(a.samples["x"])), v)
        b.add("x", Fraction(len(b.samples["x"])), v)
    assert compare_traces(a, b).ok
    a.add("x", Fraction(2), math.inf)
    b.add("x", Fraction(2), -math.inf)
    r = compare_traces(a, b)
    assert not r.ok
    assert r.divergence["signal"] == "x" and r.divergence["index"] == 2


def test_divergence_report_contents():
    a, b = Trace(), Trace()
    for tr in (a, b):
        tr.declare("x", "f64", 1)
    a.add("x", Fraction(3), 1.0)
    b.add("x", Fraction(3), 2.0)
    r = compare_traces(a, b)
    assert r.divergence == {"signal": "x", "time": "3", "index": 0,
                            "a": "1.0", "b": "2.0"}
    assert "diverge" in str(r)


def test_sil_stimulus_spec_must_match(transmission):
    # the same check emit_bundle makes: an i32 signal cannot feed an f64 Inport
    g, _ = translate(normalize(transmission))
    st = Trace()
    st.declare("throttle", "i32", 1)
    st.add("throttle", Fraction(0), 1)
    with pytest.raises(SignalTypeError, match="throttle"):
        run_sil(g, periods=1, stimulus=st)

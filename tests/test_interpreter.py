"""Diagram and schedule interpreters, traces and trace comparison.

Golden values in this file are worked out by hand; the comments next to
each case show the arithmetic.
"""

import dataclasses
import gc
import io
import json
import math
import random
import re
import time
import tokenize
import warnings
from collections import Counter
from fractions import Fraction

import pytest
from conftest import B1, F1, I1, MODELS, blk, conn, hostile_ids_model, load_fixture, model
from model_gen import random_model, random_stimulus

from sdflow import (Actor, AlgebraicLoopError, Channel, DeadlockError, DepthWarning,
                    InconsistentError, Port, SchemaError, Sdfg, SdflowError, ShapeError,
                    SignalTypeError, Trace, UnderflowError, build_schedule, check_requirements,
                    compare_traces, emit_bundle, load_model, load_sdfg, normalize, run_mil,
                    run_sil, save_sdfg, sil_span, translate)
from sdflow import kinds, mil, sil
from sdflow.mil import DiagramEngine, _activation, resolve_wiring
from sdflow.trace import (Comparison, _scalar_close, canon_time, fmt_value,
                          stimulus_table, time_str)


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


def test_unwritten_store_holds_its_initial_value():
    m = model([blk("mem", "DataStoreMemory", {"store": "s", "initial": 2.5}, st=1),
               blk("r", "DataStoreRead", {"store": "s"}, outs=[F1]),
               blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("r", 0), ("y", 0))], stores=["s"])
    g, _ = translate(normalize(m))
    assert out_values(run_mil(m, 3)) == out_values(run_sil(g, 3)) == [2.5] * 3


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


def wide_pass_through(n):
    """n Constants through one Subsystem of n Inport -> Outport pairs."""
    sub = blk("sub", "Subsystem", {"mode": "normal"}, ins=[F1] * n, outs=[F1] * n,
              children=[blk(f"i{k}", "Inport", {"index": k}, outs=[F1]) for k in range(n)]
              + [blk(f"o{k}", "Outport", {"index": k}, ins=[F1]) for k in range(n)],
              connections=[conn((f"i{k}", 0), (f"o{k}", 0)) for k in range(n)])
    return model([blk(f"c{k}", "Constant", {"value": float(k)}, st=1, outs=[F1])
                  for k in range(n)] + [sub]
                 + [blk(f"y{k}", "Outport", {"index": k}, ins=[F1]) for k in range(n)],
                 [conn((f"c{k}", 0), ("sub", k)) for k in range(n)]
                 + [conn(("sub", k), (f"y{k}", 0)) for k in range(n)])


def test_mil_setup_is_linear_in_subsystem_width():
    # linear set-up gives a ratio near 4; scanning a subsystem's children
    # at each out-port crossing gives about 16
    def setup_s(m) -> float:
        best = math.inf
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                start = time.perf_counter()
                run_mil(m, 0)
                best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        return best
    small, large = wide_pass_through(1000), wide_pass_through(4000)
    assert list(run_mil(small, 1).samples["y123"]) == [(0, 123.0)]
    ratio = setup_s(large) / setup_s(small)
    assert ratio < 10, f"4000 ports took {ratio:.1f}x as long as 1000"


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
    with pytest.raises(AlgebraicLoopError, match="^zero-delay cycle: d -> s -> d$"):
        run_mil(loop_model(break_with_delay=False), 1)


def test_feedthrough_self_loop_is_rejected():
    # y = 2*y has no value to evaluate against: a cycle of one block; the
    # Outport only waits downstream of it, even when its id sorts first
    for out in ("y", "a"):
        m = model([blk("b0", "Gain", {"gain": 2.0}, st=1, ins=[F1], outs=[F1]),
                   blk(out, "Outport", {"index": 0}, ins=[F1])],
                  [conn(("b0", 0), ("b0", 0)), conn(("b0", 0), (out, 0))])
        with pytest.raises(AlgebraicLoopError, match="^zero-delay cycle: b0 -> b0$"):
            run_mil(m, 3)


def test_leaf_gated_by_its_own_output_is_rejected():
    # an enabled subsystem whose only output drives its own control port:
    # g's gate is g's output, a cycle of one block through the control edge
    sub = blk("s", "Subsystem", {"mode": "enabled", "control_port": 0}, st=1,
              ins=[F1], outs=[F1],
              children=[blk("g", "Constant", {"value": 1.0}, st=1, outs=[F1]),
                        blk("o", "Outport", {"index": 0}, st=1, ins=[F1])],
              connections=[conn(("g", 0), ("o", 0))])
    m = model([sub, blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("s", 0), ("s", 0)), conn(("s", 0), ("y", 0))])
    for form in (m, normalize(m).model):
        with pytest.raises(AlgebraicLoopError, match="^zero-delay cycle: s/g -> s/g$"):
            run_mil(form, 3)
    with pytest.raises(DeadlockError, match="blocked: s/g, y$"):
        run_sil(translate(normalize(m))[0])


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
    sched = build_schedule(g)
    a = run_mil(multirate, 16)
    b = run_sil(g, int(Fraction(16) / sched.span), schedule=sched)
    assert compare_traces(a, b).ok


def test_mil_equals_sil_on_transmission(transmission):
    g, _ = translate(normalize(transmission))
    stim = ramp("throttle", Fraction(1), 40, lambda k: (k * 7) % 100 / 2.0)
    sched = build_schedule(g)
    a = run_mil(transmission, 40, stim)
    b = run_sil(g, int(Fraction(40) / sched.span), stim, schedule=sched)
    c = compare_traces(a, b)
    assert c.ok and c.max_rel == 0.0


def test_mil_equals_sil_on_climate(climate):
    g, _ = translate(normalize(climate))
    stim = ramp("setpoint", Fraction(1), 24, lambda k: 20.0)
    stim.declare("sensor", "f64", 1)
    for k in range(24):
        stim.add("sensor", Fraction(k), 15.0 + k)
    sched = build_schedule(g)
    a = run_mil(climate, 24, stim)
    b = run_sil(g, int(Fraction(24) / sched.span), stim, schedule=sched)
    assert compare_traces(a, b).ok


def test_missing_stimulus_sample_is_an_error(transmission):
    stim = ramp("throttle", Fraction(1), 1)   # only t=0
    with pytest.raises(SdflowError, match="no sample at t=1$"):
        run_mil(transmission, 2, stim)
    g, _ = translate(normalize(transmission))
    with pytest.raises(SdflowError, match="stimulus for 'throttle' has no sample at t=1$"):
        run_sil(g, 1, stim)


@pytest.mark.parametrize("gaps, mil_error, sil_error", [
    ({"setpoint": 5, "sensor": 3}, ("sensor", 3), ("setpoint", 5)),
    ({"setpoint": 3, "sensor": 3}, ("sensor", 3), ("setpoint", 3)),
    ({"setpoint": 3, "sensor": 5}, ("setpoint", 3), ("setpoint", 3)),
])
def test_two_missing_samples_name_the_first_read(climate, monkeypatch, gaps, mil_error,
                                                 sil_error):
    """climate evaluates sensor before setpoint and lists the setpoint actor
    first.  MIL names the earliest step, then the first Inport in
    evaluation order; SIL and the C emitter name the first Inport in actor
    order, at its earliest gap; interpreted and compiled alike."""
    stim = Trace()
    for sig, gap in gaps.items():
        stim.declare(sig, "f64", 1)
        for k in range(16):
            if k != gap:
                stim.add(sig, k, float(k))
    g, _ = translate(normalize(climate))

    def error(f):
        with pytest.raises(SdflowError) as e:
            f()
        return type(e.value), str(e.value)
    want_mil = (SdflowError, "stimulus for {!r} has no sample at t={}".format(*mil_error))
    want_sil = (SdflowError, "stimulus for {!r} has no sample at t={}".format(*sil_error))
    for limit in (math.inf, 1):  # interpreted, then compiled
        monkeypatch.setattr(mil, "_COMPILE_SPANS", limit)
        monkeypatch.setattr(sil, "_COMPILE_PERIODS", limit)
        assert error(lambda: run_mil(climate, 16, stim)) == want_mil, limit
        assert error(lambda: run_sil(g, 16, stim)) == want_sil, limit
    assert error(lambda: emit_bundle(g, 16, stim)) == want_sil


# ---------------------------------------------------------------------------
# activation lists and replay errors


def offgrid_model():
    """Periods 3/4, 5/6 and 1/3 over a base step of 1/2: none of them is an
    integer multiple of the base step."""
    def st(num, den):
        return {"num": num, "den": den}
    children = [blk("c", "Constant", {"value": 2.0}, outs=[F1], sample_time=st(3, 4)),
                blk("g", "Gain", {"gain": 3.0}, ins=[F1], outs=[F1], sample_time=st(5, 6)),
                blk("d", "UnitDelay", {"initial": 0.0}, ins=[F1], outs=[F1],
                    sample_time=st(1, 3)),
                blk("y", "Outport", {"index": 0}, ins=[F1], sample_time=st(1, 3))]
    conns = [conn(("c", 0), ("g", 0)), conn(("g", 0), ("d", 0)), conn(("d", 0), ("y", 0))]
    return load_model({"name": "offgrid", "base_step": {"num": 1, "den": 2},
                       "data_stores": [],
                       "root": {"id": "root", "kind": "Subsystem",
                                "params": {"mode": "normal"},
                                "ports": {"in": [], "out": []},
                                "children": children, "connections": conns}})


def activation_models():
    yield "offgrid", offgrid_model()
    for name in ("multirate", "multirate_rt", "transmission", "climate"):
        yield name, load_fixture(name)
    for seed in range(200):
        yield f"random_model({seed})", random_model(seed)


def test_activation_lists_match_the_modulo_rule():
    """The old per-step rule, t % period == 0 over every leaf, is the oracle
    for the compiled activation lists and the strides over four
    hyperperiods."""
    for name, m in activation_models():
        eng = DiagramEngine(m.root, m.triggers)
        active, span, div = _activation(eng, m.base_step)
        periods = {path: leaf.period for path, leaf in eng.res.leaves.items()}
        hyper = math.lcm(*((p / m.base_step).numerator for p in periods.values()))
        assert span == hyper, name
        for step in range(4 * hyper):
            t = step * m.base_step
            want = [path for path in eng.res.order if t % periods[path] == 0]
            assert [st[0] for st in active(step)] == want, f"{name} step {step}"
            assert [path for path in eng.res.order if step % div[path] == 0] == want


def test_trigger_gating_matches_the_member_scan():
    """Each leaf keeps its own enable chain, then gains the control of every
    trigger group with a member equal to or above it, in trigger and member
    order."""
    for name, m in activation_models():
        n = normalize(m).model
        plain = resolve_wiring(n.root).controls
        for path, chain in resolve_wiring(n.root, n.triggers).controls.items():
            want = plain[path] + [tg.control for tg in n.triggers for mid in tg.members
                                  if path == mid or path.startswith(mid + "/")]
            assert chain == want, f"{name} {path}"


def _resorted_order(res):
    """The former evaluation order, kept as the oracle: pop the first ready
    leaf, re-sort the ready list on every release."""
    deps = {p: set() for p in res.leaves}
    for p, leaf in res.leaves.items():
        if kinds.KINDS[leaf.kind].feedthrough:
            deps[p].update(src for src, _ in res.producers[p] if src != p)
        deps[p].update(src for src, _ in res.controls[p] if src != p)
    ready = sorted(p for p in deps if not deps[p])
    consumers = {p: [c for c in deps if p in deps[c]] for p in deps}
    pending = {p: len(ds) for p, ds in deps.items()}
    order = []
    while ready:
        p = ready.pop(0)
        order.append(p)
        freed = []
        for c in consumers[p]:
            pending[c] -= 1
            if pending[c] == 0:
                freed.append(c)
        if freed:
            ready = sorted(ready + freed)
    return order


def test_evaluation_order_matches_the_resorted_list():
    for name, m in activation_models():
        flat = normalize(m).model
        for root, triggers in ((m.root, ()), (flat.root, flat.triggers)):
            res = resolve_wiring(root, triggers)
            assert res.order == _resorted_order(res), name


def test_offgrid_periods_run_on_their_own_grid():
    # base 1/2: c fires at t = 0, 3/4 ... only where a base step lands
    # (steps 0, 3, 6), g at steps 0, 5; y and d every second step
    tr = run_mil(offgrid_model(), 12)
    assert [str(t) for t, _ in tr.samples["y"]] == ["0", "1", "2", "3", "4", "5"]
    # d latches g's output at d's activations: g is 6.0 from step 0 on
    assert out_values(tr) == [0.0, 6.0, 6.0, 6.0, 6.0, 6.0]


def half_step_model():
    """Base step 1/2: u, g and y run every base step, c and z every second."""
    half = {"num": 1, "den": 2}
    children = [blk("u", "Inport", {"index": 0}, outs=[F1], sample_time=half),
                blk("g", "Gain", {"gain": 2.0}, ins=[F1], outs=[F1], sample_time=half),
                blk("y", "Outport", {"index": 0}, ins=[F1], sample_time=half),
                blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
                blk("z", "Outport", {"index": 1}, ins=[F1], st=1)]
    conns = [conn(("u", 0), ("g", 0)), conn(("g", 0), ("y", 0)), conn(("c", 0), ("z", 0))]
    return load_model({"name": "half", "base_step": half, "data_stores": [],
                       "root": {"id": "root", "kind": "Subsystem",
                                "params": {"mode": "normal"},
                                "ports": {"in": [], "out": []},
                                "children": children, "connections": conns}})


def test_trace_times_are_canonical():
    """Whole times are ints and the others reduced Fractions, whatever form
    the stimulus gave them in."""
    m = half_step_model()
    g, _ = translate(normalize(m))
    stim = ramp("u", Fraction(1, 2), 12)          # Fraction(k, 2), whole or not
    csv = "time,signal,value\n0,u,0.0\n2/4,u,1.0\n1.0,u,2.0\n3/2,u,3.0\n+2,u,4.0\n"
    doc = {"signals": [{"name": "u", "dtype": "f64", "width": 1,
                        "samples": [[[0, 1], 0.0], [[2, 4], 1.0], [[4, 4], 2.0]]}]}
    sched = build_schedule(g)
    traces = {"run_mil": run_mil(m, 12, stim),
              "run_sil": run_sil(g, int(Fraction(6) / sched.span), stim, schedule=sched),
              "from_csv": Trace.from_csv(csv, {"u": ("f64", 1)}),
              "from_csv(to_csv)": Trace.from_csv(stim.to_csv(), stim.specs),
              "from_json": Trace.from_json(doc),
              "from_json(to_json)": Trace.from_json(stim.to_json())}
    for name, tr in traces.items():
        times = [t for pts in tr.samples.values() for t, _ in pts]
        assert {type(t) for t in times} == {int, Fraction}, name
        assert all(type(t) is int or t.denominator != 1 for t in times), name
    assert [t for t, _ in traces["from_csv"].samples["u"]] == [0, Fraction(1, 2), 1,
                                                               Fraction(3, 2), 2]
    assert traces["run_sil"].samples == traces["run_mil"].samples


def test_whole_times_build_no_fraction_per_sample(transmission, monkeypatch):
    """Stimulus parse, both engines, clip and compare on whole times: the
    Fractions built do not grow with the run length."""
    g, _ = translate(normalize(transmission))
    sched = build_schedule(g)

    def fractions_built(steps):
        text = ramp("throttle", Fraction(1), steps).to_csv()
        end = Fraction(steps)
        periods = int(end / sched.span)
        built = 0
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return new(cls, *args, **kwargs)
        with monkeypatch.context() as mp:
            mp.setattr(Fraction, "__new__", staticmethod(counted))
            Fraction(1, 2)  # one built on purpose, so a count of 0 means a dead counter
            stim = Trace.from_csv(text, {"throttle": ("f64", 1)})
            mil = run_mil(transmission, steps, stim)
            sil = run_sil(g, periods, stim, schedule=sched)
            assert compare_traces(mil.clip(end), sil.clip(end)).ok
        return built

    assert 0 < fractions_built(64) == fractions_built(128)


def test_sil_underflow_is_an_error(multirate):
    g, _ = translate(normalize(multirate))
    s = build_schedule(g)
    early = dataclasses.replace(s, firings=list(reversed(s.firings)))
    with pytest.raises(UnderflowError, match=f"firing {early.firings[0]} needs"):
        run_sil(g, 1, schedule=early)


def test_sil_token_count_is_checked_at_the_iteration_boundary(multirate):
    g, _ = translate(normalize(multirate))
    s = build_schedule(g)
    source = next(a for a in g.actors if not a.in_ports)
    extra = dataclasses.replace(s, firings=s.firings + (source.id,))
    with pytest.raises(InconsistentError, match="at the iteration boundary"):
        run_sil(g, 1, schedule=extra)


def test_absent_stimulus_reads_zero(transmission):
    tr = run_mil(transmission, 4)
    # throttle reads 0.0, so rpm is 800 and the rev limit is not crossed
    assert tr.samples["high"][0][1] is False
    gear0 = tr.samples["gear"][0][1]
    assert tr.samples["torque"][0][1] == 800.0 * gear0


def test_absent_stimulus_reads_zero_in_every_form(transmission, monkeypatch):
    """An Inport without a signal reads the zero token: the same trace as an
    all-zero stimulus, from MIL and SIL, interpreted and compiled."""
    steps = 64  # 16 hyperperiods and 16 schedule periods
    zeros = ramp("throttle", Fraction(1), steps, lambda k: 0.0)
    g, _ = translate(normalize(transmission))
    for limit in (math.inf, 1):  # interpreted, then compiled
        monkeypatch.setattr(mil, "_COMPILE_SPANS", limit)
        monkeypatch.setattr(sil, "_COMPILE_PERIODS", limit)
        for run in (lambda s: run_mil(transmission, steps, s),
                    lambda s: run_sil(g, steps // 4, s)):
            tr = run(None)
            assert tr.to_csv() == run(zeros).to_csv(), limit
            assert set(out_values(tr, "high")) == {False}, limit


# ---------------------------------------------------------------------------
# binding


def test_actor_with_every_output_dropped_only_consumes(monkeypatch):
    """A Chart whose only output no channel reads still has its params
    checked at load, and run_sil does not bind them: it only consumes."""
    chart = {"states": ["a", "b"], "initial": "a",
             "transitions": [{"from": "a", "to": "b", "input": 0, "op": ">", "value": 0.5}],
             "outputs": {"a": [0.0], "b": [1.0]}}
    m = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("ch", "Chart", chart, st=1, ins=[F1], outs=[F1]),
               blk("y", "Outport", {"index": 0}, st=1, ins=[F1])],
              [conn(("c", 0), ("ch", 0)), conn(("c", 0), ("y", 0))])
    doc = save_sdfg(translate(normalize(m))[0])
    act = next(a for a in doc["actors"] if a["kind"] == "Chart")
    assert not [c for c in doc["channels"] if c["src"][0] == "ch"]
    act["state"]["params"]["transitions"][0]["op"] = "=~"
    with pytest.raises(SchemaError, match=r"actor ch: Chart transition 0 op"):
        load_sdfg(doc)
    act["state"]["params"]["transitions"][0]["op"] = ">"
    g = load_sdfg(doc)
    binds = []
    monkeypatch.setattr(kinds.KINDS["Chart"], "bind", lambda *args: binds.append(args))
    assert out_values(run_sil(g, 3)) == [1.0] * 3
    assert binds == []


def test_each_leaf_and_actor_is_bound_once_per_run(transmission, monkeypatch):
    g, _ = translate(normalize(transmission))
    sched = build_schedule(g)
    leaves = len(DiagramEngine(transmission.root, transmission.triggers).res.leaves)
    actors = sum(1 for a in g.actors if a.out_ports and a.kind != "Outport")
    binds = 0
    for k in kinds.KINDS.values():
        def counted(*args, _bind=k.bind):
            nonlocal binds
            binds += 1
            return _bind(*args)
        monkeypatch.setattr(k, "bind", counted)

    def bound(run, *args, **kwargs) -> int:
        nonlocal binds
        binds = 0
        run(*args, **kwargs)
        return binds

    for steps in (64, 128):
        assert bound(run_mil, transmission, steps) == leaves
        assert bound(run_sil, g, int(steps / sched.span), schedule=sched) == actors


# ---------------------------------------------------------------------------
# the compiled replay: a run of at least N periods replays through one
# generated function.  A replay of P periods is a prefix of the replay of
# P + 1, so the compiled replay of N periods, clipped to N - 1 of them,
# must print exactly what the interpreter prints for N - 1 periods.

N = sil._COMPILE_PERIODS


@pytest.fixture
def sources(monkeypatch):
    """The period source of each compiled replay, in run order."""
    seen = []

    def spy(*args):
        src, ns = period_code(*args)
        seen.append(src)
        return src, ns
    period_code = sil._period_code
    monkeypatch.setattr(sil, "_period_code", spy)
    return seen


def replays(g, stim=None):
    """The compiled replay of N periods clipped to N - 1, and the
    interpreted replay of N - 1 periods: each one's CSV lines, or the
    type and message of what it raised."""
    def outcome(periods):
        try:
            return run_sil(g, periods, stim).clip((N - 1) * sil_span(g)).to_csv().splitlines()
        except (SdflowError, ArithmeticError) as e:
            return type(e), str(e)
    return outcome(N), outcome(N - 1)


def first_difference(compiled, interpreted):
    """None when the two outcomes are equal, else the first CSV line that
    differs, or both errors: a failure's report stays short."""
    if compiled == interpreted:
        return None
    if isinstance(compiled, tuple) or isinstance(interpreted, tuple):
        return compiled, interpreted
    return next(((n, a, b) for n, (a, b) in enumerate(zip(compiled, interpreted)) if a != b),
                (len(compiled), len(interpreted)))


def long_stimulus(m, g, seed=1):
    return random_stimulus(m, math.ceil(N * sil_span(g) / m.base_step), seed)


def depth_graph(m, depth):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DepthWarning)  # depth above the height
        return translate(normalize(m, depth))[0]


@pytest.mark.parametrize("depth", [None, 0, 1])
@pytest.mark.parametrize("name", ["multirate", "multirate_rt", "transmission", "climate"])
def test_compiled_replay_matches_the_interpreter_on_the_fixtures(name, depth, sources):
    m = load_fixture(name)
    g = depth_graph(m, depth)
    assert first_difference(*replays(g, long_stimulus(m, g))) is None
    assert len(sources) == 1  # N periods compiled, N - 1 interpreted


@pytest.mark.parametrize("first", range(0, 200, 50))
def test_compiled_replay_matches_the_interpreter_on_random_models(first, sources):
    for seed in range(first, first + 50):
        m = random_model(seed)
        g = translate(normalize(m))[0]
        assert first_difference(*replays(g, long_stimulus(m, g, seed))) is None, f"random_model({seed})"
    assert len(sources) == 50


def feedback_graph():
    """4:1 rate transitions around a feedback loop with one delay token:
    s fires four times per period, reading c and the loop; d keeps the
    last of each four (three preloaded), g fires once when all four of
    i's enable tokens are on, and u hands each g output back four times.
    The Inport j, gated by i too, has no stimulus and holds zero."""
    f, e = Port("f64", 1), Port("bool", 1, event=True)
    actors = [Actor("c", "Constant", {"value": 1.0}, Fraction(1), (), (f,)),
              Actor("i", "Inport", {"index": 0}, Fraction(1), (), (Port("bool", 1),)),
              Actor("s", "Sum", {"signs": "++"}, Fraction(1), (f, f), (f,)),
              Actor("d", "RateTransition", {}, Fraction(4), (f,), (f,)),
              Actor("g", "Gain", {"gain": 0.5}, Fraction(4), (f, e), (f,)),
              Actor("u", "RateTransition", {}, Fraction(4), (f,), (f,)),
              Actor("y1", "Outport", {"index": 0}, Fraction(1), (f,), ()),
              Actor("y2", "Outport", {"index": 1}, Fraction(4), (f,), ()),
              Actor("j", "Inport", {"index": 1}, Fraction(4), (e,), (f,)),
              Actor("y3", "Outport", {"index": 2}, Fraction(4), (f,), ())]
    chans = [Channel("c0", ("c", 0), ("s", 0), 1, 1),
             Channel("c1", ("u", 0), ("s", 1), 4, 1, 1, (0.25,)),
             Channel("c2", ("s", 0), ("d", 0), 1, 4, 3, (0.0,) * 3),
             Channel("c3", ("s", 0), ("y1", 0), 1, 1),
             Channel("c4", ("d", 0), ("g", 0), 1, 1),
             Channel("c5", ("i", 0), ("g", 1), 1, 4, dtype="bool"),
             Channel("c6", ("g", 0), ("u", 0), 1, 1),
             Channel("c7", ("g", 0), ("y2", 0), 1, 1),
             Channel("c8", ("i", 0), ("j", 0), 1, 4, dtype="bool"),
             Channel("c9", ("j", 0), ("y3", 0), 1, 1)]
    return Sdfg("feedback", tuple(actors), tuple(chans))


def test_compiled_replay_matches_the_interpreter_on_rates_delays_and_gates(sources):
    g = feedback_graph()
    rng = random.Random(5)
    stim = Trace()
    stim.declare("i", "bool", 1)
    for k in range(4 * N):
        stim.add("i", k, rng.random() < 0.9)
    assert first_difference(*replays(g, stim)) is None
    assert "all(map(truth, " in sources[0]
    # the loop holds: g fired enabled at least once, and held in between
    y2 = out_values(run_sil(g, N - 1, stim), "y2")
    assert len(set(y2)) > 2 and any(a == b for a, b in zip(y2, y2[1:]))


@pytest.mark.parametrize("case", ["hostile_ids", "enabled_depth_0"])
def test_compiled_replay_matches_the_interpreter_on_ids_and_embedded_diagrams(case, sources):
    if case == "hostile_ids":
        m, stim = hostile_ids_model(), None
        g = translate(normalize(m))[0]
    else:
        m = enabled_model()
        g = depth_graph(m, 0)
        stim = gate_trace([k % 3 != 0 for k in range(N)])
        assert "Subsystem" in {a.kind for a in g.actors}
    assert first_difference(*replays(g, stim)) is None
    assert len(sources) == 1


def test_compiled_replay_raises_what_the_interpreter_raises(sources):
    # 1000 / u in i32 divides by zero at step N - 2, inside both runs
    m = model([blk("u", "Inport", {"index": 0}, st=1, outs=[I1]),
               blk("c", "Constant", {"value": 1000}, st=1, outs=[I1]),
               blk("p", "Product", {"ops": "*/"}, ins=[I1, I1], outs=[I1]),
               blk("y", "Outport", {"index": 0}, ins=[I1])],
              [conn(("c", 0), ("p", 0), I1), conn(("u", 0), ("p", 1), I1),
               conn(("p", 0), ("y", 0), I1)])
    g = translate(normalize(m))[0]
    stim = Trace()
    stim.declare("u", "i32", 1)
    for k in range(N):
        stim.add("u", k, 0 if k == N - 2 else 1 + k % 7)
    compiled, interpreted = replays(g, stim)
    assert compiled == interpreted == (ZeroDivisionError, "integer division or modulo by zero")
    assert len(sources) == 1


def test_a_compiled_replay_leaves_no_reference_cycle(transmission, sources):
    # the generated function's globals hold the function; the run clears them
    g = translate(normalize(transmission))[0]
    gc.collect()
    gc.disable()
    try:
        run_sil(g, N, ramp("throttle", Fraction(1), N * 4))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(sources) == 1


POSITIONAL = re.compile(r"[A-Za-z][0-9]*|def|run|for|in|if|and|pass|range|periods"
                        r"|truth|all|map|True|None")


def source_tokens(src):
    """The tokens of `src` that are neither positional names, integer
    literals, fixed keywords nor punctuation."""
    return [t.string for t in tokenize.generate_tokens(io.StringIO(src).readline)
            if t.type == tokenize.NAME and not POSITIONAL.fullmatch(t.string)
            or t.type == tokenize.NUMBER and not t.string.isdigit()
            or t.type == tokenize.OP and t.string not in set("=()[],:+*")
            or t.type not in (tokenize.NAME, tokenize.NUMBER, tokenize.OP, tokenize.NEWLINE,
                              tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)]


@pytest.mark.parametrize("case", ["multirate", "multirate_rt", "transmission", "climate",
                                  "hostile_ids"])
def test_period_source_holds_only_positional_names(case, sources):
    m = hostile_ids_model() if case == "hostile_ids" else load_fixture(case)
    for depth in (None, 0, 1):
        g = depth_graph(m, depth)
        run_sil(g, N, long_stimulus(m, g))
    assert len(sources) == 3
    assert [source_tokens(src) for src in sources] == [[], [], []]


def test_period_source_is_linear_in_the_firings(sources):
    # r writes 1000 tokens per firing onto a channel preloaded with 1000,
    # and g fires 1000 times into s, which reads them as one block behind
    # 999 preloaded ones: a source per token would be thousands of lines
    f = Port("f64", 1)
    g = Sdfg("wide", (
        Actor("c", "Constant", {"value": 1.0}, Fraction(1000), (), (f,)),
        Actor("r", "RateTransition", {}, Fraction(1000), (f,), (f,)),
        Actor("g", "Gain", {"gain": 2.0}, Fraction(1), (f,), (f,)),
        Actor("s", "RateTransition", {}, Fraction(1000), (f,), (f,)),
        Actor("y", "Outport", {"index": 0}, Fraction(1000), (f,), ())), (
        Channel("c0", ("c", 0), ("r", 0), 1, 1),
        Channel("c1", ("r", 0), ("g", 0), 1000, 1, 1000, (0.5,) * 1000),
        Channel("c2", ("g", 0), ("s", 0), 1, 1000, 999, (0.0,) * 999),
        Channel("c3", ("s", 0), ("y", 0), 1, 1)))
    sum_q = len(build_schedule(g).firings)
    tr = run_sil(g, N)
    assert sum_q == 1004
    assert len(sources[0].splitlines()) <= 3 * sum_q
    assert source_tokens(sources[0]) == []
    # g reads the preload, then c's value; s keeps the last of each block
    assert out_values(tr)[:3] == [1.0, 2.0, 2.0]


# ---------------------------------------------------------------------------
# the compiled MIL run: a run of at least M hyperperiods runs its whole
# hyperperiods through one generated function and ticks the rest.  A run
# of S steps is a prefix of the run of S + 1, so the compiled run of S
# steps, clipped to S - 1 of them, must print exactly what the
# interpreter prints for S - 1 steps.

M = mil._COMPILE_SPANS


@pytest.fixture
def span_sources(monkeypatch):
    """The hyperperiod source of each compiled MIL run, in run order."""
    seen = []

    def spy(*args):
        src, ns = span_code(*args)
        seen.append(src)
        return src, ns
    span_code = mil._span_code
    monkeypatch.setattr(mil, "_span_code", spy)
    return seen


def hyperperiod(m):
    _, span, _ = _activation(DiagramEngine(m.root, m.triggers), m.base_step)
    return span


def mil_runs(m, steps, stim=None):
    """The run of `steps` base steps clipped to steps - 1, and the run of
    steps - 1 with compiling switched off: each one's CSV lines, or the
    type and message of what it raised."""
    def outcome(n):
        try:
            return run_mil(m, n, stim).clip((steps - 1) * m.base_step).to_csv().splitlines()
        except (SdflowError, ArithmeticError) as e:
            return type(e), str(e)
    compiled = outcome(steps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mil, "_COMPILE_SPANS", math.inf)
        return compiled, outcome(steps - 1)


def mil_forms(m):
    """The source model and its normalized forms at depths full, 0 and 1."""
    yield "source", m
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DepthWarning)  # depth above the height
        for depth in (None, 0, 1):
            yield f"depth {depth}", normalize(m, depth).model


@pytest.mark.parametrize("name", ["multirate", "multirate_rt", "transmission", "climate"])
def test_compiled_mil_matches_the_interpreter_on_the_fixtures(name, span_sources):
    m = load_fixture(name)
    steps = M * hyperperiod(m)
    stim = random_stimulus(m, steps, 1)
    for form, fm in mil_forms(m):
        assert first_difference(*mil_runs(fm, steps, stim)) is None, form
    assert len(span_sources) == 4  # each form compiled once, interpreted once


@pytest.fixture(scope="module")
def random_corpus():
    """random_model(0..199), each with its span and a stimulus of three
    hyperperiods, built once for the module; the models are not edited."""
    corpus = []
    for seed in range(200):
        m = random_model(seed)
        span = hyperperiod(m)
        corpus.append((seed, m, span, random_stimulus(m, 3 * span, seed)))
    return corpus


@pytest.mark.parametrize("first", range(0, 200, 100))
def test_compiled_mil_matches_the_interpreter_on_random_models(first, random_corpus,
                                                               span_sources, monkeypatch):
    # two hyperperiods compile, so the loop runs twice before a tail of
    # seed % span steps; the source does not depend on the threshold
    monkeypatch.setattr(mil, "_COMPILE_SPANS", 2)
    for seed, m, span, stim in random_corpus[first:first + 100]:
        for form, fm in mil_forms(m):
            outcomes = mil_runs(fm, 2 * span + seed % span + 1, stim)
            assert first_difference(*outcomes) is None, f"random_model({seed}) {form}"
    assert len(span_sources) == 400


@pytest.mark.parametrize("name", ["offgrid", "half_step"])
def test_compiled_mil_matches_the_interpreter_on_fractional_steps_and_a_tail(name, span_sources):
    # base step 1/2 in both; offgrid's periods 3/4, 5/6 and 1/3 make a
    # hyperperiod of 30 steps, half_step's a hyperperiod of 2
    m = offgrid_model() if name == "offgrid" else half_step_model()
    span = hyperperiod(m)
    steps = M * span + span - 1
    assert span > 1 and steps % span and type(canon_time(m.base_step)) is Fraction
    stim = ramp("u", Fraction(1, 2), steps) if name == "half_step" else None
    assert first_difference(*mil_runs(m, steps, stim)) is None
    assert len(span_sources) == 1
    # and every time is canonical: an int when whole, as the interpreter's
    times = [t for pts in run_mil(m, steps, stim).samples.values() for t, _ in pts]
    assert all(type(t) is int or t.denominator != 1 for t in times)
    assert len(span_sources) == 2


def divide_model():
    """y = 1000 / u in i32."""
    return model([blk("u", "Inport", {"index": 0}, st=1, outs=[I1]),
                  blk("c", "Constant", {"value": 1000}, st=1, outs=[I1]),
                  blk("p", "Product", {"ops": "*/"}, ins=[I1, I1], outs=[I1]),
                  blk("y", "Outport", {"index": 0}, ins=[I1])],
                 [conn(("c", 0), ("p", 0), I1), conn(("u", 0), ("p", 1), I1),
                  conn(("p", 0), ("y", 0), I1)])


def test_compiled_mil_raises_what_the_interpreter_raises(span_sources):
    # 1000 / u divides by zero at step M - 2, inside both runs
    stim = Trace()
    stim.declare("u", "i32", 1)
    for k in range(M):
        stim.add("u", k, 0 if k == M - 2 else 1 + k % 7)
    compiled, interpreted = mil_runs(divide_model(), M, stim)
    assert compiled == interpreted == (ZeroDivisionError, "integer division or modulo by zero")
    assert len(span_sources) == 1


@pytest.mark.parametrize("name, steps, gap, t", [
    ("half_step", 2 * M, M + 1, "257/2"),            # inside the hyperperiods
    ("transmission", 4 * M + 3, 4 * M + 1, "1025"),  # past them, in the tail
])
def test_compiled_mil_raises_the_interpreters_missing_sample_error(name, steps, gap, t,
                                                                   span_sources):
    m = load_fixture(name) if name == "transmission" else half_step_model()
    signal = "throttle" if name == "transmission" else "u"
    stim = Trace()
    stim.declare(signal, "f64", 1)
    for k in range(steps):
        if k != gap:
            stim.add(signal, k * m.base_step, float(k))
    compiled, interpreted = mil_runs(m, steps, stim)
    assert compiled == interpreted == (SdflowError,
                                       f"stimulus for {signal!r} has no sample at t={t}")
    assert len(span_sources) == 1


def test_a_compiled_mil_run_leaves_no_reference_cycle(transmission, span_sources,
                                                     monkeypatch):
    # the generated function's globals hold the function; the run clears
    # them, so it leaves what the interpreted run leaves
    steps = M * 4
    stim = ramp("throttle", Fraction(1), steps)

    def garbage():
        gc.collect()
        gc.disable()
        try:
            run_mil(transmission, steps, stim)
            return gc.collect()
        finally:
            gc.enable()
    compiled = garbage()
    monkeypatch.setattr(mil, "_COMPILE_SPANS", math.inf)
    assert compiled == garbage()
    assert len(span_sources) == 1


@pytest.mark.parametrize("name", ["multirate", "multirate_rt", "transmission", "climate"])
def test_the_verify_chain_leaves_no_cyclic_garbage(name):
    # every stage frees what it allocates by reference counting alone: a
    # nested recursive function would hold the closure cell that holds it
    doc = json.loads((MODELS / f"{name}.json").read_text(encoding="utf-8"))
    m = load_model(doc)
    n = normalize(m)
    steps = M * hyperperiod(m)
    stim = random_stimulus(m, steps, 1)
    stages = {"load_model": lambda: load_model(doc),
              "check_requirements": lambda: check_requirements(m),
              "normalize": lambda: normalize(m), "translate": lambda: translate(n),
              "run_mil interpreted": lambda: run_mil(m, 8, stim),
              "run_mil compiled": lambda: run_mil(m, steps, stim)}
    for depth in (None, 0):
        g = depth_graph(m, depth)
        sil_stim = long_stimulus(m, g)
        stages[f"run_sil depth {depth} interpreted"] = lambda g=g, st=sil_stim: run_sil(g, 2, st)
        stages[f"run_sil depth {depth} compiled"] = lambda g=g, st=sil_stim: run_sil(g, N, st)
    found = {}
    gc.collect()
    gc.disable()
    try:
        for stage, run in stages.items():
            run()
            found[stage] = gc.collect()
    finally:
        gc.enable()
    assert found == dict.fromkeys(stages, 0)


def test_a_compiled_run_fires_an_unchanging_leaf_once(monkeypatch, span_sources, sources):
    # half_step's Constant c has no in-port, update or gate and fires every
    # second base step: once per compiled run, once per activation otherwise
    calls = []
    constant = kinds.KINDS["Constant"]
    bind = constant.bind

    def counted(params, in_specs, out_specs):
        state, last, output, update = bind(params, in_specs, out_specs)

        def count(state, ins):
            calls.append(ins)
            return output(state, ins)
        return state, last, count, update
    monkeypatch.setattr(constant, "bind", counted)
    m = half_step_model()
    g = translate(normalize(m))[0]
    steps = M * hyperperiod(m)
    stim = ramp("u", Fraction(1, 2), steps)
    compiled = run_mil(m, steps, stim), run_sil(g, N, stim)
    assert (len(span_sources), len(sources), len(calls)) == (1, 1, 2)
    monkeypatch.setattr(mil, "_COMPILE_SPANS", math.inf)
    monkeypatch.setattr(sil, "_COMPILE_PERIODS", math.inf)
    calls.clear()
    interpreted = run_mil(m, steps, stim), run_sil(g, N, stim)
    assert len(calls) == steps // 2 + N * build_schedule(g).repetition["c"]
    for got, want in zip(compiled, interpreted):
        assert got.to_csv() == want.to_csv()


def test_compiled_mil_tests_each_enable_chain_once_per_step(monkeypatch):
    # climate's three heater/* members share one enable chain: the
    # interpreter, the reference, tests it per member, the compiled run once
    m = load_fixture("climate")
    steps = M * hyperperiod(m)
    stim = random_stimulus(m, steps, 1)
    calls, real = [], kinds.truth

    def truth(v):
        calls.append(v)
        return real(v)
    monkeypatch.setattr(kinds, "truth", truth)
    compiled = run_mil(m, steps, stim)
    assert (hyperperiod(m), len(calls)) == (1, steps)
    calls.clear()
    monkeypatch.setattr(mil, "_COMPILE_SPANS", math.inf)
    assert run_mil(m, steps, stim).to_csv() == compiled.to_csv()
    assert len(calls) == 3 * steps


@pytest.mark.parametrize("name", ["offgrid", "half_step"])
def test_compiled_outport_times_are_the_interpreters(name, monkeypatch):
    # base step 1/2; the MIL run ends with a tail of span - 1 steps, and
    # half_step's graph replays Outports of periods 1/2 and 1 (offgrid's
    # periods do not divide one another, so it has no graph)
    m = offgrid_model() if name == "offgrid" else half_step_model()
    span = hyperperiod(m)
    steps = M * span + span - 1
    stim = None
    runs = [lambda: run_mil(m, steps, stim)]
    if name == "half_step":
        g = translate(normalize(m))[0]
        stim = ramp("u", Fraction(1, 2), steps)
        runs.append(lambda: run_sil(g, N, stim))
    compiled = [run().times for run in runs]
    # whole times are ints, the others reduced Fractions; offgrid's y
    # fires every second base step, at whole times only
    assert {type(t) for times in compiled for ts in times.values() for t in ts} == (
        {int} if name == "offgrid" else {int, Fraction})
    monkeypatch.setattr(mil, "_COMPILE_SPANS", math.inf)
    monkeypatch.setattr(sil, "_COMPILE_PERIODS", math.inf)
    assert list(map(_typed, compiled)) == [_typed(run().times) for run in runs]


MIL_POSITIONAL = re.compile(r"[A-Za-z][0-9]*|def|run|for|in|if|and|pass|range|return|truth")


@pytest.mark.parametrize("case", ["multirate", "multirate_rt", "transmission", "climate",
                                  "hostile_ids", "offgrid"])
def test_hyperperiod_source_holds_only_positional_names(case, span_sources, monkeypatch):
    monkeypatch.setattr(mil, "_COMPILE_SPANS", 1)
    m = {"hostile_ids": hostile_ids_model, "offgrid": offgrid_model}.get(
        case, lambda: load_fixture(case))()
    for _, fm in mil_forms(m):
        span = hyperperiod(fm)
        run_mil(fm, span, random_stimulus(m, span, 1))
    assert len(span_sources) == 4
    tokens = [t for src in span_sources for t in tokenize.generate_tokens(
        io.StringIO(src).readline)]
    assert [t.string for t in tokens
            if t.type == tokenize.NAME and not MIL_POSITIONAL.fullmatch(t.string)
            or t.type == tokenize.NUMBER and not t.string.isdigit()
            or t.type == tokenize.OP and t.string not in set("=()[],:+*")
            or t.type not in (tokenize.NAME, tokenize.NUMBER, tokenize.OP, tokenize.NEWLINE,
                              tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
                              tokenize.ENDMARKER)] == []


@pytest.mark.parametrize("enabled", [True, False])
def test_engines_leave_the_collector_as_they_found_it(enabled, transmission):
    g = translate(normalize(transmission))[0]
    stim = ramp("throttle", Fraction(1), M * 4)
    runs = [lambda: run_mil(transmission, 8, stim), lambda: run_mil(transmission, M * 4, stim),
            lambda: run_sil(g, 2, stim), lambda: run_sil(g, N, stim)]
    before = gc.isenabled(), gc.get_threshold()
    try:
        (gc.enable if enabled else gc.disable)()
        gc.set_threshold(511, 7, 3)
        for run in runs:
            run()
            assert (gc.isenabled(), gc.get_threshold()) == (enabled, (511, 7, 3))
    finally:
        (gc.enable if before[0] else gc.disable)()
        gc.set_threshold(*before[1])


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


def _json_signal(**edit) -> dict:
    s = {"name": "y", "dtype": "f64", "width": 1,
         "samples": [[[0, 1], 0.5], [[1, 1], 1.5]]}
    s.update(edit)
    return {"signals": [s]}


@pytest.mark.parametrize("doc, outcome", [
    ({}, "trace JSON must hold a 'signals' list"),
    (_json_signal(samples=[[[1, 0], 0.5]]), "signal 'y': "),
    (_json_signal(samples=[[1, 0.5]]), "signal 'y': "),
    (_json_signal(samples=[[[1, 1], 0.5], [[1, 1], 1.5]]),
     "signal 'y': a second sample at t=1"),
    (_json_signal(dtype="q"), "signal 'y': "),
    (_json_signal(width=0), "signal 'y': "),
    (_json_signal(name=5), "signal 5: the name must be a string"),
    (_json_signal(samples=[[[2 ** 63, 1], 0.5]]),
     "signal 'y': time out of range: its numerator or denominator does not fit int64"),
    ({"signals": [{"name": "y", "dtype": "f64", "width": 1}]},
     "trace JSON signal 'y' has no 'samples' field"),
    # rows out of time order are sorted, as from_csv sorts them
    (_json_signal(samples=[[[1, 1], 1.5], [[0, 1], 0.5]]), [(0, 0.5), (1, 1.5)]),
], ids=["no_signals", "zero_denominator", "bare_int_time", "repeated_time",
        "unknown_dtype", "zero_width", "name_not_a_string", "time_beyond_int64",
        "no_samples", "out_of_order"])
def test_trace_json_rejects_what_csv_rejects(doc, outcome):
    if isinstance(outcome, list):
        assert list(Trace.from_json(doc).samples["y"]) == outcome
    else:
        with pytest.raises(SchemaError, match=re.escape(outcome)):
            Trace.from_json(doc)


def test_csv_header_is_required():
    with pytest.raises(Exception, match="time,signal,value"):
        Trace.from_csv("nope\n", {})


def test_clip_keeps_what_the_filter_kept(transmission):
    g = translate(normalize(transmission))[0]
    stim = ramp("throttle", Fraction(1), 64, lambda k: (k * 7) % 100 / 2.0)
    for tr in (run_mil(transmission, 64, stim), run_sil(g, 16, stim)):
        for t_end in (0, 1, Fraction(5, 2), 17, 63, 64, 1000):
            clipped = tr.clip(t_end)
            assert clipped.specs == tr.specs
            assert clipped.samples == {sig: tuple((t, v) for t, v in pts if t < t_end)
                                       for sig, pts in tr.samples.items()}


def test_clip_is_strict():
    tr = Trace()
    tr.declare("y", "f64", 1)
    for k in range(3):
        tr.add("y", Fraction(k), float(k))
    assert out_values(tr.clip(Fraction(2))) == [0.0, 1.0]


def test_add_keeps_time_order():
    tr = Trace()
    tr.declare("y", "f64", 1)
    tr.declare("y", "f64", 1)  # again with the same spec: a no-op
    with pytest.raises(ShapeError, match="^signal 'y' re-declared with a different spec$"):
        tr.declare("y", "i32", 1)
    tr.add("y", 2, 1.0)
    tr.add("y", 1, 2.0)
    assert list(tr.clip(2).samples["y"]) == [(1, 2.0)]
    tr.add("y", 1, 3.0)  # after the sample already at t=1
    assert list(tr.samples["y"]) == [(1, 2.0), (1, 3.0), (2, 1.0)]


def test_samples_is_a_read_only_snapshot_of_the_columns():
    tr = sample_trace()
    snapshot = tr.samples
    assert list(snapshot) == list(tr.times) == list(tr.values) == ["f", "v", "i", "b"]
    for sig, pts in snapshot.items():
        assert pts == tuple(zip(tr.times[sig], tr.values[sig]))
    with pytest.raises(TypeError):
        snapshot["f"] = ()
    with pytest.raises(TypeError):
        snapshot["f"][0] = (0, 1.0)
    tr.add("f", 1, 2.0)
    assert len(snapshot["f"]) == 2 and len(tr.samples["f"]) == 3


def test_add_keeps_the_columns_aligned_and_in_time_order():
    tr = Trace()
    tr.declare("y", "i32", 1)
    for t, v in [(2, 20), (0, 0), (3, 30), (1, 10), (2, 21), (0, 1),
                 (Fraction(5, 2), 25), (3, 31), (Fraction(1, 2), 5)]:
        tr.add("y", t, v)
    # samples at one time keep the order they were added in
    assert tr.times["y"] == [0, 0, Fraction(1, 2), 1, 2, 2, Fraction(5, 2), 3, 3]
    assert tr.values["y"] == [0, 1, 5, 10, 20, 21, 25, 30, 31]


def test_compare_rejects_different_signal_sets():
    a, b = Trace(), Trace()
    a.declare("x", "f64", 1)
    b.declare("y", "f64", 1)
    with pytest.raises(ShapeError, match="signal sets differ"):
        compare_traces(a, b)
    b.declare("x", "f64", 1)
    assert str(compare_traces(a, a)) == "traces match over 0 samples (max rel err 0)"


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


def test_divergence_reports_the_earliest_time_across_signals():
    a, b = Trace(), Trace()
    for tr in (a, b):
        for sig in ("A", "B"):
            tr.declare(sig, "f64", 1)
            for t in range(8):
                tr.add(sig, t, 0.0)
    a.values["A"][5] = 1.0
    a.values["B"][1] = 1.0
    r = compare_traces(a, b)
    assert (r.divergence["signal"], r.divergence["time"]) == ("B", "1")
    assert "diverge at B t=1 " in str(r)


def test_divergence_ties_are_broken_by_signal_name():
    a, b = Trace(), Trace()
    for tr in (a, b):
        for sig in ("z", "m", "q"):
            tr.declare(sig, "i32", 1)
            tr.add(sig, 0, 0)
            tr.add(sig, 1, 0)
    for sig in ("z", "q"):
        a.values[sig][1] = 7
    r = compare_traces(a, b)
    assert (r.divergence["signal"], r.divergence["time"]) == ("q", "1")
    # every sample of m and the first two of z and q were compared
    assert r.samples == 6


@pytest.mark.parametrize("diverge, shift, other", [
    (1, 3, None),  # the divergence comes first: the later time is not reached
    (3, 1, None),  # the time mismatch comes first
    (2, 2, None),  # one sample: its time is checked first
    (0, None, 4),  # a divergence in x does not stop y's time mismatch
])
def test_compare_the_earlier_of_a_divergence_and_a_time_mismatch_decides(diverge, shift,
                                                                         other):
    a, b = Trace(), Trace()
    for tr in (a, b):
        for sig in ("x", "y"):
            tr.declare(sig, "f64", 1)
            for t in range(6):
                tr.add(sig, t, float(t))
    b.values["x"][diverge] = -1.0
    if shift is not None:
        b.times["x"][shift] += Fraction(1, 2)
    if other is not None:
        b.times["y"][other] += Fraction(1, 2)
    want = _outcome(_reference_compare, a, b)
    assert _outcome(compare_traces, a, b) == want
    diverged = shift is not None and diverge < shift
    assert isinstance(want, Comparison) == diverged


NAN = math.nan


@pytest.mark.parametrize("dtype, width, va, vb", [
    ("f64", 1, [NAN, 1.0], [NAN, 1.0]),                          # one NaN object
    ("f64", 1, [float("nan"), 1.0], [float("nan"), 1.0]),        # two NaN objects
    ("f64", 1, [-0.0, 0.0], [0.0, -0.0]),
    ("f64", 2, [(NAN, -0.0), (1.0, 2.0)], [(NAN, 0.0), (1.0, 2.0)]),
    ("f64", 2, [(float("nan"), 1.0)], [(float("nan"), 1.0)]),
    ("i32", 1, [True, 0, 7], [1, False, 7]),
    ("bool", 1, [True, False], [1, 0]),
    ("i32", 2, [(True, 2)], [(1, 2)]),
])
def test_compare_on_equal_columns_keeps_the_per_sample_verdict(dtype, width, va, vb):
    a, b = Trace(), Trace()
    for tr, vs in ((a, va), (b, vb)):
        tr.declare("x", dtype, width)
        for t, v in enumerate(vs):
            tr.add("x", t, v)
    got = compare_traces(a, b)
    assert got == _reference_compare(a, b)
    assert got.ok and got.samples == len(va) and got.max_rel == 0.0


def _reference_compare(a, b, tol=0.0):
    """compare_traces as it was before it split elements once per signal:
    token_elems and _scalar_close on every sample, each signal up to its
    first divergence.  compare_traces must return the same Comparison and
    raise the same ShapeError."""
    if set(a.samples) != set(b.samples):
        only_a = sorted(set(a.samples) - set(b.samples))
        only_b = sorted(set(b.samples) - set(a.samples))
        raise ShapeError(f"signal sets differ (only left: {only_a}, only right: {only_b})")
    total = 0
    max_rel = 0.0
    found = []
    for sig in a.samples:
        d, w = a.specs[sig]
        if sig in b.specs and b.specs[sig] != (d, w):
            raise ShapeError(f"signal {sig!r} spec differs: {a.specs[sig]} vs {b.specs[sig]}")
        pa, pb = a.samples[sig], b.samples[sig]
        if len(pa) != len(pb):
            raise ShapeError(f"signal {sig!r} has {len(pa)} vs {len(pb)} samples")
        for i, ((ta, va), (tb, vb)) in enumerate(zip(pa, pb)):
            if ta != tb:
                raise ShapeError(f"signal {sig!r} sample {i} at t={ta} vs t={tb}")
            total += 1
            xs = kinds.token_elems(va, w)
            ys = kinds.token_elems(vb, w)
            diverged = False
            for x, y in zip(xs, ys):
                eq, rel = _scalar_close(d, x, y, tol)
                max_rel = max(max_rel, rel)
                if not eq:
                    diverged = True
                    break
            if diverged:
                found.append((ta, sig, {
                    "signal": sig, "time": str(ta), "index": i,
                    "a": fmt_value(d, w, va), "b": fmt_value(d, w, vb)}))
                break
    if not found:
        return Comparison(True, total, max_rel)
    return Comparison(False, total, max_rel, min(found, key=lambda f: f[:2])[2])


F64_VALUES = [0.0, -0.0, 1.0, 1.0 + 1e-13, 1.0 + 1e-9, -1.0, 1e300, 5e-324,
              math.nan, math.inf, -math.inf]


def _random_pair(rng):
    """Two traces that agree except for a few edits: a nudged or replaced
    value, a shifted time, a dropped sample or a changed spec."""
    a, b = Trace(), Trace()
    for k in range(rng.randint(1, 3)):
        d, w = rng.choice(["f64", "f64", "i32", "bool"]), rng.randint(1, 3)
        pick = {"f64": lambda: rng.choice(F64_VALUES),
                "i32": lambda: rng.choice([0, -1, 7, 2**31 - 1]),
                "bool": lambda: rng.random() < 0.5}[d]
        sig = f"s{k}"
        a.declare(sig, d, w)
        b.declare(sig, d, w)
        for n in range(rng.randint(0, 6)):
            v = pick() if w == 1 else tuple(pick() for _ in range(w))
            t = Fraction(n, rng.choice([1, 1, 2]))
            a.add(sig, t, v)
            b.add(sig, t, v)
        for _ in range(rng.choice([0, 0, 1, 2])):
            ts, vs = b.times[sig], b.values[sig]
            edit = rng.random()
            if not ts or edit < 0.05:
                b.specs[sig] = (d, w + 1)
            elif edit < 0.1:
                ts.pop()
                vs.pop()
            else:
                i = rng.randrange(len(ts))
                if edit < 0.15:
                    ts[i] += 1
                elif w == 1:
                    vs[i] = pick()
                else:
                    vs[i] = tuple(pick() if rng.random() < 0.5 else x for x in vs[i])
    return a, b


def test_compare_matches_the_per_sample_reference():
    rng = random.Random(3)
    verdicts = Counter()
    for _ in range(3000):
        a, b = _random_pair(rng)
        tol = rng.choice([0.0, 1e-12, 1e-3])
        want = got = None
        try:
            want = _reference_compare(a, b, tol)
        except ShapeError as e:
            want = str(e)
        try:
            got = compare_traces(a, b, tol)
        except ShapeError as e:
            got = str(e)
        assert got == want
        verdicts[type(want).__name__ if isinstance(want, str) else want.ok] += 1
    # matches, divergences and shape errors were all exercised
    assert min(verdicts[True], verdicts[False], verdicts["str"]) > 100, verdicts


# ---------------------------------------------------------------------------
# trace CSV and stimulus lookup against their per-sample references


def _ref_fmt_scalar(dtype, v):
    if dtype == "bool":
        return "1" if v else "0"
    if dtype == "i32":
        return str(v)
    return repr(v)


def _ref_to_csv(tr):
    """Trace.to_csv as it was before it made times canonical ahead of one
    sort and bound each signal's formatter once."""
    rows = ["time,signal,value"]
    merged = []
    for sig, pts in tr.samples.items():
        d, w = tr.specs[sig]
        merged.extend((t, sig, _ref_fmt_scalar(d, v) if w == 1 else
                       ";".join(_ref_fmt_scalar(d, e) for e in v)) for t, v in pts)
    merged.sort(key=lambda r: (r[0], r[1]))
    rows.extend(f"{time_str(t)},{sig},{val}" for t, sig, val in merged)
    return "\n".join(rows) + "\n"


def _ref_parse_value(dtype, width, s):
    def scalar(s):
        if dtype == "bool":
            if s not in ("0", "1"):
                raise SchemaError(f"bool sample must be 0 or 1, got {s!r}")
            return s == "1"
        if dtype == "i32":
            return int(s)
        return float(s)
    if width == 1:
        return scalar(s)
    parts = s.split(";")
    if len(parts) != width:
        raise SchemaError(f"expected {width} elements, got {len(parts)}")
    return tuple(scalar(p) for p in parts)


def _ref_parse_time(s):
    if s.isdigit() and s.isascii():
        return int(s)
    return canon_time(Fraction(s))


def _ref_from_csv(text, specs):
    """Trace.from_csv as it was before it bound each signal's parser once:
    no i32 range check, and two rows for one signal and time both kept."""
    tr = Trace()
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != "time,signal,value":
        raise SchemaError("trace CSV must start with 'time,signal,value'")
    for n, ln in lines[1:]:
        fields = ln.split(",", 2)
        if len(fields) != 3:
            raise SchemaError(f"trace CSV line {n}: expected time,signal,value")
        ts, sig, val = fields
        if sig not in tr.specs:
            if sig not in specs:
                raise ShapeError(f"trace CSV mentions unknown signal {sig!r}")
            tr.declare(sig, *specs[sig])
        try:
            tr.add(sig, _ref_parse_time(ts), _ref_parse_value(*specs[sig], val))
        except (SchemaError, ValueError, ZeroDivisionError) as e:
            raise SchemaError(f"trace CSV line {n}: {e}") from None
    return tr  # add kept each signal in time order, as a stable sort would


def _ref_stim_table(stimulus, units):
    """stimulus_table as it was before canonical tokens passed straight
    through: kinds.canon_token on every sample, divmod on every time."""
    if stimulus is None:
        return {}
    table = {}
    for sig, pts in stimulus.samples.items():
        d, w = stimulus.specs[sig]
        toks = [(t, kinds.canon_token(d, w, v)) for t, v in pts]
        unit = units.get(sig)
        if unit is None:
            continue
        rows = table[sig] = {}
        for t, tok in toks:
            n, r = divmod(t.numerator * unit.denominator, t.denominator * unit.numerator)
            if not r:
                rows[n] = tok
    return table


def _typed(x):
    """`x` with the type of every scalar in it, floats by repr, so that
    equal results compare equal including NaN, -0.0, int and Fraction."""
    if isinstance(x, (tuple, list)):
        return (type(x).__name__, [_typed(e) for e in x])
    if isinstance(x, dict):
        return [(_typed(k), _typed(v)) for k, v in x.items()]
    return (type(x).__name__, repr(x))


def _typed_trace(tr):
    return tr.specs, _typed(dict(tr.samples))


def _outcome(f, *args):
    try:
        return f(*args)
    except SdflowError as e:
        return (type(e).__name__, str(e))


I32_EDGES = [0, -1, 7, 2**31 - 1, -2**31, 2**31, -2**31 - 1]


def _random_trace(rng):
    """A trace as engines, tests and the benchmark build it: whole times as
    ints or Fractions, non-whole Fractions, samples added out of order and
    now and then twice for one time; every dtype and width, i32 at and past
    its range, NaN and infinities, an int now and then on an f64 signal."""
    tr = Trace()
    for sig in rng.sample(["s0", "y", "b", "s10", "a"], rng.randint(1, 3)):
        d, w = rng.choice(["f64", "f64", "i32", "bool"]), rng.choice([1, 1, 2, 3])
        pick = {"f64": lambda: rng.choice(F64_VALUES + [rng.uniform(-1e3, 1e3), 3]),
                "i32": lambda: rng.choice(I32_EDGES if rng.random() < 0.1 else I32_EDGES[:5]),
                "bool": lambda: rng.random() < 0.5}[d]
        tr.declare(sig, d, w)
        den = rng.choice([1, 1, 2, 3, 4, 10])
        whole = rng.choice([int, Fraction])
        pts = []
        for n in range(rng.randint(0, 12)):
            t = Fraction(n, den)
            pts.append((whole(t) if t.denominator == 1 else t,
                        pick() if w == 1 else tuple(pick() for _ in range(w))))
        if pts and rng.random() < 0.1:
            pts.append((rng.choice(pts)[0], pts[0][1]))
        if rng.random() < 0.5:
            rng.shuffle(pts)
        for t, v in pts:
            tr.add(sig, t, v)
    return tr


def _is_i32(s):
    try:
        return -2**31 <= int(s) < 2**31
    except ValueError:
        return False


def _first_repeat(text):
    """(line, signal, time) of the first row repeating an earlier row's
    signal and time, in a CSV the reference accepts; None if there is none."""
    rows = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()][1:]
    seen = set()
    for n, ln in rows:
        ts, sig, _ = ln.split(",", 2)
        key = (sig, _ref_parse_time(ts))
        if key in seen:
            return (n, *key)
        seen.add(key)
    return None


def _from_csv_outcome_is_the_reference(text, specs):
    """Trace.from_csv gives what the reference gives, or one of the two
    errors the reference lacks, each at the first line that earns it."""
    want = _outcome(_ref_from_csv, text, specs)
    got = _outcome(Trace.from_csv, text, specs)
    if not isinstance(got, tuple):
        assert isinstance(want, Trace) and _typed_trace(got) == _typed_trace(want)
        return "ok"
    if "i32 literal out of range" in got[1]:
        # the reference accepts every row before that line, and the first
        # element there that is no i32 is an int out of range
        lines = text.splitlines()
        n = int(got[1].split()[3].rstrip(":"))
        assert isinstance(_ref_from_csv("\n".join(lines[:n - 1]), specs), Trace)
        _, _, val = lines[n - 1].split(",", 2)
        bad = int(next(x for x in val.split(";") if not _is_i32(x)))
        assert not -2**31 <= bad < 2**31
        assert got == ("SchemaError", f"trace CSV line {n}: i32 literal out of range: {bad}")
        return "i32"
    if "a second sample of" in got[1]:
        # the reference accepts every row, and keeps both samples
        assert isinstance(want, Trace)
        n, sig, t = _first_repeat(text)
        assert got == ("SchemaError", f"trace CSV line {n}: a second sample of "
                                      f"{sig!r} at t={time_str(t)}")
        return "repeat"
    assert got == want
    return "error"


def test_to_csv_matches_the_reference():
    rng = random.Random(11)
    for _ in range(600):
        tr = _random_trace(rng)
        assert tr.to_csv() == _ref_to_csv(tr)


def test_from_csv_matches_the_reference():
    rng = random.Random(12)
    kinds_seen = Counter()
    for _ in range(600):
        tr = _random_trace(rng)
        kinds_seen[_from_csv_outcome_is_the_reference(_ref_to_csv(tr), tr.specs)] += 1
    assert min(kinds_seen[k] for k in ("ok", "i32", "repeat")) > 10, kinds_seen


BAD_TIMES = ["x", "", "1/0", "-", "1.5.2", " 3", "+2", "-1", "1e3", "0x10", "\u0661",
             "1_0", "2/4", "0.25", "nan", "inf"]
BAD_VALUES = ["", "abc", "nan", "-inf", "2", "-1", "1;2", "0;1;1", "0.5", "True", " 1 ",
              "2147483648", "-2147483649", "1_000", "1e400", "\u0662"]


def _malformed(rng, text):
    """`text` with one to three edits that a hand-written CSV might have."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines) + 1)
        edit = rng.random()
        if edit < 0.1:
            lines.insert(i, rng.choice(["", "  ", "\t", "no commas", "a,b"]))
        elif edit < 0.15:
            lines[0] = rng.choice(["time,signal", "Time,signal,value", " time,signal,value", ""])
        elif i == 0 or i == len(lines):
            lines.append(rng.choice(["", "0,s0,1", "0,nope,1", "0,s0"]))
        else:
            ts, sig, val = (lines[i].split(",", 2) + ["", ""])[:3]
            if edit < 0.4:
                ts = rng.choice(BAD_TIMES)
            elif edit < 0.8:
                val = rng.choice(BAD_VALUES)
            elif edit < 0.9:
                sig = rng.choice(["nope", "", "s9"])
            else:
                val += rng.choice([",", ",1", ";"])
            lines[i] = f"{ts},{sig},{val}"
    return "\r\n".join(lines) + rng.choice(["", "\n", "\n\n"])


def test_from_csv_matches_the_reference_on_malformed_text():
    rng = random.Random(13)
    kinds_seen = Counter()
    for _ in range(1500):
        tr = _random_trace(rng)
        text = _malformed(rng, _ref_to_csv(tr))
        kinds_seen[_from_csv_outcome_is_the_reference(text, tr.specs)] += 1
    assert min(kinds_seen.values()) > 10 and len(kinds_seen) == 4, kinds_seen


def test_stim_table_matches_the_reference():
    rng = random.Random(14)
    verdicts = Counter()
    for _ in range(600):
        tr = _random_trace(rng)
        if rng.random() < 0.2:  # a width-1 token may come as a one-element list
            sig = rng.choice(tr.signals())
            tr.values[sig] = [[v] if tr.specs[sig][1] == 1 else list(v)
                              for v in tr.values[sig]]
        units = {sig: rng.choice([Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 2)])
                 for sig in tr.signals() if rng.random() < 0.8}
        want = _outcome(_ref_stim_table, tr, units)
        got = _outcome(stimulus_table, tr,
                       {sig: (unit, tr.specs[sig]) for sig, unit in units.items()})
        assert _typed(got) == _typed(want)
        verdicts[isinstance(want, tuple)] += 1
    assert min(verdicts.values()) > 50, verdicts


def test_trace_csv_rejects_an_i32_out_of_range():
    specs = {"u": ("i32", 1), "v": ("i32", 2)}
    for row, n in [("1,u,2147483648", 3), ("0,v,1;-2147483649", 2)]:
        text = f"time,signal,value\n{'0,u,-2147483648' if n == 3 else row}\n{row}\n"
        with pytest.raises(SchemaError, match=f"^trace CSV line {n}: i32 literal out of range"):
            Trace.from_csv(text, specs)
    tr = Trace.from_csv("time,signal,value\n0,u,2147483647\n0,v,-2147483648;0\n", specs)
    assert {sig: list(pts) for sig, pts in tr.samples.items()} == {
        "u": [(0, 2**31 - 1)], "v": [(0, (-2**31, 0))]}


@pytest.mark.parametrize("ts", ["1e100000000", "1e-100000000", "1E+4_301", "2.5e-4301 "])
def test_trace_csv_refuses_a_huge_time_exponent_at_once(ts):
    # Fraction would build 10**exponent first, for minutes or hours
    text = f"time,signal,value\n0,u,1\n{ts},u,2\n"
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="^trace CSV line 3: time exponent out of range: "):
        Trace.from_csv(text, {"u": ("f64", 1)})
    assert time.perf_counter() - start < 1.0


def test_trace_csv_parses_a_time_exponent_up_to_the_bound():
    text = ("time,signal,value\n1e3,u,1\n9223372036854775807,u,2\n5e-18,u,3\n2E+0,u,4\n"
            f"3{'0' * 40}e-4_0,u,5\n")
    tr = Trace.from_csv(text, {"u": ("f64", 1)})
    assert tr.times["u"] == [Fraction(5, 10 ** 18), 2, 3, 1000, 2 ** 63 - 1]
    assert list(map(type, tr.times["u"])) == [Fraction, int, int, int, int]


@pytest.mark.parametrize("ts", ["9223372036854775808", "-9223372036854775809", "1e19",
                                "1/9223372036854775808", "1e-19", "7" * 4300],
                         ids=["2**63", "-2**63-1", "1e19", "den_2**63", "1e-19", "4300_digits"])
def test_trace_csv_refuses_a_time_beyond_int64(ts):
    text = f"time,signal,value\n0,u,1\n{ts},u,2\n{ts},u,3\n"
    with pytest.raises(SchemaError, match=r"^trace CSV line 3: time out of range: its "
                       r"numerator or denominator does not fit int64$"):
        Trace.from_csv(text, {"u": ("f64", 1)})


def test_trace_csv_rejects_a_second_row_for_one_time():
    specs = {"u": ("f64", 1), "v": ("f64", 1)}
    text = "time,signal,value\n0,u,1\n1/2,v,2\n1,u,3\n\n0.5,v,4\n0/1,u,7\n"
    with pytest.raises(SchemaError, match=r"^trace CSV line 6: a second sample of 'v' at t=0.5$"):
        Trace.from_csv(text, specs)
    # a parse error anywhere comes first: repeats are found once every row parsed
    with pytest.raises(SchemaError, match="^trace CSV line 8: could not convert"):
        Trace.from_csv(text + "2,u,x\n", specs)


def test_stimulus_lookup_canonicalises_no_canonical_sample(transmission, monkeypatch):
    """Both engines on a stimulus read from CSV: the kinds.canon_token
    calls do not grow with the run length."""
    g, _ = translate(normalize(transmission))
    sched = build_schedule(g)

    def canon_calls(steps):
        stim = Trace.from_csv(ramp("throttle", Fraction(1), steps).to_csv(),
                              {"throttle": ("f64", 1)})
        calls = 0
        canon = kinds.canon_token

        def counted(*args):
            nonlocal calls
            calls += 1
            return canon(*args)
        with monkeypatch.context() as mp:
            mp.setattr(kinds, "canon_token", counted)
            run_mil(transmission, steps, stim)
            run_sil(g, int(steps / sched.span), stim, schedule=sched)
        return calls

    assert canon_calls(64) == canon_calls(128)


def test_to_csv_compares_no_fraction_per_sample(monkeypatch):
    """A trace whose whole times are Fractions writes its CSV without
    Fraction comparisons growing with its length."""
    def comparisons(steps):
        tr = ramp("u", Fraction(1), steps)
        tr.declare("v", "i32", 1)
        for k in reversed(range(steps)):
            tr.add("v", Fraction(k), k)
        count = 0
        with monkeypatch.context() as mp:
            for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
                def counted(a, b, op=getattr(Fraction, name)):
                    nonlocal count
                    count += 1
                    return op(a, b)
                mp.setattr(Fraction, name, counted)
            text = tr.to_csv()
        assert text == _ref_to_csv(tr)
        return count

    assert comparisons(64) == comparisons(128)


@pytest.mark.parametrize("dtype, width, rows", [
    ("i32", 1, "0,u,1\n1,u,2\n"),
    ("f64", 2, "0,u,1;2\n1,u,3;4\n"),
])
def test_every_engine_rejects_a_stimulus_of_another_spec(dtype, width, rows):
    m = model([blk("u", "Inport", {"index": 0}, st=1, outs=[F1]),
               blk("g", "Gain", {"gain": 2.0}, st=1, ins=[F1], outs=[F1]),
               blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("u", 0), ("g", 0)), conn(("g", 0), ("y", 0))])
    g, _ = translate(normalize(m))
    st = Trace.from_csv("time,signal,value\n" + rows, {"u": (dtype, width)})
    message = rf"^stimulus 'u' is \({dtype} x{width}\), the port wants \(f64 x1\)$"
    for run in (lambda: run_mil(m, 2, st), lambda: run_sil(g, 2, st),
                lambda: emit_bundle(g, 2, st)):
        with pytest.raises(SignalTypeError, match=message):
            run()


def test_sil_stimulus_spec_must_match(transmission):
    # the same check emit_bundle makes: an i32 signal cannot feed an f64 Inport
    g, _ = translate(normalize(transmission))
    st = Trace()
    st.declare("throttle", "i32", 1)
    st.add("throttle", Fraction(0), 1)
    with pytest.raises(SignalTypeError, match="throttle"):
        run_sil(g, periods=1, stimulus=st)

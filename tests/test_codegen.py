"""C source emission: bundle layout, compile-and-run equivalence, and the
refusal cases.  Compilation tests shell out to cc via build.sh."""

from fractions import Fraction

import pytest

from sdflow import (SdflowError, SignalTypeError, Trace, UnsupportedKindError,
                    compare_traces, emit_bundle, load_model, normalize,
                    run_sil, sil_span, translate)
from conftest import c_trace, compile_and_run

F1 = {"dtype": "f64", "width": 1}
I1 = {"dtype": "i32", "width": 1}


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


def model(children, connections, name="cg"):
    return load_model({"name": name, "base_step": {"num": 1, "den": 1},
                       "data_stores": [],
                       "root": {"id": "root", "kind": "Subsystem",
                                "params": {"mode": "normal"},
                                "ports": {"in": [], "out": []},
                                "children": children,
                                "connections": connections}})


def graph_of(m):
    g, _ = translate(normalize(m))
    return g


# ---------------------------------------------------------------------------
# bundle layout


def test_bundle_manifest(multirate_rt):
    b = emit_bundle(graph_of(multirate_rt), periods=4)
    assert b.name == "multirate_rt"
    assert sorted(b.files) == [
        "actors_multirate_rt.c", "actors_multirate_rt.h",
        "build.sh", "harness_multirate_rt.c",
        "runtime/sdf_queue.c", "runtime/sdf_queue.h",
        "sdfg_multirate_rt.c", "sdfg_multirate_rt.h"]
    for text in b.files.values():
        assert text.endswith("\n")


def test_bundle_write_marks_script_executable(multirate_rt, tmp_path):
    import os
    b = emit_bundle(graph_of(multirate_rt), periods=1)
    b.write(str(tmp_path))
    assert os.access(tmp_path / "build.sh", os.X_OK)
    assert (tmp_path / "runtime" / "sdf_queue.h").exists()


def test_emission_is_deterministic(multirate_rt):
    g = graph_of(multirate_rt)
    assert emit_bundle(g, periods=3).files == emit_bundle(g, periods=3).files


def test_no_asserts_flag():
    m = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("c", 0), ("y", 0))])
    on = emit_bundle(graph_of(m), asserts=True)
    off = emit_bundle(graph_of(m), asserts=False)
    assert "-DSDF_NO_ASSERT" not in on.files["build.sh"]
    assert "-DSDF_NO_ASSERT" in off.files["build.sh"]


def test_rejected_graphs(climate):
    g, _ = translate(normalize(climate, depth=0))
    with pytest.raises(UnsupportedKindError, match="subsystem actors"):
        emit_bundle(g)
    with pytest.raises(SdflowError, match="at least 1"):
        emit_bundle(graph_of(climate), periods=0)


def test_stimulus_spec_must_match(transmission):
    st = Trace()
    st.declare("throttle", "i32", 1)
    st.add("throttle", Fraction(0), 1)
    with pytest.raises(SignalTypeError):
        emit_bundle(graph_of(transmission), periods=1, stimulus=st)


# ---------------------------------------------------------------------------
# compile and run


def ramp(name, period, n, fn):
    st = Trace()
    st.declare(name, "f64", 1)
    for k in range(n):
        st.add(name, Fraction(k) * period, fn(k))
    return st


def test_compiled_multirate_matches_interpreter(multirate_rt, tmp_path):
    g = graph_of(multirate_rt)
    periods = 8
    ref = run_sil(g, periods)
    b = emit_bundle(g, periods=periods)
    got = c_trace(b, tmp_path, ref.specs)
    c = compare_traces(ref, got)
    assert c.ok and c.max_rel == 0.0


def test_compiled_climate_gating_matches(climate, tmp_path):
    g = graph_of(climate)
    stim = ramp("setpoint", Fraction(1), 24, lambda k: 20.0)
    stim.declare("sensor", "f64", 1)
    for k in range(24):
        stim.add("sensor", Fraction(k), 14.0 + (k * 3) % 12)
    periods = int(Fraction(24) / sil_span(g))
    ref = run_sil(g, periods, stim)
    got = c_trace(emit_bundle(g, periods=periods, stimulus=stim),
                  tmp_path, ref.specs)
    assert compare_traces(ref, got).ok


def test_compiled_i32_wraps(tmp_path):
    m = model([blk("a", "Constant", {"value": 2147483647}, st=1, outs=[I1]),
               blk("b", "Constant", {"value": -2147483648}, st=1, outs=[I1]),
               blk("s", "Sum", {"signs": "+-"}, ins=[I1, I1], outs=[I1]),
               blk("d", "UnitDelay", {"initial": 1}, ins=[I1], outs=[I1]),
               blk("y", "Outport", {"index": 0}, ins=[I1])],
              [conn(("a", 0), ("s", 0), I1), conn(("b", 0), ("s", 1), I1),
               conn(("s", 0), ("d", 0), I1), conn(("d", 0), ("y", 0), I1)],
              name="wrap")
    g = graph_of(m)
    ref = run_sil(g, 3)
    # INT_MAX - INT_MIN wraps to -1
    assert [v for _, v in ref.samples["y"]] == [1, -1, -1]
    got = c_trace(emit_bundle(g, periods=3), tmp_path, ref.specs)
    assert compare_traces(ref, got).ok


def test_hostile_ids_reach_c_unchanged(tmp_path):
    # "??=" is the '#' trigraph under -std=c99; the flattened id "s*/g"
    # would close a C comment
    sub = blk("s*", "Subsystem", ins=[F1], outs=[F1],
              children=[blk("i", "Inport", {"index": 0}, outs=[F1]),
                        blk("g", "Gain", {"gain": 2.0}, ins=[F1], outs=[F1]),
                        blk("o", "Outport", {"index": 0}, ins=[F1])],
              connections=[conn(("i", 0), ("g", 0)), conn(("g", 0), ("o", 0))])
    m = model([blk("c", "Constant", {"value": 1.5}, st=1, outs=[F1]), sub,
               blk("y??=x", "Outport", {"index": 0}, ins=[F1])],
              [conn(("c", 0), ("s*", 0)), conn(("s*", 0), ("y??=x", 0))],
              name="ids")
    g = graph_of(m)
    ref = run_sil(g, 2)
    got = c_trace(emit_bundle(g, periods=2), tmp_path, ref.specs)
    assert list(got.samples) == ["y??=x"]
    assert compare_traces(ref, got).ok


def test_unstimulated_inport_reads_zero(transmission, tmp_path):
    g = graph_of(transmission)
    periods = 2
    ref = run_sil(g, periods)
    got = c_trace(emit_bundle(g, periods=periods), tmp_path, ref.specs)
    assert compare_traces(ref, got).ok


def test_empty_model_prints_header_only(tmp_path):
    m = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("g", "Gain", {"gain": 1.0}, ins=[F1], outs=[F1])],
              [conn(("c", 0), ("g", 0))], name="mute")
    out = compile_and_run(emit_bundle(graph_of(m), periods=2), tmp_path)
    assert out == "time,signal,value\n"

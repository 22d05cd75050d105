"""Document loading, structural checks and the save round trip."""

import copy
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from sdflow import (Block, ResolutionError, SchemaError, SignalTypeError,
                    load_model, save_model)
from sdflow.model_ir import iter_blocks, model_height

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


def doc(children, connections, stores=(), name="m"):
    return {"name": name, "base_step": {"num": 1, "den": 1},
            "data_stores": list(stores),
            "root": {"id": "root", "kind": "Subsystem", "params": {"mode": "normal"},
                     "ports": {"in": [], "out": []},
                     "children": children, "connections": connections}}


def tiny():
    return doc(
        [blk("src", "Constant", {"value": 2.5}, st=1, outs=[F1]),
         blk("g", "Gain", {"gain": 3.0}, ins=[F1], outs=[F1]),
         blk("y", "Outport", {"index": 0}, ins=[F1])],
        [conn(("src", 0), ("g", 0)), conn(("g", 0), ("y", 0))])


# ---------------------------------------------------------------------------
# schema shape


def test_round_trip_is_stable():
    m = load_model(tiny())
    again = load_model(save_model(m))
    assert save_model(m) == save_model(again)
    assert m == again


def test_save_is_json_serializable():
    m = load_model(tiny())
    json.dumps(save_model(m))


def test_unknown_top_level_field():
    d = tiny()
    d["solver"] = "ode45"
    with pytest.raises(SchemaError, match="solver"):
        load_model(d)


def test_unknown_block_field():
    d = tiny()
    d["root"]["children"][0]["color"] = "red"
    with pytest.raises(SchemaError, match="color"):
        load_model(d)


def test_unknown_connection_field():
    d = tiny()
    d["root"]["connections"][0]["label"] = "x"
    with pytest.raises(SchemaError, match="label"):
        load_model(d)


def test_missing_required_fields():
    d = tiny()
    del d["base_step"]
    with pytest.raises(SchemaError, match="base_step"):
        load_model(d)
    d = tiny()
    del d["root"]["children"][0]["kind"]
    with pytest.raises(SchemaError, match="kind"):
        load_model(d)


def test_base_step_must_be_positive_rational():
    d = tiny()
    d["base_step"] = {"num": 0, "den": 1}
    with pytest.raises(SchemaError, match="positive"):
        load_model(d)
    d = tiny()
    d["base_step"] = {"num": 1.5, "den": 1}
    with pytest.raises(SchemaError):
        load_model(d)


def test_id_rules():
    d = tiny()
    d["root"]["children"][0]["id"] = "a/b"
    with pytest.raises(SchemaError, match="'/'"):
        load_model(d)
    d = tiny()
    d["root"]["children"][0]["id"] = ""
    with pytest.raises(SchemaError):
        load_model(d)


def test_duplicate_sibling_ids():
    d = tiny()
    d["root"]["children"][1]["id"] = "src"
    with pytest.raises(ResolutionError, match="duplicate"):
        load_model(d)


def test_root_must_be_plain_subsystem():
    d = tiny()
    d["root"]["kind"] = "Gain"
    with pytest.raises(SchemaError, match="root"):
        load_model(d)
    d = tiny()
    d["root"]["params"] = {"mode": "enabled", "control_port": 0}
    with pytest.raises(SchemaError):
        load_model(d)


def test_children_only_on_subsystems():
    d = tiny()
    d["root"]["children"][1]["children"] = [blk("x", "Constant", {"value": 1}, outs=[F1])]
    with pytest.raises(SchemaError, match="children"):
        load_model(d)


def test_unknown_kind_still_loads():
    # translatability is the validator's verdict, not a load failure
    d = tiny()
    d["root"]["children"].append(blk("q", "Quantizer", {"step": 0.5}, st=1,
                                     ins=[F1], outs=[F1]))
    d["root"]["connections"].append(conn(("src", 0), ("q", 0)))
    m = load_model(d)
    assert m.root.child("q").kind == "Quantizer"


# ---------------------------------------------------------------------------
# wiring checks


def test_endpoint_must_exist():
    d = tiny()
    d["root"]["connections"][0]["src"] = ["ghost", 0]
    with pytest.raises(ResolutionError, match="ghost"):
        load_model(d)


def test_port_index_must_exist():
    d = tiny()
    d["root"]["connections"][0]["src"] = ["src", 3]
    with pytest.raises(ResolutionError, match="port 3"):
        load_model(d)


def test_connection_spec_must_match_ports():
    d = tiny()
    d["root"]["connections"][0]["dtype"] = "i32"
    with pytest.raises(SignalTypeError):
        load_model(d)


def test_single_driver_per_input():
    d = tiny()
    d["root"]["connections"].append(conn(("src", 0), ("g", 0)))
    with pytest.raises(ResolutionError, match="multiple drivers"):
        load_model(d)


def test_inputs_must_be_driven():
    d = tiny()
    d["root"]["connections"] = [conn(("g", 0), ("y", 0))]
    with pytest.raises(ResolutionError, match="unconnected"):
        load_model(d)


# ---------------------------------------------------------------------------
# literals and kind params


def test_literals_canonicalized():
    d = doc([blk("c", "Constant", {"value": 3}, st=1, outs=[F1]),
             blk("y", "Outport", {"index": 0}, ins=[F1])],
            [conn(("c", 0), ("y", 0))])
    m = load_model(d)
    v = m.root.child("c").params["value"]
    assert isinstance(v, float) and v == 3.0


def test_i32_rejects_fractions_and_overflow():
    d = doc([blk("c", "Constant", {"value": 2.5}, st=1, outs=[I1]),
             blk("y", "Outport", {"index": 0}, ins=[I1])],
            [conn(("c", 0), ("y", 0), I1)])
    with pytest.raises(SchemaError):
        load_model(d)
    d["root"]["children"][0]["params"]["value"] = 2 ** 31
    with pytest.raises(SchemaError):
        load_model(d)


def test_vector_literal_width_checked():
    d = doc([blk("c", "Constant", {"value": [1.0, 2.0]}, st=1,
                 outs=[{"dtype": "f64", "width": 3}]),
             blk("y", "Outport", {"index": 0}, ins=[{"dtype": "f64", "width": 3}])],
            [conn(("c", 0), ("y", 0), {"dtype": "f64", "width": 3})])
    with pytest.raises(SchemaError):
        load_model(d)


def test_kind_arity_enforced():
    d = doc([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
             blk("s", "Sum", {"signs": "+-"}, ins=[F1], outs=[F1]),
             blk("y", "Outport", {"index": 0}, ins=[F1])],
            [conn(("c", 0), ("s", 0)), conn(("s", 0), ("y", 0))])
    with pytest.raises(SchemaError, match="2 inputs"):
        load_model(d)


def test_chart_table_validated():
    chart = {"states": ["a", "b"], "initial": "a",
             "transitions": [{"from": "a", "to": "missing", "input": 0,
                              "op": ">", "value": 1.0}],
             "outputs": {"a": [0.0], "b": [1.0]}}
    d = doc([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
             blk("ch", "Chart", chart, st=1, ins=[F1], outs=[F1]),
             blk("y", "Outport", {"index": 0}, ins=[F1])],
            [conn(("c", 0), ("ch", 0)), conn(("ch", 0), ("y", 0))])
    with pytest.raises(SchemaError, match="unknown state"):
        load_model(d)


def test_store_must_be_declared():
    d = doc([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
             blk("w", "DataStoreWrite", {"store": "x"}, st=1, ins=[F1]),
             blk("y", "Outport", {"index": 0}, ins=[F1])],
            [conn(("c", 0), ("w", 0)), conn(("c", 0), ("y", 0))])
    with pytest.raises(ResolutionError, match="data_stores"):
        load_model(d)


# ---------------------------------------------------------------------------
# sample time resolution


def test_unresolved_period_is_an_error_without_asserts():
    b = Block("b", "Gain", {"gain": 1.0}, None, [], [])
    with pytest.raises(ResolutionError, match="b: unresolved sample time"):
        b.period
    # the check is code, not an assert that python -O strips
    code = textwrap.dedent("""
        import sys
        from sdflow import Block, ResolutionError
        try:
            Block("b", "Gain", {}, None, [], []).period
        except ResolutionError:
            sys.exit(0)
        sys.exit(3)
        """)
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    p = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                       capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr


def test_period_inherited_from_driver():
    d = tiny()
    d["root"]["children"][0]["sample_time"] = {"num": 2, "den": 1}
    m = load_model(d)
    assert m.root.child("g").period == 2
    assert m.root.child("y").period == 2


def test_period_falls_back_to_base_step():
    d = tiny()  # src carries st=1 explicitly; strip it
    del d["root"]["children"][0]["sample_time"]
    m = load_model(d)
    assert m.root.child("src").period == Fraction(1)


def test_multiple_drivers_take_fastest():
    d = doc([blk("a", "Constant", {"value": 1.0}, st=2, outs=[F1]),
             blk("b", "Constant", {"value": 2.0}, st=4, outs=[F1]),
             blk("s", "Sum", {"signs": "++"}, ins=[F1, F1], outs=[F1]),
             blk("y", "Outport", {"index": 0}, ins=[F1])],
            [conn(("a", 0), ("s", 0)), conn(("b", 0), ("s", 1)),
             conn(("s", 0), ("y", 0))])
    m = load_model(d)
    assert m.root.child("s").period == 2


def test_inner_inport_inherits_outer_signal_rate():
    sub = blk("sub", "Subsystem", {"mode": "normal"}, ins=[F1], outs=[F1],
              children=[blk("i", "Inport", {"index": 0}, outs=[F1]),
                        blk("o", "Outport", {"index": 0}, ins=[F1])],
              connections=[conn(("i", 0), ("o", 0))])
    d = doc([blk("c", "Constant", {"value": 1.0}, st=4, outs=[F1]), sub,
             blk("y", "Outport", {"index": 0}, ins=[F1])],
            [conn(("c", 0), ("sub", 0)), conn(("sub", 0), ("y", 0))])
    m = load_model(d)
    assert m.root.child("sub").child("i").period == 4


# ---------------------------------------------------------------------------
# subsystem boundary


def test_subsystem_outport_must_exist():
    sub = blk("sub", "Subsystem", {"mode": "normal"}, ins=[F1], outs=[F1],
              children=[blk("i", "Inport", {"index": 0}, outs=[F1]),
                        blk("g", "Gain", {"gain": 1.0}, ins=[F1], outs=[F1])],
              connections=[conn(("i", 0), ("g", 0))])
    d = doc([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]), sub,
             blk("y", "Outport", {"index": 0}, ins=[F1])],
            [conn(("c", 0), ("sub", 0)), conn(("sub", 0), ("y", 0))])
    with pytest.raises(ResolutionError, match="lack inner Outports"):
        load_model(d)


def test_boundary_spec_mismatch():
    sub = blk("sub", "Subsystem", {"mode": "normal"}, ins=[I1], outs=[F1],
              children=[blk("i", "Inport", {"index": 0}, outs=[F1]),
                        blk("o", "Outport", {"index": 0}, ins=[F1])],
              connections=[conn(("i", 0), ("o", 0))])
    d = doc([blk("c", "Constant", {"value": 1}, st=1, outs=[I1]), sub,
             blk("y", "Outport", {"index": 0}, ins=[F1])],
            [conn(("c", 0), ("sub", 0), I1), conn(("sub", 0), ("y", 0))])
    with pytest.raises(SignalTypeError):
        load_model(d)


def test_control_port_has_no_inner_inport():
    sub = blk("sub", "Subsystem", {"mode": "enabled", "control_port": 0},
              ins=[B1], outs=[F1],
              children=[blk("i", "Inport", {"index": 0}, outs=[B1]),
                        blk("k", "Constant", {"value": 1.0}, outs=[F1]),
                        blk("o", "Outport", {"index": 0}, ins=[F1])],
              connections=[conn(("k", 0), ("o", 0))])
    d = doc([blk("b", "Constant", {"value": True}, st=1, outs=[B1]), sub,
             blk("y", "Outport", {"index": 0}, ins=[F1])],
            [conn(("b", 0), ("sub", 0), B1), conn(("sub", 0), ("y", 0))])
    with pytest.raises(SchemaError, match="control port"):
        load_model(d)


# ---------------------------------------------------------------------------
# tree helpers


def test_iter_blocks_and_height():
    inner = blk("leaf", "Constant", {"value": 1.0}, outs=[F1])
    mid = blk("mid", "Subsystem", {"mode": "normal"}, outs=[F1],
              children=[inner, blk("o", "Outport", {"index": 0}, ins=[F1])],
              connections=[conn(("leaf", 0), ("o", 0))])
    d = doc([mid, blk("y", "Outport", {"index": 0}, ins=[F1])],
            [conn(("mid", 0), ("y", 0))])
    m = load_model(d)
    paths = [p for p, _, _ in iter_blocks(m.root)]
    assert paths == ["mid", "mid/leaf", "mid/o", "y"]
    assert model_height(m) == 1

"""Document loading, structural checks and the save round trip."""

import copy
import json
import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import B1, F1, I1, blk, conn, model_doc
from model_gen import random_document

from sdflow import (Block, ResolutionError, SampleTime, SchemaError, SignalTypeError,
                    load_model, model_ir, save_model)
from sdflow.model_ir import iter_blocks, model_height


def tiny():
    return model_doc(
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
    for bad in ("a,b", "a\nb", "a\tb", "a\u2028b"):
        d = tiny()
        d["root"]["children"][0]["id"] = bad
        with pytest.raises(SchemaError, match="',' or control characters"):
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


@pytest.mark.parametrize("value", [None, True, 2.5, 1, "x", {}],
                         ids=["null", "true", "float", "int", "string", "object"])
@pytest.mark.parametrize("field", ["children", "connections", "ports.in", "ports.out"])
def test_list_fields_that_are_not_lists_are_schema_errors(field, value):
    # each used to escape as a bare TypeError, or was read as a list of its
    # characters or keys
    d = tiny()
    if field.startswith("ports."):
        d["root"]["children"][1]["ports"][field[6:]] = value
        where = "root/g." + field
    else:
        d["root"][field] = value
        where = "root." + field
    with pytest.raises(SchemaError) as e:
        load_model(d)
    assert str(e.value) == f"{where}: expected a list, got {type(value).__name__}"


def test_unknown_kind_still_loads():
    # translatability is the validator's verdict, not a load failure
    d = tiny()
    d["root"]["children"].append(blk("q", "Quantizer", {"step": 0.5}, st=1,
                                     ins=[F1], outs=[F1]))
    d["root"]["connections"].append(conn(("src", 0), ("q", 0)))
    m = load_model(d)
    assert m.root.child("q").kind == "Quantizer"
    with pytest.raises(KeyError):
        m.root.child("absent")


@pytest.mark.parametrize("route, message", [
    ([blk("w", "Goto", {"tag": "t"}, ins=[F1]), blk("r", "From", {"tag": "t"}, outs=[I1])],
     "r: tag 't' carries SignalSpec(dtype='i32', width=1), "
     "but w carries SignalSpec(dtype='f64', width=1)"),
    ([blk("m", "DataStoreMemory", {"store": "s", "initial": 0}),
      blk("w", "DataStoreWrite", {"store": "s"}, ins=[F1]),
      blk("r", "DataStoreRead", {"store": "s"}, outs=[I1])],
     "r: store 's' carries SignalSpec(dtype='i32', width=1), "
     "but w carries SignalSpec(dtype='f64', width=1)"),
], ids=["tag_pair", "store"])
def test_routed_ends_must_share_one_spec(route, message):
    # a Goto fed f64 and its From declared i32: refused once, at load
    d = model_doc([blk("c", "Constant", {"value": 1.5}, st=1, outs=[F1]), *route,
                   blk("y", "Outport", {"index": 0}, ins=[I1])],
                  [conn(("c", 0), ("w", 0)), conn(("r", 0), ("y", 0), I1)], stores=["s"])
    with pytest.raises(SignalTypeError) as e:
        load_model(d)
    assert str(e.value) == message


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
    d = model_doc([blk("c", "Constant", {"value": 3}, st=1, outs=[F1]),
                   blk("y", "Outport", {"index": 0}, ins=[F1])],
                  [conn(("c", 0), ("y", 0))])
    m = load_model(d)
    v = m.root.child("c").params["value"]
    assert isinstance(v, float) and v == 3.0


def test_i32_rejects_fractions_and_overflow():
    d = model_doc([blk("c", "Constant", {"value": 2.5}, st=1, outs=[I1]),
                   blk("y", "Outport", {"index": 0}, ins=[I1])],
                  [conn(("c", 0), ("y", 0), I1)])
    with pytest.raises(SchemaError):
        load_model(d)
    d["root"]["children"][0]["params"]["value"] = 2 ** 31
    with pytest.raises(SchemaError):
        load_model(d)


def test_f64_rejects_integers_beyond_double_range():
    d = model_doc([blk("c", "Constant", {"value": 10 ** 400}, st=1, outs=[F1]),
                   blk("y", "Outport", {"index": 0}, ins=[F1])],
                  [conn(("c", 0), ("y", 0))])
    with pytest.raises(SchemaError, match="c: Constant value: f64 literal out of range"):
        load_model(d)


def test_vector_literal_width_checked():
    d = model_doc([blk("c", "Constant", {"value": [1.0, 2.0]}, st=1,
                       outs=[{"dtype": "f64", "width": 3}]),
                   blk("y", "Outport", {"index": 0}, ins=[{"dtype": "f64", "width": 3}])],
                  [conn(("c", 0), ("y", 0), {"dtype": "f64", "width": 3})])
    with pytest.raises(SchemaError):
        load_model(d)


def test_kind_arity_enforced():
    d = model_doc([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
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
    d = model_doc([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
                   blk("ch", "Chart", chart, st=1, ins=[F1], outs=[F1]),
                   blk("y", "Outport", {"index": 0}, ins=[F1])],
                  [conn(("c", 0), ("ch", 0)), conn(("ch", 0), ("y", 0))])
    with pytest.raises(SchemaError, match="unknown state"):
        load_model(d)


def _fixture_doc(name):
    return json.loads((Path(__file__).parent / "models" / f"{name}.json").read_text())


def _op_list(p):
    p["op"] = ["<"]


@pytest.mark.parametrize("name, path, edit, problem", [
    ("transmission", "high_rev", _op_list, "high_rev: RelationalOp op must be one of"),
    ("transmission", "gear_logic", lambda p: _op_list(p["transitions"][0]),
     "gear_logic: Chart transition 0 op must be one of"),
    ("climate", "heater/duty_out", lambda p: p.update(index=None),
     "heater/duty_out: Outport index must be a non-negative int"),
    ("climate", "heater/cmd", lambda p: p.update(index=None),
     "heater/cmd: Inport index must be a non-negative int"),
], ids=["relop_op_list", "chart_op_list", "outport_index_null", "inport_index_null"])
def test_malformed_param_types_are_schema_errors(name, path, edit, problem):
    d = _fixture_doc(name)
    b = d["root"]
    for bid in path.split("/"):
        b = next(c for c in b["children"] if c["id"] == bid)
    edit(b["params"])
    with pytest.raises(SchemaError) as e:
        load_model(d)
    assert str(e.value).startswith(problem)


def test_store_must_be_declared():
    d = model_doc([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
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
    d = model_doc([blk("a", "Constant", {"value": 1.0}, st=2, outs=[F1]),
                   blk("b", "Constant", {"value": 2.0}, st=4, outs=[F1]),
                   blk("s", "Sum", {"signs": "++"}, ins=[F1, F1], outs=[F1]),
                   blk("y", "Outport", {"index": 0}, ins=[F1])],
                  [conn(("a", 0), ("s", 0)), conn(("b", 0), ("s", 1)),
                   conn(("s", 0), ("y", 0))])
    m = load_model(d)
    assert m.root.child("s").period == 2


def pass_through_doc(inport_params):
    """A period-4 Constant through a one-port pass-through Subsystem."""
    sub = blk("sub", "Subsystem", {"mode": "normal"}, ins=[F1], outs=[F1],
              children=[blk("i", "Inport", inport_params, outs=[F1]),
                        blk("o", "Outport", {"index": 0}, ins=[F1])],
              connections=[conn(("i", 0), ("o", 0))])
    return model_doc([blk("c", "Constant", {"value": 1.0}, st=4, outs=[F1]), sub,
                      blk("y", "Outport", {"index": 0}, ins=[F1])],
                     [conn(("c", 0), ("sub", 0)), conn(("sub", 0), ("y", 0))])


def test_inner_inport_inherits_outer_signal_rate():
    m = load_model(pass_through_doc({"index": 0}))
    assert m.root.child("sub").child("i").period == 4


def test_inner_inport_without_index_inherits_too():
    # an omitted index is port 0 for inheritance as for wiring
    m = load_model(pass_through_doc({}))
    assert m.root.child("sub").child("i").period == 4


def _scan_sample_times(sub: Block, base: Fraction):
    """The former fixpoint scan, kept as the oracle: it re-scans every
    connection for every unresolved child until nothing changes."""
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
        for conn in sub.connections:
            if conn.dst[0] != c.id:
                continue
            for inner in c.children:
                if (inner.kind == "Inport" and inner.sample_time is None
                        and inner.port_index() == conn.dst[1]):
                    inner.sample_time = SampleTime(by_id[conn.src[0]].period)
        _scan_sample_times(c, base)


def _strip_sample_times(block: dict, rng: random.Random):
    """Drop some sample times and reverse some child lists, in place."""
    for c in block.get("children", []):
        if rng.random() < 0.6:
            c["sample_time"] = None
        _strip_sample_times(c, rng)
    if rng.random() < 0.5:
        block.get("children", []).reverse()


def test_sample_times_match_the_fixpoint_scan(monkeypatch):
    rng = random.Random(9)
    for seed in range(200):
        d = random_document(seed)
        _strip_sample_times(d["root"], rng)
        got = load_model(copy.deepcopy(d))
        with monkeypatch.context() as mp:
            mp.setattr(model_ir, "_resolve_sample_times", _scan_sample_times)
            want = load_model(d)
        assert ([(path, b.period) for path, b, _ in iter_blocks(got.root)] ==
                [(path, b.period) for path, b, _ in iter_blocks(want.root)]), f"seed {seed}"


def test_inherited_periods_load_in_linear_time():
    # a 1600-Gain chain inheriting its source's period, children listed
    # against the signal flow, so a scan in document order resolves one
    # block per pass
    ids = ["c"] + [f"g{i}" for i in range(1600)] + ["y"]
    children = ([blk("c", "Constant", {"value": 1.0}, st=2, outs=[F1])]
                + [blk(g, "Gain", {"gain": 1.0}, ins=[F1], outs=[F1]) for g in ids[1:-1]]
                + [blk("y", "Outport", {"index": 0}, ins=[F1])])
    d = model_doc(children[::-1], [conn((a, 0), (b, 0)) for a, b in zip(ids, ids[1:])])
    start = time.perf_counter()
    m = load_model(d)
    assert time.perf_counter() - start < 2.0
    assert {c.period for c in m.root.children} == {2}


# ---------------------------------------------------------------------------
# subsystem boundary


def test_subsystem_outport_must_exist():
    sub = blk("sub", "Subsystem", {"mode": "normal"}, ins=[F1], outs=[F1],
              children=[blk("i", "Inport", {"index": 0}, outs=[F1]),
                        blk("g", "Gain", {"gain": 1.0}, ins=[F1], outs=[F1])],
              connections=[conn(("i", 0), ("g", 0))])
    d = model_doc([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]), sub,
                   blk("y", "Outport", {"index": 0}, ins=[F1])],
                  [conn(("c", 0), ("sub", 0)), conn(("sub", 0), ("y", 0))])
    with pytest.raises(ResolutionError, match="lack inner Outports"):
        load_model(d)


def test_boundary_spec_mismatch():
    sub = blk("sub", "Subsystem", {"mode": "normal"}, ins=[I1], outs=[F1],
              children=[blk("i", "Inport", {"index": 0}, outs=[F1]),
                        blk("o", "Outport", {"index": 0}, ins=[F1])],
              connections=[conn(("i", 0), ("o", 0))])
    d = model_doc([blk("c", "Constant", {"value": 1}, st=1, outs=[I1]), sub,
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
    d = model_doc([blk("b", "Constant", {"value": True}, st=1, outs=[B1]), sub,
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
    d = model_doc([mid, blk("y", "Outport", {"index": 0}, ins=[F1])],
                  [conn(("mid", 0), ("y", 0))])
    m = load_model(d)
    paths = [p for p, _, _ in iter_blocks(m.root)]
    assert paths == ["mid", "mid/leaf", "mid/o", "y"]
    assert model_height(m) == 1

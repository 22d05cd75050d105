"""Flattening, routing removal and rate transition insertion."""

import json
import math
import warnings
from fractions import Fraction

import pytest

from conftest import B1, F1, I1, blk, c_trace, conn, load_fixture, model, wiring_defect
from model_gen import random_model, random_stimulus
from sdflow import (DepthWarning, NormalizationError, SignalTypeError, Trace, build_schedule,
                    check_requirements, compare_traces, emit_bundle, load_model, normalize,
                    run_mil, run_sil, translate)
from sdflow.model_ir import TriggerGroup, model_height, save_model
from sdflow.normalizer import flatten, insert_rate_transitions, remove_routing


def ids(m):
    return [c.id for c in m.root.children]


def wires(m):
    return {(c.src, c.dst) for c in m.root.connections}


# ---------------------------------------------------------------------------
# flatten


def test_flatten_qualifies_and_splices(climate):
    f = flatten(climate)
    assert ids(f) == ["setpoint", "sensor", "err", "thresh", "need_heat",
                      "heater/k_gain", "heater/smooth", "heater/lim",
                      "duty", "heat_on"]
    # boundary ports are gone, wires jump straight across them
    assert (("err", 0), ("heater/k_gain", 0)) in wires(f)
    assert (("heater/lim", 0), ("duty", 0)) in wires(f)


def test_flatten_records_trigger_group(climate):
    f = flatten(climate)
    assert f.triggers == [TriggerGroup(
        path="heater", mode="enabled", control=("need_heat", 0),
        members=("heater/k_gain", "heater/smooth", "heater/lim"))]


def test_flatten_depth_zero_keeps_subsystem(climate):
    f = flatten(climate, depth=0)
    assert "heater" in ids(f)
    assert f.triggers == []
    sub = next(c for c in f.root.children if c.id == "heater")
    assert [c.id for c in sub.children] == ["cmd", "k_gain", "smooth",
                                            "lim", "duty_out"]


def test_flatten_depth_above_height_warns_and_clamps(climate):
    assert model_height(climate) == 1
    with pytest.warns(DepthWarning):
        f = flatten(climate, depth=5)
    assert ids(f) == ids(flatten(climate))


def test_flatten_is_idempotent(climate):
    once = flatten(climate)
    twice = flatten(once)
    assert ids(twice) == ids(once)
    assert wires(twice) == wires(once)
    assert twice.triggers == once.triggers


FIXTURES = ("multirate", "multirate_rt", "transmission", "climate")


@pytest.mark.parametrize("case", FIXTURES + tuple(f"random_model({s})" for s in range(60)))
def test_flatten_never_mutates_input(case):
    # Flat and normalized models share their unchanged leaves, params and
    # port specs with the input, so no later stage may write to them.
    if case in FIXTURES:
        m = load_fixture(case)
    else:
        m = random_model(int(case[len("random_model("):-1]))
    before = json.dumps(save_model(m))  # text, so that 0 and 0.0 differ
    for depth in (None, 0):
        flatten(m, depth)
        check_requirements(m, depth)
        g, _ = translate(normalize(m, depth))
        run_sil(g, periods=2)
        if depth is None:  # subsystem actors have no C form
            emit_bundle(g, periods=2)
    run_mil(m, 8)
    assert json.dumps(save_model(m)) == before


def test_nested_paths_compose():
    inner = blk("in2", "Subsystem", {"mode": "normal"}, st=1,
                ins=[F1], outs=[F1],
                children=[blk("i", "Inport", {"index": 0}, st=1, outs=[F1]),
                          blk("g", "Gain", {"gain": 3.0}, st=1, ins=[F1], outs=[F1]),
                          blk("o", "Outport", {"index": 0}, st=1, ins=[F1])],
                connections=[conn(("i", 0), ("g", 0)), conn(("g", 0), ("o", 0))])
    outer = blk("in1", "Subsystem", {"mode": "normal"}, st=1,
                ins=[F1], outs=[F1],
                children=[blk("i", "Inport", {"index": 0}, st=1, outs=[F1]),
                          inner,
                          blk("o", "Outport", {"index": 0}, st=1, ins=[F1])],
                connections=[conn(("i", 0), ("in2", 0)), conn(("in2", 0), ("o", 0))])
    m = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               outer,
               blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("c", 0), ("in1", 0)), conn(("in1", 0), ("y", 0))])
    f = flatten(m)
    assert ids(f) == ["c", "in1/in2/g", "y"]
    assert wires(f) == {(("c", 0), ("in1/in2/g", 0)),
                        (("in1/in2/g", 0), ("y", 0))}
    # partial depth dissolves only the outer shell
    p = flatten(m, depth=1)
    assert ids(p) == ["c", "in1/in2", "y"]


# ---------------------------------------------------------------------------
# remove_routing


def test_tag_pair_dissolves():
    m = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("gt", "Goto", {"tag": "t"}, ins=[F1]),
               blk("f", "From", {"tag": "t"}, outs=[F1]),
               blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("c", 0), ("gt", 0)), conn(("f", 0), ("y", 0))])
    r = remove_routing(m)
    assert ids(r) == ["c", "y"]
    assert wires(r) == {(("c", 0), ("y", 0))}


def test_bus_pair_dissolves_per_element():
    m = model([blk("a", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("b", "Constant", {"value": 2}, st=1, outs=[I1]),
               blk("bc", "BusCreator", {}, ins=[F1, I1], outs=[F1]),
               blk("bs", "BusSelector", {"indices": [1, 0]},
                   ins=[F1], outs=[I1, F1]),
               blk("y1", "Outport", {"index": 0}, ins=[I1]),
               blk("y2", "Outport", {"index": 1}, ins=[F1])],
              [conn(("a", 0), ("bc", 0)), conn(("b", 0), ("bc", 1), I1),
               conn(("bc", 0), ("bs", 0)),
               conn(("bs", 0), ("y1", 0), I1), conn(("bs", 1), ("y2", 0))])
    r = remove_routing(m)
    assert ids(r) == ["a", "b", "y1", "y2"]
    assert wires(r) == {(("b", 0), ("y1", 0)), (("a", 0), ("y2", 0))}


def test_store_becomes_register():
    m = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("mem", "DataStoreMemory", {"store": "s", "initial": 0}, st=1),
               blk("w", "DataStoreWrite", {"store": "s"}, ins=[F1]),
               blk("r", "DataStoreRead", {"store": "s"}, outs=[F1]),
               blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("c", 0), ("w", 0)), conn(("r", 0), ("y", 0))],
              stores=["s"])
    before = json.dumps(save_model(m))
    r = remove_routing(m)
    assert json.dumps(save_model(m)) == before  # the input keeps its memory
    assert ids(r) == ["c", "mem", "y"]
    mem = next(c for c in r.root.children if c.id == "mem")
    assert len(mem.in_ports) == 1 and len(mem.out_ports) == 1
    assert mem.params["initial"] == 0.0   # canonicalized to the access spec
    assert wires(r) == {(("c", 0), ("mem", 0)), (("mem", 0), ("y", 0))}


def test_duplicate_goto_writers_rejected():
    m = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("g1", "Goto", {"tag": "t"}, ins=[F1]),
               blk("g2", "Goto", {"tag": "t"}, ins=[F1]),
               blk("f", "From", {"tag": "t"}, outs=[F1]),
               blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("c", 0), ("g1", 0)), conn(("c", 0), ("g2", 0)),
               conn(("f", 0), ("y", 0))])
    with pytest.raises(NormalizationError, match="^tag 't' has 2 Goto writers$"):
        remove_routing(m)


def test_from_without_goto_rejected():
    m = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("g1", "Goto", {"tag": "other"}, ins=[F1]),
               blk("f", "From", {"tag": "t"}, outs=[F1]),
               blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("c", 0), ("g1", 0)), conn(("f", 0), ("y", 0))])
    with pytest.raises(NormalizationError, match="^tag 't' has 0 Goto writers$"):
        remove_routing(m)


def test_selector_without_creator_rejected():
    m = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("bs", "BusSelector", {"indices": [0]}, ins=[F1], outs=[F1]),
               blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("c", 0), ("bs", 0)), conn(("bs", 0), ("y", 0))])
    with pytest.raises(NormalizationError, match="not fed by a BusCreator"):
        remove_routing(m)


def test_trigger_members_shrink_with_routing():
    # a tag pair inside a conditional scope disappears from the member list
    sub = blk("sub", "Subsystem", {"mode": "enabled", "control_port": 0},
              st=1, ins=[F1, F1], outs=[F1],
              children=[blk("i", "Inport", {"index": 1}, st=1, outs=[F1]),
                        blk("gt", "Goto", {"tag": "t"}, st=1, ins=[F1]),
                        blk("f", "From", {"tag": "t"}, st=1, outs=[F1]),
                        blk("g", "Gain", {"gain": 2.0}, st=1, ins=[F1], outs=[F1]),
                        blk("o", "Outport", {"index": 0}, st=1, ins=[F1])],
              connections=[conn(("i", 0), ("gt", 0)), conn(("f", 0), ("g", 0)),
                           conn(("g", 0), ("o", 0))])
    m = model([blk("en", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("c", "Constant", {"value": 3.0}, st=1, outs=[F1]),
               sub,
               blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("en", 0), ("sub", 0)), conn(("c", 0), ("sub", 1)),
               conn(("sub", 0), ("y", 0))])
    f = flatten(m)
    assert f.triggers[0].members == ("sub/gt", "sub/f", "sub/g")
    r = remove_routing(f)
    assert r.triggers[0].members == ("sub/g",)
    assert (("c", 0), ("sub/g", 0)) in wires(r)


@pytest.mark.parametrize("name, message", [
    ("tag_cycle", "routing cycle through 'x'"),
    ("read_without_memory", "store 's' has no DataStoreMemory"),
    ("two_store_writers", "store 's' has 2 writers"),
    ("bus_into_gain", "bc: bus feeds a non-selector consumer"),
    ("selector_of_a_selector", "BusSelector 'x' is not fed by a BusCreator"),
    ("element_beyond_the_bus", "BusSelector 'x' selects element 1 of a 1-wide bus"),
])
def test_unresolvable_routing_is_a_normalization_error(name, message):
    # normalize without check
    m = model(*wiring_defect(name))
    with pytest.raises(NormalizationError) as e:
        translate(normalize(m))
    assert str(e.value) == message


def test_bus_element_of_another_spec_is_a_signal_type_error():
    m = model([blk("c", "Constant", {"value": 1.5}, st=1, outs=[F1]),
               blk("bc", "BusCreator", {}, ins=[F1], outs=[F1]),
               blk("bs", "BusSelector", {}, ins=[F1], outs=[I1]),
               blk("y", "Outport", {"index": 0}, ins=[I1])],
              [conn(("c", 0), ("bc", 0)), conn(("bc", 0), ("bs", 0)),
               conn(("bs", 0), ("y", 0), I1)])
    with pytest.raises(SignalTypeError, match=r"^routing chain into \('y', 0\) resolves to "
                       r"\('c', 0\) of spec .*'f64'.*, expected .*'i32'"):
        normalize(m)


def test_selector_without_indices_selects_in_order():
    # null indices load as output j selecting element j, for every stage
    m = model([blk("a", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("b", "Constant", {"value": 2}, st=1, outs=[I1]),
               blk("bc", "BusCreator", {}, ins=[F1, I1], outs=[F1]),
               blk("bs", "BusSelector", {"indices": None}, ins=[F1], outs=[F1, I1]),
               blk("y1", "Outport", {"index": 0}, ins=[F1]),
               blk("y2", "Outport", {"index": 1}, ins=[I1])],
              [conn(("a", 0), ("bc", 0)), conn(("b", 0), ("bc", 1), I1),
               conn(("bc", 0), ("bs", 0)),
               conn(("bs", 0), ("y1", 0)), conn(("bs", 1), ("y2", 0), I1)])
    assert m.root.child("bs").params == {"indices": [0, 1]}
    assert check_requirements(m) == []
    assert wires(normalize(m).model) == {(("a", 0), ("y1", 0)), (("b", 0), ("y2", 0))}
    assert mil_vs_sil(m, 2, None, None).ok


def routed_control(via):
    """An enabled subsystem doubling u, its control e routed through a
    Goto/From pair or a data store."""
    sub = blk("s", "Subsystem", {"mode": "enabled", "control_port": 0}, ins=[F1, F1], outs=[F1],
              children=[blk("i", "Inport", {"index": 1}, outs=[F1]),
                        blk("g", "Gain", {"gain": 2.0}, ins=[F1], outs=[F1]),
                        blk("o", "Outport", {"index": 0}, ins=[F1])],
              connections=[conn(("i", 0), ("g", 0)), conn(("g", 0), ("o", 0))])
    route = ([blk("w", "Goto", {"tag": "t"}, ins=[F1]), blk("r", "From", {"tag": "t"}, outs=[F1])]
             if via == "tag" else
             [blk("mem", "DataStoreMemory", {"store": "d", "initial": 0.0}),
              blk("w", "DataStoreWrite", {"store": "d"}, ins=[F1]),
              blk("r", "DataStoreRead", {"store": "d"}, outs=[F1])])
    m = model([blk("e", "Inport", {"index": 0}, st=1, outs=[F1]),
               blk("u", "Inport", {"index": 1}, st=1, outs=[F1]), *route, sub,
               blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("e", 0), ("w", 0)), conn(("r", 0), ("s", 0)), conn(("u", 0), ("s", 1)),
               conn(("s", 0), ("y", 0))], stores=["d"])
    stim = Trace()
    stim.declare("e", "f64", 1)
    stim.declare("u", "f64", 1)
    for k, (e, u) in enumerate([(1.0, 1.0), (0.0, 5.0), (1.0, 2.0), (0.0, 7.0)]):
        stim.add("e", k, e)
        stim.add("u", k, u)
    return m, stim


@pytest.mark.parametrize("via, ys", [("tag", [2.0, 2.0, 4.0, 4.0]),
                                     ("store", [0.0, 10.0, 10.0, 14.0])])
def test_a_routed_control_gates_alike_in_mil_sil_and_c(tmp_path, via, ys):
    # a store is read one step late, so its control lags by one step
    m, stim = routed_control(via)
    assert check_requirements(m) == []
    g, _ = translate(normalize(m))
    mil, sil = run_mil(m, 4, stim), run_sil(g, 4, stim)
    assert list(mil.values["y"]) == ys
    assert compare_traces(mil, sil).ok
    assert c_trace(emit_bundle(g, 4, stim), tmp_path, sil.specs).to_csv() == sil.to_csv()


# ---------------------------------------------------------------------------
# insert_rate_transitions


def test_rate_transition_inserted_on_multirate(multirate):
    n = insert_rate_transitions(remove_routing(flatten(multirate)))
    rts = [c for c in n.root.children if c.kind == "RateTransition"]
    assert [r.id for r in rts] == ["rt_0"]
    rt = rts[0]
    assert rt.params == {"src_period": [2, 1], "dst_period": [4, 1]}
    assert rt.period == Fraction(4)
    assert (("Product", 0), ("rt_0", 0)) in wires(n)
    assert (("rt_0", 0), ("UnitDelay", 0)) in wires(n)
    assert (("Product", 0), ("UnitDelay", 0)) not in wires(n)


def test_explicit_rate_transition_respected(multirate_rt):
    before = flatten(multirate_rt)
    n = insert_rate_transitions(remove_routing(before))
    assert ids(n) == ids(before)   # nothing added


def test_rt_ids_avoid_collisions():
    m = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("rt_0", "Gain", {"gain": 1.0}, st=2, ins=[F1], outs=[F1]),
               blk("y", "Outport", {"index": 0}, st=2, ins=[F1])],
              [conn(("c", 0), ("rt_0", 0)), conn(("rt_0", 0), ("y", 0))])
    n = insert_rate_transitions(m)
    added = [c.id for c in n.root.children if c.kind == "RateTransition"]
    assert added == ["rt_1"]


def test_fanout_branches_get_their_own_transitions():
    m = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("g1", "Gain", {"gain": 1.0}, st=2, ins=[F1], outs=[F1]),
               blk("g2", "Gain", {"gain": 2.0}, st=4, ins=[F1], outs=[F1]),
               blk("y1", "Outport", {"index": 0}, st=2, ins=[F1]),
               blk("y2", "Outport", {"index": 1}, st=4, ins=[F1])],
              [conn(("c", 0), ("g1", 0)), conn(("c", 0), ("g2", 0)),
               conn(("g1", 0), ("y1", 0)), conn(("g2", 0), ("y2", 0))])
    n = insert_rate_transitions(m)
    rts = [c for c in n.root.children if c.kind == "RateTransition"]
    assert len(rts) == 2
    assert {tuple(r.params["src_period"]) for r in rts} == {(1, 1)}
    assert {tuple(r.params["dst_period"]) for r in rts} == {(2, 1), (4, 1)}


# ---------------------------------------------------------------------------
# the pipeline


def test_normalize_provenance(multirate):
    n = normalize(multirate)
    assert n.depth == 0
    assert n.provenance["Product"] == "Product"
    assert n.provenance["rt_0"] == "Product:0 -> UnitDelay:0"


def test_normalize_depth_recorded(climate):
    assert normalize(climate).depth == 1
    assert normalize(climate, depth=0).depth == 0


def test_normalized_flat_model_round_trips(multirate):
    n = normalize(multirate)
    doc = save_model(n.model)
    again = save_model(load_model(doc))
    assert doc == again


def test_normalize_is_idempotent(multirate):
    once = normalize(multirate).model
    twice = normalize(once).model
    assert ids(twice) == ids(once)
    assert wires(twice) == wires(once)


def mil_vs_sil(m, steps, stim, depth):
    """MIL on the model against SIL on its graph at `depth`, over `steps`
    base steps."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DepthWarning)  # depth above the height
        g, _ = translate(normalize(m, depth))
    sched = build_schedule(g)
    span = Fraction(steps) * m.base_step
    sil = run_sil(g, math.ceil(span / sched.span), stim, schedule=sched)
    return compare_traces(run_mil(m, steps, stim).clip(span), sil.clip(span), tol=1e-12)


@pytest.mark.parametrize("name", FIXTURES)
def test_partial_depth_mil_matches_sil(name):
    m = load_fixture(name)
    stim = random_stimulus(m, 48, seed=7)
    for depth in (0, 1):
        c = mil_vs_sil(m, 48, stim, depth)
        assert c.ok and c.samples > 0, (depth, c.divergence)


def gated_pass_through():
    # an enabled subsystem whose Inport drives its Outport directly: no
    # leaf inside it is gated once it is flattened
    sub = blk("s", "Subsystem", {"mode": "enabled", "control_port": 0},
              ins=[B1, F1], outs=[F1],
              children=[blk("i", "Inport", {"index": 1}, outs=[F1]),
                        blk("o", "Outport", {"index": 0}, ins=[F1])],
              connections=[conn(("i", 0), ("o", 0))])
    m = model([blk("u", "Inport", {"index": 0}, st=1, outs=[F1]),
               blk("e", "Inport", {"index": 1}, st=1, outs=[B1]), sub,
               blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("e", 0), ("s", 0), B1), conn(("u", 0), ("s", 1)),
               conn(("s", 0), ("y", 0))])
    stim = Trace()
    stim.declare("u", "f64", 1)
    stim.declare("e", "bool", 1)
    for k, (u, e) in enumerate([(1.0, True), (2.0, False), (3.0, True), (4.0, False)]):
        stim.add("u", k, u)
        stim.add("e", k, e)
    return m, 4, stim


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="MIL and a flattened gated subsystem pass a disabled pass-through "
                   "on (1,2,3,4), a subsystem actor holds it (1,1,3,3)")
def test_gated_pass_through_agrees_at_every_depth():
    # random_model(64) reaches the same pass-through through a Goto/From pair
    m64 = random_model(64)
    for m, steps, stim in (gated_pass_through(),
                           (m64, 24, random_stimulus(m64, 24, seed=7))):
        for depth in (None, 0):
            # check ok implies MIL = SIL
            assert check_requirements(m, depth) or mil_vs_sil(m, steps, stim, depth).ok, \
                (m.name, depth)

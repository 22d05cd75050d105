"""Translatability rules: every rule class has a minimal failing model
and a passing sibling that differs only in the offending detail."""

import pytest

from conftest import B1, F1, F2, I1, blk, conn, model
from sdflow import check_requirements


def rules_at(m, depth=None):
    return [(v.rule, v.location) for v in check_requirements(m, depth)]


# ---------------------------------------------------------------------------
# FixedStep


def fixed_step_pair(num):
    return model(
        [{"id": "c", "kind": "Constant", "params": {"value": 1.0},
          "sample_time": {"num": num, "den": 2}, "ports": {"in": [], "out": [F1]}},
         blk("y", "Outport", {"index": 0}, ins=[F1])],
        [conn(("c", 0), ("y", 0))])


def test_fixed_step_fails():
    # the Outport inherits the fractional period, so both blocks are flagged
    assert rules_at(fixed_step_pair(3)) == [("FixedStep", "c"), ("FixedStep", "y")]


def test_fixed_step_passes():
    assert rules_at(fixed_step_pair(4)) == []                     # period 2


# ---------------------------------------------------------------------------
# HarmonicRates


def harmonic_pair(p):
    return model(
        [blk("a", "Constant", {"value": 1.0}, st=2, outs=[F1]),
         blk("g", "Gain", {"gain": 1.0}, st=p, ins=[F1], outs=[F1]),
         blk("y", "Outport", {"index": 0}, st=p, ins=[F1])],
        [conn(("a", 0), ("g", 0)), conn(("g", 0), ("y", 0))])


def test_nonharmonic_connection_fails():
    assert rules_at(harmonic_pair(3)) == [("HarmonicRates", "a -> g")]


def test_harmonic_connection_passes():
    assert rules_at(harmonic_pair(4)) == []


def conditional_rates_pair(inner_p):
    sub = blk("sub", "Subsystem", {"mode": "enabled", "control_port": 1},
              st=2, ins=[F1, B1], outs=[F1],
              children=[blk("i", "Inport", {"index": 0}, st=2, outs=[F1]),
                        blk("g", "Gain", {"gain": 2.0}, st=inner_p,
                            ins=[F1], outs=[F1]),
                        blk("o", "Outport", {"index": 0}, st=2, ins=[F1])],
              connections=[conn(("i", 0), ("g", 0)), conn(("g", 0), ("o", 0))])
    return model(
        [blk("c", "Constant", {"value": 1.0}, st=2, outs=[F1]),
         blk("en", "Constant", {"value": True}, st=2, outs=[B1]),
         sub,
         blk("y", "Outport", {"index": 0}, st=2, ins=[F1])],
        [conn(("c", 0), ("sub", 0)), conn(("en", 0), ("sub", 1), B1),
         conn(("sub", 0), ("y", 0))])


def test_conditional_members_must_share_a_rate():
    assert ("HarmonicRates", "sub") in rules_at(conditional_rates_pair(4))


def test_conditional_single_rate_passes():
    assert rules_at(conditional_rates_pair(2)) == []


# ---------------------------------------------------------------------------
# E1_Hierarchy: routing may not cross an atomic boundary


def hierarchy_pair(tag_inside):
    if tag_inside:
        inner = [blk("i", "Inport", {"index": 0}, st=1, outs=[F1]),
                 blk("f", "From", {"tag": "t"}, st=1, outs=[F1]),
                 blk("gg", "Gain", {"gain": 1.0}, st=1, ins=[F1], outs=[F1]),
                 blk("o", "Outport", {"index": 0}, st=1, ins=[F1])]
        iconn = [conn(("f", 0), ("gg", 0)), conn(("gg", 0), ("o", 0))]
    else:
        inner = [blk("i", "Inport", {"index": 0}, st=1, outs=[F1]),
                 blk("o", "Outport", {"index": 0}, st=1, ins=[F1])]
        iconn = [conn(("i", 0), ("o", 0))]
    sub = blk("sub", "Subsystem", {"mode": "normal"}, st=1, ins=[F1], outs=[F1],
              children=inner, connections=iconn)
    children = [blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
                sub, blk("y", "Outport", {"index": 0}, ins=[F1])]
    conns = [conn(("c", 0), ("sub", 0)), conn(("sub", 0), ("y", 0))]
    children.append(blk("gt", "Goto", {"tag": "t"}, st=1, ins=[F1]))
    conns.append(conn(("c", 0), ("gt", 0)))
    if not tag_inside:  # matching From outside keeps the pair in one scope
        children.append(blk("f", "From", {"tag": "t"}, st=1, outs=[F1]))
        children.append(blk("y2", "Outport", {"index": 1}, ins=[F1]))
        conns.append(conn(("f", 0), ("y2", 0)))
    return model(children, conns)


def test_tag_crossing_atomic_boundary_fails():
    m = hierarchy_pair(tag_inside=True)
    assert ("E1_Hierarchy", "sub") in rules_at(m, depth=0)


def test_tag_crossing_ok_when_fully_flattened():
    m = hierarchy_pair(tag_inside=True)
    assert rules_at(m) == []   # full depth dissolves the boundary


def test_tag_pair_in_one_scope_passes():
    assert rules_at(hierarchy_pair(tag_inside=False), depth=0) == []


# ---------------------------------------------------------------------------
# E2_VariableSize


def switch_pair(third_spec):
    return model(
        [blk("a", "Constant", {"value": [1.0, 2.0]}, st=1, outs=[F2]),
         blk("b", "Constant", {"value": 0.5}, st=1, outs=[F1]),
         blk("t", "Constant", {"value": 1.0}, st=1, outs=[F1]),
         blk("sw", "Switch", {"threshold": 0.0}, st=1,
             ins=[F2, F1, third_spec], outs=[F2]),
         blk("y", "Outport", {"index": 0}, ins=[F2])],
        [conn(("a", 0), ("sw", 0), F2), conn(("t", 0), ("sw", 1)),
         conn(("b" if third_spec == F1 else "a", 0), ("sw", 2), third_spec),
         conn(("sw", 0), ("y", 0), F2)])


def test_switch_width_mismatch_fails():
    assert rules_at(switch_pair(F1)) == [("E2_VariableSize", "sw")]


def test_switch_consistent_widths_pass():
    assert rules_at(switch_pair(F2)) == []


def control_width_pair(spec):
    sub = blk("sub", "Subsystem", {"mode": "triggered", "control_port": 0},
              st=1, ins=[spec], outs=[F1],
              children=[blk("k", "Constant", {"value": 1.0}, st=1, outs=[F1]),
                        blk("o", "Outport", {"index": 0}, st=1, ins=[F1])],
              connections=[conn(("k", 0), ("o", 0))])
    return model(
        [blk("c", "Constant", {"value": [1.0, 0.0] if spec["width"] == 2 else 1.0},
             st=1, outs=[spec]),
         sub, blk("y", "Outport", {"index": 0}, ins=[F1])],
        [conn(("c", 0), ("sub", 0), spec), conn(("sub", 0), ("y", 0))])


def test_vector_control_port_fails():
    assert ("E2_VariableSize", "sub") in rules_at(control_width_pair(F2))


def test_scalar_control_port_passes():
    assert rules_at(control_width_pair(F1)) == []


# ---------------------------------------------------------------------------
# E3_1_DanglingRouting


def goto_pair(with_from):
    children = [blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
                blk("gt", "Goto", {"tag": "t"}, ins=[F1]),
                blk("y", "Outport", {"index": 0}, ins=[F1])]
    conns = [conn(("c", 0), ("gt", 0)), conn(("c", 0), ("y", 0))]
    if with_from:
        children.append(blk("f", "From", {"tag": "t"}, outs=[F1]))
        children.append(blk("y2", "Outport", {"index": 1}, ins=[F1]))
        conns.append(conn(("f", 0), ("y2", 0)))
    return model(children, conns)


def test_goto_without_from_fails():
    assert ("E3_1_DanglingRouting", "gt") in rules_at(goto_pair(False))


def test_goto_from_pair_passes():
    assert rules_at(goto_pair(True)) == []


def store_pair(complete):
    children = [blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
                blk("w", "DataStoreWrite", {"store": "s"}, ins=[F1]),
                blk("r", "DataStoreRead", {"store": "s"}, outs=[F1]),
                blk("y", "Outport", {"index": 0}, ins=[F1])]
    conns = [conn(("c", 0), ("w", 0)), conn(("r", 0), ("y", 0))]
    if complete:
        children.append(blk("mem", "DataStoreMemory",
                            {"store": "s", "initial": 0.0}, st=1))
    return model(children, conns, stores=["s"])


def test_store_without_memory_fails():
    got = rules_at(store_pair(False))
    assert ("E3_1_DanglingRouting", "r") in got
    assert ("E3_1_DanglingRouting", "w") in got


def test_complete_store_trio_passes():
    assert rules_at(store_pair(True)) == []


# ---------------------------------------------------------------------------
# E3_2 bus rules


def bus_model(consumer_kind):
    children = [blk("a", "Constant", {"value": 1.0}, st=1, outs=[F1]),
                blk("b", "Constant", {"value": 2}, st=1, outs=[I1]),
                blk("bc", "BusCreator", {}, ins=[F1, I1], outs=[F1]),
                blk("bs", "BusSelector", {"indices": [1, 0]},
                    ins=[F1], outs=[I1, F1]),
                blk("y", "Outport", {"index": 0}, ins=[F1])]
    conns = [conn(("a", 0), ("bc", 0)), conn(("b", 0), ("bc", 1), I1)]
    if consumer_kind == "BusSelector":
        conns += [conn(("bc", 0), ("bs", 0)), conn(("bs", 1), ("y", 0))]
    else:
        children.insert(4, blk("g", "Gain", {"gain": 1.0}, ins=[F1], outs=[F1]))
        conns += [conn(("bc", 0), ("g", 0)), conn(("g", 0), ("y", 0)),
                  conn(("bc", 0), ("bs", 0)), ]
        children.append(blk("y2", "Outport", {"index": 1}, ins=[F1]))
        conns.append(conn(("bs", 1), ("y2", 0)))
    return model(children, conns)


def test_bus_feeding_non_selector_fails():
    assert ("E3_2_BusPairing", "bc -> g") in rules_at(bus_model("Gain"))


def test_bus_pair_passes():
    assert rules_at(bus_model("BusSelector")) == []


def test_selector_output_as_bus_fails():
    children = [blk("a", "Constant", {"value": 1.0}, st=1, outs=[F1]),
                blk("b", "Constant", {"value": 2.0}, st=1, outs=[F1]),
                blk("bc", "BusCreator", {}, ins=[F1, F1], outs=[F1]),
                blk("s1", "BusSelector", {"indices": [0]}, ins=[F1], outs=[F1]),
                blk("s2", "BusSelector", {"indices": [0]}, ins=[F1], outs=[F1]),
                blk("y", "Outport", {"index": 0}, ins=[F1])]
    conns = [conn(("a", 0), ("bc", 0)), conn(("b", 0), ("bc", 1)),
             conn(("bc", 0), ("s1", 0)), conn(("s1", 0), ("s2", 0)),
             conn(("s2", 0), ("y", 0))]
    assert ("E3_2_BusOutput", "s1 -> s2") in rules_at(model(children, conns))


def test_bus_element_spec_mismatch_fails():
    children = [blk("a", "Constant", {"value": 1.0}, st=1, outs=[F1]),
                blk("bc", "BusCreator", {}, ins=[F1], outs=[F1]),
                blk("bs", "BusSelector", {"indices": [0]}, ins=[F1], outs=[I1]),
                blk("y", "Outport", {"index": 0}, ins=[I1])]
    conns = [conn(("a", 0), ("bc", 0)), conn(("bc", 0), ("bs", 0)),
             conn(("bs", 0), ("y", 0), I1)]
    assert ("E3_2_BusPairing", "bc -> bs") in rules_at(model(children, conns))


# ---------------------------------------------------------------------------
# UnsupportedBlock


def vocab_pair(kind):
    return model(
        [blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
         blk("x", kind, {"gain": 1.0} if kind == "Gain" else {"z": 1},
             st=1, ins=[F1], outs=[F1]),
         blk("y", "Outport", {"index": 0}, ins=[F1])],
        [conn(("c", 0), ("x", 0)), conn(("x", 0), ("y", 0))])


def test_unknown_kind_fails():
    assert rules_at(vocab_pair("Quantizer")) == [("UnsupportedBlock", "x")]


def test_vocabulary_kind_passes():
    assert rules_at(vocab_pair("Gain")) == []


# ---------------------------------------------------------------------------
# reporting behavior


def test_reports_are_deterministic():
    m = goto_pair(False)
    a = check_requirements(m)
    b = check_requirements(m)
    assert a == b
    assert a == sorted(a, key=lambda v: (v.location, v.rule, v.message))


def test_all_violations_reported_at_once():
    # one model, two independent breaches, both present
    children = [blk("c", "Constant", {"value": 1.0}, st=3, outs=[F1]),
                blk("g", "Gain", {"gain": 1.0}, st=2, ins=[F1], outs=[F1]),
                blk("gt", "Goto", {"tag": "t"}, ins=[F1]),
                blk("y", "Outport", {"index": 0}, st=2, ins=[F1])]
    conns = [conn(("c", 0), ("g", 0)), conn(("c", 0), ("gt", 0)),
             conn(("g", 0), ("y", 0))]
    got = rules_at(model(children, conns))
    assert ("HarmonicRates", "c -> g") in got
    assert ("E3_1_DanglingRouting", "gt") in got


def test_violation_json_shape():
    v = check_requirements(goto_pair(False))[0]
    j = v.to_json()
    assert set(j) == {"rule", "location", "message"}
    assert str(v).startswith(f"{j['rule']} at {j['location']}:")


# ---------------------------------------------------------------------------
# one case per remaining rule branch


def store_model(writers=1, readers=1, memories=1):
    children = [blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1])]
    conns = []
    for k in range(writers):
        children.append(blk(f"w{k}", "DataStoreWrite", {"store": "s"}, ins=[F1]))
        conns.append(conn(("c", 0), (f"w{k}", 0)))
    for k in range(readers):
        children += [blk(f"r{k}", "DataStoreRead", {"store": "s"}, outs=[F1]),
                     blk(f"y{k}", "Outport", {"index": k}, ins=[F1])]
        conns.append(conn((f"r{k}", 0), (f"y{k}", 0)))
    for k in range(memories):
        children.append(blk(f"m{k}", "DataStoreMemory", {"store": "s", "initial": 0.0}, st=1))
    return model(children, conns, stores=["s"])


def duplicate_gotos():
    return model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
                  blk("g1", "Goto", {"tag": "t"}, ins=[F1]),
                  blk("g2", "Goto", {"tag": "t"}, ins=[F1]),
                  blk("f", "From", {"tag": "t"}, outs=[F1]),
                  blk("y", "Outport", {"index": 0}, ins=[F1])],
                 [conn(("c", 0), ("g1", 0)), conn(("c", 0), ("g2", 0)),
                  conn(("f", 0), ("y", 0))])


def lone_from():
    return model([blk("f", "From", {"tag": "t"}, st=1, outs=[F1]),
                  blk("y", "Outport", {"index": 0}, ins=[F1])],
                 [conn(("f", 0), ("y", 0))])


def vector_switch_control():
    return model([blk("a", "Constant", {"value": 1.0}, st=1, outs=[F1]),
                  blk("t", "Constant", {"value": [1.0, 0.0]}, st=1, outs=[F2]),
                  blk("sw", "Switch", {"threshold": 0.0}, ins=[F1, F2, F1], outs=[F1]),
                  blk("y", "Outport", {"index": 0}, ins=[F1])],
                 [conn(("a", 0), ("sw", 0)), conn(("t", 0), ("sw", 1), F2),
                  conn(("a", 0), ("sw", 2)), conn(("sw", 0), ("y", 0))])


def mixed_rate_members():
    sub = blk("sub", "Subsystem", {"mode": "enabled", "control_port": 1},
              st=2, ins=[F1, B1], outs=[F1],
              children=[blk("i", "Inport", {"index": 0}, st=2, outs=[F1]),
                        blk("g", "Gain", {"gain": 2.0}, st=2, ins=[F1], outs=[F1]),
                        blk("h", "Gain", {"gain": 2.0}, st=4, ins=[F1], outs=[F1]),
                        blk("o", "Outport", {"index": 0}, st=4, ins=[F1])],
              connections=[conn(("i", 0), ("g", 0)), conn(("g", 0), ("h", 0)),
                           conn(("h", 0), ("o", 0))])
    return model([blk("c", "Constant", {"value": 1.0}, st=2, outs=[F1]),
                  blk("en", "Constant", {"value": True}, st=2, outs=[B1]), sub,
                  blk("y", "Outport", {"index": 0}, st=4, ins=[F1])],
                 [conn(("c", 0), ("sub", 0)), conn(("en", 0), ("sub", 1), B1),
                  conn(("sub", 0), ("y", 0))])


def selector_model(feed, indices):
    children = [blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
                blk("bs", "BusSelector", {"indices": indices}, ins=[F1], outs=[F1]),
                blk("y", "Outport", {"index": 0}, ins=[F1])]
    conns = [conn(("bs", 0), ("y", 0))]
    if feed == "BusCreator":
        children.append(blk("bc", "BusCreator", {}, ins=[F1], outs=[F1]))
        conns += [conn(("c", 0), ("bc", 0)), conn(("bc", 0), ("bs", 0))]
    else:
        conns.append(conn(("c", 0), ("bs", 0)))
    return model(children, conns)


def opaque_model(inner, inner_conns, outer=(), outer_conns=(), stores=()):
    """A normal subsystem `sub` passing one signal, around `inner`."""
    sub = blk("sub", "Subsystem", {"mode": "normal"}, st=1, ins=[F1], outs=[F1],
              children=[blk("i", "Inport", {"index": 0}, outs=[F1]), *inner,
                        blk("o", "Outport", {"index": 0}, ins=[F1])],
              connections=inner_conns)
    return model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]), sub,
                  blk("y", "Outport", {"index": 0}, ins=[F1]), *outer],
                 [conn(("c", 0), ("sub", 0)), conn(("sub", 0), ("y", 0)), *outer_conns],
                 stores)


def multirate_opaque():
    return opaque_model([blk("g", "Gain", {"gain": 1.0}, st=2, ins=[F1], outs=[F1])],
                        [conn(("i", 0), ("g", 0)), conn(("g", 0), ("o", 0))])


def goto_inside_from_outside():
    return opaque_model([blk("gt", "Goto", {"tag": "t"}, ins=[F1])],
                        [conn(("i", 0), ("gt", 0)), conn(("i", 0), ("o", 0))],
                        [blk("f", "From", {"tag": "t"}, st=1, outs=[F1]),
                         blk("y2", "Outport", {"index": 1}, ins=[F1])],
                        [conn(("f", 0), ("y2", 0))])


def store_inside_and_outside():
    return opaque_model([blk("w", "DataStoreWrite", {"store": "s"}, ins=[F1])],
                        [conn(("i", 0), ("w", 0)), conn(("i", 0), ("o", 0))],
                        [blk("m", "DataStoreMemory", {"store": "s", "initial": 0.0}, st=1),
                         blk("r", "DataStoreRead", {"store": "s"}, st=1, outs=[F1]),
                         blk("y2", "Outport", {"index": 1}, ins=[F1])],
                        [conn(("r", 0), ("y2", 0))], stores=["s"])


def opaque_wiring_cycle():
    # an inner pass-through subsystem whose output feeds its own input
    loop = blk("loop", "Subsystem", {"mode": "normal"}, ins=[F1], outs=[F1],
               children=[blk("li", "Inport", {"index": 0}, outs=[F1]),
                         blk("lo", "Outport", {"index": 0}, ins=[F1])],
               connections=[conn(("li", 0), ("lo", 0))])
    return opaque_model([loop, blk("g", "Gain", {"gain": 1.0}, ins=[F1], outs=[F1])],
                        [conn(("loop", 0), ("loop", 0)), conn(("loop", 0), ("g", 0)),
                         conn(("g", 0), ("o", 0))])


BRANCHES = [
    ("duplicate_goto_writers", duplicate_gotos, None, "E3_1_DanglingRouting", "g2",
     "tag 't' has 2 Goto writers"),
    ("from_without_goto", lone_from, None, "E3_1_DanglingRouting", "f",
     "From tag 't' has no Goto writer"),
    ("store_write_without_read", lambda: store_model(readers=0), None,
     "E3_1_DanglingRouting", "w0", "DataStoreWrite 's' has no DataStoreRead"),
    ("two_store_writers", lambda: store_model(writers=2), None,
     "E3_1_DanglingRouting", "w1", "store 's' has 2 writers"),
    ("two_store_memories", lambda: store_model(memories=2), None,
     "E3_1_DanglingRouting", "m1", "store 's' has 2 memories"),
    ("vector_switch_control", vector_switch_control, None, "E2_VariableSize", "sw",
     "Switch control input must be scalar"),
    ("members_at_mixed_periods", mixed_rate_members, None, "HarmonicRates", "sub",
     "enabled subsystem members span several periods (2, 4)"),
    ("selector_fed_by_non_creator", lambda: selector_model("Constant", [0]), None,
     "E3_2_BusPairing", "c -> bs", "BusSelector must be fed by a BusCreator, found Constant"),
    ("selector_missing_element", lambda: selector_model("BusCreator", [1]), None,
     "E3_2_BusPairing", "bc -> bs", "selector output 0 asks for bus element 1, bus has 1"),
    ("multirate_opaque_subsystem", multirate_opaque, 0, "HarmonicRates", "sub/g",
     "block inside the opaque subsystem 'sub' runs at 2, the subsystem at 1"),
    ("goto_inside_from_outside", goto_inside_from_outside, 0, "E1_Hierarchy", "sub",
     "tag 't' is written inside this opaque subsystem and read outside it"),
    ("store_inside_and_outside", store_inside_and_outside, 0, "E1_Hierarchy", "sub",
     "store 's' is accessed both inside and outside this opaque subsystem"),
    ("opaque_wiring_cycle", opaque_wiring_cycle, 0, "E3_1_DanglingRouting", "sub",
     "wiring could not be resolved: pass-through wiring cycle at ('p_out', 'loop', 0)"),
]


@pytest.mark.parametrize("build, depth, rule, location, message",
                         [pytest.param(*case[1:], id=case[0]) for case in BRANCHES])
def test_rule_branch(build, depth, rule, location, message):
    got = [(v.rule, v.location, v.message) for v in check_requirements(build(), depth)]
    assert (rule, location, message) in got

"""Block-diagram to dataflow-graph mapping."""

import warnings
from collections import Counter
from fractions import Fraction

import pytest

from conftest import F1, blk, conn, load_fixture, model
from model_gen import random_model
from sdflow import (DepthWarning, NonHarmonicError, SdflowError, build_schedule, normalize,
                    rate_transition_rates, repetition_vector, translate)
from sdflow.sdf_core import MAX_ITERATION


# ---------------------------------------------------------------------------
# rate transition rate table


@pytest.mark.parametrize("src,dst,expect", [
    (4, 4, (1, 1, 0)),
    (4, 2, (1, 2, 0)),   # slow to fast: duplicate each token twice
    (4, 1, (1, 4, 0)),
    (2, 4, (2, 1, 1)),   # fast to slow: block of 2 in, one preloaded
    (1, 8, (8, 1, 7)),
])
def test_rate_transition_rate_table(src, dst, expect):
    assert rate_transition_rates(Fraction(src), Fraction(dst)) == expect


def test_fractional_periods_still_divide():
    assert rate_transition_rates(Fraction(1, 2), Fraction(2)) == (4, 1, 3)


def test_nonharmonic_periods_rejected():
    with pytest.raises(NonHarmonicError, match="do not divide"):
        rate_transition_rates(Fraction(2), Fraction(3))


def test_preloaded_delay_is_bounded_before_allocation():
    # fast to slow over a ratio of 2**30, a period the loader accepts,
    # would preload 2**30 - 1 zeros
    m = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("y", "Outport", {"index": 0}, st=2 ** 30, ins=[F1])],
              [conn(("c", 0), ("y", 0))])
    with pytest.raises(SdflowError) as e:
        translate(normalize(m))
    assert str(e.value) == (f"rate transition rt_0: periods 1 and {2 ** 30} need "
                            f"{2 ** 30 - 1} initial tokens, more than {MAX_ITERATION}")


# ---------------------------------------------------------------------------
# the multirate reference shape


def translated(m):
    return translate(normalize(m))


def test_multirate_graph_shape(multirate_rt):
    g, report = translated(multirate_rt)
    assert sorted(a.id for a in g.actors) == [
        "Chart", "Constant", "Constant1", "Out1", "Out2",
        "Product", "RateTransition", "UnitDelay"]

    into_rt = [c for c in g.channels if c.dst == ("RateTransition", 0)]
    out_of_rt = [c for c in g.channels if c.src == ("RateTransition", 0)]
    assert len(into_rt) == 1 and len(out_of_rt) == 1
    assert (into_rt[0].rate_src, into_rt[0].rate_dst) == (1, 2)
    assert into_rt[0].delay == 1 and into_rt[0].initial_values == (0.0,)
    assert (out_of_rt[0].rate_src, out_of_rt[0].rate_dst) == (1, 1)
    assert out_of_rt[0].delay == 0

    assert repetition_vector(g) == {
        "Constant": 2, "Constant1": 2, "Product": 2,
        "RateTransition": 1, "UnitDelay": 1, "Chart": 1,
        "Out1": 1, "Out2": 1}


def test_multirate_schedule_multiset(multirate_rt):
    g, _ = translated(multirate_rt)
    sched = build_schedule(g)
    assert Counter(sched.firings) == {
        "Constant": 2, "Constant1": 2, "Product": 2,
        "RateTransition": 1, "UnitDelay": 1, "Chart": 1,
        "Out1": 1, "Out2": 1}


def test_auto_inserted_transition_matches_explicit(multirate, multirate_rt):
    g_auto, _ = translated(multirate)
    g_exp, _ = translated(multirate_rt)
    rt = g_auto.actor("rt_0")
    assert rt.kind == "RateTransition"
    assert rt.params == {"src_period": [2, 1], "dst_period": [4, 1]}

    def shape(g, rt_id):
        q = repetition_vector(g)
        return {a: n for a, n in q.items() if a != rt_id}, q[rt_id]

    assert shape(g_auto, "rt_0") == shape(g_exp, "RateTransition")


def test_multirate_report_summary(multirate_rt):
    _, report = translated(multirate_rt)
    assert report.summary() == (
        "actors: 8\n"
        "channels: 7 (0 event)\n"
        "replicated ports: 1, dropped ports: 0\n"
        "rate transition RateTransition: fast_to_slow, ratio 2, delay 1")
    assert report.to_json()["rate_transitions"] == [
        {"id": "RateTransition", "direction": "fast_to_slow",
         "ratio": 2, "delay": 1}]


# ---------------------------------------------------------------------------
# fanout and dropped ports


def test_fanout_is_one_port_feeding_several_channels(multirate):
    g, report = translated(multirate)
    chart = g.actor("Chart")
    assert len(chart.out_ports) == 1
    assert report.replicated_ports == 1
    # one out-port, one channel per consumer
    assert [c.src for c in g.channels if c.src[0] == "Chart"] == [("Chart", 0)] * 2


def test_unconsumed_output_is_dropped():
    m = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("d", "UnitDelay", {"initial": 0.0}, st=1,
                   ins=[F1], outs=[F1]),
               blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("c", 0), ("d", 0)), conn(("c", 0), ("y", 0))])
    g, report = translated(m)
    assert report.dropped_ports == 1
    # the port stays, in block order, and feeds no channel
    assert [(p.dtype, p.width) for p in g.actor("d").out_ports] == [("f64", 1)]
    assert not [c for c in g.channels if c.src[0] == "d"]
    g.check_wellformed()


# ---------------------------------------------------------------------------
# conditional subsystems


def test_enable_source_wiring(climate):
    g, report = translated(climate)
    assert "EnableSource" not in {a.kind for a in g.actors}
    ctrl = g.actor("need_heat").out_ports[0]

    members = ["heater/k_gain", "heater/smooth", "heater/lim"]
    for mid in members:
        a = g.actor(mid)
        tap = a.in_ports[-1]
        assert tap.event and tap.dtype == ctrl.dtype and tap.width == 1
        feeds = [c for c in g.channels if c.dst == (mid, len(a.in_ports) - 1)]
        assert len(feeds) == 1 and feeds[0].src == ("need_heat", 0)
        assert (feeds[0].rate_src, feeds[0].rate_dst, feeds[0].delay) == (1, 1, 0)
    assert report.event_channels == 3
    assert sum(p.event for a in g.actors for p in a.in_ports) == 3


def event_ports(g):
    return {(a.id, k) for a in g.actors for k, p in enumerate(a.in_ports) if p.event}


def test_data_ports_carry_no_event_flag(climate):
    # exactly the last in-port of each heater member is an event port
    g, _ = translated(climate)
    members = [a for a in g.actors if a.id.startswith("heater/")]
    assert len(members) == 3
    assert event_ports(g) == {(a.id, len(a.in_ports) - 1) for a in members}


def test_opaque_subsystem_keeps_its_diagram(climate):
    g, _ = translate(normalize(climate, depth=0))
    sub = g.actor("heater")
    assert sub.kind == "Subsystem"
    assert sub.impl is not None and sub.impl.id == "heater"
    # the control is one of its data in-ports, and no member is dissolved
    assert not [a.id for a in g.actors if a.id.startswith("heater/")]
    assert event_ports(g) == set()


@pytest.mark.parametrize("depth", [None, 0, 1])
def test_every_actor_is_a_leaf_with_provenance(depth):
    # translation invents no actor: each is a leaf of the normalized model,
    # and provenance says where it came from
    fixtures = ["multirate", "multirate_rt", "transmission", "climate"]
    for m in [*map(load_fixture, fixtures), *map(random_model, range(50))]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DepthWarning)  # depth above the height
            n = normalize(m, depth)
        g, _ = translate(n)
        ids = [a.id for a in g.actors]
        assert ids == [b.id for b in n.model.root.children], m.name
        assert set(ids) <= set(n.provenance), m.name


def test_translated_graphs_are_wellformed(climate, transmission, multirate):
    for m in (climate, transmission, multirate):
        g, _ = translated(m)
        g.check_wellformed()
        build_schedule(g)

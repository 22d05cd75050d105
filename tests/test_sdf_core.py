"""Repetition vectors, scheduling and consistency on hand-built graphs.

The small cases are worked out by hand next to each assertion; the
randomized ones construct graphs whose answer is known by construction
and replay the schedule with an independent token counter.
"""

import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import F1, blk, conn, load_fixture, model
from model_gen import random_model
from sdflow import (Actor, Channel, DeadlockError, InconsistentError, Port,
                    Schedule, SchemaError, Sdfg, SdflowError, UnderflowError,
                    aligned_repetition,
                    build_schedule, check_requirements, check_schedule, emit_bundle,
                    export_dot, load_model, load_sdfg, normalize, repetition_vector,
                    run_sil, save_sdfg, sil_span, translate)
from sdflow import sdf_core


def actor(aid, period=1, n_in=0, n_out=0, kind="Gain"):
    return Actor(aid, kind, {}, Fraction(period),
                 [Port("f64", 1) for _ in range(n_in)],
                 [Port("f64", 1) for _ in range(n_out)])


def chan(cid, src, dst, rs, rd, delay=0):
    return Channel(cid, src, dst, rs, rd, delay, [0.0] * delay)


def graph(actors, channels, name="g"):
    g = Sdfg(name, actors, channels)
    g.check_wellformed()
    return g


def by_actor(g, end):
    """Each actor's channels in channel order, by their `end`: "src" for
    the ones it feeds, "dst" for the ones it reads."""
    out = {a.id: [] for a in g.actors}
    for c in g.channels:
        out[getattr(c, end)[0]].append(c)
    return out


# ---------------------------------------------------------------------------
# repetition vectors, worked by hand


def test_two_actor_vector():
    # a fires 3 tokens per firing, b eats 2: 2*q_a = 3*q_b fails; with
    # rates (2, 3) the balance is q_a*2 == q_b*3, so q = (3, 2).
    g = graph([actor("a", n_out=1), actor("b", n_in=1)],
              [chan("c0", ("a", 0), ("b", 0), 2, 3)])
    assert repetition_vector(g) == {"a": 3, "b": 2}


def test_chain_vector():
    # a -2/1-> b -3/1-> c: q_b = 2 q_a, q_c = 3 q_b.
    g = graph([actor("a", n_out=1), actor("b", n_in=1, n_out=1),
               actor("c", n_in=1)],
              [chan("c0", ("a", 0), ("b", 0), 2, 1),
               chan("c1", ("b", 0), ("c", 0), 3, 1)])
    assert repetition_vector(g) == {"a": 1, "b": 2, "c": 6}


def test_vector_is_coprime():
    g = graph([actor("a", n_out=1), actor("b", n_in=1)],
              [chan("c0", ("a", 0), ("b", 0), 4, 6)])
    assert repetition_vector(g) == {"a": 3, "b": 2}


def test_components_normalize_independently():
    g = graph([actor("a", n_out=1), actor("b", n_in=1),
               actor("x", n_out=1), actor("y", n_in=1)],
              [chan("c0", ("a", 0), ("b", 0), 2, 1),
               chan("c1", ("x", 0), ("y", 0), 1, 3)])
    assert repetition_vector(g) == {"a": 1, "b": 2, "x": 3, "y": 1}


def test_parallel_mismatched_rates_inconsistent():
    g = graph([actor("a", n_out=2), actor("b", n_in=2)],
              [chan("c0", ("a", 0), ("b", 0), 1, 1),
               chan("c1", ("a", 1), ("b", 1), 2, 1)])
    for solve in (repetition_vector, build_schedule):
        with pytest.raises(InconsistentError, match="balance equations"):
            solve(g)


# ---------------------------------------------------------------------------
# scheduling


def test_zero_delay_cycle_deadlocks():
    g = graph([actor("a", n_in=1, n_out=1), actor("b", n_in=1, n_out=1)],
              [chan("c0", ("a", 0), ("b", 0), 1, 1),
               chan("c1", ("b", 0), ("a", 0), 1, 1)])
    with pytest.raises(DeadlockError, match="blocked: a, b"):
        build_schedule(g)
    # balance itself is fine
    assert aligned_repetition(g, repetition_vector(g))[0] == {"a": 1, "b": 1}


def test_delay_breaks_the_cycle():
    g = graph([actor("a", n_in=1, n_out=1), actor("b", n_in=1, n_out=1)],
              [chan("c0", ("a", 0), ("b", 0), 1, 1),
               chan("c1", ("b", 0), ("a", 0), 1, 1, delay=1)])
    assert build_schedule(g).firings == ("a", "b")


def test_ties_break_by_actor_id():
    g = graph([actor("b", n_out=1), actor("a", n_out=1),
               actor("z", n_in=2)],
              [chan("c0", ("b", 0), ("z", 0), 1, 1),
               chan("c1", ("a", 0), ("z", 1), 1, 1)])
    assert build_schedule(g).firings == ("a", "b", "z")


def test_multirate_firing_counts():
    g = graph([actor("a", n_out=1), actor("b", n_in=1)],
              [chan("c0", ("a", 0), ("b", 0), 1, 2)])
    s = build_schedule(g)
    assert s.repetition == {"a": 2, "b": 1}
    assert s.firings == ("a", "a", "b")


def test_peak_occupancy():
    g = graph([actor("a", n_out=1), actor("b", n_in=1)],
              [chan("c0", ("a", 0), ("b", 0), 3, 1, delay=1)])
    s = build_schedule(g)
    # one firing of a puts 3 tokens on top of the initial 1
    assert s.peaks == {"c0": 4}


def test_schedule_json_is_plain_data():
    g = graph([actor("a", n_out=1), actor("b", n_in=1)],
              [chan("c0", ("a", 0), ("b", 0), 1, 1)])
    j = build_schedule(g).to_json()
    assert j == {"firings": ["a", "b"], "peaks": {"c0": 1},
                 "repetition": {"a": 1, "b": 1}}


# ---------------------------------------------------------------------------
# timing


def test_schedule_span_integer_periods():
    g = graph([actor("a", 2), actor("b", 3)], [])
    assert build_schedule(g).span == Fraction(6)


def test_schedule_span_fractional_periods():
    g = graph([actor("a", Fraction(1, 2)), actor("b", Fraction(3, 4))], [])
    # smallest time that is a multiple of both 1/2 and 3/4
    assert build_schedule(g).span == Fraction(3, 2)


def test_aligned_repetition_scales_components():
    g = graph([actor("a", 1, n_out=1), actor("b", 1, n_in=1),
               actor("x", 3)],
              [chan("c0", ("a", 0), ("b", 0), 1, 1)])
    scaled, h = aligned_repetition(g, repetition_vector(g))
    assert h == Fraction(3)
    assert scaled == {"a": 3, "b": 3, "x": 1}


def test_aligned_repetition_keeps_fractional_span():
    g = graph([actor("a", Fraction(1, 2))], [])
    scaled, h = aligned_repetition(g, {"a": 1})
    assert h == Fraction(1, 2)
    assert scaled == {"a": 1}


def test_schedule_runs_the_aligned_vector():
    g = graph([actor("a", 1, n_out=1), actor("b", 1, n_in=1),
               actor("x", 3)],
              [chan("c0", ("a", 0), ("b", 0), 1, 1)])
    s = build_schedule(g)
    assert s.repetition == {"a": 3, "b": 3, "x": 1} and s.span == Fraction(3)
    assert Counter(s.firings) == s.repetition
    # an aligned vector passed back in is kept as it is
    assert build_schedule(g, s.repetition) == s


def test_unbalanced_vector_is_rejected_without_asserts():
    g = graph([actor("a", n_out=1), actor("b", n_in=1)],
              [chan("c0", ("a", 0), ("b", 0), 2, 1)])
    with pytest.raises(InconsistentError, match="c0"):
        build_schedule(g, {"a": 1, "b": 1})
    # the check is code, not an assert that python -O strips
    src = str(Path(__file__).parents[1] / "src")
    code = textwrap.dedent("""
        import sys
        from test_sdf_core import InconsistentError, actor, build_schedule, chan, graph
        g = graph([actor("a", n_out=1), actor("b", n_in=1)],
                  [chan("c0", ("a", 0), ("b", 0), 2, 1)])
        try:
            build_schedule(g, {"a": 1, "b": 1})
        except InconsistentError:
            sys.exit(0)
        sys.exit(3)
        """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent)]))
    p = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                       capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr


@pytest.mark.parametrize("q, names", [
    ({"a": 0, "b": 0, "x": 1}, "actor a"),
    ({"a": 1, "b": 1}, "actor x"),
    ({"a": -1, "b": -1, "x": 1}, "actor a"),
], ids=["zero", "missing", "negative"])
def test_supplied_vector_is_checked(q, names):
    g = graph([actor("a", n_out=1), actor("b", n_in=1), actor("x")],
              [chan("c0", ("a", 0), ("b", 0), 1, 1)])
    with pytest.raises(InconsistentError, match=names):
        build_schedule(g, q)


@pytest.mark.parametrize("edit", ["rate", "two_components", "supplied"])
def test_iteration_size_is_bounded_before_the_game(edit):
    # a rate of 10**30, a second component whose span forces the first
    # one's counts up by 10**30, or a supplied vector that large: each
    # fails before anything is allocated per firing
    big = 10 ** 30
    a, b = actor("a", n_out=1), actor("b", n_in=1)
    q = None
    if edit == "rate":
        g = graph([a, b], [chan("c0", ("a", 0), ("b", 0), big, 1)])
        busy, n, total = "b", big, big + 1
    elif edit == "two_components":
        g = graph([a, b, actor("x", big)], [chan("c0", ("a", 0), ("b", 0), 1, 1)])
        busy, n, total = "a", big, 2 * big + 1
    else:
        g = graph([a, b], [chan("c0", ("a", 0), ("b", 0), 1, 1)])
        q, busy, n, total = {"a": big, "b": big}, "a", big, 2 * big
    message = (f"actor {busy} fires {n} times in an iteration of {total} firings; "
               f"at most {sdf_core.MAX_ITERATION} are allowed")
    with pytest.raises(SdflowError) as e:
        build_schedule(g, q)
    assert str(e.value) == message
    if q is None:
        with pytest.raises(SdflowError, match="^actor "):
            aligned_repetition(g, repetition_vector(g))


def test_aligned_repetition_connected_is_identity():
    g = graph([actor("a", 2, n_out=1), actor("b", 4, n_in=1)],
              [chan("c0", ("a", 0), ("b", 0), 1, 2)])
    q = repetition_vector(g)
    scaled, h = aligned_repetition(g, q)
    assert scaled == q and h == Fraction(4)


# ---------------------------------------------------------------------------
# schedules passed in


@pytest.mark.filterwarnings("ignore:flatten depth")
@pytest.mark.parametrize("name", ["multirate", "multirate_rt", "transmission", "climate"])
@pytest.mark.parametrize("depth", [None, 0, 1])
def test_built_schedules_are_admissible(name, depth):
    g, _ = translate(normalize(load_fixture(name), depth=depth))
    check_schedule(g, build_schedule(g))


def test_built_schedules_of_random_graphs_are_admissible():
    rng = random.Random(13)
    for _ in range(100):
        g = random_schedulable_graph(rng)
        check_schedule(g, build_schedule(g))


def _reversed(g, s):
    return replace(s, firings=s.firings[::-1])


def _short(g, s):
    return replace(s, firings=s.firings[:-1])


def _extra(g, s):
    return replace(s, firings=s.firings + s.firings[:1])


def _peak_lowered(g, s):
    cid = next(cid for cid, n in s.peaks.items() if n > 0)
    return replace(s, peaks={**s.peaks, cid: s.peaks[cid] - 1})


def _one_count_scaled(g, s):
    aid = g.actors[0].id
    return replace(s, repetition={**s.repetition, aid: s.repetition[aid] * 2})


@pytest.mark.parametrize("edit, error, message", [
    (_reversed, UnderflowError, r"firing \S+ needs \d+ tokens on \S+, found \d+"),
    (_short, InconsistentError, "at the iteration boundary"),
    (_extra, InconsistentError, "at the iteration boundary"),
    (_peak_lowered, InconsistentError, "schedule peak"),
    (_one_count_scaled, InconsistentError, "not an aligned iteration"),
], ids=["reversed", "short", "extra", "peak_lowered", "one_count_scaled"])
@pytest.mark.parametrize("engine", ["run_sil", "emit_bundle"])
def test_inadmissible_schedule_is_rejected_before_any_run(monkeypatch, multirate,
                                                          engine, edit, error, message):
    g, _ = translate(normalize(multirate))
    s = build_schedule(g)
    bad = edit(g, s)
    with pytest.raises(error, match=message):
        check_schedule(g, bad)

    # the stimulus table is the first part of the plan built after the check
    def no_plan(*_):
        raise AssertionError("the schedule was replayed or emitted")
    monkeypatch.setattr(sdf_core, "stimulus_table", no_plan)
    with pytest.raises(error, match=message):
        if engine == "run_sil":
            run_sil(g, 1, schedule=bad)
        else:
            emit_bundle(g, 1, asserts=False, schedule=bad)


def test_sil_span_is_the_span_of_the_schedule():
    # sil_span stays public for callers that want the span on its own
    for seed in range(20):
        g, _ = translate(normalize(random_model(seed)))
        assert sil_span(g) == build_schedule(g).span


def test_schedule_of_another_graph_is_rejected():
    g = graph([actor("a", n_out=1), actor("b", n_in=1)],
              [chan("c0", ("a", 0), ("b", 0), 1, 1)])
    s = build_schedule(g)
    with pytest.raises(InconsistentError, match="unknown actor 'z'"):
        check_schedule(g, Schedule(s.firings + ("z",), s.peaks, s.repetition, s.span))
    with pytest.raises(InconsistentError, match="names unknown actor z"):
        check_schedule(g, Schedule(s.firings, s.peaks, {**s.repetition, "z": 1}, s.span))
    with pytest.raises(InconsistentError, match="not an aligned iteration"):
        check_schedule(g, Schedule(s.firings, s.peaks, s.repetition, 2 * s.span))


def test_firing_counts_must_match_the_repetition():
    # periods do not follow the rates, so a's span 1 is below b's span 2
    # and doubling q[a] leaves the vector aligned
    g = graph([actor("a", n_out=1), actor("b", n_in=1)],
              [chan("c0", ("a", 0), ("b", 0), 2, 1)])
    s = build_schedule(g)
    assert s.repetition == {"a": 1, "b": 2} and s.span == 2
    with pytest.raises(InconsistentError, match="actor a fires 1 times, not its repetition 2"):
        check_schedule(g, Schedule(s.firings, s.peaks, {"a": 2, "b": 2}, s.span))


# ---------------------------------------------------------------------------
# structure checks


def test_wellformed_catches_duplicate_ids():
    g = Sdfg("g", [actor("a"), actor("a")], [])
    with pytest.raises(SchemaError, match="duplicate actor ids"):
        g.check_wellformed()


def test_wellformed_catches_double_binding():
    g = Sdfg("g", [actor("a", n_out=1), actor("b", n_out=1), actor("c", n_in=1)],
             [chan("c0", ("a", 0), ("c", 0), 1, 1),
              chan("c1", ("b", 0), ("c", 0), 1, 1)])
    with pytest.raises(SchemaError, match="in-port .* bound twice"):
        g.check_wellformed()
    # slot -1 would name the last in-port a second time
    g = Sdfg("g", [actor("a", n_out=1), actor("b", n_out=1), actor("c", n_in=1)],
             [chan("c0", ("a", 0), ("c", 0), 1, 1),
              chan("c1", ("b", 0), ("c", -1), 1, 1)])
    with pytest.raises(SchemaError, match="'c' has no dst slot -1"):
        g.check_wellformed()
    # an out-port may feed several channels, or none
    g = Sdfg("g", [actor("a", n_out=1), actor("b", n_in=1), actor("c", n_in=1),
                   actor("d", n_out=1)],
             [chan("c0", ("a", 0), ("b", 0), 1, 1),
              chan("c1", ("a", 0), ("c", 0), 1, 1)])
    g.check_wellformed()


def test_wellformed_requires_initial_values():
    g = Sdfg("g", [actor("a", n_out=1), actor("b", n_in=1)],
             [Channel("c0", ("a", 0), ("b", 0), 1, 1, delay=2,
                      initial_values=[0.0])])
    with pytest.raises(SchemaError, match="initial values"):
        g.check_wellformed()


def test_wellformed_catches_unbound_port():
    g = Sdfg("g", [actor("a", n_out=1), actor("b", n_in=2)],
             [chan("c0", ("a", 0), ("b", 0), 1, 1)])
    with pytest.raises(SchemaError, match="unbound in port 1"):
        g.check_wellformed()


# ---------------------------------------------------------------------------
# serialization and export


def test_sdfg_json_round_trip():
    # a purely structural graph: actors of a kind outside the vocabulary
    g = graph([actor("a", 2, n_out=1, kind="X"), actor("b", 4, n_in=1, kind="X")],
              [chan("c0", ("a", 0), ("b", 0), 2, 1, delay=1)])
    doc = save_sdfg(g)
    assert save_sdfg(load_sdfg(doc)) == doc
    g2 = load_sdfg(doc)
    assert repetition_vector(g2) == repetition_vector(g)
    # claiming the Gain kind holds the same actors to the Gain gate
    for a in doc["actors"]:
        a["kind"] = "Gain"
    with pytest.raises(SchemaError, match="actor a: Gain takes 1 inputs, has 0"):
        load_sdfg(doc)
    # translated graphs, as `sdflow translate` writes them: event in-ports,
    # unconsumed outputs (some of a Chart's, all of a Constant's), vectors
    for seed in range(300):
        g = translate(normalize(random_model(seed)))[0]
        doc = json.loads(json.dumps(save_sdfg(g)))
        assert save_sdfg(load_sdfg(doc)) == doc, f"seed {seed}"


def test_schema_doc_example_is_a_saved_graph():
    # the example in docs/sdfg_schema.md loads, and saves back unchanged
    text = (Path(__file__).parents[1] / "docs" / "sdfg_schema.md").read_text()
    doc = json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))
    g = load_sdfg(doc)
    assert save_sdfg(g) == doc
    outs = by_actor(g, "src")
    assert [c.src for c in outs["u"]] == [("u", 0), ("u", 0)]   # fan-out
    assert outs["d"] == [] and len(g.actor("d").out_ports) == 1  # unconsumed


def _translated_doc(model, kind):
    doc = save_sdfg(translate(normalize(model))[0])
    act = next(a for a in doc["actors"] if a["kind"] == kind and a["ports"]["out"])
    return doc, act


@pytest.mark.parametrize("source, kind, edit, problem", [
    ("random3", "Constant", lambda p: {"value": "abc"}, "expected"),
    ("random3", "Constant", lambda p: {"val": 1.0}, "Constant requires params.value"),
    ("random3", "Constant", lambda p: [1.0], "must be an object"),
    ("transmission", "RelationalOp", lambda p: {**p, "op": "=~"},
     "RelationalOp op must be one of"),
    ("transmission", "Chart", lambda p: {**p, "initial": "nope"},
     "Chart initial state must be one of params.states"),
    ("transmission", "Product", lambda p: {**p, "ops": "*x"},
     "Product requires params.ops, a non-empty string over"),
    ("transmission", "Lookup1D", lambda p: {**p, "breakpoints": p["breakpoints"][::-1]},
     "Lookup1D breakpoints must be strictly increasing"),
], ids=["bad_literal", "missing_key", "not_an_object", "relop_unknown_op",
        "chart_unknown_initial", "product_bad_ops", "lookup_decreasing"])
def test_malformed_params_fail_at_load(source, kind, edit, problem):
    model = random_model(3) if source == "random3" else load_fixture(source)
    doc, act = _translated_doc(model, kind)
    act["state"]["params"] = edit(act["state"]["params"])
    with pytest.raises(SchemaError, match=f"actor {act['id']}: .*{problem}"):
        load_sdfg(doc)


@pytest.mark.parametrize("period", [[0, 1], [-2, 1], [1, 0]],
                         ids=["zero", "negative", "zero_denominator"])
def test_non_positive_period_fails_at_load(period):
    doc = save_sdfg(translate(normalize(load_fixture("multirate")))[0])
    act = doc["actors"][-1]
    act["state"]["period"] = period
    with pytest.raises(SchemaError, match=f"actor {re.escape(act['id'])}: period must be"):
        load_sdfg(doc)


def _set(key, value):
    return lambda obj: obj.__setitem__(key, value)


@pytest.mark.parametrize("target, edit, problem", [
    ("channel", lambda c: c.__setitem__("src", [c["src"][0], "0"]),
     r"'src' must be \[actor id, port index\]"),
    ("channel", _set("delay", "1"), "'delay' must be an integer >= 0"),
    ("channel", lambda c: c.pop("rate_src"), "missing 'rate_src'"),
    ("channel", lambda c: c.pop("initial_values"), "missing 'initial_values'"),
    ("channel", _set("dtype", "f32"), "'dtype' must be one of"),
    ("actor", lambda a: a.pop("ports"), "missing 'ports'"),
    ("actor", lambda a: a["ports"]["out"][0].__setitem__("width", "1"),
     "out port 0: 'width' must be an integer >= 1"),
    ("actor", _set("state", None), "'state' must be an object"),
    ("graph", _set("actors", {}), "graph: 'actors' must be a list"),
    ("graph", lambda d: d["channels"].__setitem__(0, "x"), "channel #0: must be an object"),
], ids=["src_slot_string", "delay_string", "no_rate_src", "no_initial_values",
        "unknown_dtype", "no_ports", "port_width_string", "state_null",
        "actors_object", "channel_not_object"])
def test_malformed_graph_documents_are_schema_errors(target, edit, problem):
    doc = save_sdfg(translate(normalize(load_fixture("multirate")))[0])
    obj = {"graph": doc, "actor": doc["actors"][-1],
           "channel": next(c for c in doc["channels"] if c["delay"])}[target]
    where = "" if target == "graph" else f"{target} {re.escape(obj['id'])}: "
    edit(obj)
    with pytest.raises(SchemaError, match=where + problem):
        load_sdfg(doc)


def test_export_dot_is_stable():
    g = graph([actor("b", n_in=1), actor("a", n_out=1)],
              [chan("c0", ("a", 0), ("b", 0), 2, 1, delay=1)])
    d = export_dot(g)
    assert d == export_dot(g)
    assert '"a" -> "b"' in d
    assert "rate 2/1" in d and "delay 1" in d


def test_export_dot_quotes_every_string():
    # ids and a name the loader accepts, holding DOT's quote and escape
    m = model([blk('c"x', "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("y\\", "Outport", {"index": 0}, ins=[F1])],
              [conn(('c"x', 0), ("y\\", 0))], name='q"\\')
    d = export_dot(translate(normalize(m))[0])
    lines = d.splitlines()
    assert lines[0] == 'digraph "q\\"\\\\" {'
    assert '  "c\\"x" [label="c\\"x\\nConstant"];' in lines
    assert '  "y\\\\" [label="y\\\\\\nOutport"];' in lines
    assert any(ln.startswith('  "c\\"x" -> "y\\\\" [label=') for ln in lines)
    # with each quoted string replaced, only the statement shapes remain
    quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
    assert {quoted.sub("Q", ln) for ln in lines} == {
        "digraph Q {", "  rankdir=LR;", "  node [shape=box, fontname=monospace];",
        "  Q [label=Q];", "  Q -> Q [label=Q];", "}"}


def test_export_dot_marks_event_channels():
    src = actor("src", n_out=1)
    dst = Actor("dst", "Gain", {}, Fraction(1),
                [Port("f64", 1, event=True)], [])
    g = graph([src, dst], [chan("c0", ("src", 0), ("dst", 0), 1, 1)])
    assert "style=dashed" in export_dot(g)


# ---------------------------------------------------------------------------
# randomized: graphs with a known answer


def random_consistent_graph(rng):
    """Connected graph built from a chosen repetition vector; rates on each
    channel are derived from that vector, so it is consistent by
    construction and the vector is the known answer."""
    n = rng.randint(2, 8)
    ids = [f"a{i}" for i in range(n)]
    q = {a: rng.randint(1, 6) for a in ids}
    n_in, n_out = dict.fromkeys(ids, 0), dict.fromkeys(ids, 0)

    edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
    for _ in range(rng.randint(0, n)):
        s, t = rng.sample(ids, 2)
        edges.append((s, t))

    channels = []
    for i, (s, t) in enumerate(edges):
        g0 = math.gcd(q[s], q[t])
        k = rng.randint(1, 3)
        rs, rd = k * q[t] // g0, k * q[s] // g0
        channels.append(Channel(f"c{i}", (s, n_out[s]), (t, n_in[t]), rs, rd))
        n_out[s] += 1
        n_in[t] += 1
    actors = [Actor(a, "X", {}, Fraction(1), [Port("f64", 1)] * n_in[a],
                    [Port("f64", 1)] * n_out[a]) for a in ids]
    return Sdfg("r", actors, channels), q


def test_random_graphs_satisfy_balance():
    rng = random.Random(7)
    for _ in range(300):
        g, chosen = random_consistent_graph(rng)
        q = repetition_vector(g)
        for c in g.channels:
            assert q[c.src[0]] * c.rate_src == q[c.dst[0]] * c.rate_dst
        # smallest solution: component-wide gcd is 1
        assert math.gcd(*q.values()) == 1
        # and the chosen vector is a uniform multiple of it
        scale = chosen[g.actors[0].id] // q[g.actors[0].id]
        assert all(chosen[a] == scale * q[a] for a in q)


def random_schedulable_graph(rng):
    """Layered acyclic core plus back edges carrying enough delay for the
    destination's whole iteration, so a schedule must exist."""
    g, q = random_consistent_graph(rng)
    order = {a.id: i for i, a in enumerate(g.actors)}
    channels = []
    for c in g.channels:
        if order[c.src[0]] >= order[c.dst[0]]:   # back or self edge
            delay = c.rate_dst * q[c.dst[0]]
            c = replace(c, delay=delay, initial_values=[0.0] * delay)
        channels.append(c)
    return Sdfg(g.name, g.actors, channels)


def replay(g, sched):
    """Independent token counter for the firing list."""
    tokens = {c.id: c.delay for c in g.channels}
    ins, outs = by_actor(g, "dst"), by_actor(g, "src")
    for aid in sched.firings:
        for c in ins[aid]:
            tokens[c.id] -= c.rate_dst
            assert tokens[c.id] >= 0, f"underflow on {c.id}"
        for c in outs[aid]:
            tokens[c.id] += c.rate_src
    return tokens


def test_random_schedules_replay_cleanly():
    rng = random.Random(11)
    for _ in range(200):
        g = random_schedulable_graph(rng)
        sched = build_schedule(g)
        left = replay(g, sched)
        assert left == {c.id: c.delay for c in g.channels}
        assert Counter(sched.firings) == sched.repetition


# ---------------------------------------------------------------------------
# the token game against an independent reference that rescans every actor


def _scan_schedule(g, q=None):
    """Reference token game: the vector solved and aligned in rationals,
    then a rescan of every actor, in id order, for each firing; the
    smallest fireable id fires.  build_schedule must give exactly this
    schedule, and raise the same error where it raises one."""
    if q is None:
        q = _fraction_repetition_vector(g)
    q, span = _fraction_aligned_repetition(g, q)
    ins, outs = by_actor(g, "dst"), by_actor(g, "src")
    tokens = {c.id: c.delay for c in g.channels}
    peaks = dict(tokens)
    remaining = dict(q)
    order = sorted(remaining)
    firings = []
    while len(firings) < sum(q.values()):
        pick = None
        for aid in order:
            if remaining[aid] > 0 and all(tokens[c.id] >= c.rate_dst for c in ins[aid]):
                pick = aid
                break
        if pick is None:
            blocked = sorted(a for a in remaining if remaining[a] > 0)
            raise DeadlockError(f"no fireable actor; blocked: {', '.join(blocked)}")
        for c in ins[pick]:
            tokens[c.id] -= c.rate_dst
        for c in outs[pick]:
            tokens[c.id] += c.rate_src
            peaks[c.id] = max(peaks[c.id], tokens[c.id])
        remaining[pick] -= 1
        firings.append(pick)
    return Schedule(tuple(firings), peaks, q, span)  # as the graph's own schedule holds them


def _same_schedule(g):
    """build_schedule(g) and the reference agree: the same firings, peaks,
    repetition and span."""
    got, want = build_schedule(g), _scan_schedule(g)
    assert (got.firings, got.peaks, got.repetition, got.span) == (
        want.firings, want.peaks, want.repetition, want.span)


def _chain_document(gains):
    """bench/workloads.py's chain of `gains` Gains with alternating periods."""
    name = "bench_workloads"
    if name not in sys.modules:  # its dataclasses look their module up there
        spec = importlib.util.spec_from_file_location(
            name, Path(__file__).parent.parent / "bench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].chain_document(gains, random.Random(gains))


@pytest.mark.filterwarnings("ignore:flatten depth")
@pytest.mark.parametrize("name", ["multirate", "multirate_rt", "transmission", "climate"])
@pytest.mark.parametrize("depth", [None, 0, 1])
def test_schedule_matches_scan_on_fixtures(name, depth):
    _same_schedule(translate(normalize(load_fixture(name), depth=depth))[0])


@pytest.mark.parametrize("gains", [12, 200])
def test_schedule_matches_scan_on_chains(gains):
    g, _ = translate(normalize(load_model(_chain_document(gains))))
    assert sum(build_schedule(g).repetition.values()) > 2 * gains
    _same_schedule(g)


def test_schedule_matches_scan_on_random_models():
    checked = 0
    for seed in range(200):
        m = random_model(seed)
        if check_requirements(m):
            continue
        _same_schedule(translate(normalize(m))[0])
        checked += 1
    assert checked > 100


def test_schedule_matches_scan_on_random_graphs():
    # back and self edges with delays: actors re-enter the ready set
    rng = random.Random(12)
    for _ in range(300):
        _same_schedule(random_schedulable_graph(rng))


@pytest.mark.parametrize("g", [
    # zero-delay 2-cycle: nothing fires
    graph([actor("a", n_in=1, n_out=1), actor("b", n_in=1, n_out=1)],
          [chan("c0", ("a", 0), ("b", 0), 1, 1),
           chan("c1", ("b", 0), ("a", 0), 1, 1)]),
    # 3-cycle, q = (2, 2, 1): the delay lets a and b fire once, then c
    # waits for a second token that never comes
    graph([actor("a", n_in=1, n_out=1), actor("b", n_in=1, n_out=1),
           actor("c", n_in=1, n_out=1)],
          [chan("c0", ("a", 0), ("b", 0), 1, 1),
           chan("c1", ("b", 0), ("c", 0), 1, 2),
           chan("c2", ("c", 0), ("a", 0), 2, 1, delay=1)]),
    # x -> y fires its whole iteration, the a <-> b cycle none of it
    graph([actor("a", n_in=1, n_out=1), actor("b", n_in=1, n_out=1),
           actor("x", n_out=1), actor("y", n_in=1)],
          [chan("c0", ("a", 0), ("b", 0), 1, 1),
           chan("c1", ("b", 0), ("a", 0), 1, 1),
           chan("c2", ("x", 0), ("y", 0), 1, 2)]),
], ids=["two_cycle", "partial_three_cycle", "two_components"])
def test_deadlock_message_matches_scan(g):
    with pytest.raises(DeadlockError) as scan:
        _scan_schedule(g)
    with pytest.raises(DeadlockError) as heap:
        build_schedule(g)
    assert str(heap.value) == str(scan.value)


def test_inconsistent_message_matches_scan():
    # the second of two parallel channels a -> b asks for q[b] = 2 q[a]
    g = graph([actor("a", n_out=1), actor("b", n_in=2)],
              [chan("c0", ("a", 0), ("b", 0), 1, 1),
               chan("c1", ("a", 0), ("b", 1), 2, 1)])
    with pytest.raises(InconsistentError) as scan:
        _scan_schedule(g)
    with pytest.raises(InconsistentError) as heap:
        build_schedule(g)
    assert str(heap.value) == str(scan.value)


# ---------------------------------------------------------------------------
# integer balance equations against the rational solution


def _fraction_repetition_vector(g):
    """Reference solution in rationals, as the balance equations were solved
    before they moved to integer pairs: each actor's count relative to its
    component's seed is a Fraction.  repetition_vector must give exactly
    this vector, in this order, and this error text."""
    neighbours = {a.id: [] for a in g.actors}
    for c in g.channels:
        s, t = c.src[0], c.dst[0]
        neighbours[s].append((t, Fraction(c.rate_src, c.rate_dst), c))
        neighbours[t].append((s, Fraction(c.rate_dst, c.rate_src), c))

    q = {}
    for seed in sorted(neighbours):
        if seed in q:
            continue
        q[seed] = Fraction(1)
        component = [seed]
        stack = [seed]
        while stack:
            a = stack.pop()
            for b, ratio, ch in neighbours[a]:
                want = q[a] * ratio
                if b in q:
                    if q[b] != want:
                        raise InconsistentError(
                            f"channel {ch.id} ({ch.src} -> {ch.dst}, rates "
                            f"{ch.rate_src}/{ch.rate_dst}) contradicts the balance equations")
                else:
                    q[b] = want
                    component.append(b)
                    stack.append(b)
        scale = 1
        for a in component:
            scale = scale * q[a].denominator // math.gcd(scale, q[a].denominator)
        norm = 0
        for a in component:
            q[a] *= scale
            norm = math.gcd(norm, int(q[a]))
        for a in component:
            q[a] = Fraction(int(q[a]) // norm)
    return {a: int(v) for a, v in q.items()}


def _fraction_aligned_repetition(g, q):
    """Reference alignment in rationals: the pairwise lcm of the component
    spans, lcm(numerators) / gcd(denominators).  aligned_repetition must
    give exactly this vector, span and error text."""
    parent = {a.id: a.id for a in g.actors}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in g.channels:
        a, b = find(c.src[0]), find(c.dst[0])
        if a != b:
            parent[a] = b
    spans = {}
    for a in g.actors:
        root = find(a.id)
        span = q[a.id] * a.period
        spans[root] = max(spans.get(root, Fraction(0)), span)
    h = None
    for v in spans.values():
        if h is None:
            h = v
        else:
            h = Fraction(h.numerator * v.numerator // math.gcd(h.numerator, v.numerator),
                         math.gcd(h.denominator, v.denominator))
    if h is None:
        h = Fraction(1)
    scaled = {}
    for a in g.actors:
        s = h / spans[find(a.id)]
        if s.denominator != 1:
            raise InconsistentError(f"actor {a.id}: span {spans[find(a.id)]} "
                                    f"does not divide the iteration span {h}")
        scaled[a.id] = q[a.id] * int(s)
    return scaled, h


def _solve(g, vector, align):
    """(vector, aligned vector, span) with dict order kept, or the error."""
    try:
        q = vector(g)
        scaled, span = align(g, q)
    except InconsistentError as e:
        return "InconsistentError", str(e)
    return list(q.items()), list(scaled.items()), span, type(span)


def random_multi_component_graph(rng):
    """Several consistent components, each with its own fractional period
    and some actors at a multiple of it; now and then one rate is bumped,
    which usually makes the graph inconsistent."""
    actors, channels = [], []
    for k in range(rng.randint(1, 4)):
        g, _ = random_consistent_graph(rng)
        period = Fraction(rng.randint(1, 7), rng.choice([1, 2, 3, 4, 6, 10]))
        for a in g.actors:
            actors.append(Actor(f"k{k}{a.id}", a.kind, {},
                                period * rng.choice([1, 1, 1, 2, 3]), a.in_ports, a.out_ports))
        for c in g.channels:
            bump = 1 if rng.random() < 0.03 else 0
            channels.append(Channel(f"k{k}{c.id}", (f"k{k}{c.src[0]}", c.src[1]),
                                    (f"k{k}{c.dst[0]}", c.dst[1]), c.rate_src + bump, c.rate_dst))
    rng.shuffle(actors)
    return Sdfg("multi", actors, channels)


def test_integer_balance_matches_fractions_on_random_models():
    checked = 0
    for seed in range(200):
        m = random_model(seed)
        if check_requirements(m):
            continue
        g, _ = translate(normalize(m))
        assert (_solve(g, repetition_vector, aligned_repetition)
                == _solve(g, _fraction_repetition_vector, _fraction_aligned_repetition)), seed
        checked += 1
    assert checked > 100


def test_integer_balance_matches_fractions_on_multi_component_graphs():
    rng = random.Random(8)
    inconsistent = mixed = 0
    for _ in range(300):
        g = random_multi_component_graph(rng)
        got = _solve(g, repetition_vector, aligned_repetition)
        assert got == _solve(g, _fraction_repetition_vector, _fraction_aligned_repetition)
        if got[0] == "InconsistentError":
            inconsistent += 1
        elif len({a.period for a in g.actors}) > 1:
            mixed += 1
    # both verdicts, and consistent graphs with mixed periods, were exercised
    assert inconsistent > 10 and mixed > 100


# ---------------------------------------------------------------------------
# one derivation per graph


def _counting(monkeypatch):
    """Counts of index builds, alignments and token games from now on."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for name in ("align", "play"):
        monkeypatch.setattr(sdf_core._Index, name, counted(name, getattr(sdf_core._Index, name)))
    monkeypatch.setattr(sdf_core, "_Index", counted("index", sdf_core._Index))
    return calls


def test_benchmark_calls_derive_the_graph_once(monkeypatch):
    # the calls bench/chain.py makes for one verification, in its order
    g, _ = translate(normalize(load_model(_chain_document(200))))
    calls = _counting(monkeypatch)
    q, _ = aligned_repetition(g, repetition_vector(g))
    sched = build_schedule(g, q)
    periods = math.ceil(16 / sil_span(g))
    run_sil(g, periods)
    emit_bundle(g, periods)
    # one walk; the caller's vector and the graph's own are each aligned
    # and played, and emit_bundle replays the graph's own schedule as it is
    assert calls == {"index": 1, "align": 3, "play": 2}
    assert build_schedule(g) == sched


@pytest.mark.parametrize("cmd", ["verify", "codegen"])
def test_cli_runs_derive_the_graph_once(tmp_path, monkeypatch, cmd):
    from sdflow import cli
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(_chain_document(200)))
    calls = _counting(monkeypatch)
    args = [cmd, str(path), "--steps", "16"]
    if cmd == "codegen":
        args += ["--out", str(tmp_path / "bundle")]
    assert cli.main(args) == 0
    assert calls == {"index": 1, "align": 1, "play": 1}


def test_the_graph_has_one_schedule(monkeypatch):
    g, _ = translate(normalize(load_fixture("multirate")))
    s = build_schedule(g)
    assert build_schedule(g) is s
    # a vector passed in is played into a new schedule, the caller's to edit
    mine = build_schedule(g, dict(s.repetition))
    assert mine == s and mine is not s
    mine.firings.pop()
    assert mine != s and len(s.firings) == len(mine.firings) + 1
    twice = build_schedule(g, {aid: 2 * n for aid, n in s.repetition.items()})
    assert twice.span == 2 * s.span and build_schedule(g) is s
    # a replay takes the graph's own schedule as it is; an equal copy is
    # checked in full, and a reversed one underflows
    checked, check = [], sdf_core.check_schedule
    monkeypatch.setattr(sdf_core, "check_schedule",
                        lambda g, sched: (checked.append(sched), check(g, sched)))
    copy = replace(s)
    assert copy == s and copy is not s
    assert run_sil(g, 2, schedule=copy).to_csv() == run_sil(g, 2, schedule=s).to_csv()
    assert [x is copy for x in checked] == [True]
    with pytest.raises(UnderflowError):
        run_sil(g, 2, schedule=replace(s, firings=s.firings[::-1]))


def test_failures_are_raised_on_every_call():
    inconsistent = graph([actor("a", n_out=2), actor("b", n_in=2)],
                         [chan("c0", ("a", 0), ("b", 0), 1, 1),
                          chan("c1", ("a", 1), ("b", 1), 2, 1)])
    deadlocked = graph([actor("a", n_in=1, n_out=1), actor("b", n_in=1, n_out=1)],
                       [chan("c0", ("a", 0), ("b", 0), 1, 1),
                        chan("c1", ("b", 0), ("a", 0), 1, 1)])
    for g, error in ((inconsistent, InconsistentError), (deadlocked, DeadlockError)):
        for _ in range(2):
            with pytest.raises(error):
                build_schedule(g)
    bad = Sdfg("g", [actor("a", n_in=1)], [])
    for _ in range(2):
        with pytest.raises(SchemaError, match="unbound in port 0"):
            bad.check_wellformed()


def test_graphs_and_schedules_are_immutable():
    g, _ = translate(normalize(load_fixture("multirate")))
    s = build_schedule(g)
    for obj, name in ((g.actors[0], "period"), (g.channels[0], "delay"), (s, "firings"),
                      (g, "channels")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        g.channels.append(g.channels[0])
    with pytest.raises(AttributeError):
        g.actors[0].in_ports.append(Port("f64", 1))
    with pytest.raises(TypeError):
        s.peaks[g.channels[0].id] = 0
    with pytest.raises(TypeError):
        s.repetition[g.actors[0].id] = 0
    # translate and load_sdfg build tuples throughout; a graph keeps the
    # lists of actors and channels it is given as tuples
    for h in (g, load_sdfg(save_sdfg(g))):
        assert all(type(a.in_ports) is type(a.out_ports) is tuple for a in h.actors)
        assert all(type(c.src) is type(c.dst) is type(c.initial_values) is tuple
                   for c in h.channels)
    assert type(Sdfg("h", [g.actors[0]], [g.channels[0]]).channels) is tuple

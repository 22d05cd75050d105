"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS line (bypassing capture) so a plain
`pytest -v` run shows the verdicts inline; a failed assertion shows up
as the usual FAILED row instead.  Tolerances and time budgets are part
of the assertions, not just documentation.
"""

import math
import random
import time
import warnings
from collections import Counter
from fractions import Fraction

from model_gen import random_model, random_stimulus
from test_validator import (bus_model, fixed_step_pair, goto_pair,
                            harmonic_pair, hierarchy_pair, rules_at,
                            switch_pair, vocab_pair)
import test_sdf_core as core

from sdflow import (DeadlockError, DepthWarning, InconsistentError, Sdfg, Trace,
                    build_schedule, check_requirements, compare_traces,
                    emit_bundle, normalize, rate_transition_rates,
                    repetition_vector, run_mil, run_sil, translate)
from conftest import F1, F2, c_trace

import pytest


def report(capsys, line):
    with capsys.disabled():
        print("\n" + line)


# ---------------------------------------------------------------------------


def test_criterion_1_multirate_reference_translation(multirate_rt, capsys):
    t0 = time.perf_counter()
    g, rep = translate(normalize(multirate_rt))

    rts = [a for a in g.actors if a.kind == "RateTransition"]
    assert len(rts) == 1 and rts[0].id == "RateTransition"
    into = [c for c in g.channels if c.dst[0] == "RateTransition"]
    out = [c for c in g.channels if c.src[0] == "RateTransition"]
    assert len(into) == 1 and len(out) == 1
    assert into[0].rate_dst == 2 and into[0].delay == 1
    assert out[0].rate_src == 1

    q = repetition_vector(g)
    assert q == {"Constant": 2, "Constant1": 2, "Product": 2,
                 "RateTransition": 1, "UnitDelay": 1, "Chart": 1,
                 "Out1": 1, "Out2": 1}
    assert Counter(build_schedule(g, q).firings) == q

    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(capsys, f"criterion 1: PASS (one 2:1 transition with one delay "
                   f"token, vector and firing multiset exact, {dt:.2f}s)")


def test_criterion_2_rate_transition_rates(capsys):
    t0 = time.perf_counter()
    assert rate_transition_rates(Fraction(4), Fraction(2)) == (1, 2, 0)
    assert rate_transition_rates(Fraction(4), Fraction(1)) == (1, 4, 0)
    assert rate_transition_rates(Fraction(2), Fraction(4)) == (2, 1, 1)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(capsys, f"criterion 2: PASS (slow-to-fast duplicates without "
                   f"delay, fast-to-slow preloads ratio-1 tokens, {dt:.2f}s)")


def _case_stimulus(name, steps):
    st = Trace()
    if name == "transmission":
        st.declare("throttle", "f64", 1)
        for k in range(steps):
            st.add("throttle", Fraction(k),
                   50.0 + 49.0 * math.sin(k / 9.0) + (k % 7) * 0.03)
    else:
        st.declare("setpoint", "f64", 1)
        st.declare("sensor", "f64", 1)
        for k in range(steps):
            st.add("setpoint", Fraction(k), 21.0 + (k % 11) * 0.1)
            st.add("sensor", Fraction(k), 18.0 + 6.0 * math.sin(k / 13.0))
    return st


def test_criterion_3_case_studies_mil_vs_sil(transmission, climate, capsys):
    steps = 512
    times = {}
    for m in (transmission, climate):
        t0 = time.perf_counter()
        stim = _case_stimulus(m.name, steps)
        g, _ = translate(normalize(m))
        sched = build_schedule(g)
        periods = int(Fraction(steps) / sched.span)
        a = run_mil(m, steps, stim)
        b = run_sil(g, periods, stim, schedule=sched)
        c = compare_traces(a, b, tol=1e-12)
        assert c.ok, f"{m.name}: {c.divergence}"
        assert c.samples >= steps
        times[m.name] = time.perf_counter() - t0
        assert times[m.name] < 10.0
    report(capsys, "criterion 3: PASS (512 base steps, f64 within 1e-12 "
                   "relative, int/bool exact; "
                   + ", ".join(f"{n} {t:.2f}s" for n, t in times.items()) + ")")


def test_criterion_4_compiled_code_matches_interpreter(
        transmission, climate, tmp_path, capsys):
    t0 = time.perf_counter()
    cases = [("transmission", transmission), ("climate", climate)]
    cases += [(f"seed {s}", random_model(s)) for s in range(50)]

    compared = 0
    for i, (label, m) in enumerate(cases):
        assert check_requirements(m) == [], label
        g, _ = translate(normalize(m))
        steps = 48 if m.base_step == 1 else 96
        stim = random_stimulus(m, steps, seed=9000 + i)
        sched = build_schedule(g)
        periods = int(Fraction(steps) * m.base_step / sched.span)
        ref = run_sil(g, periods, stim, schedule=sched)
        work = tmp_path / f"m{i}"
        work.mkdir()
        got = c_trace(emit_bundle(g, periods=periods, stimulus=stim, schedule=sched),
                      work, ref.specs)
        c = compare_traces(ref, got, tol=0.0)
        assert c.ok, f"{label}: {c.divergence}"
        compared += c.samples

    dt = time.perf_counter() - t0
    assert dt < 300.0
    report(capsys, f"criterion 4: PASS (52 models compiled and replayed, "
                   f"{compared} samples bit-exact, {dt:.1f}s)")


def test_criterion_5a_balance_on_random_graphs(capsys):
    t0 = time.perf_counter()
    rng = random.Random(42)
    for _ in range(10_000):
        g, _ = core.random_consistent_graph(rng)
        q = repetition_vector(g)
        for c in g.channels:
            assert q[c.src[0]] * c.rate_src == q[c.dst[0]] * c.rate_dst
        assert math.gcd(*q.values()) == 1
    dt = time.perf_counter() - t0
    assert dt < 120.0
    report(capsys, f"criterion 5a: PASS (10000 random graphs satisfy the "
                   f"balance equations with coprime vectors, {dt:.1f}s)")


def test_criterion_5b_parallel_rate_mismatch(capsys):
    t0 = time.perf_counter()
    rng = random.Random(43)
    for _ in range(500):
        g, q = core.random_consistent_graph(rng)
        # duplicate one channel with a broken rate pair
        victim = rng.choice(g.channels)
        src, dst = victim.src[0], victim.dst[0]
        bad = core.chan("bad", (src, len(g.actor(src).out_ports)),
                        (dst, len(g.actor(dst).in_ports)),
                        victim.rate_src * 2, victim.rate_dst)
        g = Sdfg(g.name, g.actors, g.channels + (bad,))
        for solve in (repetition_vector, build_schedule):
            with pytest.raises(InconsistentError):
                solve(g)
    dt = time.perf_counter() - t0
    assert dt < 120.0
    report(capsys, f"criterion 5b: PASS (500 mismatched parallel channels "
                   f"all rejected, {dt:.1f}s)")


def test_criterion_5c_zero_delay_cycles_deadlock(capsys):
    t0 = time.perf_counter()
    rng = random.Random(44)
    for _ in range(500):
        n = rng.randint(2, 6)
        actors = [core.actor(f"a{i}", n_in=1, n_out=1) for i in range(n)]
        chans = [core.chan(f"c{i}", (f"a{i}", 0), (f"a{(i + 1) % n}", 0), 1, 1)
                 for i in range(n)]
        g = core.graph(actors, chans)
        with pytest.raises(DeadlockError):
            build_schedule(g)
        assert repetition_vector(g) == {a.id: 1 for a in actors}  # balance holds
    dt = time.perf_counter() - t0
    assert dt < 120.0
    report(capsys, f"criterion 5c: PASS (500 zero-delay cycles all "
                   f"deadlock, {dt:.1f}s)")


def test_criterion_5d_schedule_replay_integrity(capsys):
    t0 = time.perf_counter()
    rng = random.Random(45)
    for _ in range(2000):
        g = core.random_schedulable_graph(rng)
        sched = build_schedule(g)
        left = core.replay(g, sched)       # asserts no underflow inside
        assert left == {c.id: c.delay for c in g.channels}
    dt = time.perf_counter() - t0
    assert dt < 120.0
    report(capsys, f"criterion 5d: PASS (2000 schedules replay without "
                   f"underflow and restore every delay, {dt:.1f}s)")


def test_criterion_5e_normalization_preserves_behavior(capsys):
    t0 = time.perf_counter()
    checked = 0
    for seed in range(30):
        m = random_model(seed + 200)
        steps = 16
        stim = random_stimulus(m, steps, seed=7000 + seed)
        ref = run_mil(m, steps, stim)
        for depth in (None, 0, 1):
            with warnings.catch_warnings():
                # depth 1 on a flat model is a legitimate clamp
                warnings.simplefilter("ignore", DepthWarning)
                flat = normalize(m, depth=depth).model
            got = run_mil(flat, steps, stim)
            c = compare_traces(ref, got, tol=0.0)
            assert c.ok, f"seed {seed + 200} depth {depth}: {c.divergence}"
            checked += 1
    dt = time.perf_counter() - t0
    assert dt < 120.0
    report(capsys, f"criterion 5e: PASS ({checked} normalized runs match "
                   f"their source model exactly, {dt:.1f}s)")


def test_criterion_5f_schedule_is_the_aligned_iteration(capsys):
    t0 = time.perf_counter()
    checked = multi = 0
    for seed in range(200):
        m = random_model(seed)
        if check_requirements(m):
            continue
        g, _ = translate(normalize(m))
        s = build_schedule(g)
        assert Counter(s.firings) == s.repetition, f"seed {seed}"
        for a in g.actors:
            assert s.repetition[a.id] * a.period == s.span, f"seed {seed}: {a.id}"
        checked += 1
        multi += s.repetition != repetition_vector(g)
    assert multi > 0          # the corpus does exercise the alignment
    dt = time.perf_counter() - t0
    assert dt < 120.0
    report(capsys, f"criterion 5f: PASS ({checked} random models schedule "
                   f"one aligned iteration, {multi} of them rescaled, {dt:.1f}s)")


def test_criterion_6_requirement_rules(capsys):
    t0 = time.perf_counter()
    pairs = [
        ("FixedStep", rules_at(fixed_step_pair(3)),
         [("FixedStep", "c"), ("FixedStep", "y")], rules_at(fixed_step_pair(4))),
        ("HarmonicRates", rules_at(harmonic_pair(3)),
         [("HarmonicRates", "a -> g")], rules_at(harmonic_pair(4))),
        ("E1_Hierarchy", rules_at(hierarchy_pair(True), depth=0),
         [("E1_Hierarchy", "sub")], rules_at(hierarchy_pair(False), depth=0)),
        ("E2_VariableSize", rules_at(switch_pair(F1)),
         [("E2_VariableSize", "sw")], rules_at(switch_pair(F2))),
        ("E3_1_DanglingRouting", rules_at(goto_pair(False)),
         [("E3_1_DanglingRouting", "gt")], rules_at(goto_pair(True))),
        ("E3_2_BusPairing", rules_at(bus_model("Gain")),
         [("E3_2_BusPairing", "bc -> g")], rules_at(bus_model("BusSelector"))),
        ("UnsupportedBlock", rules_at(vocab_pair("Quantizer")),
         [("UnsupportedBlock", "x")], rules_at(vocab_pair("Gain"))),
    ]
    for rule, failing, expect, passing in pairs:
        for want in expect:
            assert want in failing, f"{rule}: missing {want}"
        assert all(r == rule for r, _ in failing), f"{rule}: extra rules"
        assert passing == [], f"{rule}: sibling not clean"

    # determinism: same model, same report, already sorted
    m = fixed_step_pair(3)
    a = check_requirements(m)
    assert a == check_requirements(m)
    assert [(v.location, v.rule, v.message) for v in a] == \
        sorted((v.location, v.rule, v.message) for v in a)

    dt = time.perf_counter() - t0
    assert dt < 10.0
    report(capsys, f"criterion 6: PASS (7 rule classes fail and pass at "
                   f"exact locations, reports deterministic, {dt:.2f}s)")

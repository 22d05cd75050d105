"""Tests of the benchmark itself, on a tiny size of each workload.

    python -m pytest bench
"""

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import chain  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sdflow import Trace  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

# Every metric the benchmark defines, by workload, with its unit.
E2E = {"setup_s": "s", "verify_s": "s", "verify_s_tail": "s", "compile_s": "s",
       "peak_rss_mb": "MB", "failed_share": "ratio"}
E2E_ONLY = {"corpus_c": {"c_build_s": "s", "c_source_bytes": "bytes",
                         "c_binary_bytes": "bytes"},
            "chain_scale": {"c_source_bytes": "bytes"}}
LAYER = {
    "model_ir.load_s": "s", "model_ir.blocks": "count",
    "validator.check_s": "s", "validator.violations": "count",
    "normalizer.normalize_s": "s", "normalizer.flat_blocks": "count",
    "normalizer.rate_transitions": "count",
    "translator.translate_s": "s", "translator.actors": "count",
    "translator.channels": "count",
    "sdf_core.repetition_s": "s", "sdf_core.schedule_s": "s",
    "sdf_core.sum_q": "count", "sdf_core.peak_tokens": "count",
    "interpreter.run_mil_s": "s", "interpreter.mil_steps_per_s": "1/s",
    "interpreter.run_sil_s": "s", "interpreter.sil_firings_per_s": "1/s",
    "interpreter.compare_s": "s", "interpreter.samples_compared": "count",
    "interpreter.from_csv_s": "s", "trace.overhead_s": "s",
}
CODEGEN = {"codegen.emit_s": "s", "codegen.write_s": "s"}
C_LAYERS = {"cc.build_s": "s", "cc.invocations": "count", "c_run.run_s": "s"}
LAYER_ONLY = {"corpus_c": {**CODEGEN, **C_LAYERS}, "chain_scale": CODEGEN}
WORKLOADS = ("cases_long", "corpus_c", "chain_scale")


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_with_its_unit(name, trace):
    rep = run.run_benchmark(name, 7, 0, trace, size="tiny")
    want = {**E2E, **E2E_ONLY.get(name, {})}
    if trace:
        want.update(LAYER, **LAYER_ONLY.get(name, {}))
    got = {k: v["unit"] for k, v in rep["metrics"].items()}
    assert {k: got.get(k) for k in want} == want
    assert rep["failed"] == 0 and rep["attempted"] >= (2 if trace else 1)
    assert rep["metrics"]["validator.violations" if trace else "failed_share"]["value"] == 0
    assert len(rep["fingerprint"]) == 64
    assert set(rep["machine"]) == {"cpu", "nproc", "python", "cc"}
    if trace:
        assert {s["name"] for s in rep["spans"]} >= {"bench.verify", "sdf_core.schedule"}
    line = run.result_line(rep)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == set(run.PER_LAYER if trace else run.END_TO_END)


def test_result_line_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fingerprint_follows_the_seed():
    for name in WORKLOADS:
        a = workloads.build(name, 3, "tiny").fingerprint()
        assert a == workloads.build(name, 3, "tiny").fingerprint()
        assert a != workloads.build(name, 4, "tiny").fingerprint()


def test_compare_refuses_different_inputs(tmp_path):
    rep = {"workload": "w", "fingerprint": "a" * 64, "failed": 0, "attempted": 1,
           "machine": {"cpu": "x", "nproc": 1, "python": "3", "cc": "cc"},
           "metrics": {"verify_s": {"value": 1.0, "unit": "s"}}}
    other = dict(rep, fingerprint="b" * 64)
    with pytest.raises(ValueError, match="refusing"):
        compare.compare(rep, other)
    assert any("verify_s" in ln for ln in compare.compare(rep, dict(rep)))
    paths = []
    for i, r in enumerate((rep, other)):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(r))
    assert compare.main([str(p) for p in paths]) == 2


def _perturb_last_f64(csv_text: str) -> str:
    lines = csv_text.rstrip("\n").split("\n")
    for i in range(len(lines) - 1, 0, -1):
        t, sig, val = lines[i].split(",", 2)
        try:
            x = float(val)
        except ValueError:
            continue
        if "." in val or "e" in val:
            lines[i] = f"{t},{sig},{math.nextafter(x, math.inf)!r}"
            return "\n".join(lines) + "\n"
    raise AssertionError("no f64 sample to perturb")


def test_one_perturbed_c_sample_is_a_failure(monkeypatch, tmp_path):
    wl = workloads.build("corpus_c", 0, "tiny")
    case = next(c for c in wl.cases
                if chain.verify_case(c, "build", str(tmp_path / "ok"), Tracer(False)).problems == []
                and '"f64"' in c.text)
    real = chain.run_harness
    monkeypatch.setattr(chain, "run_harness", lambda exe: _perturb_last_f64(real(exe)))
    out = chain.verify_case(case, "build", str(tmp_path / "bad"), Tracer(False))
    assert any(p.startswith("SIL vs C:") for p in out.problems), out.problems
    rep = {"trace": 0, "failed": 1, "attempted": 1,
           "metrics": {k: {"value": 1.0, "unit": u} for k, u in run.END_TO_END.items()}}
    assert run.result_line(rep)["correct"] is False


def _trace(values, dtype="f64"):
    tr = Trace()
    tr.declare("y", dtype, 1)
    for k, v in enumerate(values):
        tr.add("y", Fraction(k), v)
    return tr


def test_trace_checks():
    ref = _trace([1.0, -2.5, float("nan")])
    assert chain.trace_mismatch(ref, _trace([1.0, -2.5, float("nan")]), 0.0) is None
    close = _trace([1.0 + 1e-13, -2.5, float("nan")])
    assert chain.trace_mismatch(ref, close, 1e-12) is None
    assert chain.trace_mismatch(ref, close, 0.0) is not None
    assert chain.trace_mismatch(ref, _trace([1.0 + 1e-9, -2.5, float("nan")]), 1e-12)
    assert chain.trace_mismatch(_trace([0.0]), _trace([-0.0]), 0.0) is not None
    assert chain.trace_mismatch(_trace([3], "i32"), _trace([4], "i32"), 1e-12)
    assert chain.trace_mismatch(ref, _trace([1.0, -2.5]), 0.0) is not None


def test_schedule_checks():
    wl = workloads.build("cases_long", 0, "tiny")
    from sdflow import (aligned_repetition, build_schedule, load_model, normalize,
                        repetition_vector, translate)
    g, _ = translate(normalize(load_model(json.loads(wl.cases[0].text))))
    q, _ = aligned_repetition(g, repetition_vector(g))
    sched = build_schedule(g, q)
    assert chain.schedule_problems(g, q, sched) == []
    sched.firings.pop()
    assert chain.schedule_problems(g, q, sched)
    q[g.channels[0].src[0]] += 1
    assert any("balance" in p for p in chain.schedule_problems(g, q, sched))


def test_self_time_subtracts_children():
    tr = Tracer(True)
    with tr.span("bench.verify", "m"):
        with tr.span("interpreter.run_sil", "m"):
            sum(range(10000))
    st = self_times(tr.spans)
    outer, inner = tr.spans
    assert inner.parent == 0 and outer.parent is None
    assert st["interpreter.run_sil"] == pytest.approx(inner.end - inner.start)
    assert st["bench.verify"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start))
    assert Tracer(False).span("x", "m") is Tracer(False).span("y", "m")


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "corpus_c",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Stage-by-stage benchmark of the sdflow verify chain.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--report FILE]

Run from the root of a source checkout; the package is imported from
``src/`` and the random model generator from ``tests/``.  Load shape: a
closed loop, one caller, one process, no threads.  Models are verified
one after another; at most one ``cc`` or harness child runs at a time.

The run repeats whole rounds (every model of the workload once) until
``--seconds`` have passed, so every model is measured equally often.
With ``--trace 0`` nothing but the chain's stage boundaries is timed and
the end-to-end metrics are reported.  With ``--trace 1`` untraced and
traced rounds alternate: traced rounds record one span per public call
and give the per-layer metrics, and the difference between the two kinds
of round is the tracing overhead.

Standard output ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
list every metric by name and unit, the input fingerprint and the
machine.  ``--report FILE`` also writes all of it, spans included, as
JSON; ``bench/compare.py`` compares two such files.  Exit code 0 when
every output check passed, 1 when one failed, 2 when the benchmark could
not run.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

from spans import Tracer, self_times  # noqa: E402  (BENCH is on sys.path)

SETUP_REPEATS = 7
TAIL_BEYOND = 10

# Metrics the final JSON line carries: the ones every workload has.
END_TO_END = {"setup_s": "s", "verify_s": "s", "verify_s_tail": "s",
              "compile_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "model_ir.load_s": "s", "model_ir.blocks": "count",
    "validator.check_s": "s",
    "normalizer.normalize_s": "s", "normalizer.flat_blocks": "count",
    "normalizer.rate_transitions": "count",
    "translator.translate_s": "s", "translator.actors": "count",
    "translator.channels": "count",
    "sdf_core.repetition_s": "s", "sdf_core.schedule_s": "s",
    "sdf_core.sum_q": "count", "sdf_core.peak_tokens": "count",
    "interpreter.run_mil_s": "s", "interpreter.mil_steps_per_s": "1/s",
    "interpreter.run_sil_s": "s", "interpreter.sil_firings_per_s": "1/s",
    "interpreter.compare_s": "s", "interpreter.samples_compared": "count",
    "interpreter.from_csv_s": "s",
}
COUNTS = {"model_ir.blocks", "validator.violations", "normalizer.flat_blocks",
          "normalizer.rate_transitions", "translator.actors", "translator.channels",
          "sdf_core.sum_q", "sdf_core.peak_tokens", "interpreter.samples_compared",
          "cc.invocations"}


def import_program():
    """(Re-)import the package, the model generator and the benchmark
    modules that use them; returns (chain, workloads)."""
    for name in [n for n in sys.modules
                 if n in ("sdflow", "model_gen", "chain", "workloads")
                 or n.startswith("sdflow.")]:
        del sys.modules[name]
    chain = importlib.import_module("chain")
    workloads = importlib.import_module("workloads")
    src = sys.modules["sdflow"].__file__ or ""
    if not Path(src).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"sdflow was imported from {src}, not from {ROOT / 'src'}")
    return chain, workloads


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True,
                            timeout=30).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        cc = "unavailable"
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "cc": cc}


def per_model(samples) -> list[float]:
    """Each model's median over its runs, from (model, value) pairs."""
    by = defaultdict(list)
    for key, v in samples:
        by[key].append(v)
    return [statistics.median(v) for v in by.values()]


def per_model_median(samples) -> float:
    """Median over models of each model's median, so that a workload of
    unlike models weighs each model once."""
    return statistics.median(per_model(samples))


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest nearest-rank percentile
    with at least TAIL_BEYOND samples above it; the maximum (p100) when
    there are too few samples for one."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full") -> dict:
    """Set up, measure for `seconds` (at least one round, two when traced)
    and return the report."""
    workroot = ROOT / ".bench_work" / str(os.getpid())
    info = machine()
    usage0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            chain, workloads = import_program()
            wl = workloads.build(workload, seed, size)
            warm = workloads.build(workload, seed, "tiny").cases[0]
            o = chain.verify_case(warm, wl.c_stage, str(workroot / "warm"), Tracer(False))
            setups.append(perf_counter() - t0)
            if o.problems:
                raise RuntimeError("warm-up model failed:\n" + "\n".join(o.problems))

        tracer = Tracer(True)
        untraced = Tracer(False)
        outcomes = []           # (round, traced, Outcome)
        deadline = perf_counter() + seconds
        rnd = 0
        while rnd < (2 if trace else 1) or perf_counter() < deadline:
            traced = trace and rnd % 2 == 1
            for case in wl.cases:
                first = len(tracer.spans)
                o = chain.verify_case(case, wl.c_stage, str(workroot / "m"),
                                      tracer if traced else untraced)
                if traced:
                    o.layer_s = self_times(tracer.spans, first)
                outcomes.append((rnd, traced, o))
            rnd += 1
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        if workroot.parent.exists() and not any(workroot.parent.iterdir()):
            workroot.parent.rmdir()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    failed = [(r, o) for r, _, o in outcomes if o.problems]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "fingerprint": wl.fingerprint(), "models": len(wl.cases),
        "machine": info, "rounds": rnd,
        "attempted": len(outcomes), "failed": len(failed),
        "problems": [{"model": o.case, "round": r, "problems": o.problems}
                     for r, o in failed],
        "cpu_s": {"self": usage.ru_utime + usage.ru_stime,
                  "children": (child.ru_utime + child.ru_stime
                               - usage0.ru_utime - usage0.ru_stime)},
    }
    untraced_ok = _succeeded(outcomes, traced=False)
    traced_ok = _succeeded(outcomes, traced=True)
    if not untraced_ok or (trace and not traced_ok):
        raise RuntimeError("no model was verified successfully; first failure:\n"
                           + "\n".join(failed[0][1].problems))
    metrics = {}
    verify = per_model((o.case, o.verify_s) for o in untraced_ok)
    tail_v, tail_p, tail_n = tail(verify)
    report["tail"] = {"percentile": tail_p, "samples": tail_n}
    metrics["setup_s"] = (statistics.median(setups), "s",
                          f"median of {len(setups)} set-ups (import, inputs, warm-up)")
    metrics["verify_s"] = (
        statistics.median(verify), "s",
        f"median per model, {len(untraced_ok)} runs of {len(verify)} models")
    metrics["verify_s_tail"] = (tail_v, "s", f"p{tail_p:.1f} of {tail_n} per-model medians")
    metrics["compile_s"] = (
        per_model_median((o.case, o.compile_s) for o in untraced_ok), "s",
        "median per model, JSON text to schedule")
    if wl.c_stage == "build":
        metrics["c_build_s"] = (
            per_model_median((o.case, o.c_build_s) for o in untraced_ok), "s",
            "median per model, emit + write + build.sh")
    first_round = [o for r, _, o in outcomes if r == 0]
    for name in ("c_source_bytes", "c_binary_bytes"):
        if any(name in o.counts for o in first_round):
            metrics[name] = (sum(o.counts.get(name, 0) for o in first_round), "bytes",
                             "total over the workload's models")
    metrics["peak_rss_mb"] = (usage.ru_maxrss / 1024, "MB",
                              "peak resident set of the benchmark process")
    metrics["failed_share"] = (len(failed) / len(outcomes), "ratio",
                               f"of {len(outcomes)} model runs")
    if trace:
        _per_layer(metrics, outcomes, traced_ok)
        metrics["trace.overhead_s"] = (
            per_model_median((o.case, o.verify_s) for o in traced_ok)
            - metrics["verify_s"][0], "s", "traced minus untraced verify_s, same run")
        report["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
    report["metrics"] = {k: {"value": v, "unit": u, "note": note}
                         for k, (v, u, note) in metrics.items()}
    return report


def _succeeded(outcomes, traced: bool) -> list:
    return [o for _, t, o in outcomes if t == traced and not o.problems]


def _per_layer(metrics, outcomes, traced):
    calls = dict.fromkeys(k for o in traced for k in o.layer_s if not k.startswith("bench."))
    for call in calls:
        metrics[f"{call}_s"] = (
            per_model_median((o.case, o.layer_s.get(call, 0.0)) for o in traced),
            "s", "self time, median per model")
    metrics["bench.glue_s"] = (
        per_model_median((o.case, sum(v for k, v in o.layer_s.items()
                                      if k.startswith("bench."))) for o in traced),
        "s", "self time of the benchmark's own spans, median per model")
    metrics["interpreter.mil_steps_per_s"] = (
        per_model_median((o.case, o.counts["interpreter.mil_steps"]
                          / o.layer_s["interpreter.run_mil"]) for o in traced),
        "1/s", "base steps per second of run_mil, median per model")
    metrics["interpreter.sil_firings_per_s"] = (
        per_model_median((o.case, o.counts["interpreter.sil_firings"]
                          / o.layer_s["interpreter.run_sil"]) for o in traced),
        "1/s", "actor firings per second of run_sil, median per model")
    first = min(r for r, t, _ in outcomes if t)
    round_models = [o for r, _, o in outcomes if r == first]
    for name in sorted(COUNTS):
        if any(name in o.counts for o in round_models):
            metrics[name] = (sum(o.counts.get(name, 0) for o in round_models),
                             "count", "total over the workload's models")


def result_line(report: dict) -> dict:
    """The last line of standard output."""
    names = PER_LAYER if report["trace"] else END_TO_END
    ms = report["metrics"]
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {k: {"value": ms[k]["value"], "unit": ms[k]["unit"]}
                        for k in names}}


def print_report(report: dict) -> None:
    m = report["machine"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  {report['rounds']} rounds of "
          f"{report['models']} models")
    print(f"inputs sha256 {report['fingerprint']}")
    print(f"machine: {m['cpu']}; nproc {m['nproc']}; Python {m['python']}; {m['cc']}")
    print(f"attempted {report['attempted']}  failed {report['failed']}  "
          f"cpu {report['cpu_s']['self']:.2f} s self, "
          f"{report['cpu_s']['children']:.2f} s children")
    for name, v in report["metrics"].items():
        print(f"  {name:32s} {v['value']:<14.6g} {v['unit']:6s} {v['note']}")
    for p in report["problems"][:5]:
        print(f"FAILED {p['model']} (round {p['round']}):", file=sys.stderr)
        for line in p["problems"]:
            print("  " + line.replace("\n", "\n  "), file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("cases_long", "corpus_c", "chain_scale"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", metavar="FILE", help="also write the full report as JSON")
    args = p.parse_args(argv)
    for d in ("src", "tests"):
        if not (ROOT / d).is_dir():
            print(f"error: {ROOT / d} is missing; run from a source checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print_report(report)
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=1)
    print(json.dumps(result_line(report)))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

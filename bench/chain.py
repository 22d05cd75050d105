"""One model through the verify chain, timed per public call, then checked.

The calls are the ones ``sdflow verify`` and ``sdflow codegen`` make, in
the same order, plus the explicit repetition vector and schedule that
``sdflow schedule`` computes.  Every check of the outputs runs after the
timed chain and is the benchmark's own code, independent of the
program's comparator.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import struct
import subprocess
import traceback
from collections import Counter
from dataclasses import dataclass, field
from math import ceil
from time import perf_counter

from sdflow import (Trace, ValidationFailed, aligned_repetition,
                    build_schedule, check_requirements, compare_traces,
                    emit_bundle, load_model, normalize, repetition_vector,
                    run_mil, run_sil, sil_span, translate)
from sdflow.model_ir import iter_blocks

MIL_SIL_TOL = 1e-12      # relative, f64 only; int and bool must be exact
CHILD_TIMEOUT_S = 120


@dataclass
class Outcome:
    """What one verification of one model produced."""

    case: str
    verify_s: float = 0.0
    compile_s: float = 0.0
    c_build_s: float | None = None
    counts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    layer_s: dict[str, float] = field(default_factory=dict)  # traced runs only


def inport_specs(m) -> dict[str, tuple[str, int]]:
    """Stimulus columns are typed by the model's top-level Inports, as the
    command line types them."""
    return {b.id: (b.out_ports[0].dtype, b.out_ports[0].width)
            for b in m.root.children if b.kind == "Inport"}


def build_bundle(workdir: str) -> None:
    proc = subprocess.run(["sh", "build.sh"], cwd=workdir, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"build.sh failed ({proc.returncode}): {proc.stderr[-2000:]}")


def run_harness(exe: str) -> str:
    proc = subprocess.run([exe], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"harness failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return proc.stdout


def verify_case(case, c_stage: str, workdir: str, tracer) -> Outcome:
    """Run `case` through the chain; a stage that raises is a failure."""
    out = Outcome(case.id)
    try:
        _chain(case, c_stage, workdir, tracer, out)
    except Exception:
        out.problems.append(traceback.format_exc(limit=-3).strip())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def _chain(case, c_stage, workdir, tracer, out: Outcome) -> None:
    mid = case.id
    span = tracer.span
    t0 = perf_counter()
    with span("bench.verify", mid):
        with span("bench.compile", mid):
            with span("model_ir.load", mid):
                m = load_model(json.loads(case.text))
            with span("validator.check", mid):
                vios = check_requirements(m)
            out.counts["validator.violations"] = len(vios)
            if vios:
                raise ValidationFailed(vios)
            with span("normalizer.normalize", mid):
                n = normalize(m)
            with span("translator.translate", mid):
                g, _ = translate(n)
            with span("sdf_core.repetition", mid):
                q, _ = aligned_repetition(g, repetition_vector(g))
            with span("sdf_core.schedule", mid):
                sched = build_schedule(g, q)
        t_compiled = perf_counter()

        with span("interpreter.from_csv", mid):
            stim = Trace.from_csv(case.stimulus, inport_specs(m))
        with span("sdf_core.repetition", mid):
            it_span = sil_span(g)
        end = case.steps * m.base_step
        periods = int(ceil(end / it_span))
        with span("interpreter.run_mil", mid):
            mil = run_mil(m, case.steps, stimulus=stim)
        with span("interpreter.run_sil", mid):
            sil = run_sil(g, periods=periods, stimulus=stim)
        with span("interpreter.compare", mid):
            cmp = compare_traces(mil.clip(end), sil.clip(end), tol=MIL_SIL_TOL)

        c_trace = ccmp = bundle = None
        if c_stage != "none":
            t_c = perf_counter()
            with span("bench.c_build", mid):
                with span("codegen.emit", mid):
                    bundle = emit_bundle(g, periods=periods, stimulus=stim)
                with span("codegen.write", mid):
                    bundle.write(workdir)
                if c_stage == "build":
                    with span("cc.build", mid):
                        build_bundle(workdir)
            out.c_build_s = perf_counter() - t_c
            if c_stage == "build":
                exe = os.path.join(workdir, f"sdfg_{bundle.name}")
                with span("c_run.run", mid):
                    text = run_harness(exe)
                with span("interpreter.from_csv", mid):
                    c_trace = Trace.from_csv(text, sil.specs)
                with span("interpreter.compare", mid):
                    ccmp = compare_traces(sil, c_trace, tol=0.0)
    t_end = perf_counter()
    out.verify_s = t_end - t0
    out.compile_s = t_compiled - t0

    # -- everything below is outside the timed chain --------------------
    sum_q = sum(q.values())
    out.counts.update({
        "model_ir.blocks": sum(1 for _ in iter_blocks(m.root)),
        "normalizer.flat_blocks": sum(1 for _ in iter_blocks(n.model.root)),
        "normalizer.rate_transitions": sum(
            1 for _, b, _ in iter_blocks(n.model.root) if b.kind == "RateTransition"),
        "translator.actors": len(g.actors),
        "translator.channels": len(g.channels),
        "sdf_core.sum_q": sum_q,
        "sdf_core.peak_tokens": sum(sched.peaks.values()),
        "interpreter.mil_steps": case.steps,
        "interpreter.sil_firings": sum_q * periods,
        "interpreter.samples_compared": cmp.samples + (ccmp.samples if ccmp else 0),
    })
    if bundle is not None:
        out.counts["c_source_bytes"] = sum(
            len(src.encode()) for rel, src in bundle.files.items()
            if rel.endswith((".c", ".h")))
    if c_stage == "build":
        out.counts["cc.invocations"] = 1
        out.counts["c_binary_bytes"] = os.path.getsize(exe)

    out.problems += schedule_problems(g, q, sched)
    if periods * it_span != end:
        out.problems.append(f"{periods} iterations of {it_span} do not cover "
                            f"{case.steps} base steps exactly")
    if not cmp.ok:
        out.problems.append(f"program comparator: MIL vs SIL {cmp}")
    bad = trace_mismatch(mil.clip(end), sil.clip(end), MIL_SIL_TOL)
    if bad:
        out.problems.append(f"MIL vs SIL: {bad}")
    if c_trace is not None:
        if not ccmp.ok:
            out.problems.append(f"program comparator: SIL vs C {ccmp}")
        bad = trace_mismatch(sil, c_trace, 0.0)
        if bad:
            out.problems.append(f"SIL vs C: {bad}")


def schedule_problems(g, q: dict[str, int], sched) -> list[str]:
    """Balance equations under the aligned vector, and firing counts."""
    probs = []
    for c in g.channels:
        if q[c.src[0]] * c.rate_src != q[c.dst[0]] * c.rate_dst:
            probs.append(f"channel {c.id} breaks its balance equation under q")
    if Counter(sched.firings) != Counter(q):
        probs.append("schedule firing counts differ from the repetition vector")
    return probs


def _same(dtype: str, x, y, rel_tol: float) -> bool:
    if dtype != "f64":
        return type(x) is type(y) and x == y
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if rel_tol == 0.0:
        return struct.pack("<d", x) == struct.pack("<d", y)
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= rel_tol * max(abs(x), abs(y))


def trace_mismatch(ref: Trace, got: Trace, rel_tol: float) -> str | None:
    """First disagreement between two traces, or None.

    f64 samples agree within `rel_tol` relative (with 0, bit for bit);
    int and bool samples must be equal and of the same type."""
    if ref.specs != got.specs:
        return f"signal specs differ: {ref.specs} vs {got.specs}"
    for sig, pts in ref.samples.items():
        other = got.samples[sig]
        if len(pts) != len(other):
            return f"{sig}: {len(pts)} vs {len(other)} samples"
        dtype, width = ref.specs[sig]
        for (ta, va), (tb, vb) in zip(pts, other):
            if ta != tb:
                return f"{sig}: sample times {ta} vs {tb}"
            xs, ys = (va, vb) if width > 1 else ((va,), (vb,))
            if len(xs) != len(ys) or not all(
                    _same(dtype, x, y, rel_tol) for x, y in zip(xs, ys)):
                return f"{sig} at t={ta}: {va!r} vs {vb!r}"
    return None

"""Command line front end for the translation pipeline.

Each subcommand runs the pipeline up to its stage:

    check         requirements report
    translate     normalized model, graph, translation report (plus DOT)
    schedule      repetition vector, static schedule, consistency
    simulate-mil  reference block-diagram run, trace as CSV
    simulate-sil  dataflow schedule run, trace as CSV
    verify        both runs compared sample by sample
    codegen       self-contained C99 bundle
    export-dot    graph structure for graphviz

Exit codes: 0 success/pass, 1 semantic failure (violations, divergence,
inconsistent or deadlocked graphs), 2 usage and input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from fractions import Fraction
from math import ceil

from . import codegen as codegen_mod
from . import normalizer, sdf_core, translator, validator
from .errors import (DeadlockError, InconsistentError, SchemaError, SdflowError,
                     ValidationFailed)
from .mil import run_mil
from .model_ir import BlockModel, load_model_file, save_model
from .sil import run_sil
from .trace import TIME_BOUND, Trace, compare_traces


def _depth_arg(s: str):
    if s == "full":
        return None
    try:
        v = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"depth must be an integer or 'full', got {s!r}")
    if v < 0:
        raise argparse.ArgumentTypeError("depth must be >= 0")
    return v


def _count_arg(s: str) -> int:
    try:
        v = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {s!r}")
    if not 1 <= v < TIME_BOUND:
        raise argparse.ArgumentTypeError(f"must be a positive integer below {TIME_BOUND}, got {v}")
    return v


def _tol_arg(s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {s!r}")
    if not v >= 0:  # NaN compares false
        raise argparse.ArgumentTypeError(f"tolerance must be >= 0, got {s}")
    return v


def _load_stimulus(path: str | None, m: BlockModel) -> Trace | None:
    """Stimulus CSV columns are typed by the model's top-level Inports."""
    if path is None:
        return None
    specs = {b.id: (b.out_ports[0].dtype, b.out_ports[0].width)
             for b in m.root.children if b.kind == "Inport"}
    with open(path, encoding="utf-8-sig") as f:  # drops a byte-order mark editors may add
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise SchemaError(f"{path}: {e}") from None
    return Trace.from_csv(text, specs)


def _translate(m: BlockModel, depth):
    """Gate, normalize and translate, normalizing the flat model the gate built."""
    vios, flat, depth = validator._check(m, depth)
    if vios:
        raise ValidationFailed(vios)
    n = normalizer._lower(flat, depth)
    return n, translator.translate(n)


def _schedule(args, m, g) -> tuple[Fraction, int]:
    """The wall-clock span of --steps base steps, and the iterations of the
    graph's own schedule that cover it (or --periods)."""
    span = Fraction(args.steps) * m.base_step
    if getattr(args, "periods", None) is not None:
        return span, args.periods
    return span, int(ceil(span / sdf_core.sil_span(g)))


def _write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    m = load_model_file(args.model)
    vios = validator.check_requirements(m, depth=args.depth)
    if args.json:
        print(json.dumps({"violations": [v.to_json() for v in vios]}, indent=2))
    elif not vios:
        print("ok: model satisfies the translation requirements")
    else:
        for v in vios:
            print(str(v))
    return 1 if vios else 0


def cmd_translate(args) -> int:
    m = load_model_file(args.model)
    n, (g, rep) = _translate(m, args.depth)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    files = {}
    for key, stem, obj in (
            ("normalized", "normalized", save_model(n.model)),
            ("provenance", "provenance", {"depth": n.depth, "blocks": n.provenance}),
            ("graph", "sdfg", sdf_core.save_sdfg(g)),
            ("report", "report", rep.to_json())):
        files[key] = path = os.path.join(outdir, f"{stem}_{m.name}.json")
        _write_json(obj, path)

    if args.emit_dot:
        path = os.path.join(outdir, f"sdfg_{m.name}.dot")
        with open(path, "w", encoding="utf-8") as f:
            f.write(sdf_core.export_dot(g))
        files["dot"] = path

    if args.json:
        print(json.dumps({"files": files, "report": rep.to_json()}, indent=2))
    else:
        print(rep.summary())
        for path in files.values():
            print(f"wrote {path}")
    return 0


def cmd_schedule(args) -> int:
    m = load_model_file(args.model)
    _, (g, _) = _translate(m, args.depth)
    try:
        sched = sdf_core.build_schedule(g)
    except (InconsistentError, DeadlockError) as e:
        status = "inconsistent" if isinstance(e, InconsistentError) else "deadlocked"
        if args.json:
            print(json.dumps({"status": status, "detail": str(e)}, indent=2))
        else:
            print(f"{status}: {e}")
        return 1
    h = sched.span
    if args.json:
        print(json.dumps({"status": "consistent",
                          "hyperperiod": [h.numerator, h.denominator],
                          "schedule": sched.to_json()}, indent=2))
    else:
        print(f"consistent; hyperperiod {h}")
        for aid in sorted(sched.repetition):
            print(f"  q[{aid}] = {sched.repetition[aid]}")
        print("firings: " + " ".join(sched.firings))
    return 0


def _trace_text(trace: Trace, as_json: bool) -> str:
    if as_json:
        return json.dumps(trace.to_json(), indent=2) + "\n"
    return trace.to_csv()


def cmd_simulate_mil(args) -> int:
    m = load_model_file(args.model)
    trace = run_mil(m, args.steps, stimulus=_load_stimulus(args.stimulus, m))
    _write_or_print(_trace_text(trace, args.json), args.out)
    return 0


def cmd_simulate_sil(args) -> int:
    m = load_model_file(args.model)
    _, (g, _) = _translate(m, args.depth)
    _, periods = _schedule(args, m, g)
    trace = run_sil(g, periods, _load_stimulus(args.stimulus, m))
    _write_or_print(_trace_text(trace, args.json), args.out)
    return 0


def cmd_verify(args) -> int:
    m = load_model_file(args.model)
    stim = _load_stimulus(args.stimulus, m)
    _, (g, _) = _translate(m, args.depth)
    span, periods = _schedule(args, m, g)
    mil = run_mil(m, args.steps, stimulus=stim)
    sil = run_sil(g, periods, stim)
    cmp = compare_traces(mil.clip(span), sil.clip(span), tol=args.tol)
    if args.json:
        print(json.dumps({"pass": cmp.ok, "samples": cmp.samples,
                          "max_rel": cmp.max_rel,
                          "divergence": cmp.divergence}, indent=2))
    elif cmp.ok:
        print(f"PASS: {cmp.samples} samples agree over {args.steps} base steps "
              f"(tol {args.tol:g}, max rel {cmp.max_rel:.3g})")
    else:
        print(f"FAIL: {cmp}")
    return 0 if cmp.ok else 1


def cmd_codegen(args) -> int:
    m = load_model_file(args.model)
    _, (g, _) = _translate(m, args.depth)
    _, periods = _schedule(args, m, g)
    bundle = codegen_mod.emit_bundle(g, periods, _load_stimulus(args.stimulus, m),
                                     asserts=not args.no_asserts)
    outdir = args.out or f"codegen_{m.name}"
    paths = bundle.write(outdir)
    if args.json:
        print(json.dumps({"name": bundle.name, "files": paths}, indent=2))
    else:
        for p in paths:
            print(f"wrote {p}")
    return 0


def cmd_export_dot(args) -> int:
    m = load_model_file(args.model)
    _, (g, _) = _translate(m, args.depth)
    _write_or_print(sdf_core.export_dot(g), args.out)
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sdflow",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, steps=False, periods=False, tol=False,
            stimulus=False, out=False, emit_dot=False, no_asserts=False):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("model", help="model document (JSON)")
        sp.add_argument("--depth", type=_depth_arg, default=None, metavar="N|full",
                        help="flatten depth (default: full)")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        if steps:
            sp.add_argument("--steps", type=_count_arg, default=100, metavar="N",
                            help="base steps to cover (default 100)")
        if periods:
            sp.add_argument("--periods", type=_count_arg, default=None, metavar="N",
                            help="schedule iterations (overrides --steps)")
        if tol:
            sp.add_argument("--tol", type=_tol_arg, default=1e-12, metavar="T",
                            help="relative tolerance for f64 signals (default 1e-12)")
        if stimulus:
            sp.add_argument("--stimulus", metavar="CSV",
                            help="input samples for top-level Inports")
        if out:
            sp.add_argument("--out", metavar="PATH",
                            help="output file or directory")
        if emit_dot:
            sp.add_argument("--emit-dot", action="store_true",
                            help="also write the graph in DOT form")
        if no_asserts:
            sp.add_argument("--no-asserts", action="store_true",
                            help="compile out runtime queue checks")
        sp.set_defaults(func=fn)
        return sp

    add("check", cmd_check, "report translation-requirement violations")
    add("translate", cmd_translate, "normalize and emit the dataflow graph",
        out=True, emit_dot=True)
    add("schedule", cmd_schedule, "repetition vector and static schedule")
    add("simulate-mil", cmd_simulate_mil, "run the block-diagram reference",
        steps=True, stimulus=True, out=True)
    add("simulate-sil", cmd_simulate_sil, "run the dataflow schedule",
        steps=True, periods=True, stimulus=True, out=True)
    add("verify", cmd_verify, "compare both runs sample by sample",
        steps=True, tol=True, stimulus=True)
    add("codegen", cmd_codegen, "emit the C99 bundle",
        steps=True, periods=True, stimulus=True, out=True, no_asserts=True)
    add("export-dot", cmd_export_dot, "write the graph in DOT form", out=True)
    return p


def _show_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    # ids and DOT glyphs need not be ASCII: UTF-8 whatever the locale, and
    # argv bytes that are not UTF-8 go back out as they came
    for stream, errors in ((sys.stdout, "surrogateescape"), (sys.stderr, "backslashreplace")):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8", errors=errors)
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except ValidationFailed as e:
        print(f"error: {e}", file=sys.stderr)
        for v in e.violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, SchemaError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SdflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

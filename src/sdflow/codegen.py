"""C99 emission for a translated dataflow graph.

The bundle is self contained and has two translation units.  The model
unit, sdfg_<name>.c, holds everything specific to the graph: each
channel's buffer and its queue, both initialised statically (the buffer
starts with the channel's delay tokens), the array of queues that
sdfg_check walks, each actor's firing as one case of a dispatch switch
(64 cases to a function, reached by index / 64), the schedule as an
array of actor indices, and the iteration count.  The fixed runtime,
runtime/sdf_runtime.h and runtime/sdf_runtime.c, is byte-identical in
every bundle: the i32 wraparound and division helpers (static inline in
the header), the ring-buffer queue's push and pop, the trace printer and
main(), whose stdout is the same time,signal,value CSV the schedule
interpreter produces.

A firing reads each data channel with one pop of the channel's rate,
which keeps the token kinds.Kind.keep names.  An event token gates the
firing when it is > 0, as kinds.truth decides; event ports are scalar.
An output that a firing may leave unchanged, a gated actor's or an
Inport's without stimulus, is a static holding the kind's initial
outputs (Kind.bind), so a gated firing is one `if (en)` around its
computation and its state update, and an Inport without stimulus does
nothing when it fires but push.

No model id becomes a C identifier: channels are buf_<k> and q_<k> by
position, an actor's static data is declared at the top of its own case,
and ids appear only in string literals and case comments.  The sources
compile without a warning under -Wall -Wextra -pedantic.

Generated arithmetic replays the Python kind implementations operation
for operation, so with contraction disabled (build.sh passes
-ffp-contract=off) double results match the interpreter bit for bit.
build.sh compiles the two units as concurrent jobs, waits for both, and
links only if both succeeded; each object file is left in the bundle,
next to its source.  The cost of compiling the model unit grows with the
number of its functions more than with its size, hence the switch.

Stimulus values and firing timestamps are resolved at emission time and
baked into the sources as literals; the binary takes no inputs.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass
from math import isinf, isnan

from . import kinds
from .errors import UnsupportedKindError
from .sdf_core import FiringPlan, Schedule, Sdfg, firing_plan
from .trace import Trace, time_str

CTYPE = {"f64": "double", "i32": "int32_t", "bool": "unsigned char"}
DTCODE = {"f64": "SDF_F64", "i32": "SDF_I32", "bool": "SDF_BOOL"}


def _c_f64(v) -> str:
    v = float(v)
    if isnan(v):
        return "NAN"
    if isinf(v):
        return "INFINITY" if v > 0 else "-INFINITY"
    # repr is the shortest round-tripping form; strtod gives it back exactly.
    return repr(v)


def _c_i32(v) -> str:
    n = int(v)
    # -2147483648 would parse as unary minus on an out-of-range constant.
    return "(-2147483647 - 1)" if n == -2147483648 else str(n)


def _c_scalar(dtype: str, v) -> str:
    if dtype == "f64":
        return _c_f64(v)
    if dtype == "i32":
        return _c_i32(v)
    return "1" if v else "0"


def _c_token(dtype: str, width: int, tok) -> str:
    elems = kinds.token_elems(tok, width)
    return "{ " + ", ".join(_c_scalar(dtype, e) for e in elems) + " }"


def _c_str(s: str) -> str:
    # '?' is escaped so that no "??x" trigraph survives under -std=c99
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("?", "\\?") + '"'


def _sanitize(s: str) -> str:
    out = "".join(ch if (ch.isascii() and ch.isalnum()) else "_" for ch in s)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


_RUNTIME_H = """\
/* The fixed runtime of every bundle: the i32 arithmetic, a FIFO of
 * fixed-size tokens over caller storage, the trace printer and main().
 * The model unit defines the sdfg_ names declared at the end. */
#ifndef SDF_RUNTIME_H
#define SDF_RUNTIME_H

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#ifndef SDF_NO_ASSERT
#include <assert.h>
#define SDF_ASSERT(x) assert(x)
#else
#define SDF_ASSERT(x) ((void)0)
#endif

/* Two's-complement wraparound, the reference arithmetic for i32. */
static inline int32_t sdf_wrap32(int64_t v) {
    uint32_t u = (uint32_t)v;
    int32_t r;
    memcpy(&r, &u, sizeof r);
    return r;
}

static inline int32_t sdf_div32(int32_t a, int32_t b) {
    SDF_ASSERT(b != 0);
    return sdf_wrap32((int64_t)a / (int64_t)b);
}

#define SDF_F64 0
#define SDF_I32 1
#define SDF_BOOL 2

/* A channel's FIFO over its storage, whose first `delay` tokens are the
 * channel's initial values; `len` is back at `delay` after an iteration. */
typedef struct {
    unsigned char *buf;
    size_t elem;
    size_t cap;
    size_t head;
    size_t len;
    size_t delay;
} sdf_queue;

/* A static initialiser: the queue over storage b, which holds cap tokens. */
#define SDF_QUEUE(b, cap, delay) { (unsigned char *)(b), sizeof (b)[0], (cap), 0, (delay), (delay) }

/* Appends n copies of token. */
void sdf_queue_push_n(sdf_queue *q, const void *token, size_t n);
/* Removes n tokens and copies the one at index keep to token_out. */
void sdf_queue_pop(sdf_queue *q, void *token_out, size_t n, size_t keep);

/* One CSV row per traced token. */
void sdf_record(const char *t, const char *signal, int dtype,
                int width, const void *token);

extern const long sdfg_iterations;
void sdfg_step(void);
/* Every queue must be back at its delay once an iteration ends. */
void sdfg_check(void);

#endif /* SDF_RUNTIME_H */
"""

_RUNTIME_C = """\
#include "sdf_runtime.h"

#include <stdio.h>
#include <string.h>

void sdf_queue_push_n(sdf_queue *q, const void *token, size_t n) {
    size_t i;
    SDF_ASSERT(q->len + n <= q->cap);
    for (i = 0; i < n; ++i) {
        memcpy(q->buf + (q->head + q->len) % q->cap * q->elem, token, q->elem);
        q->len += 1;
    }
}

void sdf_queue_pop(sdf_queue *q, void *token_out, size_t n, size_t keep) {
    SDF_ASSERT(keep < n && q->len >= n);
    memcpy(token_out, q->buf + (q->head + keep) % q->cap * q->elem, q->elem);
    q->head = (q->head + n) % q->cap;
    q->len -= n;
}

void sdf_record(const char *t, const char *signal, int dtype,
                int width, const void *token) {
    printf("%s,%s,", t, signal);
    for (int i = 0; i < width; ++i) {
        if (i) {
            putchar(';');
        }
        if (dtype == SDF_F64) {
            printf("%.17g", ((const double *)token)[i]);
        } else if (dtype == SDF_I32) {
            printf("%ld", (long)((const int32_t *)token)[i]);
        } else {
            putchar(((const unsigned char *)token)[i] ? '1' : '0');
        }
    }
    putchar('\\n');
}

int main(void) {
    long it;
    printf("time,signal,value\\n");
    for (it = 0; it < sdfg_iterations; ++it) {
        sdfg_step();
        sdfg_check();
    }
    return 0;
}
"""

# Actors per dispatch function: one switch over every actor grows
# super-linearly in compile time, many tiny functions cost ~3 ms each.
_CHUNK = 64


@dataclass
class SourceBundle:
    """Generated sources keyed by path relative to the bundle root."""

    name: str
    files: dict[str, str]

    def write(self, outdir: str) -> list[str]:
        paths = []
        for rel, text in self.files.items():
            path = os.path.join(outdir, rel)
            d = os.path.dirname(path)
            if d:
                os.makedirs(d, exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            if rel.endswith(".sh"):
                mode = os.stat(path).st_mode
                os.chmod(path, mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
            paths.append(path)
        return paths


def emit_bundle(g: Sdfg, periods: int = 1, stimulus: Trace | None = None,
                asserts: bool = True, *, schedule: Schedule | None = None) -> SourceBundle:
    """Emit C sources replaying `periods` iterations of `schedule`: the
    graph's own schedule when None, else one `check_schedule` accepts."""
    plan = firing_plan(g, periods, stimulus, schedule)
    for a in g.actors:
        if a.kind == "Subsystem":
            raise UnsupportedKindError(
                f"actor {a.id}: subsystem actors have no C form; "
                "translate the model fully flattened instead")
    name = _sanitize(g.name)
    return SourceBundle(name, {
        "runtime/sdf_runtime.h": _RUNTIME_H,
        "runtime/sdf_runtime.c": _RUNTIME_C,
        f"sdfg_{name}.c": _model_source(g, plan, periods),
        "build.sh": _build_script(name, asserts),
    })


def _model_source(g: Sdfg, plan: FiringPlan, periods: int) -> str:
    tables, tm = _time_tables(g, plan)
    cases = []
    for k, a in enumerate(g.actors):
        # an id reaches C only here and in string literals, and a
        # comment may hold neither "*/" nor "/*"
        note = a.id.replace("*/", "* /").replace("/*", "/ *")
        cases.append("\n".join([f"    case {k}: {{ /* {a.kind} {note} */",
                                *_case(g, plan, k, a, tm), "        break;", "    }"]))
    return "\n".join(["#include <math.h>", "", '#include "sdf_runtime.h"', "",
                      f"const long sdfg_iterations = {periods}L;", "",
                      *_channels(g, plan.schedule), *tables, "", *_dispatch(plan, cases)])


def _channels(g: Sdfg, sched: Schedule) -> list[str]:
    """Each channel's storage, holding its initial tokens, and its queue,
    both initialised statically; sdfg_check walks the queues."""
    lines = []
    for k, c in enumerate(g.channels):
        cap = max(sched.peaks[c.id], 1)
        init = ""
        if c.initial_values:
            init = " = { " + ", ".join(_c_token(c.dtype, c.width, tok)
                                       for tok in c.initial_values) + " }"
        lines.append(f"static {CTYPE[c.dtype]} buf_{k}[{cap}][{c.width}]{init};")
        lines.append(f"static sdf_queue q_{k} = SDF_QUEUE(buf_{k}, {cap}, {c.delay});")
    if not lines:
        return ["void sdfg_check(void) {", "}", ""]
    refs = [f"&q_{k}," for k in range(len(g.channels))]
    return lines + [
        "", "static sdf_queue *const queues[] = {",
        *("    " + " ".join(refs[i:i + 16]) for i in range(0, len(refs), 16)), "};", "",
        "void sdfg_check(void) {",
        "    size_t i;",
        "    for (i = 0; i < sizeof queues / sizeof queues[0]; ++i) {",
        "        SDF_ASSERT(queues[i]->len == queues[i]->delay);",
        "    }",
        "}",
        ""]


def _time_tables(g: Sdfg, plan: FiringPlan) -> tuple[list[str], dict]:
    """One table of firing times per Outport period, which every Outport
    of that period indexes by its own firing count, and the table's name
    by period."""
    lines, tm = [], {}
    for k, a in enumerate(g.actors):
        if a.kind == "Outport" and a.period not in tm:
            tm[a.period] = name = f"tm_{len(tm)}"
            lines.append(f"static const char *const {name}[{len(plan.times[k])}] = "
                         "{ " + ", ".join(_c_str(time_str(t)) for t in plan.times[k]) + " };")
    return lines, tm


def _dispatch(plan: FiringPlan, cases: list[str]) -> list[str]:
    """The cases, _CHUNK to a function switching on the actor's index, and
    sdfg_step walking the schedule."""
    lines: list[str] = []
    for lo in range(0, len(cases), _CHUNK):
        lines += [f"static void fire_{lo // _CHUNK}(int actor) {{", "    switch (actor) {",
                  *cases[lo:lo + _CHUNK], "    }", "}", ""]
    if not plan.steps:
        return lines + ["void sdfg_step(void) {", "}", ""]
    order = [str(k) for k in plan.steps]
    n_fire = -(-len(cases) // _CHUNK)
    lines += [f"static void (*const fire[{n_fire}])(int) = {{ "
              + ", ".join(f"fire_{i}" for i in range(n_fire)) + " };", "",
              f"static const int schedule[{len(order)}] = {{",
              *("    " + ", ".join(order[i:i + 16]) + "," for i in range(0, len(order), 16)),
              "};", "",
              "void sdfg_step(void) {",
              "    size_t i;",
              "    for (i = 0; i < sizeof schedule / sizeof schedule[0]; ++i) {",
              f"        fire[schedule[i] / {_CHUNK}](schedule[i]);",
              "    }",
              "}",
              ""]
    return lines


def _build_script(name: str, asserts: bool) -> str:
    flags = "-std=c99 -O2 -ffp-contract=off -Iruntime" + ("" if asserts else " -DSDF_NO_ASSERT")
    # the model unit first: it is the larger
    units = [f"sdfg_{name}", "runtime/sdf_runtime"]
    return "\n".join([
        "#!/bin/sh",
        "# Compiles the model unit and the fixed runtime concurrently, then",
        "# links them. -ffp-contract=off keeps double arithmetic identical",
        "# to the reference interpreter (no fused multiply-add).",
        "# No set -e: every started compiler is waited for before exit.",
        'cd "$(dirname "$0")" || exit 1',
        ': "${CC:=cc}"',
        "pids=",
        *(f'$CC {flags} -c {u}.c -o {u}.o & pids="$pids $!"' for u in units),
        "status=0",
        'for p in $pids; do wait "$p" || status=1; done',
        '[ "$status" = 0 ] || exit 1',
        f"exec $CC {' '.join(u + '.o' for u in units)} -lm -o sdfg_{name}",
        "",
    ])


# ---------------------------------------------------------------------------
# per-actor emission: every line at its final indent


def _case(g: Sdfg, plan: FiringPlan, k: int, a, tm: dict) -> list[str]:
    """The body of the case of actor `a`, at position `k`: its static data,
    its reads, its firing and its writes.

    Only outputs some channel reads are computed: an actor with no
    out-channel only pops.  An output a firing may leave unchanged, a
    gated actor's or an Inport's without stimulus, is a static holding the
    kind's initial outputs until a firing computes it."""
    ind = " " * 8  # a case body's
    data_specs, out_specs = plan.data_specs[k], plan.out_specs[k]
    live = sorted({g.channels[j].src[1] for j in plan.ch_out[k]})
    stim = plan.stim[k]  # an Inport's signal: one token per firing of the run
    computes = bool(live) and (a.kind != "Inport" or stim is not None)
    gated = computes and any(p.event for p in a.in_ports)
    lines = []
    if live:
        if a.kind == "Chart":
            idx = a.params["states"].index(a.params["initial"])
            lines.append(f"{ind}static int st = {idx};")
        if a.kind in ("UnitDelay", "DataStoreMemory"):
            d, w = out_specs[0]
            lines.append(f"{ind}static {CTYPE[d]} st[{w}] = "
                         f"{_c_token(d, w, a.params['initial'])};")
        if a.kind == "Lookup1D":
            for v, xs in (("bp", a.params["breakpoints"]), ("tab", a.params["table"])):
                lines.append(f"{ind}static const double {v}[{len(xs)}] = "
                             "{ " + ", ".join(_c_f64(x) for x in xs) + " };")
        persist = gated or not computes
        init = kinds.KINDS[a.kind].bind(a.params, data_specs, out_specs)[1] if persist else ()
        for j in live:
            d, w = out_specs[j]
            lines.append(f"{ind}static {CTYPE[d]} o{j}[{w}] = {_c_token(d, w, init[j])};"
                         if persist else f"{ind}{CTYPE[d]} o{j}[{w}];")
    if stim is not None:
        d, w = out_specs[0]
        rows = ", ".join(_c_token(d, w, tok) for tok in stim)
        lines.append(f"{ind}static const {CTYPE[d]} stim[{len(stim)}][{w}] = {{ {rows} }};")
    counted = a.kind == "Outport" or stim is not None
    if counted:
        lines.append(f"{ind}static long n;")
    if gated:
        lines.append(f"{ind}int en = 1;")

    keep = kinds.KINDS[a.kind].keep  # the token a multi-token read keeps
    n_ev = 0
    for slot, p in enumerate(a.in_ports):
        j = plan.ch_in[k][slot]
        r = g.channels[j].rate_dst
        if not p.event:
            u = f"u{slot - n_ev}"
            lines.append(f"{ind}{CTYPE[p.dtype]} {u}[{p.width}];")
            lines.append(f"{ind}sdf_queue_pop(&q_{j}, {u}, {r}, {keep % r});")
            continue
        ev = f"e{n_ev}"
        n_ev += 1
        lines.append(f"{ind}{CTYPE[p.dtype]} {ev}[{p.width}];")
        if not gated:  # nothing to gate: the tokens are only consumed
            lines.append(f"{ind}sdf_queue_pop(&q_{j}, {ev}, {r}, 0);")
        elif r == 1:
            lines.append(f"{ind}sdf_queue_pop(&q_{j}, {ev}, 1, 0);")
            lines.append(f"{ind}en = en && ({ev}[0] > 0);")
        else:
            lines += [f"{ind}for (int k = 0; k < {r}; ++k) {{",
                      f"{ind}    sdf_queue_pop(&q_{j}, {ev}, 1, 0);",
                      f"{ind}    en = en && ({ev}[0] > 0);",
                      f"{ind}}}"]

    if a.kind == "Outport":
        d, w = data_specs[0]
        lines.append(f"{ind}sdf_record({tm[a.period]}[n], {_c_str(a.id)}, {DTCODE[d]}, {w}, u0);")
    elif computes:
        at = ind + "    " if gated else ind
        fire = _fire_lines(a, data_specs, out_specs, live, at)
        lines += [f"{ind}if (en) {{", *fire, f"{ind}}}"] if gated else fire
    for j in plan.ch_out[k]:
        c = g.channels[j]
        lines.append(f"{ind}sdf_queue_push_n(&q_{j}, o{c.src[1]}, {c.rate_src});")
    if counted:
        lines.append(f"{ind}n += 1;")
    return lines


def _fire_lines(a, data_specs, out_specs, live, ind: str) -> list[str]:
    """A firing's computation of its live outputs, then its state update."""
    p = a.params
    kind = a.kind
    d, w = out_specs[live[0]]

    if kind == "Constant":
        elems = kinds.token_elems(p["value"], w)
        return [f"{ind}o0[{i}] = {_c_scalar(d, e)};" for i, e in enumerate(elems)]

    if kind == "Inport":  # one with stimulus
        return [f"{ind}memcpy(o0, stim[n], sizeof o0);"]

    if kind == "Gain":
        gd = "i32" if d == "i32" else "f64"
        g = _c_scalar(gd, p["gain"])
        if d == "i32":
            return [f"{ind}for (int i = 0; i < {w}; ++i) "
                    f"o0[i] = sdf_wrap32((int64_t){g} * (int64_t)u0[i]);"]
        return [f"{ind}for (int i = 0; i < {w}; ++i) o0[i] = {g} * u0[i];"]

    if kind in ("Sum", "Product"):
        # one fold whose symbols are the C operators
        syms, unit = (p["signs"], 0) if kind == "Sum" else (p["ops"], 1)
        lines = [f"{ind}for (int i = 0; i < {w}; ++i) {{"]
        if d == "i32":
            lines.append(f"{ind}    int32_t acc = {unit};")
            lines += [f"{ind}    acc = sdf_div32(acc, u{n}[i]);" if s == "/" else
                      f"{ind}    acc = sdf_wrap32((int64_t)acc {s} (int64_t)u{n}[i]);"
                      for n, s in enumerate(syms)]
        else:
            lines.append(f"{ind}    double acc = {unit}.0;")
            lines += [f"{ind}    acc = acc {s} u{n}[i];" for n, s in enumerate(syms)]
        lines += [f"{ind}    o0[i] = acc;", f"{ind}}}"]
        return lines

    if kind in ("UnitDelay", "DataStoreMemory"):
        # a store nothing writes keeps its initial
        return [f"{ind}memcpy(o0, st, sizeof o0);",
                *([f"{ind}memcpy(st, u0, sizeof st);"] if data_specs else [])]

    if kind == "Saturation":
        sd = "i32" if d == "i32" else "f64"
        lo, hi = _c_scalar(sd, p["lower"]), _c_scalar(sd, p["upper"])
        return [f"{ind}for (int i = 0; i < {w}; ++i) {{",
                f"{ind}    {CTYPE[d]} v = u0[i];",
                f"{ind}    o0[i] = (v < {lo}) ? {lo} : ((v > {hi}) ? {hi} : v);",
                f"{ind}}}"]

    if kind == "Switch":
        th = _c_f64(p["threshold"])
        return [f"{ind}memcpy(o0, ((double)u1[0] >= {th}) ? u0 : u2, sizeof o0);"]

    if kind == "RelationalOp":
        return [f"{ind}for (int i = 0; i < {w}; ++i) "
                f"o0[i] = (u0[i] {p['op']} u1[i]) ? 1 : 0;"]

    if kind == "LogicalOp":
        op = p["op"]
        if op == "NOT":
            return [f"{ind}for (int i = 0; i < {w}; ++i) o0[i] = !u0[i];"]
        lines = [f"{ind}for (int i = 0; i < {w}; ++i) {{"]
        if op in ("AND", "NAND"):
            lines.append(f"{ind}    int acc = 1;")
            fold = "acc = acc && (u{n}[i] != 0);"
        elif op in ("OR", "NOR"):
            lines.append(f"{ind}    int acc = 0;")
            fold = "acc = acc || (u{n}[i] != 0);"
        else:  # XOR
            lines.append(f"{ind}    int acc = 0;")
            fold = "acc = (acc != (u{n}[i] != 0)) ? 1 : 0;"
        for n in range(len(data_specs)):
            lines.append(f"{ind}    " + fold.format(n=n))
        if op in ("NAND", "NOR"):
            lines.append(f"{ind}    acc = !acc;")
        lines += [f"{ind}    o0[i] = (unsigned char)acc;", f"{ind}}}"]
        return lines

    if kind == "Lookup1D":
        n = len(p["breakpoints"])
        return [f"{ind}for (int i = 0; i < {w}; ++i) {{",
                f"{ind}    double u = u0[i];",
                f"{ind}    double y;",
                f"{ind}    if (u <= bp[0]) {{",
                f"{ind}        y = tab[0];",
                f"{ind}    }} else if (u >= bp[{n - 1}]) {{",
                f"{ind}        y = tab[{n - 1}];",
                f"{ind}    }} else {{",
                f"{ind}        int j = 0;",
                f"{ind}        while (u >= bp[j + 1]) {{",
                f"{ind}            j++;",
                f"{ind}        }}",
                f"{ind}        {{ double t = (u - bp[j]) / (bp[j + 1] - bp[j]);",
                f"{ind}          y = tab[j] + t * (tab[j + 1] - tab[j]); }}",
                f"{ind}    }}",
                f"{ind}    o0[i] = y;",
                f"{ind}}}"]

    if kind == "Chart":
        lines = [f"{ind}switch (st) {{"]
        for si, sname in enumerate(p["states"]):
            lines.append(f"{ind}case {si}:")
            row = p["outputs"][sname]
            for j in live:
                dj, wj = out_specs[j]
                for i, e in enumerate(kinds.token_elems(row[j], wj)):
                    lines.append(f"{ind}    o{j}[{i}] = {_c_scalar(dj, e)};")
            lines.append(f"{ind}    break;")
        lines += [f"{ind}default:", f"{ind}    break;", f"{ind}}}", f"{ind}do {{"]
        for tr in p["transitions"]:
            f, t = p["states"].index(tr["from"]), p["states"].index(tr["to"])
            lit = _c_scalar("f64" if data_specs[tr["input"]][0] == "f64" else "i32", tr["value"])
            lines.append(f"{ind}    if (st == {f} && "
                         f"(u{tr['input']}[{tr['element']}] {tr['op']} {lit})) "
                         f"{{ st = {t}; break; }}")
        lines.append(f"{ind}}} while (0);")
        return lines

    if kind == "RateTransition":
        return [f"{ind}memcpy(o0, u0, sizeof o0);"]

    raise UnsupportedKindError(f"actor {a.id}: no C form for kind {kind!r}")

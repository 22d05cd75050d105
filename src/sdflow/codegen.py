"""C99 emission for a translated dataflow graph.

The bundle is self contained: a generic ring-buffer queue runtime, the
per-actor step functions, the static schedule, and a harness whose stdout
is the same time,signal,value CSV the schedule interpreter produces.
Generated arithmetic replays the Python kind implementations operation
for operation, so with contraction disabled (build.sh passes
-ffp-contract=off) double results match the interpreter bit for bit.

Stimulus values and firing timestamps are resolved at emission time and
baked into the sources as literals; the binary takes no inputs.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass
from math import isinf, isnan

from . import kinds
from .errors import SdflowError, UnsupportedKindError
from .interpreter import Trace, _firing_plan, time_str
from .sdf_core import Schedule, Sdfg, build_schedule

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
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _sanitize(s: str) -> str:
    out = "".join(ch if (ch.isascii() and ch.isalnum()) else "_" for ch in s)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def _ident_table(names) -> dict[str, str]:
    used: set[str] = set()
    table = {}
    for n in names:
        base = _sanitize(n)
        cand, k = base, 1
        while cand in used:
            k += 1
            cand = f"{base}_{k}"
        used.add(cand)
        table[n] = cand
    return table


_QUEUE_H = """\
/* Fixed-capacity FIFO of fixed-size tokens, backed by caller storage. */
#ifndef SDF_QUEUE_H
#define SDF_QUEUE_H

#include <stddef.h>

#ifndef SDF_NO_ASSERT
#include <assert.h>
#define SDF_ASSERT(x) assert(x)
#else
#define SDF_ASSERT(x) ((void)0)
#endif

typedef struct {
    unsigned char *buf;
    size_t elem;
    size_t cap;
    size_t head;
    size_t len;
} sdf_queue;

void sdf_queue_init(sdf_queue *q, void *storage, size_t elem_size, size_t capacity);
void sdf_queue_push(sdf_queue *q, const void *token);
void sdf_queue_pop(sdf_queue *q, void *token_out);
size_t sdf_queue_len(const sdf_queue *q);

#endif /* SDF_QUEUE_H */
"""

_QUEUE_C = """\
#include "sdf_queue.h"

#include <string.h>

void sdf_queue_init(sdf_queue *q, void *storage, size_t elem_size, size_t capacity) {
    q->buf = (unsigned char *)storage;
    q->elem = elem_size;
    q->cap = capacity;
    q->head = 0;
    q->len = 0;
}

void sdf_queue_push(sdf_queue *q, const void *token) {
    size_t tail;
    SDF_ASSERT(q->len < q->cap);
    tail = (q->head + q->len) % q->cap;
    memcpy(q->buf + tail * q->elem, token, q->elem);
    q->len += 1;
}

void sdf_queue_pop(sdf_queue *q, void *token_out) {
    SDF_ASSERT(q->len > 0);
    memcpy(token_out, q->buf + q->head * q->elem, q->elem);
    q->head = (q->head + 1) % q->cap;
    q->len -= 1;
}

size_t sdf_queue_len(const sdf_queue *q) {
    return q->len;
}
"""


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
            with open(path, "w") as f:
                f.write(text)
            if rel.endswith(".sh"):
                mode = os.stat(path).st_mode
                os.chmod(path, mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
            paths.append(path)
        return paths


def emit_bundle(g: Sdfg, periods: int = 1, stimulus: Trace | None = None,
                asserts: bool = True) -> SourceBundle:
    """Emit C sources replaying `periods` schedule iterations."""
    g.check_wellformed()
    if periods < 1:
        raise SdflowError("periods must be at least 1")
    return _emit(g, build_schedule(g), periods, stimulus, asserts)


def _emit(g: Sdfg, sched: Schedule, periods: int, stimulus: Trace | None,
          asserts: bool) -> SourceBundle:
    """emit_bundle for a graph already scheduled as `sched`."""
    for a in g.actors:
        if a.kind == "Subsystem":
            raise UnsupportedKindError(
                f"actor {a.id}: subsystem actors have no C form; "
                "translate the model fully flattened instead")
    em = _Emitter(g, sched, _firing_plan(g, sched, periods, stimulus), periods, asserts)
    return SourceBundle(em.name, em.files())


class _Emitter:
    def __init__(self, g, sched, plan, periods, asserts):
        self.g = g
        self.sched = sched
        self.plan = plan
        self.periods = periods
        self.asserts = asserts
        self.name = _sanitize(g.name)
        self.aident = _ident_table([a.id for a in g.actors])
        self.cident = _ident_table([c.id for c in g.channels])

    def _total(self, a) -> int:
        return self.sched.repetition[a.id] * self.periods

    # ------------------------------------------------------------------
    # bundle assembly

    def files(self) -> dict[str, str]:
        n = self.name
        return {
            "runtime/sdf_queue.h": _QUEUE_H,
            "runtime/sdf_queue.c": _QUEUE_C,
            f"sdfg_{n}.h": self._graph_header(),
            f"sdfg_{n}.c": self._graph_source(),
            f"actors_{n}.h": self._actors_header(),
            f"actors_{n}.c": self._actors_source(),
            f"harness_{n}.c": self._harness_source(),
            "build.sh": self._build_script(),
        }

    def _graph_header(self) -> str:
        guard = f"SDFG_{self.name.upper()}_H"
        lines = [f"#ifndef {guard}", f"#define {guard}", "",
                 '#include "sdf_queue.h"', ""]
        for c in self.g.channels:
            lines.append(f"extern sdf_queue q_{self.cident[c.id]};")
        lines += ["", "void sdfg_init(void);",
                  "void sdfg_step(void);",
                  "void sdfg_check(void);", "",
                  f"#endif /* {guard} */", ""]
        return "\n".join(lines)

    def _graph_source(self) -> str:
        n = self.name
        lines = [f'#include "sdfg_{n}.h"', f'#include "actors_{n}.h"', ""]
        for c in self.g.channels:
            ci = self.cident[c.id]
            cap = max(self.sched.peaks[c.id], 1)
            lines.append(f"static {CTYPE[c.dtype]} buf_{ci}[{cap}][{c.width}];")
            lines.append(f"sdf_queue q_{ci};")
        lines.append("")
        lines.append("void sdfg_init(void) {")
        for c in self.g.channels:
            ci = self.cident[c.id]
            cap = max(self.sched.peaks[c.id], 1)
            lines.append(f"    sdf_queue_init(&q_{ci}, buf_{ci}, "
                         f"sizeof buf_{ci}[0], {cap});")
            for tok in c.initial_values:
                lit = _c_token(c.dtype, c.width, tok)
                lines.append(f"    sdf_queue_push(&q_{ci}, "
                             f"(const {CTYPE[c.dtype]}[{c.width}]){lit});")
        lines.append("}")
        lines.append("")
        if self.sched.firings:
            lines.append(f"static void (*const schedule[{len(self.sched.firings)}])(void) = {{")
            for aid in self.sched.firings:
                lines.append(f"    fire_{self.aident[aid]},")
            lines.append("};")
            lines.append("")
            lines.append("void sdfg_step(void) {")
            lines.append("    size_t i;")
            lines.append("    for (i = 0; i < sizeof schedule / sizeof schedule[0]; ++i) {")
            lines.append("        schedule[i]();")
            lines.append("    }")
            lines.append("}")
        else:
            lines.append("void sdfg_step(void) {")
            lines.append("}")
        lines.append("")
        lines.append("/* Every queue must be back at its delay once an iteration ends. */")
        lines.append("void sdfg_check(void) {")
        for c in self.g.channels:
            lines.append(f"    SDF_ASSERT(sdf_queue_len(&q_{self.cident[c.id]}) == {c.delay});")
        lines.append("}")
        lines.append("")
        return "\n".join(lines)

    def _actors_header(self) -> str:
        guard = f"ACTORS_{self.name.upper()}_H"
        lines = [f"#ifndef {guard}", f"#define {guard}", "",
                 "#include <stdint.h>", "",
                 "#define SDF_F64 0", "#define SDF_I32 1", "#define SDF_BOOL 2", "",
                 "/* Implemented by the harness: one CSV row per traced token. */",
                 "void sdf_record(const char *t, const char *signal, int dtype,",
                 "                int width, const void *token);", ""]
        for a in self.g.actors:
            lines.append(f"void fire_{self.aident[a.id]}(void);")
        lines += ["", f"#endif /* {guard} */", ""]
        return "\n".join(lines)

    def _actors_source(self) -> str:
        n = self.name
        lines = ["#include <math.h>", "#include <string.h>", "",
                 '#include "sdf_queue.h"', f'#include "sdfg_{n}.h"',
                 f'#include "actors_{n}.h"', "",
                 "/* Two's-complement wraparound, the reference arithmetic for i32. */",
                 "static int32_t sdf_wrap32(int64_t v) {",
                 "    uint32_t u = (uint32_t)v;",
                 "    int32_t r;",
                 "    memcpy(&r, &u, sizeof r);",
                 "    return r;",
                 "}",
                 "",
                 "static int32_t sdf_div32(int32_t a, int32_t b) {",
                 "    SDF_ASSERT(b != 0);",
                 "    return sdf_wrap32((int64_t)a / (int64_t)b);",
                 "}",
                 ""]
        for a in self.g.actors:
            lines += self._actor_section(a)
        return "\n".join(lines)

    def _harness_source(self) -> str:
        n = self.name
        return "\n".join([
            "#include <stdio.h>",
            "#include <stdint.h>",
            "",
            f'#include "sdfg_{n}.h"',
            f'#include "actors_{n}.h"',
            "",
            f"#define SDF_ITERATIONS {self.periods}L",
            "",
            "void sdf_record(const char *t, const char *signal, int dtype,",
            "                int width, const void *token) {",
            '    printf("%s,%s,", t, signal);',
            "    for (int i = 0; i < width; ++i) {",
            "        if (i) {",
            "            putchar(';');",
            "        }",
            "        if (dtype == SDF_F64) {",
            '            printf("%.17g", ((const double *)token)[i]);',
            "        } else if (dtype == SDF_I32) {",
            '            printf("%ld", (long)((const int32_t *)token)[i]);',
            "        } else {",
            "            putchar(((const unsigned char *)token)[i] ? '1' : '0');",
            "        }",
            "    }",
            "    putchar('\\n');",
            "}",
            "",
            "int main(void) {",
            "    long it;",
            "    sdfg_init();",
            '    printf("time,signal,value\\n");',
            "    for (it = 0; it < SDF_ITERATIONS; ++it) {",
            "        sdfg_step();",
            "        sdfg_check();",
            "    }",
            "    return 0;",
            "}",
            "",
        ])

    def _build_script(self) -> str:
        n = self.name
        defines = "" if self.asserts else " -DSDF_NO_ASSERT"
        return "\n".join([
            "#!/bin/sh",
            "# -ffp-contract=off keeps double arithmetic identical to the",
            "# reference interpreter (no fused multiply-add).",
            "set -e",
            'cd "$(dirname "$0")"',
            ': "${CC:=cc}"',
            f"exec $CC -std=c99 -O2 -ffp-contract=off -I. -Iruntime{defines} \\",
            f"    runtime/sdf_queue.c sdfg_{n}.c actors_{n}.c harness_{n}.c \\",
            f"    -lm -o sdfg_{n}",
            "",
        ])

    # ------------------------------------------------------------------
    # per-actor emission

    def _actor_section(self, a) -> list[str]:
        k = kinds.KINDS[a.kind]
        ai = self.aident[a.id]
        data_specs = self.plan.data_specs[a.id]
        out_full = self.plan.out_specs[a.id]
        live = sorted({p.origin for p in a.out_ports})
        has_events = any(p.event for p in a.in_ports)

        decls: list[str] = [f"/* ---- {a.kind} {a.id} ---- */"]
        if a.kind == "Chart":
            idx = a.params["states"].index(a.params["initial"])
            decls.append(f"static int st_{ai} = {idx};")
        if a.kind in ("UnitDelay", "DataStoreMemory") and a.out_ports:
            d, w = out_full[0]
            init = _c_token(d, w, a.params["initial"])
            decls.append(f"static {CTYPE[d]} st_{ai}[{w}] = {init};")
        if a.kind == "Lookup1D":
            bp, tab = a.params["breakpoints"], a.params["table"]
            decls.append(f"static const double bp_{ai}[{len(bp)}] = "
                         "{ " + ", ".join(_c_f64(x) for x in bp) + " };")
            decls.append(f"static const double tab_{ai}[{len(tab)}] = "
                         "{ " + ", ".join(_c_f64(x) for x in tab) + " };")
        if has_events and live:
            init_out = k.initial_output(a.params, data_specs, out_full)
            for j in live:
                d, w = out_full[j]
                lit = _c_token(d, w, init_out[j])
                decls.append(f"static {CTYPE[d]} held_{ai}_{j}[{w}] = {lit};")
        if a.kind == "Inport" and a.id in self.plan.stim:
            d, w = out_full[0]
            rows = ",\n    ".join(_c_token(d, w, tok) for tok in self.plan.stim[a.id])
            decls.append(f"static const {CTYPE[d]} stim_{ai}[{self._total(a)}][{w}] = {{\n"
                         f"    {rows}\n}};")
        if a.kind == "Outport":
            times = ", ".join(_c_str(time_str(n * a.period))
                              for n in range(self._total(a)))
            decls.append(f"static const char *const tm_{ai}[{self._total(a)}] = "
                         "{ " + times + " };")
        if a.kind == "Outport" or (a.kind == "Inport" and a.id in self.plan.stim):
            decls.append(f"static long n_{ai};")

        body = self._fire_body(a, k, ai, data_specs, out_full, live, has_events)
        return decls + ["", f"void fire_{ai}(void) {{"] + body + ["}", ""]

    def _fire_body(self, a, k, ai, data_specs, out_full, live, has_events):
        body: list[str] = []
        if has_events:
            body.append("    int en = 1;")
        data_names: list[str] = []
        n_ev = 0
        for slot, p in enumerate(a.in_ports):
            c = self.plan.ch_in[(a.id, slot)]
            qn = f"q_{self.cident[c.id]}"
            ct = CTYPE[p.dtype]
            if p.event:
                ev = f"e{n_ev}"
                n_ev += 1
                body.append(f"    {ct} {ev}[{p.width}];")
                if c.rate_dst == 1:
                    body.append(f"    sdf_queue_pop(&{qn}, {ev});")
                    body.append(f"    en = en && ({ev}[0] != 0);")
                else:
                    body.append(f"    for (int k = 0; k < {c.rate_dst}; ++k) {{")
                    body.append(f"        sdf_queue_pop(&{qn}, {ev});")
                    body.append(f"        en = en && ({ev}[0] != 0);")
                    body.append("    }")
                continue
            u = f"u{len(data_names)}"
            data_names.append(u)
            body.append(f"    {ct} {u}[{p.width}];")
            if c.rate_dst == 1:
                body.append(f"    sdf_queue_pop(&{qn}, {u});")
            elif a.kind == "RateTransition":
                # keep the freshest of the consumed tokens
                body.append(f"    for (int k = 0; k < {c.rate_dst}; ++k) "
                            f"sdf_queue_pop(&{qn}, {u});")
            else:
                body.append(f"    sdf_queue_pop(&{qn}, {u});")
                body.append(f"    {{ {ct} skip[{p.width}]; "
                            f"for (int k = 1; k < {c.rate_dst}; ++k) "
                            f"sdf_queue_pop(&{qn}, skip); }}")

        if a.kind == "Outport":
            d, w = data_specs[0]
            body.append(f"    sdf_record(tm_{ai}[n_{ai}], {_c_str(a.id)}, "
                        f"{DTCODE[d]}, {w}, u0);")
            body.append(f"    n_{ai} += 1;")
            return body

        for j in live:
            d, w = out_full[j]
            body.append(f"    {CTYPE[d]} o{j}[{w}];")

        compute = self._compute_lines(a, ai, data_specs, out_full, live)
        update = self._update_lines(a, ai, data_specs)
        if has_events:
            body.append("    if (en) {")
            body += ["    " + ln for ln in compute]
            for j in live:
                body.append(f"        memcpy(held_{ai}_{j}, o{j}, sizeof o{j});")
            body += ["    " + ln for ln in update]
            body.append("    } else {")
            for j in live:
                body.append(f"        memcpy(o{j}, held_{ai}_{j}, sizeof o{j});")
            body.append("    }")
        else:
            body += compute
            body += update

        for c in self.plan.ch_out[a.id]:
            origin = a.out_ports[c.src[1]].origin
            qn = f"q_{self.cident[c.id]}"
            if c.rate_src == 1:
                body.append(f"    sdf_queue_push(&{qn}, o{origin});")
            else:
                body.append(f"    for (int k = 0; k < {c.rate_src}; ++k) "
                            f"sdf_queue_push(&{qn}, o{origin});")
        if a.kind == "Inport" and a.id in self.plan.stim:
            body.append(f"    n_{ai} += 1;")
        return body

    def _update_lines(self, a, ai, data_specs) -> list[str]:
        if a.kind in ("UnitDelay", "DataStoreMemory"):
            if not (data_specs and a.out_ports):
                return []  # a store nothing accesses keeps no runtime state
            return [f"    memcpy(st_{ai}, u0, sizeof st_{ai});"]
        if a.kind == "Chart":
            lines = ["    do {"]
            for tr in a.params["transitions"]:
                f = a.params["states"].index(tr["from"])
                t = a.params["states"].index(tr["to"])
                gd = "f64" if data_specs[tr["input"]][0] == "f64" else "i32"
                lit = _c_scalar(gd, tr["value"])
                lines.append(f"        if (st_{ai} == {f} && "
                             f"(u{tr['input']}[{tr['element']}] {tr['op']} {lit})) "
                             f"{{ st_{ai} = {t}; break; }}")
            lines.append("    } while (0);")
            return lines
        return []

    def _compute_lines(self, a, ai, data_specs, out_full, live) -> list[str]:
        if not live:
            return []
        p = a.params
        kind = a.kind
        d, w = out_full[live[0]]
        ct = CTYPE[d]

        if kind == "Constant":
            elems = kinds.token_elems(p["value"], w)
            return [f"    o0[{i}] = {_c_scalar(d, e)};" for i, e in enumerate(elems)]

        if kind == "Inport":
            if a.id in self.plan.stim:
                return [f"    memcpy(o0, stim_{ai}[n_{ai}], sizeof o0);"]
            return [f"    for (int i = 0; i < {w}; ++i) o0[i] = 0;"]

        if kind == "Gain":
            gd = "i32" if d == "i32" else "f64"
            g = _c_scalar(gd, p["gain"])
            if d == "i32":
                return [f"    for (int i = 0; i < {w}; ++i) "
                        f"o0[i] = sdf_wrap32((int64_t){g} * (int64_t)u0[i]);"]
            return [f"    for (int i = 0; i < {w}; ++i) o0[i] = {g} * u0[i];"]

        if kind == "Sum":
            lines = [f"    for (int i = 0; i < {w}; ++i) {{"]
            if d == "i32":
                lines.append("        int32_t acc = 0;")
                for n, s in enumerate(p["signs"]):
                    op = "+" if s == "+" else "-"
                    lines.append(f"        acc = sdf_wrap32((int64_t)acc "
                                 f"{op} (int64_t)u{n}[i]);")
            else:
                lines.append("        double acc = 0.0;")
                for n, s in enumerate(p["signs"]):
                    op = "+" if s == "+" else "-"
                    lines.append(f"        acc = acc {op} u{n}[i];")
            lines += ["        o0[i] = acc;", "    }"]
            return lines

        if kind == "Product":
            lines = [f"    for (int i = 0; i < {w}; ++i) {{"]
            if d == "i32":
                lines.append("        int32_t acc = 1;")
                for n, o in enumerate(p["ops"]):
                    if o == "*":
                        lines.append(f"        acc = sdf_wrap32((int64_t)acc "
                                     f"* (int64_t)u{n}[i]);")
                    else:
                        lines.append(f"        acc = sdf_div32(acc, u{n}[i]);")
            else:
                lines.append("        double acc = 1.0;")
                for n, o in enumerate(p["ops"]):
                    op = "*" if o == "*" else "/"
                    lines.append(f"        acc = acc {op} u{n}[i];")
            lines += ["        o0[i] = acc;", "    }"]
            return lines

        if kind in ("UnitDelay", "DataStoreMemory"):
            return [f"    memcpy(o0, st_{ai}, sizeof o0);"]

        if kind == "Saturation":
            sd = "i32" if d == "i32" else "f64"
            lo, hi = _c_scalar(sd, p["lower"]), _c_scalar(sd, p["upper"])
            return [f"    for (int i = 0; i < {w}; ++i) {{",
                    f"        {ct} v = u0[i];",
                    f"        o0[i] = (v < {lo}) ? {lo} : ((v > {hi}) ? {hi} : v);",
                    "    }"]

        if kind == "Switch":
            th = _c_f64(p["threshold"])
            return [f"    if ((double)u1[0] >= {th}) {{",
                    "        memcpy(o0, u0, sizeof o0);",
                    "    } else {",
                    "        memcpy(o0, u2, sizeof o0);",
                    "    }"]

        if kind == "RelationalOp":
            return [f"    for (int i = 0; i < {w}; ++i) "
                    f"o0[i] = (u0[i] {p['op']} u1[i]) ? 1 : 0;"]

        if kind == "LogicalOp":
            op = p["op"]
            if op == "NOT":
                return [f"    for (int i = 0; i < {w}; ++i) o0[i] = !u0[i];"]
            lines = [f"    for (int i = 0; i < {w}; ++i) {{"]
            if op in ("AND", "NAND"):
                lines.append("        int acc = 1;")
                fold = "acc = acc && (u{n}[i] != 0);"
            elif op in ("OR", "NOR"):
                lines.append("        int acc = 0;")
                fold = "acc = acc || (u{n}[i] != 0);"
            else:  # XOR
                lines.append("        int acc = 0;")
                fold = "acc = (acc != (u{n}[i] != 0)) ? 1 : 0;"
            for n in range(len(data_specs)):
                lines.append("        " + fold.format(n=n))
            if op in ("NAND", "NOR"):
                lines.append("        acc = !acc;")
            lines += ["        o0[i] = (unsigned char)acc;", "    }"]
            return lines

        if kind == "Lookup1D":
            n = len(p["breakpoints"])
            return [f"    for (int i = 0; i < {w}; ++i) {{",
                    "        double u = u0[i];",
                    "        double y;",
                    f"        if (u <= bp_{ai}[0]) {{",
                    f"            y = tab_{ai}[0];",
                    f"        }} else if (u >= bp_{ai}[{n - 1}]) {{",
                    f"            y = tab_{ai}[{n - 1}];",
                    "        } else {",
                    "            int j = 0;",
                    f"            while (u >= bp_{ai}[j + 1]) {{",
                    "                j++;",
                    "            }",
                    f"            {{ double t = (u - bp_{ai}[j]) / (bp_{ai}[j + 1] - bp_{ai}[j]);",
                    f"              y = tab_{ai}[j] + t * (tab_{ai}[j + 1] - tab_{ai}[j]); }}",
                    "        }",
                    "        o0[i] = y;",
                    "    }"]

        if kind == "Chart":
            lines = [f"    switch (st_{ai}) {{"]
            for si, sname in enumerate(a.params["states"]):
                lines.append(f"    case {si}:")
                row = a.params["outputs"][sname]
                for j in live:
                    dj, wj = out_full[j]
                    for i, e in enumerate(kinds.token_elems(row[j], wj)):
                        lines.append(f"        o{j}[{i}] = {_c_scalar(dj, e)};")
                lines.append("        break;")
            lines += ["    default:", "        break;", "    }"]
            return lines

        if kind == "RateTransition":
            return ["    memcpy(o0, u0, sizeof o0);"]

        if kind == "EnableSource":
            sd = data_specs[0][0]
            if sd == "bool":
                return ["    o0[0] = u0[0];"]
            zero = "0.0" if sd == "f64" else "0"
            return [f"    o0[0] = (u0[0] > {zero}) ? 1 : 0;"]

        raise UnsupportedKindError(f"actor {a.id}: no C form for kind {kind!r}")

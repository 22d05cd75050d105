"""C99 emission for a translated dataflow graph.

The bundle is self contained and has two translation units.  The model
unit, sdfg_<name>.c, holds everything specific to the graph: the channel
buffers and one table of the channels that sdfg_init and sdfg_check loop
over, each actor's firing as one case of a dispatch switch (64 cases to
a function, reached by index / 64), the schedule as an array of actor
indices, and the iteration count.  The fixed runtime,
runtime/sdf_runtime.c, is byte-identical in every bundle: the
ring-buffer queue, the trace printer and main(), whose stdout is the same
time,signal,value CSV the schedule interpreter produces.

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
from .sdf_core import Schedule, Sdfg, firing_plan
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
/* The fixed runtime of every bundle: a FIFO of fixed-size tokens over
 * caller storage, the trace printer and main().  The model unit defines
 * the sdfg_ names declared at the end. */
#ifndef SDF_RUNTIME_H
#define SDF_RUNTIME_H

#include <stddef.h>
#include <stdint.h>

#ifndef SDF_NO_ASSERT
#include <assert.h>
#define SDF_ASSERT(x) assert(x)
#else
#define SDF_ASSERT(x) ((void)0)
#endif

#define SDF_F64 0
#define SDF_I32 1
#define SDF_BOOL 2

typedef struct {
    unsigned char *buf;
    size_t elem;
    size_t cap;
    size_t head;
    size_t len;
} sdf_queue;

/* One channel: its queue, the storage whose first `delay` tokens hold
 * the channel's initial values, the token size and the capacity. */
typedef struct {
    sdf_queue *q;
    void *buf;
    size_t elem;
    size_t cap;
    size_t delay;
} sdf_channel;

void sdf_queue_init(sdf_queue *q, void *storage, size_t elem_size,
                    size_t capacity, size_t len);
/* Appends n copies of token. */
void sdf_queue_push_n(sdf_queue *q, const void *token, size_t n);
/* Removes n tokens and copies the last of them to token_out. */
void sdf_queue_pop_n(sdf_queue *q, void *token_out, size_t n);
/* Removes n tokens. */
void sdf_queue_drop(sdf_queue *q, size_t n);
size_t sdf_queue_len(const sdf_queue *q);

/* One CSV row per traced token. */
void sdf_record(const char *t, const char *signal, int dtype,
                int width, const void *token);

extern const long sdfg_iterations;
void sdfg_init(void);
void sdfg_step(void);
/* Every queue must be back at its delay once an iteration ends. */
void sdfg_check(void);

#endif /* SDF_RUNTIME_H */
"""

_RUNTIME_C = """\
#include "sdf_runtime.h"

#include <stdio.h>
#include <string.h>

void sdf_queue_init(sdf_queue *q, void *storage, size_t elem_size,
                    size_t capacity, size_t len) {
    SDF_ASSERT(len <= capacity);
    q->buf = (unsigned char *)storage;
    q->elem = elem_size;
    q->cap = capacity;
    q->head = 0;
    q->len = len;
}

void sdf_queue_push_n(sdf_queue *q, const void *token, size_t n) {
    size_t i;
    SDF_ASSERT(q->len + n <= q->cap);
    for (i = 0; i < n; ++i) {
        memcpy(q->buf + (q->head + q->len) % q->cap * q->elem, token, q->elem);
        q->len += 1;
    }
}

void sdf_queue_pop_n(sdf_queue *q, void *token_out, size_t n) {
    SDF_ASSERT(n > 0 && q->len >= n);
    memcpy(token_out, q->buf + (q->head + n - 1) % q->cap * q->elem, q->elem);
    q->head = (q->head + n) % q->cap;
    q->len -= n;
}

void sdf_queue_drop(sdf_queue *q, size_t n) {
    SDF_ASSERT(q->len >= n);
    q->head = (q->head + n) % q->cap;
    q->len -= n;
}

size_t sdf_queue_len(const sdf_queue *q) {
    return q->len;
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
    sdfg_init();
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
            with open(path, "w") as f:
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
    em = _Emitter(g, plan, periods, asserts)
    return SourceBundle(em.name, em.files())


class _Emitter:
    def __init__(self, g, plan, periods, asserts):
        self.g = g
        self.sched = plan.schedule
        self.plan = plan
        self.periods = periods
        self.asserts = asserts
        self.name = _sanitize(g.name)
        self.tm: dict = {}  # Outport period -> its time table

    # ------------------------------------------------------------------
    # bundle assembly

    def files(self) -> dict[str, str]:
        n = self.name
        return {
            "runtime/sdf_runtime.h": _RUNTIME_H,
            "runtime/sdf_runtime.c": _RUNTIME_C,
            f"sdfg_{n}.c": self._model_source(),
            "build.sh": self._build_script(),
        }

    def _model_source(self) -> str:
        lines = ["#include <math.h>", "#include <string.h>", "",
                 '#include "sdf_runtime.h"', "",
                 f"const long sdfg_iterations = {self.periods}L;", "",
                 "/* Two's-complement wraparound, the reference arithmetic for i32. */",
                 "static inline int32_t sdf_wrap32(int64_t v) {",
                 "    uint32_t u = (uint32_t)v;",
                 "    int32_t r;",
                 "    memcpy(&r, &u, sizeof r);",
                 "    return r;",
                 "}",
                 "",
                 "static inline int32_t sdf_div32(int32_t a, int32_t b) {",
                 "    SDF_ASSERT(b != 0);",
                 "    return sdf_wrap32((int64_t)a / (int64_t)b);",
                 "}",
                 ""]
        lines += self._channels()
        lines += self._time_tables()
        cases = []
        for k, a in enumerate(self.g.actors):
            body = self._actor_section(k, a) + ["    break;"]
            # an id reaches C only here and in string literals, and a
            # comment may hold neither "*/" nor "/*"
            note = a.id.replace("*/", "* /").replace("/*", "/ *")
            cases.append(f"    case {k}: {{ /* {a.kind} {note} */\n    "
                         + "\n    ".join(body) + "\n    }")
        lines.append("")
        lines += self._dispatch(cases)
        return "\n".join(lines)

    def _channels(self) -> list[str]:
        """Channel storage, its initial tokens, and sdfg_init and sdfg_check
        as loops over one table of the channels."""
        lines, table = [], []
        for k, c in enumerate(self.g.channels):
            cap = max(self.sched.peaks[c.id], 1)
            init = ""
            if c.initial_values:
                init = " = { " + ", ".join(_c_token(c.dtype, c.width, tok)
                                           for tok in c.initial_values) + " }"
            lines.append(f"static {CTYPE[c.dtype]} buf_{k}[{cap}][{c.width}]{init};")
            lines.append(f"static sdf_queue q_{k};")
            table.append(f"    {{ &q_{k}, buf_{k}, sizeof buf_{k}[0], {cap}, {c.delay} }},")
        lines.append("")
        if not table:
            return lines + ["void sdfg_init(void) {", "}", "",
                            "void sdfg_check(void) {", "}", ""]
        return lines + [
            f"static const sdf_channel channels[{len(table)}] = {{", *table, "};", "",
            "void sdfg_init(void) {",
            "    size_t i;",
            "    for (i = 0; i < sizeof channels / sizeof channels[0]; ++i) {",
            "        const sdf_channel *c = &channels[i];",
            "        sdf_queue_init(c->q, c->buf, c->elem, c->cap, c->delay);",
            "    }",
            "}",
            "",
            "void sdfg_check(void) {",
            "    size_t i;",
            "    for (i = 0; i < sizeof channels / sizeof channels[0]; ++i) {",
            "        SDF_ASSERT(sdf_queue_len(channels[i].q) == channels[i].delay);",
            "    }",
            "}",
            ""]

    def _time_tables(self) -> list[str]:
        """One table of firing times per Outport period, which every
        Outport of that period indexes by its own firing count."""
        lines = []
        for k, a in enumerate(self.g.actors):
            if a.kind == "Outport" and a.period not in self.tm:
                self.tm[a.period] = tm = f"tm_{len(self.tm)}"
                times = self.plan.times[k]
                lines.append(f"static const char *const {tm}[{len(times)}] = "
                             "{ " + ", ".join(_c_str(time_str(t)) for t in times) + " };")
        return lines

    def _dispatch(self, cases: list[str]) -> list[str]:
        """The cases, _CHUNK to a function switching on the actor's index,
        and sdfg_step walking the schedule."""
        lines: list[str] = []
        for lo in range(0, len(cases), _CHUNK):
            lines += [f"static void fire_{lo // _CHUNK}(int actor) {{", "    switch (actor) {",
                      *cases[lo:lo + _CHUNK], "    }", "}", ""]
        if not self.sched.firings:
            return lines + ["void sdfg_step(void) {", "}", ""]
        order = [str(k) for k in self.plan.steps]
        n_fire = -(-len(cases) // _CHUNK)
        lines.append(f"static void (*const fire[{n_fire}])(int) = {{ " +
                     ", ".join(f"fire_{i}" for i in range(n_fire)) + " };")
        lines.append("")
        lines.append(f"static const int schedule[{len(order)}] = {{")
        lines += ["    " + ", ".join(order[i:i + 16]) + ","
                  for i in range(0, len(order), 16)]
        lines += ["};", "",
                  "void sdfg_step(void) {",
                  "    size_t i;",
                  "    for (i = 0; i < sizeof schedule / sizeof schedule[0]; ++i) {",
                  f"        fire[schedule[i] / {_CHUNK}](schedule[i]);",
                  "    }",
                  "}",
                  ""]
        return lines

    def _build_script(self) -> str:
        n = self.name
        flags = "-std=c99 -O2 -ffp-contract=off -Iruntime"
        if not self.asserts:
            flags += " -DSDF_NO_ASSERT"
        # the model unit first: it is the larger
        units = [f"sdfg_{n}", "runtime/sdf_runtime"]
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
            f"exec $CC {' '.join(u + '.o' for u in units)} -lm -o sdfg_{n}",
            "",
        ])

    # ------------------------------------------------------------------
    # per-actor emission

    def _actor_section(self, k, a) -> list[str]:
        """The body of the case of actor `a`, at position `k`: its static
        data, then its firing."""
        data_specs = self.plan.data_specs[k]
        out_full = self.plan.out_specs[k]
        live = sorted({self.g.channels[j].src[1] for j in self.plan.ch_out[k]})
        has_events = any(p.event for p in a.in_ports)
        stim = self.plan.stim[k]  # an Inport's signal: one token per firing of the run

        if not (live or a.kind == "Outport"):
            # nothing observes the outputs or state of an actor with no
            # out-channel: as in the schedule interpreter, it only pops
            return self._fire_body(k, a, data_specs, out_full, live, False)
        statics: list[str] = []
        if a.kind == "Chart":
            idx = a.params["states"].index(a.params["initial"])
            statics.append(f"static int st = {idx};")
        if a.kind in ("UnitDelay", "DataStoreMemory"):
            d, w = out_full[0]
            init = _c_token(d, w, a.params["initial"])
            statics.append(f"static {CTYPE[d]} st[{w}] = {init};")
        if a.kind == "Lookup1D":
            bp, tab = a.params["breakpoints"], a.params["table"]
            statics.append(f"static const double bp[{len(bp)}] = "
                           "{ " + ", ".join(_c_f64(x) for x in bp) + " };")
            statics.append(f"static const double tab[{len(tab)}] = "
                           "{ " + ", ".join(_c_f64(x) for x in tab) + " };")
        if has_events and live:
            init_out = kinds.KINDS[a.kind].bind(a.params, data_specs, out_full)[1]
            for j in live:
                d, w = out_full[j]
                lit = _c_token(d, w, init_out[j])
                statics.append(f"static {CTYPE[d]} held{j}[{w}] = {lit};")
        if stim is not None:
            d, w = out_full[0]
            rows = ", ".join(_c_token(d, w, tok) for tok in stim)
            statics.append(f"static const {CTYPE[d]} stim[{len(stim)}][{w}] = {{ {rows} }};")
        if a.kind == "Outport" or stim is not None:
            statics.append("static long n;")
        return (["    " + ln for ln in statics]
                + self._fire_body(k, a, data_specs, out_full, live, has_events))

    def _fire_body(self, k, a, data_specs, out_full, live, has_events):
        body: list[str] = []
        if has_events:
            body.append("    int en = 1;")
        n_ev = 0
        for slot, p in enumerate(a.in_ports):
            j = self.plan.ch_in[k][slot]
            c = self.g.channels[j]
            qn = f"q_{j}"
            ct = CTYPE[p.dtype]
            if p.event and has_events:
                ev = f"e{n_ev}"
                n_ev += 1
                body.append(f"    {ct} {ev}[{p.width}];")
                if c.rate_dst == 1:
                    body.append(f"    sdf_queue_pop_n(&{qn}, {ev}, 1);")
                    body.append(f"    en = en && ({ev}[0] != 0);")
                else:
                    body.append(f"    for (int k = 0; k < {c.rate_dst}; ++k) {{")
                    body.append(f"        sdf_queue_pop_n(&{qn}, {ev}, 1);")
                    body.append(f"        en = en && ({ev}[0] != 0);")
                    body.append("    }")
                continue
            u = f"u{slot - n_ev}"
            body.append(f"    {ct} {u}[{p.width}];")
            if c.rate_dst == 1 or a.kind == "RateTransition":
                # a RateTransition keeps the freshest of the consumed tokens
                body.append(f"    sdf_queue_pop_n(&{qn}, {u}, {c.rate_dst});")
            else:
                body.append(f"    sdf_queue_pop_n(&{qn}, {u}, 1);")
                body.append(f"    sdf_queue_drop(&{qn}, {c.rate_dst - 1});")

        if a.kind == "Outport":
            d, w = data_specs[0]
            body.append(f"    sdf_record({self.tm[a.period]}[n], {_c_str(a.id)}, "
                        f"{DTCODE[d]}, {w}, u0);")
            body.append("    n += 1;")
            return body
        if not live:
            return body

        for j in live:
            d, w = out_full[j]
            body.append(f"    {CTYPE[d]} o{j}[{w}];")

        compute = self._compute_lines(k, a, data_specs, out_full, live)
        update = self._update_lines(a, data_specs)
        if has_events:
            body.append("    if (en) {")
            body += ["    " + ln for ln in compute]
            for j in live:
                body.append(f"        memcpy(held{j}, o{j}, sizeof o{j});")
            body += ["    " + ln for ln in update]
            body.append("    } else {")
            for j in live:
                body.append(f"        memcpy(o{j}, held{j}, sizeof o{j});")
            body.append("    }")
        else:
            body += compute
            body += update

        for j in self.plan.ch_out[k]:
            c = self.g.channels[j]
            body.append(f"    sdf_queue_push_n(&q_{j}, o{c.src[1]}, {c.rate_src});")
        if self.plan.stim[k] is not None:
            body.append("    n += 1;")
        return body

    def _update_lines(self, a, data_specs) -> list[str]:
        if a.kind in ("UnitDelay", "DataStoreMemory"):
            if not data_specs:
                return []  # a store nothing writes keeps its initial
            return ["    memcpy(st, u0, sizeof st);"]
        if a.kind == "Chart":
            lines = ["    do {"]
            for tr in a.params["transitions"]:
                f = a.params["states"].index(tr["from"])
                t = a.params["states"].index(tr["to"])
                gd = "f64" if data_specs[tr["input"]][0] == "f64" else "i32"
                lit = _c_scalar(gd, tr["value"])
                lines.append(f"        if (st == {f} && "
                             f"(u{tr['input']}[{tr['element']}] {tr['op']} {lit})) "
                             f"{{ st = {t}; break; }}")
            lines.append("    } while (0);")
            return lines
        return []

    def _compute_lines(self, k, a, data_specs, out_full, live) -> list[str]:
        p = a.params
        kind = a.kind
        d, w = out_full[live[0]]
        ct = CTYPE[d]

        if kind == "Constant":
            elems = kinds.token_elems(p["value"], w)
            return [f"    o0[{i}] = {_c_scalar(d, e)};" for i, e in enumerate(elems)]

        if kind == "Inport":
            if self.plan.stim[k] is not None:
                return ["    memcpy(o0, stim[n], sizeof o0);"]
            return [f"    for (int i = 0; i < {w}; ++i) o0[i] = 0;"]

        if kind == "Gain":
            gd = "i32" if d == "i32" else "f64"
            g = _c_scalar(gd, p["gain"])
            if d == "i32":
                return [f"    for (int i = 0; i < {w}; ++i) "
                        f"o0[i] = sdf_wrap32((int64_t){g} * (int64_t)u0[i]);"]
            return [f"    for (int i = 0; i < {w}; ++i) o0[i] = {g} * u0[i];"]

        if kind in ("Sum", "Product"):
            # one fold whose symbols are the C operators
            syms, unit = (p["signs"], 0) if kind == "Sum" else (p["ops"], 1)
            lines = [f"    for (int i = 0; i < {w}; ++i) {{"]
            if d == "i32":
                lines.append(f"        int32_t acc = {unit};")
                lines += [f"        acc = sdf_div32(acc, u{n}[i]);" if s == "/" else
                          f"        acc = sdf_wrap32((int64_t)acc {s} (int64_t)u{n}[i]);"
                          for n, s in enumerate(syms)]
            else:
                lines.append(f"        double acc = {unit}.0;")
                lines += [f"        acc = acc {s} u{n}[i];" for n, s in enumerate(syms)]
            lines += ["        o0[i] = acc;", "    }"]
            return lines

        if kind in ("UnitDelay", "DataStoreMemory"):
            return ["    memcpy(o0, st, sizeof o0);"]

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
                    "        if (u <= bp[0]) {",
                    "            y = tab[0];",
                    f"        }} else if (u >= bp[{n - 1}]) {{",
                    f"            y = tab[{n - 1}];",
                    "        } else {",
                    "            int j = 0;",
                    "            while (u >= bp[j + 1]) {",
                    "                j++;",
                    "            }",
                    "            { double t = (u - bp[j]) / (bp[j + 1] - bp[j]);",
                    "              y = tab[j] + t * (tab[j + 1] - tab[j]); }",
                    "        }",
                    "        o0[i] = y;",
                    "    }"]

        if kind == "Chart":
            lines = ["    switch (st) {"]
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

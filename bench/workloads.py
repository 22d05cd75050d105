"""The benchmark's workloads: seeded model documents, stimulus and run lengths.

Each workload stresses a different part of the verify chain:

* ``cases_long``: the two case studies over a long run.  Nearly all the
  time goes to per-firing work in the MIL and SIL interpreters; the front
  end, the scheduler and ``cc`` barely show.
* ``corpus_c``: many small random models (every kind, hierarchy, buses,
  data stores) through the full three-way chain, with short runs.  ``cc``
  dominates; per-firing cost is bypassed.
* ``chain_scale``: one long chain of Gains whose periods alternate between
  1 and 2, so a rate transition sits on nearly every edge.  It runs for a
  few base steps only, so graph-size costs (normalize, schedule and the
  schedule rebuilt inside ``run_sil`` and ``emit_bundle``) dominate and
  per-actor setup cost in the interpreters shows as well.

The program receives only what is generated here: the document text and
the stimulus CSV, as a user would hand them to ``sdflow verify``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from model_gen import random_document, random_stimulus
from sdflow import Trace, load_model

CASE_MODELS = Path(__file__).resolve().parent.parent / "tests" / "models"

# Per workload and size: the knobs that set how much work one model is.
# "tiny" exists for the benchmark's own tests and for warm-up.
SIZES = {
    "cases_long": {"full": {"steps": 8192}, "tiny": {"steps": 64}},
    "corpus_c": {"full": {"models": 32, "steps": 96},
                 "tiny": {"models": 2, "steps": 16}},
    "chain_scale": {"full": {"gains": 800, "steps": 16},
                    "tiny": {"gains": 12, "steps": 4}},
}

# What each workload does after the MIL/SIL comparison: nothing, emit and
# write the C bundle, or also build it with cc, run it and compare.
C_STAGE = {"cases_long": "none", "corpus_c": "build", "chain_scale": "emit"}


@dataclass(frozen=True)
class Case:
    """One model as a user hands it to `sdflow verify`."""

    id: str
    text: str        # model document, JSON
    stimulus: str    # samples for the top-level Inports, trace CSV
    steps: int       # base steps to run


@dataclass(frozen=True)
class Workload:
    name: str
    c_stage: str
    cases: tuple[Case, ...]

    def fingerprint(self) -> str:
        """SHA-256 over everything the program is given."""
        doc = [self.name, self.c_stage,
               [[c.id, c.text, c.stimulus, c.steps] for c in self.cases]]
        return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def build(name: str, seed: int, size: str = "full") -> Workload:
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(SIZES)}")
    rng = random.Random(f"{name}/{seed}")
    make = {"cases_long": _cases_long, "corpus_c": _corpus_c,
            "chain_scale": _chain_scale}[name]
    return Workload(name, C_STAGE[name], tuple(make(rng, **SIZES[name][size])))


def _case_stimulus(name: str, steps: int, rng: random.Random) -> Trace:
    """Shaped like the acceptance criterion-3 stimulus, with a seeded phase
    and seeded jitter on every sample."""
    st = Trace()
    phase = rng.uniform(0.0, 2.0 * math.pi)
    if name == "transmission":
        st.declare("throttle", "f64", 1)
        for k in range(steps):
            st.add("throttle", Fraction(k),
                   50.0 + 49.0 * math.sin(k / 9.0 + phase) + rng.uniform(0.0, 0.2))
    else:
        st.declare("setpoint", "f64", 1)
        st.declare("sensor", "f64", 1)
        offset = rng.uniform(-1.0, 1.0)
        for k in range(steps):
            st.add("setpoint", Fraction(k), 21.0 + offset + (k % 11) * 0.1)
            st.add("sensor", Fraction(k),
                   18.0 + 6.0 * math.sin(k / 13.0 + phase) + rng.uniform(0.0, 0.1))
    return st


def _cases_long(rng, steps):
    for name in ("transmission", "climate"):
        text = (CASE_MODELS / f"{name}.json").read_text(encoding="utf-8")
        yield Case(name, text, _case_stimulus(name, steps, rng).to_csv(), steps)


def _corpus_c(rng, models, steps):
    for i in range(models):
        model_seed = rng.randrange(2**31)
        doc = random_document(model_seed)
        stim = random_stimulus(load_model(doc), steps, seed=rng.randrange(2**31))
        yield Case(f"random{model_seed}", json.dumps(doc), stim.to_csv(), steps)


def _st(period: int) -> dict:
    return {"num": period, "den": 1}


def chain_document(gains: int, rng: random.Random) -> dict:
    """Inport -> Gain x `gains` -> Outport; Gain k runs at period 1 when k
    is odd and 2 when even, so every Gain-to-Gain edge changes rate."""
    f64 = [{"dtype": "f64", "width": 1}]
    blocks = [{"id": "in", "kind": "Inport", "params": {"index": 0},
               "sample_time": _st(1), "ports": {"out": f64}}]
    conns = []
    prev = "in"
    for k in range(1, gains + 1):
        gid = f"g{k}"
        g = rng.choice((-1, 1)) * round(rng.uniform(0.8, 1.25), 3)
        blocks.append({"id": gid, "kind": "Gain", "params": {"gain": g},
                       "sample_time": _st(1 if k % 2 else 2),
                       "ports": {"in": f64, "out": f64}})
        conns.append({"src": [prev, 0], "dst": [gid, 0], "dtype": "f64", "width": 1})
        prev = gid
    blocks.append({"id": "out", "kind": "Outport", "params": {"index": 0},
                   "ports": {"in": f64}})
    conns.append({"src": [prev, 0], "dst": ["out", 0], "dtype": "f64", "width": 1})
    return {"name": f"chain{gains}", "base_step": _st(1), "data_stores": [],
            "root": {"id": "root", "kind": "Subsystem", "params": {"mode": "normal"},
                     "sample_time": _st(1), "ports": {"in": [], "out": []},
                     "children": blocks, "connections": conns}}


def _chain_scale(rng, gains, steps):
    doc = chain_document(gains, rng)
    st = Trace()
    st.declare("in", "f64", 1)
    for k in range(steps):
        st.add("in", Fraction(k), rng.uniform(-10.0, 10.0))
    yield Case(doc["name"], json.dumps(doc), st.to_csv(), steps)

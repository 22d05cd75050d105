"""Shared fixtures: canned models, helpers that write model documents,
and a tiny C toolchain wrapper."""

import os
import subprocess
from pathlib import Path

import pytest

from sdflow import Trace, load_model, load_model_file

MODELS = Path(__file__).parent / "models"

F1 = {"dtype": "f64", "width": 1}
F2 = {"dtype": "f64", "width": 2}
I1 = {"dtype": "i32", "width": 1}
B1 = {"dtype": "bool", "width": 1}


def blk(bid, kind, params=None, st=None, ins=(), outs=(), **rest):
    """One block; `st` is a whole sample time, `rest` any further keys."""
    b = {"id": bid, "kind": kind, "params": params or {},
         "ports": {"in": list(ins), "out": list(outs)}}
    if st is not None:
        b["sample_time"] = {"num": st, "den": 1}
    b.update(rest)
    return b


def conn(src, dst, spec=F1):
    return {"src": list(src), "dst": list(dst),
            "dtype": spec["dtype"], "width": spec["width"]}


def model_doc(children, connections, stores=(), name="m"):
    """A model document with base step 1 whose root holds `children`."""
    return {"name": name, "base_step": {"num": 1, "den": 1},
            "data_stores": list(stores),
            "root": {"id": "root", "kind": "Subsystem", "params": {"mode": "normal"},
                     "ports": {"in": [], "out": []},
                     "children": children, "connections": connections}}


def model(children, connections, stores=(), name="m"):
    return load_model(model_doc(children, connections, stores, name))


def load_fixture(name):
    return load_model_file(MODELS / f"{name}.json")


@pytest.fixture
def multirate():
    return load_fixture("multirate")


@pytest.fixture
def multirate_rt():
    return load_fixture("multirate_rt")


@pytest.fixture
def transmission():
    return load_fixture("transmission")


@pytest.fixture
def climate():
    return load_fixture("climate")


def compile_and_run(bundle, workdir) -> str:
    """Build a SourceBundle in workdir, run the harness, return its CSV.
    Any compiler warning fails the build."""
    bundle.write(workdir)
    build = subprocess.run(["sh", "build.sh"], cwd=workdir, capture_output=True, text=True,
                           env={**os.environ, "CC": "cc -Wall -Wextra -pedantic -Werror"})
    assert build.returncode == 0, f"cc failed:\n{build.stderr}"
    exe = Path(workdir) / f"sdfg_{bundle.name}"
    run = subprocess.run([str(exe)], capture_output=True, text=True)
    assert run.returncode == 0, f"harness failed:\n{run.stderr}"
    return run.stdout


def c_trace(bundle, workdir, specs) -> Trace:
    return Trace.from_csv(compile_and_run(bundle, workdir), specs)

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


def hostile_ids_model():
    """A chain whose ids break naive C: "??=" is the '#' trigraph under
    -std=c99; the flattened ids "s*/g" and "p/*q" would close and open a
    C comment; "a-b", "a_b" and "a b" would all sanitize to one
    identifier; "int", "main" and "sdf_record" name C and runtime
    entities."""
    def wrap(sid, inner):
        return blk(sid, "Subsystem", ins=[F1], outs=[F1],
                   children=[blk("i", "Inport", {"index": 0}, outs=[F1]),
                             blk(inner, "Gain", {"gain": 2.0}, ins=[F1], outs=[F1]),
                             blk("o", "Outport", {"index": 0}, ins=[F1])],
                   connections=[conn(("i", 0), (inner, 0)), conn((inner, 0), ("o", 0))])
    chain = ["c", "a-b", "a_b", "a b", "s*", "p", "int", "main", "sdf_record"]
    return model([blk("c", "Constant", {"value": 1.5}, st=1, outs=[F1]),
                  *(blk(b, "Gain", {"gain": -1.0}, ins=[F1], outs=[F1])
                    for b in ("a-b", "a_b", "a b")),
                  wrap("s*", "g"), wrap("p", "*q"),
                  blk("int", "UnitDelay", {"initial": 0.5}, ins=[F1], outs=[F1]),
                  blk("main", "Gain", {"gain": 3.0}, ins=[F1], outs=[F1]),
                  blk("sdf_record", "Outport", {"index": 0}, ins=[F1]),
                  blk("y??=x", "Outport", {"index": 1}, ins=[F1])],
                 [*(conn((u, 0), (v, 0)) for u, v in zip(chain, chain[1:])),
                  conn(("s*", 0), ("y??=x", 0))],
                 name="ids")


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


def wiring_defect(name):
    """(children, connections, stores) of a model that loads but whose
    wiring neither MIL nor the normalizer can resolve."""
    c = blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1])
    y = blk("y", "Outport", {"index": 0}, ins=[F1])
    bc = blk("bc", "BusCreator", {}, ins=[F1], outs=[F1])
    into_y = conn(("x", 0), ("y", 0))
    defects = {
        # a From whose only Goto it feeds itself
        "tag_cycle": ([blk("x", "From", {"tag": "t"}, outs=[F1]),
                       blk("gt", "Goto", {"tag": "t"}, ins=[F1])],
                      [conn(("x", 0), ("gt", 0))]),
        "from_without_goto": ([blk("x", "From", {"tag": "t"}, st=1, outs=[F1])], []),
        "read_without_memory": ([blk("x", "DataStoreRead", {"store": "s"}, st=1,
                                     outs=[F1])], []),
        "write_without_memory": ([c, blk("w", "DataStoreWrite", {"store": "s"}, ins=[F1]),
                                  blk("x", "Gain", {"gain": 1.0}, ins=[F1], outs=[F1])],
                                 [conn(("c", 0), ("w", 0)), conn(("c", 0), ("x", 0))]),
        "two_store_writers": ([c, blk("m", "DataStoreMemory", {"store": "s", "initial": 0.0}),
                               blk("w1", "DataStoreWrite", {"store": "s"}, ins=[F1]),
                               blk("w2", "DataStoreWrite", {"store": "s"}, ins=[F1]),
                               blk("x", "DataStoreRead", {"store": "s"}, outs=[F1])],
                              [conn(("c", 0), ("w1", 0)), conn(("c", 0), ("w2", 0))]),
        "bus_into_gain": ([c, bc, blk("x", "Gain", {"gain": 1.0}, ins=[F1], outs=[F1])],
                          [conn(("c", 0), ("bc", 0)), conn(("bc", 0), ("x", 0))]),
        "selector_without_creator": ([c, blk("x", "BusSelector", {}, ins=[F1], outs=[F1])],
                                     [conn(("c", 0), ("x", 0))]),
        "selector_of_a_selector": ([c, bc, blk("bs", "BusSelector", {}, ins=[F1], outs=[F1]),
                                    blk("x", "BusSelector", {}, ins=[F1], outs=[F1])],
                                   [conn(("c", 0), ("bc", 0)), conn(("bc", 0), ("bs", 0)),
                                    conn(("bs", 0), ("x", 0))]),
        "element_beyond_the_bus": ([c, bc, blk("x", "BusSelector", {"indices": [1]},
                                               ins=[F1], outs=[F1])],
                                   [conn(("c", 0), ("bc", 0)), conn(("bc", 0), ("x", 0))]),
        "unknown_kind": ([c, blk("x", "Quantizer", {}, ins=[F1], outs=[F1])],
                         [conn(("c", 0), ("x", 0))]),
    }
    children, conns = defects[name]
    return [*children, y], [*conns, into_y], ["s"]

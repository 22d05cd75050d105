"""End-to-end runs of the command line tool.

Most run `cli.main` in this process, with its output captured; a few run
the installed entry point and `python -m sdflow.cli` in a subprocess, to
cover what only a real process shows: the exit status, the warning and
decoding paths of a fresh interpreter, and argparse's exit."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import F1, blk, conn, model_doc
from sdflow import Trace, cli
from sdflow.model_ir import MAX_NESTING

MODELS = Path(__file__).parent / "models"

SDFLOW = shutil.which("sdflow")
MODULE = [sys.executable, "-m", "sdflow.cli"]
BASE = [SDFLOW] if SDFLOW else MODULE


def run_cli(*args, cwd=None):
    """(exit status, stdout, stderr) of `sdflow args` run in this process.
    Any exception but SystemExit escapes, so what would be a traceback
    fails the test."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    try:
        if cwd is not None:
            os.chdir(cwd)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main([str(a) for a in args])
            except SystemExit as e:
                rc = e.code
    finally:
        os.chdir(here)
    return rc, out.getvalue(), err.getvalue()


def run_process(*args, base=BASE):
    """The same, as a real process."""
    p = subprocess.run(base + [str(a) for a in args],
                       capture_output=True, text=True, timeout=120)
    return p.returncode, p.stdout, p.stderr


def write_model(tmp_path, doc, name="bad.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def nonharmonic_doc():
    return {"name": "nh", "base_step": {"num": 1, "den": 1}, "data_stores": [],
            "root": {"id": "nh", "kind": "Subsystem", "params": {"mode": "normal"},
                     "ports": {"in": [], "out": []},
                     "children": [
                         {"id": "a", "kind": "Constant", "params": {"value": 1.0},
                          "sample_time": {"num": 2, "den": 1},
                          "ports": {"in": [], "out": [{"dtype": "f64", "width": 1}]}},
                         {"id": "g", "kind": "Gain", "params": {"gain": 1.0},
                          "sample_time": {"num": 3, "den": 1},
                          "ports": {"in": [{"dtype": "f64", "width": 1}],
                                    "out": [{"dtype": "f64", "width": 1}]}},
                         {"id": "y", "kind": "Outport", "params": {"index": 0},
                          "sample_time": {"num": 3, "den": 1},
                          "ports": {"in": [{"dtype": "f64", "width": 1}], "out": []}}],
                     "connections": [
                         {"src": ["a", 0], "dst": ["g", 0], "dtype": "f64", "width": 1},
                         {"src": ["g", 0], "dst": ["y", 0], "dtype": "f64", "width": 1}]}}


def cyclic_doc():
    f1 = {"dtype": "f64", "width": 1}
    return {"name": "loopy", "base_step": {"num": 1, "den": 1}, "data_stores": [],
            "root": {"id": "loopy", "kind": "Subsystem", "params": {"mode": "normal"},
                     "ports": {"in": [], "out": []},
                     "children": [
                         {"id": "g1", "kind": "Gain", "params": {"gain": 0.5},
                          "sample_time": {"num": 1, "den": 1},
                          "ports": {"in": [f1], "out": [f1]}},
                         {"id": "g2", "kind": "Gain", "params": {"gain": 2.0},
                          "ports": {"in": [f1], "out": [f1]}},
                         {"id": "y", "kind": "Outport", "params": {"index": 0},
                          "ports": {"in": [f1], "out": []}}],
                     "connections": [
                         {"src": ["g1", 0], "dst": ["g2", 0], "dtype": "f64", "width": 1},
                         {"src": ["g2", 0], "dst": ["g1", 0], "dtype": "f64", "width": 1},
                         {"src": ["g2", 0], "dst": ["y", 0], "dtype": "f64", "width": 1}]}}


def split_rate_doc():
    """A user RateTransition u sized by its first reader r1 (period 2), whose
    second reader r2 (period 4) also takes the source a through an inserted
    RateTransition: q[u] = q[a]/2 on one path and q[a]/4 on the other."""
    f1 = {"dtype": "f64", "width": 1}

    def block(bid, kind, params, period, n_in, n_out):
        return {"id": bid, "kind": kind, "params": params,
                "sample_time": {"num": period, "den": 1},
                "ports": {"in": [f1] * n_in, "out": [f1] * n_out}}

    def wire(src, dst):
        return {"src": list(src), "dst": list(dst), "dtype": "f64", "width": 1}
    return {"name": "split", "base_step": {"num": 1, "den": 1}, "data_stores": [],
            "root": {"id": "split", "kind": "Subsystem", "params": {"mode": "normal"},
                     "ports": {"in": [], "out": []},
                     "children": [
                         block("a", "Constant", {"value": 1.0}, 1, 0, 1),
                         block("u", "RateTransition", {}, 2, 1, 1),
                         block("r1", "Gain", {"gain": 2.0}, 2, 1, 1),
                         block("r2", "Sum", {"signs": "++"}, 4, 2, 1),
                         block("y1", "Outport", {"index": 0}, 2, 1, 0),
                         block("y2", "Outport", {"index": 1}, 4, 1, 0)],
                     "connections": [
                         wire(("a", 0), ("u", 0)), wire(("u", 0), ("r1", 0)),
                         wire(("u", 0), ("r2", 0)), wire(("a", 0), ("r2", 1)),
                         wire(("r1", 0), ("y1", 0)), wire(("r2", 0), ("y2", 0))]}}


def self_gated_doc():
    """An enabled subsystem s whose only output drives its own control port."""
    f1 = {"dtype": "f64", "width": 1}
    sub = {"id": "s", "kind": "Subsystem", "params": {"mode": "enabled", "control_port": 0},
           "sample_time": {"num": 1, "den": 1}, "ports": {"in": [f1], "out": [f1]},
           "children": [
               {"id": "g", "kind": "Constant", "params": {"value": 1.0},
                "ports": {"in": [], "out": [f1]}},
               {"id": "o", "kind": "Outport", "params": {"index": 0},
                "ports": {"in": [f1], "out": []}}],
           "connections": [{"src": ["g", 0], "dst": ["o", 0], **f1}]}
    return {"name": "gated", "base_step": {"num": 1, "den": 1}, "data_stores": [],
            "root": {"id": "gated", "kind": "Subsystem", "params": {"mode": "normal"},
                     "ports": {"in": [], "out": []},
                     "children": [sub, {"id": "y", "kind": "Outport", "params": {"index": 0},
                                        "ports": {"in": [f1], "out": []}}],
                     "connections": [{"src": ["s", 0], "dst": ["s", 0], **f1},
                                     {"src": ["s", 0], "dst": ["y", 0], **f1}]}}


def two_rate_doc():
    """Two unconnected components, Constant@1 -> o1 and Constant@2 -> o2."""
    f1 = {"dtype": "f64", "width": 1}

    def const(bid, period):
        return {"id": bid, "kind": "Constant", "params": {"value": 1.0},
                "sample_time": {"num": period, "den": 1},
                "ports": {"in": [], "out": [f1]}}

    def out(bid, period, index):
        return {"id": bid, "kind": "Outport", "params": {"index": index},
                "sample_time": {"num": period, "den": 1},
                "ports": {"in": [f1], "out": []}}

    return {"name": "tworate", "base_step": {"num": 1, "den": 1}, "data_stores": [],
            "root": {"id": "tworate", "kind": "Subsystem", "params": {"mode": "normal"},
                     "ports": {"in": [], "out": []},
                     "children": [const("c1", 1), out("o1", 1, 0),
                                  const("c2", 2), out("o2", 2, 1)],
                     "connections": [
                         {"src": ["c1", 0], "dst": ["o1", 0], "dtype": "f64", "width": 1},
                         {"src": ["c2", 0], "dst": ["o2", 0], "dtype": "f64", "width": 1}]}}


# ---------------------------------------------------------------------------
# check


def test_check_clean_model():
    rc, out, _ = run_cli("check", MODELS / "multirate.json")
    assert rc == 0
    assert out.startswith("ok:")


def test_check_json_output():
    rc, out, _ = run_cli("check", MODELS / "climate.json", "--json")
    assert rc == 0
    assert json.loads(out) == {"violations": []}


def test_check_reports_violations(tmp_path):
    path = write_model(tmp_path, nonharmonic_doc())
    rc, out, _ = run_cli("check", path)
    assert rc == 1
    assert "HarmonicRates at a -> g" in out
    # the status reaches the shell through sys.exit
    assert run_process("check", path) == (rc, out, "")


@pytest.mark.parametrize("base", [BASE, MODULE], ids=["entry_point", "module"])
def test_cli_runs_as_a_process(base):
    assert run_process("check", MODELS / "multirate.json", base=base) == (
        0, "ok: model satisfies the translation requirements\n", "")


def test_missing_file_is_a_usage_error(tmp_path):
    rc, _, err = run_cli("check", tmp_path / "absent.json")
    assert rc == 2 and "error:" in err


def test_malformed_json_is_a_usage_error(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    rc, _, err = run_cli("check", path)
    assert rc == 2


def port_doc(out_id="y", memory=False):
    """Constant -> Outport `out_id`; with `memory`, also a DataStoreMemory
    that declares one in-port, fed by the Constant, and no out-port."""
    f1 = {"dtype": "f64", "width": 1}
    children = [{"id": "c", "kind": "Constant", "params": {"value": 1.0},
                 "ports": {"in": [], "out": [f1]}},
                {"id": out_id, "kind": "Outport", "params": {"index": 0},
                 "ports": {"in": [f1], "out": []}}]
    conns = [{"src": ["c", 0], "dst": [out_id, 0], "dtype": "f64", "width": 1}]
    if memory:
        children.append({"id": "m", "kind": "DataStoreMemory",
                         "params": {"store": "s", "initial": 0.0},
                         "ports": {"in": [f1], "out": []}})
        conns.append({"src": ["c", 0], "dst": ["m", 0], "dtype": "f64", "width": 1})
    return {"name": "pd", "base_step": {"num": 1, "den": 1}, "data_stores": ["s"],
            "root": {"id": "pd", "kind": "Subsystem", "params": {"mode": "normal"},
                     "ports": {"in": [], "out": []},
                     "children": children, "connections": conns}}


@pytest.mark.parametrize("doc, message", [
    (port_doc(memory=True), "m: DataStoreMemory must have no ports, or one in and one out"),
    (port_doc("y,1"), "id 'y,1' may not contain ',' or control characters"),
    (port_doc("y\n1"), "id 'y\\n1' may not contain ',' or control characters"),
    ({**port_doc(), "root": {**port_doc()["root"], "children": 1}},
     "pd.children: expected a list, got int"),
], ids=["store_in_port_only", "comma_id", "newline_id", "children_not_a_list"])
def test_load_defects_are_schema_errors(tmp_path, doc, message):
    rc, out, err = run_cli("check", write_model(tmp_path, doc))
    assert rc == 2 and out == ""
    assert err.endswith(f"{message}\n") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("cmd", ["codegen", "translate"])
@pytest.mark.parametrize("name, message", [
    ("a\0b", "model.name 'a\\x00b' may not contain control characters"),
    ("../../../x", "model.name '../../../x' may not contain '/'"),
], ids=["nul", "parent_dirs"])
def test_model_name_must_be_a_file_name(tmp_path, cmd, name, message):
    # the name is part of artifact file names: codegen's default directory
    # codegen_<name> and translate's <stage>_<name>.json
    work = tmp_path / "a" / "b" / "c"
    work.mkdir(parents=True)
    path = write_model(tmp_path, {**port_doc(), "name": name})
    rc, out, err = run_cli(cmd, path, cwd=work)
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "b", "bad.json", "c"]


@pytest.mark.parametrize("case", ["5001_digit_int", "not_utf8"])
def test_unparsable_model_file_is_a_schema_error(tmp_path, case):
    path = tmp_path / "bad.json"
    if case == "5001_digit_int":
        text = json.dumps(port_doc())
        path.write_text(text.replace('"value": 1.0', '"value": ' + "7" * 5001, 1))
    else:
        path.write_bytes(b"\xff\xfe{}")
    rc, out, err = (run_cli if case == "5001_digit_int" else run_process)("check", path)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1, err


def nested_text(levels):
    """A chain of `levels` nested normal subsystems, each passing its input
    through, as JSON text: json.dumps recurses once per nesting level."""
    f1 = {"dtype": "f64", "width": 1}

    def blk(bid, kind, ins=(), outs=(), **params):
        return json.dumps({"id": bid, "kind": kind, "params": params,
                           "ports": {"in": list(ins), "out": list(outs)}})

    def scope(head, children, wires):
        conns = json.dumps([{"src": [s, 0], "dst": [d, 0], **f1} for s, d in wires])
        return (f'{head[:-1]}, "children": [{", ".join(children)}], '
                f'"connections": {conns}}}')

    sub = blk("s", "Subsystem", [f1], [f1], mode="normal")
    ends = blk("i", "Inport", outs=[f1], index=0), blk("o", "Outport", ins=[f1], index=0)
    text = scope(sub, ends, [("i", "o")])
    for _ in range(levels - 1):
        text = scope(sub, [ends[0], text, ends[1]], [("i", "s"), ("s", "o")])
    const = blk("c", "Constant", outs=[f1], value=1.0)
    root = scope(blk("deep", "Subsystem", mode="normal"),
                 [const, text, blk("y", "Outport", ins=[f1], index=0)],
                 [("c", "s"), ("s", "y")])
    return f'{{"name": "deep", "base_step": {{"num": 1, "den": 1}}, "root": {root}}}'


def test_nesting_at_the_limit_verifies(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(nested_text(MAX_NESTING))
    rc, out, err = run_cli("verify", path)
    assert rc == 0 and out.startswith("PASS") and err == "", err


@pytest.mark.parametrize("cmd", ["check", "verify"])
@pytest.mark.parametrize("levels, message", [
    (MAX_NESTING + 1, f"subsystems nest more than {MAX_NESTING} levels deep"),
    (600, "JSON nested too deeply to parse"),
])
def test_nesting_beyond_the_limit_is_a_schema_error(tmp_path, cmd, levels, message):
    path = tmp_path / "deep.json"
    path.write_text(nested_text(levels))
    rc, out, err = run_cli(cmd, path)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.endswith(f"{message}\n")
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err[-500:]


@pytest.mark.parametrize("cmd", ["check", "translate", "schedule", "simulate-sil",
                                 "verify", "codegen", "export-dot"])
def test_depth_above_height_warns_once(tmp_path, cmd):
    args = [cmd, MODELS / "climate.json"]
    if cmd in ("translate", "codegen"):
        args += ["--out", tmp_path / "out"]
    rc, out, _ = run_cli(*args)
    assert run_cli(*args, "--depth", 99) == (
        rc, out, "warning: flatten depth 99 exceeds model height 1; clamped\n")
    if cmd == "check":
        assert run_process(*args, "--depth", 99) == (
            rc, out, "warning: flatten depth 99 exceeds model height 1; clamped\n")


def test_bad_depth_is_a_usage_error():
    rc, _, err = run_cli("check", MODELS / "multirate.json", "--depth", "-1")
    assert rc == 2 and "depth" in err
    assert run_process("check", MODELS / "multirate.json", "--depth", "-1") == (rc, "", err)


# ---------------------------------------------------------------------------
# translate


def test_translate_writes_artifacts(tmp_path):
    rc, out, _ = run_cli("translate", MODELS / "multirate.json",
                         "--out", tmp_path, "--emit-dot")
    assert rc == 0
    for stem in ("normalized_multirate.json", "provenance_multirate.json",
                 "sdfg_multirate.json", "report_multirate.json",
                 "sdfg_multirate.dot"):
        assert (tmp_path / stem).exists(), stem
    assert out.splitlines()[0] == "actors: 8"

    prov = json.loads((tmp_path / "provenance_multirate.json").read_text())
    assert prov["blocks"]["rt_0"] == "Product:0 -> UnitDelay:0"
    graph = json.loads((tmp_path / "sdfg_multirate.json").read_text())
    assert {a["id"] for a in graph["actors"]} >= {"Product", "rt_0", "Chart"}


def test_translate_json_mode(tmp_path):
    rc, out, _ = run_cli("translate", MODELS / "multirate.json",
                         "--out", tmp_path, "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["report"]["actors"] == 8
    assert set(doc["files"]) == {"normalized", "provenance", "graph", "report"}


def test_translate_refuses_unclean_models(tmp_path):
    path = write_model(tmp_path, nonharmonic_doc())
    rc, _, err = run_cli("translate", path, "--out", tmp_path)
    assert rc == 1
    assert "HarmonicRates" in err


# ---------------------------------------------------------------------------
# schedule


def test_schedule_output():
    rc, out, _ = run_cli("schedule", MODELS / "multirate.json")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "consistent; hyperperiod 4"
    assert "  q[Product] = 2" in lines
    assert lines[-1].startswith("firings: ")


def test_schedule_json_is_the_printed_schedule():
    rc, out, _ = run_cli("schedule", MODELS / "multirate.json", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["status"] == "consistent" and doc["hyperperiod"] == [4, 1]
    sched = doc["schedule"]
    assert set(sched) == {"firings", "peaks", "repetition"}
    _, text, _ = run_cli("schedule", MODELS / "multirate.json")
    lines = text.splitlines()
    assert lines[1:-1] == [f"  q[{a}] = {n}" for a, n in sorted(sched["repetition"].items())]
    assert lines[-1] == "firings: " + " ".join(sched["firings"])


def test_schedule_prints_what_runs_across_components(tmp_path):
    path = write_model(tmp_path, two_rate_doc(), "tworate.json")
    rc, out, _ = run_cli("schedule", path)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "consistent; hyperperiod 2"
    assert "  q[c1] = 2" in lines and "  q[c2] = 1" in lines
    firings = Counter(lines[-1].removeprefix("firings: ").split())
    rc, trace, _ = run_cli("simulate-sil", path, "--periods", 1)
    assert rc == 0
    rows = Counter(ln.split(",")[1] for ln in trace.splitlines()[1:])
    assert rows == {"o1": 2, "o2": 1}
    assert all(firings[o] == n for o, n in rows.items())


def test_self_loop_is_an_algebraic_loop(tmp_path):
    doc = cyclic_doc()
    root = doc["root"]
    root["children"] = [c for c in root["children"] if c["id"] != "g2"]
    root["connections"] = [
        {"src": ["g1", 0], "dst": ["g1", 0], "dtype": "f64", "width": 1},
        {"src": ["g1", 0], "dst": ["y", 0], "dtype": "f64", "width": 1}]
    rc, out, err = run_cli("simulate-mil", write_model(tmp_path, doc), "--steps", 3)
    assert (rc, out) == (1, "")
    assert err == "error: zero-delay cycle: g1 -> g1\n"


def test_leaf_gated_by_its_own_output_is_an_algebraic_loop(tmp_path):
    rc, out, err = run_cli("simulate-mil", write_model(tmp_path, self_gated_doc()),
                           "--steps", 3)
    assert (rc, out) == (1, "")
    assert err == "error: zero-delay cycle: s/g -> s/g\n"


@pytest.mark.parametrize("doc, status, detail", [
    (cyclic_doc, "deadlocked", "no fireable actor; blocked: g1, g2, y"),
    (split_rate_doc, "inconsistent",
     "channel ch_2 (('u', 0) -> ('r2', 0), rates 1/1) contradicts the balance equations"),
], ids=["deadlocked", "inconsistent"])
def test_schedule_verdict_output(tmp_path, doc, status, detail):
    path = write_model(tmp_path, doc())
    assert run_cli("schedule", path) == (1, f"{status}: {detail}\n", "")
    want = json.dumps({"status": status, "detail": detail}, indent=2) + "\n"
    assert run_cli("schedule", path, "--json") == (1, want, "")


@pytest.mark.parametrize("cmd", ["schedule", "verify", "codegen"])
def test_huge_period_ratio_is_refused_at_once(tmp_path, cmd):
    # throttle at a period of 10**30 passes every requirement rule, but
    # one iteration would fire 4 * 10**30 times
    doc = json.loads((MODELS / "transmission.json").read_text())
    throttle, = (b for b in doc["root"]["children"] if b["id"] == "throttle")
    throttle["sample_time"] = {"num": 10 ** 30, "den": 1}
    path = write_model(tmp_path, doc)
    assert run_cli("check", path)[0] == 0
    start = time.perf_counter()
    rc, out, err = run_cli(cmd, path, *(["--out", tmp_path / "out"] if cmd == "codegen" else []))
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (1, "")
    assert err == (f"error: actor high fires {10 ** 30} times in an iteration of "
                   f"{4 * 10 ** 30 + 5} firings; at most 1000000 are allowed\n")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# simulation and verification


def stimulus_csv(tmp_path, n=40):
    tr = Trace()
    tr.declare("throttle", "f64", 1)
    for k in range(n):
        tr.add("throttle", Fraction(k), (k * 13) % 100 * 1.0)
    path = tmp_path / "stim.csv"
    path.write_text(tr.to_csv())
    return path


def test_simulate_mil_prints_csv():
    rc, out, _ = run_cli("simulate-mil", MODELS / "multirate.json",
                         "--steps", 8)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "time,signal,value"
    assert "0,Out1,0.0" in lines


def test_simulate_sil_with_stimulus(tmp_path):
    stim = stimulus_csv(tmp_path)
    rc, out, _ = run_cli("simulate-sil", MODELS / "transmission.json",
                         "--steps", 40, "--stimulus", stim)
    assert rc == 0
    assert out.startswith("time,signal,value")
    assert any(ln.split(",")[1] == "torque" for ln in out.splitlines()[1:])


def test_simulate_sil_out_file(tmp_path):
    target = tmp_path / "trace.csv"
    rc, out, _ = run_cli("simulate-sil", MODELS / "multirate.json",
                         "--periods", 2, "--out", target)
    assert rc == 0
    assert f"wrote {target}" in out
    assert target.read_text().startswith("time,signal,value")


@pytest.mark.parametrize("cmd", ["simulate-mil", "simulate-sil"])
def test_simulate_json_is_the_csv_trace(cmd):
    args = (cmd, MODELS / "multirate.json", "--steps", 8)
    rc, out, _ = run_cli(*args, "--json")
    assert rc == 0
    tr = Trace.from_json(json.loads(out))
    assert sorted(tr.samples) == ["Out1", "Out2"]
    assert tr.to_csv() == run_cli(*args)[1]


def test_verify_names_the_first_divergence(monkeypatch):
    run_sil = cli.run_sil

    def perturbed(*args):
        tr = run_sil(*args)
        t, v = tr.samples["Out2"][2]
        tr.samples["Out2"][2] = (t, v + 1.0)
        return tr

    monkeypatch.setattr(cli, "run_sil", perturbed)
    rc, out, _ = run_cli("verify", MODELS / "multirate.json", "--steps", 16)
    assert rc == 1
    assert out == ("FAIL: {'signal': 'Out2', 'time': '8', 'index': 2, "
                   "'a': '1.0', 'b': '2.0'}\n")


def test_verify_passes_on_fixtures(tmp_path):
    stim = stimulus_csv(tmp_path)
    rc, out, _ = run_cli("verify", MODELS / "transmission.json",
                         "--steps", 40, "--stimulus", stim)
    assert rc == 0
    assert out.startswith("PASS:")


@pytest.mark.parametrize("cmd", ["simulate-sil", "verify"])
@pytest.mark.parametrize("row, line", [("0,throttle", "line 3"),
                                       ("1,throttle,abc", "line 3")],
                         ids=["missing_value", "non_numeric"])
def test_malformed_stimulus_is_a_schema_error(tmp_path, cmd, row, line):
    stim = tmp_path / "bad.csv"
    stim.write_text(f"time,signal,value\n0,throttle,1.0\n{row}\n")
    rc, out, err = run_cli(cmd, MODELS / "transmission.json",
                           "--steps", 4, "--stimulus", stim)
    assert rc == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert line in err


def gain_doc(dtype):
    """u -> Gain 2 -> y on `dtype`."""
    s = {"dtype": dtype, "width": 1}
    return {"name": "gain2", "base_step": {"num": 1, "den": 1}, "data_stores": [],
            "root": {"id": "gain2", "kind": "Subsystem", "params": {"mode": "normal"},
                     "ports": {"in": [], "out": []},
                     "children": [
                         {"id": "u", "kind": "Inport", "params": {"index": 0},
                          "sample_time": {"num": 1, "den": 1},
                          "ports": {"in": [], "out": [s]}},
                         {"id": "g", "kind": "Gain", "params": {"gain": 2},
                          "ports": {"in": [s], "out": [s]}},
                         {"id": "y", "kind": "Outport", "params": {"index": 0},
                          "ports": {"in": [s], "out": []}}],
                     "connections": [
                         {"src": ["u", 0], "dst": ["g", 0], "dtype": dtype, "width": 1},
                         {"src": ["g", 0], "dst": ["y", 0], "dtype": dtype, "width": 1}]}}


@pytest.mark.parametrize("cmd", ["simulate-mil", "simulate-sil", "verify"])
@pytest.mark.parametrize("rows, message", [
    ("0,u,2147483648\n1,u,1", "trace CSV line 2: i32 literal out of range: 2147483648"),
    ("0,u,1\n1,u,3\n0,u,7", "trace CSV line 4: a second sample of 'u' at t=0"),
], ids=["i32_out_of_range", "repeated_row"])
def test_stimulus_rows_are_checked_with_their_line(tmp_path, cmd, rows, message):
    path = write_model(tmp_path, gain_doc("i32"))
    stim = tmp_path / "stim.csv"
    stim.write_text(f"time,signal,value\n{rows}\n")
    rc, out, err = run_cli(cmd, path, "--steps", 2, "--stimulus", stim)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("cmd", ["simulate-mil", "simulate-sil", "verify", "codegen"])
def test_non_utf8_stimulus_is_a_schema_error(tmp_path, cmd):
    stim = tmp_path / "bad.csv"
    stim.write_bytes(b"\xff\xfetime,signal,value\n")
    extra = ["--out", tmp_path / "out"] if cmd == "codegen" else []
    rc, out, err = run_cli(cmd, MODELS / "transmission.json", "--steps", 4,
                           "--stimulus", stim, *extra)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {stim}: ") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("cmd, flag, value", [
    ("verify", "--steps", "-4"),
    ("simulate-sil", "--periods", "0"),
    ("codegen", "--periods", "0"),
    ("simulate-mil", "--steps", "0"),
], ids=["verify_negative_steps", "sil_zero_periods", "codegen_zero_periods",
        "mil_zero_steps"])
def test_counts_must_be_positive(tmp_path, cmd, flag, value):
    extra = ["--out", tmp_path / "out"] if cmd == "codegen" else []
    rc, out, err = run_cli(cmd, MODELS / "transmission.json", flag, value, *extra)
    assert rc == 2
    assert out == ""
    assert "positive integer" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, message", [
    ("nan", "tolerance must be >= 0, got nan"),
    ("abc", "expected a number, got 'abc'"),
    ("-1", "tolerance must be >= 0, got -1"),
])
def test_tolerance_must_be_a_number_at_least_zero(value, message):
    rc, out, err = run_cli("verify", MODELS / "transmission.json", "--tol", value)
    assert rc == 2 and out == ""
    assert f"argument --tol: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("cmd", ["schedule", "simulate-sil", "verify", "codegen"])
def test_each_run_solves_the_vector_once(tmp_path, monkeypatch, capsys, cmd):
    from sdflow import cli, sdf_core
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # the vector is solved by the walk that builds the graph's index
    monkeypatch.setattr(sdf_core, "_Index", counted("index", sdf_core._Index))
    monkeypatch.setattr(sdf_core, "build_schedule",
                        counted("build_schedule", sdf_core.build_schedule))
    args = [cmd, str(MODELS / "multirate_rt.json")]
    if cmd == "codegen":
        args += ["--out", str(tmp_path / "bundle")]
    assert cli.main(args) == 0
    assert calls == {"index": 1, "build_schedule": 1}
    assert capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["translate", "schedule", "simulate-sil", "verify",
                                 "codegen", "export-dot"])
def test_each_run_flattens_once(tmp_path, monkeypatch, capsys, cmd):
    from sdflow import cli, normalizer, validator
    calls = []
    flatten = normalizer._flatten

    def counted(m, depth):
        calls.append(m.name)
        return flatten(m, depth)

    for mod in (normalizer, validator):
        monkeypatch.setattr(mod, "_flatten", counted)
    args = [cmd, str(MODELS / "climate.json")]
    if cmd in ("translate", "codegen"):
        args += ["--out", str(tmp_path / "out")]
    assert cli.main(args) == 0
    assert calls == ["climate"]
    assert capsys.readouterr().out


def test_verify_json_mode():
    rc, out, _ = run_cli("verify", MODELS / "climate.json", "--steps", 12,
                         "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["divergence"] is None


# ---------------------------------------------------------------------------
# codegen and export


def test_codegen_writes_bundle(tmp_path):
    outdir = tmp_path / "bundle"
    rc, out, _ = run_cli("codegen", MODELS / "multirate_rt.json",
                         "--periods", 4, "--out", outdir, "--json")
    assert rc == 0
    files = json.loads(out)["files"]
    assert len(files) == 4
    assert (outdir / "build.sh").exists()
    assert (outdir / "sdfg_multirate_rt.c").exists()


def test_codegen_no_asserts_flag(tmp_path):
    outdir = tmp_path / "bundle"
    rc, _, _ = run_cli("codegen", MODELS / "multirate_rt.json",
                       "--periods", 1, "--out", outdir, "--no-asserts")
    assert rc == 0
    assert "-DSDF_NO_ASSERT" in (outdir / "build.sh").read_text()


def test_export_dot_stdout():
    rc, out, _ = run_cli("export-dot", MODELS / "multirate.json")
    assert rc == 0
    assert out.startswith('digraph "multirate"')
    assert '"rt_0"' in out


def test_output_is_utf8_whatever_the_locale(tmp_path):
    # under an ASCII locale and stdout encoding, the DOT's delay glyph and
    # ids such as y° reach stdout, stderr and every file as UTF-8, and a
    # path given in bytes that are not UTF-8 is echoed as those bytes
    f1 = [blk("c", "Constant", {"value": 1.5}, st=1, outs=[F1])]
    degree = write_model(tmp_path, model_doc(
        f1 + [blk("y°", "Outport", {"index": 0}, ins=[F1])], [conn(("c", 0), ("y°", 0))],
        name="deg"), "deg.json")
    loop = write_model(tmp_path, model_doc(
        [blk("g°", "Gain", {"gain": 1.0}, st=1, ins=[F1], outs=[F1]),
         blk("y", "Outport", {"index": 0}, ins=[F1])],
        [conn(("g°", 0), ("g°", 0)), conn(("g°", 0), ("y", 0))], name="loop"), "loop.json")
    src = str(Path(cli.__file__).parents[1])  # the runs below change directory
    env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
           "PYTHONIOENCODING": "ascii",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for k, args in enumerate([
            ("export-dot", MODELS / "multirate_rt.json"),
            ("translate", MODELS / "multirate_rt.json", "--emit-dot", "--out", "out"),
            ("simulate-sil", degree, "--periods", 2),
            ("codegen", degree, "--periods", 2, "--out", "out"),
            ("simulate-mil", loop, "--steps", 2),
            ("simulate-sil", MODELS / "multirate.json", "--periods", 1,
             "--out", os.fsdecode(b"x\xff.csv"))]):
        here, there = tmp_path / f"in_{k}", tmp_path / f"proc_{k}"
        here.mkdir()
        there.mkdir()
        rc, out, err = run_cli(*args, cwd=here)
        p = subprocess.run(BASE + [str(a) for a in args], cwd=there, env=env,
                           capture_output=True, timeout=120)
        assert (p.returncode, p.stdout, p.stderr) == (
            rc, out.encode("utf-8", "surrogateescape"), err.encode("utf-8")), args
        files = sorted(f.relative_to(here) for f in here.rglob("*") if f.is_file())
        assert files == sorted(f.relative_to(there) for f in there.rglob("*") if f.is_file())
        for f in files:
            assert (there / f).read_bytes() == (here / f).read_bytes(), f
    assert "●" in (tmp_path / "in_1" / "out" / "sdfg_multirate_rt.dot").read_text("utf-8")
    assert "y°" in (tmp_path / "in_3" / "out" / "sdfg_deg.c").read_text("utf-8")
    assert "g° -> g°" in run_cli("simulate-mil", loop)[2]
    assert (tmp_path / "proc_5" / os.fsdecode(b"x\xff.csv")).exists()

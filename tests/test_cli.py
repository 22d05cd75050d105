"""End-to-end runs of the command line tool in a subprocess."""

import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from sdflow import Trace

MODELS = Path(__file__).parent / "models"

SDFLOW = shutil.which("sdflow")
BASE = [SDFLOW] if SDFLOW else [sys.executable, "-m", "sdflow.cli"]


def run_cli(*args, cwd=None):
    p = subprocess.run(BASE + [str(a) for a in args],
                       capture_output=True, text=True, cwd=cwd, timeout=120)
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


def test_missing_file_is_a_usage_error(tmp_path):
    rc, _, err = run_cli("check", tmp_path / "absent.json")
    assert rc == 2 and "error:" in err


def test_malformed_json_is_a_usage_error(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    rc, _, err = run_cli("check", path)
    assert rc == 2


def test_bad_depth_is_a_usage_error():
    rc, _, err = run_cli("check", MODELS / "multirate.json", "--depth", "-1")
    assert rc == 2 and "depth" in err


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


def test_schedule_flags_deadlock(tmp_path):
    path = write_model(tmp_path, cyclic_doc())
    rc, out, _ = run_cli("schedule", path)
    assert rc == 1
    assert out.startswith("deadlocked:")


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


@pytest.mark.parametrize("cmd", ["simulate-sil", "verify", "codegen"])
def test_each_run_solves_the_vector_once(tmp_path, monkeypatch, capsys, cmd):
    from sdflow import cli, codegen, interpreter, sdf_core
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sdf_core, "repetition_vector",
                        counted("repetition_vector", sdf_core.repetition_vector))
    build = counted("build_schedule", sdf_core.build_schedule)
    for mod in (sdf_core, interpreter, codegen):
        monkeypatch.setattr(mod, "build_schedule", build)
    args = [cmd, str(MODELS / "multirate_rt.json")]
    if cmd == "codegen":
        args += ["--out", str(tmp_path / "bundle")]
    assert cli.main(args) == 0
    assert calls == {"repetition_vector": 1, "build_schedule": 1}
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
    assert len(files) == 8
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

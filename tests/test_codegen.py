"""C source emission: bundle layout, compile-and-run equivalence, and the
refusal cases.  Compilation tests shell out to cc via build.sh."""

import os
import re
import shutil
import subprocess
from fractions import Fraction

import pytest

from sdflow import (SchemaError, SdflowError, SignalTypeError, Trace, UnsupportedKindError,
                    build_schedule, compare_traces, emit_bundle, load_sdfg,
                    normalize, run_mil, run_sil, save_sdfg, translate)
from conftest import F1, F2, I1, blk, c_trace, compile_and_run, conn, hostile_ids_model, model


def graph_of(m):
    g, _ = translate(normalize(m))
    return g


# ---------------------------------------------------------------------------
# bundle layout


def test_bundle_manifest(multirate_rt):
    b = emit_bundle(graph_of(multirate_rt), periods=4)
    assert b.name == "multirate_rt"
    assert sorted(b.files) == [
        "build.sh", "runtime/sdf_runtime.c", "runtime/sdf_runtime.h",
        "sdfg_multirate_rt.c"]
    for text in b.files.values():
        assert text.endswith("\n")


def test_runtime_is_the_same_in_every_bundle(multirate_rt, transmission):
    a = emit_bundle(graph_of(multirate_rt), periods=4).files
    b = emit_bundle(graph_of(transmission), periods=1, asserts=False).files
    runtime = sorted(f for f in a if f.startswith("runtime/"))
    assert runtime == sorted(f for f in b if f.startswith("runtime/")) != []
    assert all(a[f] == b[f] for f in runtime)
    assert a[f"sdfg_{multirate_rt.name}.c"] != b[f"sdfg_{transmission.name}.c"]


def c_functions(src: str, end: str, public: bool = False) -> set[str]:
    """The file-scope functions `src` declares (end ";") or defines (end
    "{"); with `public`, only those that are not static."""
    src = re.sub(r"/\*.*?\*/", "", src, flags=re.S)
    start = "(?!static)" if public else ""
    return set(re.findall(rf"^{start}[a-z][\w *]*?\b(\w+)\([^)]*\)\s*{re.escape(end)}",
                          src, re.M))


def test_every_runtime_declaration_is_defined(multirate_rt, climate):
    # what sdf_runtime.h declares, the runtime or each model unit defines,
    # and neither defines an undeclared public function but main
    lone = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1])], [], name="lone")
    bundles = [emit_bundle(graph_of(m), periods=2, asserts=a)
               for m, a in ((multirate_rt, True), (climate, False), (lone, True))]
    runtime = bundles[0].files
    declared = c_functions(runtime["runtime/sdf_runtime.h"], ";")
    defined = c_functions(runtime["runtime/sdf_runtime.c"], "{")
    assert defined == {"sdf_queue_push_n", "sdf_queue_pop", "sdf_record", "main"}
    for b in bundles:
        unit = b.files[f"sdfg_{b.name}.c"]
        assert declared == (defined | c_functions(unit, "{", public=True)) - {"main"}
        assert "sdfg_init" not in unit and "channels" not in unit


@pytest.mark.parametrize("name", ["transmission", "climate"])
def test_one_time_table_per_outport_period(name, request):
    g = graph_of(request.getfixturevalue(name))
    src = emit_bundle(g, periods=2).files[f"sdfg_{g.name}.c"]
    tables = re.findall(r"static const char \*const tm_\w+\[", src)
    assert len(tables) == len({a.period for a in g.actors if a.kind == "Outport"})


def test_model_unit_defines_one_function_per_64_actors():
    # 800 Gains whose periods alternate, so a RateTransition sits between
    # each pair: 1601 actors
    n = 800
    blocks = [blk("in", "Inport", {"index": 0}, st=1, outs=[F1])]
    blocks += [blk(f"g{k}", "Gain", {"gain": 1.5}, st=1 + k % 2, ins=[F1], outs=[F1])
               for k in range(n)]
    blocks.append(blk("out", "Outport", {"index": 0}, ins=[F1]))
    ids = [b["id"] for b in blocks]
    g = graph_of(model(blocks, [conn((u, 0), (v, 0)) for u, v in zip(ids, ids[1:])],
                       name="chain"))
    assert len(g.actors) == 2 * n + 1
    files = emit_bundle(g, periods=2).files
    src = "".join(text for f, text in files.items()
                  if f.endswith(".c") and not f.startswith("runtime/"))
    defined = [ln for ln in src.splitlines() if re.match(r"[a-z].*\)\s*\{$", ln)]
    assert len(defined) <= -(-len(g.actors) // 64) + 6, defined


def test_bundle_write_marks_script_executable(multirate_rt, tmp_path):
    b = emit_bundle(graph_of(multirate_rt), periods=1)
    b.write(str(tmp_path))
    assert os.access(tmp_path / "build.sh", os.X_OK)
    assert (tmp_path / "runtime" / "sdf_runtime.h").exists()


def test_emission_is_deterministic(multirate_rt):
    g = graph_of(multirate_rt)
    assert emit_bundle(g, periods=3).files == emit_bundle(g, periods=3).files


def test_no_asserts_flag():
    m = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("c", 0), ("y", 0))])
    on = emit_bundle(graph_of(m), asserts=True).files["build.sh"]
    off = emit_bundle(graph_of(m), asserts=False).files["build.sh"]
    assert "-DSDF_NO_ASSERT" not in on
    for script in (on, off):
        compiles = [ln.split() for ln in script.splitlines() if " -c " in ln]
        assert len(compiles) == 2
        for words in compiles:
            assert {"-std=c99", "-O2", "-ffp-contract=off"} <= set(words)
            assert ("-DSDF_NO_ASSERT" in words) == (script is off)


def test_rejected_graphs(climate):
    g, _ = translate(normalize(climate, depth=0))
    with pytest.raises(UnsupportedKindError, match="subsystem actors"):
        emit_bundle(g)
    with pytest.raises(SdflowError, match="at least 1"):
        emit_bundle(graph_of(climate), periods=0)
    # the schedule interpreter refuses the same counts instead of running none
    for periods in (0, -3):
        with pytest.raises(SdflowError, match="at least 1"):
            run_sil(graph_of(climate), periods=periods)


def test_stimulus_spec_must_match(transmission):
    st = Trace()
    st.declare("throttle", "i32", 1)
    st.add("throttle", Fraction(0), 1)
    with pytest.raises(SignalTypeError):
        emit_bundle(graph_of(transmission), periods=1, stimulus=st)


# ---------------------------------------------------------------------------
# build.sh


def run_build(workdir, *shell, env=None, **kw):
    cmd = list(shell or ["sh"]) + ["build.sh"]
    return subprocess.run(cmd, cwd=workdir, env=env and {**os.environ, **env}, **kw)


def test_a_failing_unit_fails_the_build(multirate_rt, tmp_path):
    b = emit_bundle(graph_of(multirate_rt), periods=1)
    b.write(str(tmp_path))
    with open(tmp_path / "sdfg_multirate_rt.c", "a") as f:
        f.write("#error injected failure\n")
    p = run_build(tmp_path, capture_output=True, text=True)
    assert p.returncode != 0
    assert "injected failure" in p.stderr
    assert not (tmp_path / "sdfg_multirate_rt").exists()


def marking_cc(tmp_path, slow):
    """A CC that leaves <unit>.start and <unit>.done in tmp_path/marks around
    each compile, sleeping first when it compiles `slow`."""
    marks = tmp_path / "marks"
    marks.mkdir()
    cc = tmp_path / "marking-cc"
    cc.write_text(f"""#!/bin/sh
unit=
for a; do case $a in *.c) unit=${{a##*/}};; esac; done
[ -n "$unit" ] || exec cc "$@"
: > "{marks}/$unit.start"
[ "$unit" != {slow} ] || sleep 0.3
cc "$@"
rc=$?
: > "{marks}/$unit.done"
exit $rc
""")
    cc.chmod(0o755)
    return str(cc), marks


@pytest.mark.parametrize("fail", [False, True], ids=["success", "failure"])
def test_build_returns_only_after_every_compiler(multirate_rt, tmp_path, fail):
    bundle = tmp_path / "bundle"
    emit_bundle(graph_of(multirate_rt), periods=1).write(str(bundle))
    if fail:
        with open(bundle / "sdfg_multirate_rt.c", "a") as f:
            f.write("#error injected failure\n")
    cc, marks = marking_cc(tmp_path, slow="sdf_runtime.c")
    # no pipes: a compiler left running would hold them open past the
    # script's exit and hide it
    p = run_build(bundle, env={"CC": cc},
                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    started = {f.stem for f in marks.glob("*.start")}
    done = {f.stem for f in marks.glob("*.done")}
    assert (p.returncode != 0) == fail
    assert len(started) == 2 and done == started
    assert (bundle / "sdfg_multirate_rt").exists() != fail


def test_build_compiles_every_unit_once_and_links_every_object(multirate_rt, tmp_path):
    bundle = tmp_path / "bundle"
    b = emit_bundle(graph_of(multirate_rt), periods=1)
    b.write(str(bundle))
    log = tmp_path / "cc.log"
    cc = tmp_path / "logging-cc"
    cc.write_text(f'#!/bin/sh\necho "$@" >> "{log}"\nexec cc "$@"\n')
    cc.chmod(0o755)
    assert run_build(bundle, env={"CC": str(cc)}).returncode == 0
    calls = [ln.split() for ln in log.read_text().splitlines()]
    compiles = [w for w in calls if "-c" in w]
    units = sorted(w[w.index("-c") + 1] for w in compiles)
    assert units == sorted(f for f in b.files if f.endswith(".c"))
    objects = sorted(w[w.index("-o") + 1] for w in compiles)
    assert objects == [u[:-2] + ".o" for u in units]
    [link] = [w for w in calls if "-c" not in w]
    assert sorted(w for w in link if w.endswith(".o")) == objects
    assert link[link.index("-o") + 1] == "sdfg_multirate_rt"


def test_cc_with_arguments(multirate_rt, tmp_path):
    g = graph_of(multirate_rt)
    ref = run_sil(g, 4)
    emit_bundle(g, periods=4).write(str(tmp_path))
    assert run_build(tmp_path, env={"CC": "cc -pipe"}).returncode == 0
    out = subprocess.run([str(tmp_path / "sdfg_multirate_rt")],
                         capture_output=True, text=True, check=True).stdout
    assert Trace.from_csv(out, ref.specs).to_csv() == ref.to_csv()


def test_build_script_is_posix(multirate_rt, tmp_path):
    shells = [s for s in (["dash"], ["bash", "--posix"]) if shutil.which(s[0])]
    if not shells:
        pytest.skip("neither dash nor bash is installed")
    b = emit_bundle(graph_of(multirate_rt), periods=4)
    outs = []
    for shell in shells:
        d = tmp_path / shell[0]
        b.write(str(d))
        assert run_build(d, "sh", "-n").returncode == 0
        assert run_build(d, *shell, capture_output=True).returncode == 0
        outs.append(subprocess.run([str(d / "sdfg_multirate_rt")],
                                   capture_output=True, check=True).stdout)
    assert outs[0] and outs.count(outs[0]) == len(outs)


# ---------------------------------------------------------------------------
# compile and run


def ramp(name, period, n, fn):
    st = Trace()
    st.declare(name, "f64", 1)
    for k in range(n):
        st.add(name, Fraction(k) * period, fn(k))
    return st


def test_compiled_multirate_matches_interpreter(multirate_rt, tmp_path):
    g = graph_of(multirate_rt)
    periods = 8
    ref = run_sil(g, periods)
    b = emit_bundle(g, periods=periods)
    got = c_trace(b, tmp_path, ref.specs)
    c = compare_traces(ref, got)
    assert c.ok and c.max_rel == 0.0


def test_compiled_climate_gating_matches(climate, tmp_path):
    g = graph_of(climate)
    stim = ramp("setpoint", Fraction(1), 24, lambda k: 20.0)
    stim.declare("sensor", "f64", 1)
    for k in range(24):
        stim.add("sensor", Fraction(k), 14.0 + (k * 3) % 12)
    sched = build_schedule(g)
    periods = int(Fraction(24) / sched.span)
    ref = run_sil(g, periods, stim, schedule=sched)
    got = c_trace(emit_bundle(g, periods=periods, stimulus=stim, schedule=sched),
                  tmp_path, ref.specs)
    assert compare_traces(ref, got).ok


def test_compiled_i32_wraps(tmp_path):
    m = model([blk("a", "Constant", {"value": 2147483647}, st=1, outs=[I1]),
               blk("b", "Constant", {"value": -2147483648}, st=1, outs=[I1]),
               blk("s", "Sum", {"signs": "+-"}, ins=[I1, I1], outs=[I1]),
               blk("d", "UnitDelay", {"initial": 1}, ins=[I1], outs=[I1]),
               blk("y", "Outport", {"index": 0}, ins=[I1])],
              [conn(("a", 0), ("s", 0), I1), conn(("b", 0), ("s", 1), I1),
               conn(("s", 0), ("d", 0), I1), conn(("d", 0), ("y", 0), I1)],
              name="wrap")
    g = graph_of(m)
    ref = run_sil(g, 3)
    # INT_MAX - INT_MIN wraps to -1
    assert [v for _, v in ref.samples["y"]] == [1, -1, -1]
    got = c_trace(emit_bundle(g, periods=3), tmp_path, ref.specs)
    assert compare_traces(ref, got).ok


def test_hostile_ids_reach_c_unchanged(tmp_path):
    m = hostile_ids_model()
    g = graph_of(m)
    assert {"s*/g", "p/*q"} <= {a.id for a in g.actors}
    ref = run_sil(g, 3)
    # compile_and_run builds with -Werror, so -Wcomment would fail it
    got = c_trace(emit_bundle(g, periods=3), tmp_path, ref.specs)
    assert sorted(got.samples) == ["sdf_record", "y??=x"]
    assert got.to_csv() == ref.to_csv()


def test_unstimulated_inport_reads_zero(transmission, tmp_path):
    g = graph_of(transmission)
    periods = 2
    ref = run_sil(g, periods)
    got = c_trace(emit_bundle(g, periods=periods), tmp_path, ref.specs)
    assert compare_traces(ref, got).ok


def test_empty_model_prints_header_only(tmp_path):
    c = blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1])
    # an unread Gain, and no channel at all
    for k, m in enumerate([model([c, blk("g", "Gain", {"gain": 1.0}, ins=[F1], outs=[F1])],
                                 [conn(("c", 0), ("g", 0))], name="mute"),
                           model([c], [], name="mute")]):
        out = compile_and_run(emit_bundle(graph_of(m), periods=2), tmp_path / str(k))
        assert out == "time,signal,value\n"


@pytest.mark.parametrize("perturb, fires", [
    (lambda c, g, y: [c, g], "queues[i]->len == queues[i]->delay"),
    (lambda c, g, y: [g, c, y], "keep < n && q->len >= n"),
    (lambda c, g, y: [c, c, g, y], "q->len + n <= q->cap"),
], ids=["sdfg_check", "underflow", "overflow"])
def test_queue_checks_fire(tmp_path, perturb, fires):
    # the schedule c, g, y of a chain run with one thing changed: the
    # Outport's firing dropped, the Gain before its producer, or the
    # Constant fired twice into its one-token queue
    m = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("g", "Gain", {"gain": 2.0}, ins=[F1], outs=[F1]),
               blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("c", 0), ("g", 0)), conn(("g", 0), ("y", 0))], name="chk")
    g = graph_of(m)
    b = emit_bundle(g, periods=2)
    unit = "sdfg_chk.c"
    pos = {a.id: k for k, a in enumerate(g.actors)}
    array = r"static const int schedule\[\d+\] = \{[^}]*\};"
    assert re.findall(array, b.files[unit]) == [
        f"static const int schedule[3] = {{\n    {pos['c']}, {pos['g']}, {pos['y']},\n}};"]
    assert compile_and_run(b, tmp_path / "ok") == "time,signal,value\n0,y,2\n1,y,2\n"
    order = perturb(pos["c"], pos["g"], pos["y"])
    b.files[unit] = re.sub(array, f"static const int schedule[] = {{ {str(order)[1:-1]} }};",
                           b.files[unit])
    b.write(str(tmp_path / "bad"))
    build = run_build(tmp_path / "bad", env={"CC": "cc -Wall -Wextra -pedantic -Werror"},
                      capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    run = subprocess.run([str(tmp_path / "bad" / "sdfg_chk")], capture_output=True, text=True)
    assert run.returncode != 0
    assert fires in run.stderr


def test_actor_with_no_out_channel_only_pops(tmp_path):
    # a Chart whose one output no channel reads: the graph gate still
    # checks its params, and C emits none of them
    chart = {"states": ["a", "b"], "initial": "a",
             "transitions": [{"from": "a", "to": "b", "input": 0, "op": ">", "value": 0.5}],
             "outputs": {"a": [0.0], "b": [1.0]}}
    m = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("ch", "Chart", chart, st=1, ins=[F1], outs=[F1]),
               blk("y", "Outport", {"index": 0}, st=1, ins=[F1])],
              [conn(("c", 0), ("ch", 0)), conn(("c", 0), ("y", 0))], name="sink")
    doc = save_sdfg(graph_of(m))
    act = next(a for a in doc["actors"] if a["kind"] == "Chart")
    assert len(act["ports"]["out"]) == 1
    assert not [c for c in doc["channels"] if c["src"][0] == "ch"]
    act["state"]["params"]["transitions"][0]["op"] = "=~"
    with pytest.raises(SchemaError, match=r"actor ch: Chart transition 0 op"):
        load_sdfg(doc)
    act["state"]["params"]["transitions"][0]["op"] = ">"
    g = load_sdfg(doc)
    b = emit_bundle(g, periods=3)
    src = b.files["sdfg_sink.c"]
    body = src.split("/* Chart ch */", 1)[1].split("break;", 1)[0]
    # no state (it would be a static of this case), no compute, no
    # transition: one buffer and its pop
    assert [ln.split("(")[0].strip() for ln in body.splitlines() if ln.strip()] == \
        ["double u0[1];", "sdf_queue_pop"]
    ref = run_sil(g, 3)
    got = c_trace(b, tmp_path, ref.specs)
    assert compare_traces(ref, got).ok and got.to_csv() == ref.to_csv()


def test_partly_unconsumed_chart_is_gated_at_load(tmp_path):
    # a two-output Chart whose output 0 no channel reads: every param is
    # still checked, and the live output runs the transitions
    chart = {"states": ["a", "b"], "initial": "a",
             "transitions": [{"from": "a", "to": "b", "input": 0, "op": ">", "value": 0.5}],
             "outputs": {"a": [0.0, 2.0], "b": [1.0, 3.0]}}
    m = model([blk("c", "Constant", {"value": 1.0}, st=1, outs=[F1]),
               blk("ch", "Chart", chart, st=1, ins=[F1], outs=[F1, F1]),
               blk("y", "Outport", {"index": 0}, st=1, ins=[F1])],
              [conn(("c", 0), ("ch", 0)), conn(("ch", 1), ("y", 0))], name="part")
    doc = save_sdfg(graph_of(m))
    act = next(a for a in doc["actors"] if a["kind"] == "Chart")
    assert [c["src"] for c in doc["channels"] if c["src"][0] == "ch"] == [["ch", 1]]
    act["state"]["params"]["transitions"][0]["op"] = "=~"
    with pytest.raises(SchemaError, match=r"actor ch: Chart transition 0 op"):
        load_sdfg(doc)
    act["state"]["params"]["transitions"][0]["op"] = ">"
    g = load_sdfg(doc)
    ref = run_sil(g, 3)
    assert [v for _, v in ref.samples["y"]] == [2.0, 3.0, 3.0]
    got = c_trace(emit_bundle(g, periods=3), tmp_path, ref.specs)
    assert got.to_csv() == ref.to_csv()


def _port(dtype="f64", event=False):
    return {"dtype": dtype, "width": 1, "event": event}


def _actor(aid, kind, params, period, ins=(), outs=()):
    return {"id": aid, "kind": kind, "ports": {"in": list(ins), "out": list(outs)},
            "state": {"params": params, "period": [period, 1]}}


def _channel(src, dst, rate_dst, dtype="f64"):
    return {"id": f"{src[0]}->{dst[0]}", "src": list(src), "dst": list(dst),
            "rate_src": 1, "rate_dst": rate_dst, "delay": 0,
            "dtype": dtype, "width": 1, "initial_values": []}


def test_multi_token_reads_keep_the_first_data_token(tmp_path):
    # Gains at period 2 read two period-1 tokens per firing: g keeps the
    # first, and h runs only when both of its two event tokens are true
    doc = {"name": "multi", "actors": [
        _actor("u", "Inport", {"index": 0}, 1, outs=[_port()]),
        _actor("e", "Inport", {"index": 1}, 1, outs=[_port("bool")]),
        _actor("g", "Gain", {"gain": 10.0}, 2, ins=[_port()], outs=[_port()]),
        _actor("h", "Gain", {"gain": 10.0}, 2, ins=[_port(), _port("bool", True)],
               outs=[_port()]),
        _actor("yg", "Outport", {"index": 0}, 2, ins=[_port()]),
        _actor("yh", "Outport", {"index": 1}, 2, ins=[_port()]),
    ], "channels": [
        _channel(("u", 0), ("g", 0), 2), _channel(("u", 0), ("h", 0), 2),
        _channel(("e", 0), ("h", 1), 2, "bool"),
        _channel(("g", 0), ("yg", 0), 1), _channel(("h", 0), ("yh", 0), 1),
    ]}
    g = load_sdfg(doc)
    stim = ramp("u", 1, 8, lambda k: float(k + 1))          # 1 .. 8
    stim.declare("e", "bool", 1)
    for k, bit in enumerate([1, 1, 0, 1, 1, 0, 1, 1]):
        stim.add("e", k, bool(bit))
    ref = run_sil(g, 4, stim)
    # reads [1,2] [3,4] [5,6] [7,8]; events [1,1] [0,1] [1,0] [1,1]
    assert ref.samples["yg"] == [(0, 10.0), (2, 30.0), (4, 50.0), (6, 70.0)]
    assert ref.samples["yh"] == [(0, 10.0), (2, 10.0), (4, 10.0), (6, 70.0)]
    got = c_trace(emit_bundle(g, periods=4, stimulus=stim), tmp_path, ref.specs)
    assert got.to_csv() == ref.to_csv()


@pytest.mark.parametrize("dtype, enable, y", [
    ("f64", -1.0, 0.0), ("f64", 0.5, 6.0), ("i32", -1, 0.0), ("i32", 2, 6.0)])
def test_numeric_enable_gates_when_positive(tmp_path, dtype, enable, y):
    # an event token enables a firing when it is > 0 (kinds.truth), in SIL
    # and in C alike: a negative one holds the Gain's initial output
    doc = {"name": "gate", "actors": [
        _actor("u", "Constant", {"value": 3.0}, 1, outs=[_port()]),
        _actor("e", "Constant", {"value": enable}, 1, outs=[_port(dtype)]),
        _actor("g", "Gain", {"gain": 2.0}, 1, ins=[_port(), _port(dtype, True)],
               outs=[_port()]),
        _actor("y", "Outport", {"index": 0}, 1, ins=[_port()]),
    ], "channels": [
        _channel(("u", 0), ("g", 0), 1), _channel(("e", 0), ("g", 1), 1, dtype),
        _channel(("g", 0), ("y", 0), 1),
    ]}
    g = load_sdfg(doc)
    ref = run_sil(g, 2)
    assert ref.samples["y"] == [(0, y), (1, y)]
    got = c_trace(emit_bundle(g, periods=2), tmp_path, ref.specs)
    assert got.to_csv() == ref.to_csv()


def test_gated_outputs_hold_their_initial_values(tmp_path):
    # every gated actor is disabled on its first two firings, so each
    # output is its kind's initial one until the first enabled firing
    chart = {"states": ["a", "b"], "initial": "a",
             "transitions": [{"from": "a", "to": "b", "input": 0, "op": ">", "value": 2.0}],
             "outputs": {"a": [5.0, -1.0], "b": [7.0, 2.5]}}
    ev = _port("bool", True)
    doc = {"name": "gated", "actors": [
        _actor("e", "Inport", {"index": 0}, 1, outs=[_port("bool")]),
        _actor("u", "Inport", {"index": 1}, 1, outs=[_port()]),
        _actor("z", "Inport", {"index": 2}, 1, outs=[_port()]),
        _actor("gi", "Inport", {"index": 3}, 1, ins=[ev], outs=[_port()]),
        _actor("ch", "Chart", chart, 1, ins=[_port(), ev], outs=[_port(), _port()]),
        _actor("d", "UnitDelay", {"initial": 3.5}, 1, ins=[_port(), ev], outs=[_port()]),
        *(_actor(f"y_{s}", "Outport", {"index": n}, 1, ins=[_port()])
          for n, s in enumerate(["ch0", "ch1", "d", "gi", "z"])),
    ], "channels": [
        _channel(("e", 0), ("gi", 0), 1, "bool"), _channel(("e", 0), ("ch", 1), 1, "bool"),
        _channel(("e", 0), ("d", 1), 1, "bool"),
        _channel(("u", 0), ("ch", 0), 1), _channel(("u", 0), ("d", 0), 1),
        _channel(("ch", 0), ("y_ch0", 0), 1), _channel(("ch", 1), ("y_ch1", 0), 1),
        _channel(("d", 0), ("y_d", 0), 1), _channel(("gi", 0), ("y_gi", 0), 1),
        _channel(("z", 0), ("y_z", 0), 1),
    ]}
    g = load_sdfg(doc)
    stim = ramp("u", 1, 6, lambda k: float(k + 1))  # 1 .. 6
    stim.declare("e", "bool", 1)
    for k, bit in enumerate([0, 0, 1, 0, 1, 1]):
        stim.add("e", k, bool(bit))
    stim.declare("gi", "f64", 1)
    for k in range(6):
        stim.add("gi", k, 10.0 * (k + 1))
    ref = run_sil(g, 6, stim)
    values = {s: [v for _, v in ref.samples[s]] for s in ref.samples}
    assert values == {"y_ch0": [5.0, 5.0, 5.0, 5.0, 7.0, 7.0],
                      "y_ch1": [-1.0, -1.0, -1.0, -1.0, 2.5, 2.5],
                      "y_d": [3.5, 3.5, 3.5, 3.5, 3.0, 5.0],
                      "y_gi": [0.0, 0.0, 30.0, 30.0, 50.0, 60.0],
                      "y_z": [0.0] * 6}
    b = emit_bundle(g, periods=6, stimulus=stim)
    assert c_trace(b, tmp_path, ref.specs).to_csv() == ref.to_csv()


def test_model_units_hold_only_what_the_graph_needs(multirate_rt, transmission, climate):
    # outputs a firing may keep are statics, not copies; the i32 helpers
    # live once, in the runtime header
    bundles = [emit_bundle(graph_of(m), periods=p, asserts=a)
               for m, p, a in ((multirate_rt, 4, True), (transmission, 1, False),
                               (climate, 2, True))]
    bundles.append(emit_bundle(graph_of(hostile_ids_model()), periods=3))
    header = bundles[0].files["runtime/sdf_runtime.h"]
    assert "static inline int32_t sdf_wrap32(" in header
    assert "static inline int32_t sdf_div32(" in header
    for b in bundles:
        unit = b.files[f"sdfg_{b.name}.c"]
        assert "held" not in unit
        assert not re.search(r"\bsdf_(wrap|div)32\([^;]*\)\s*\{", unit)
        for f in ("runtime/sdf_runtime.h", "runtime/sdf_runtime.c"):
            assert b.files[f] == bundles[0].files[f]


def test_event_ports_are_scalar():
    wide = {"dtype": "bool", "width": 2, "event": True}
    doc = {"name": "wide", "actors": [
        _actor("u", "Constant", {"value": 3.0}, 1, outs=[_port()]),
        _actor("e", "Constant", {"value": [True, False]}, 1,
               outs=[{"dtype": "bool", "width": 2}]),
        _actor("g", "Gain", {"gain": 2.0}, 1, ins=[_port(), wide], outs=[_port()]),
        _actor("y", "Outport", {"index": 0}, 1, ins=[_port()]),
    ], "channels": [
        _channel(("u", 0), ("g", 0), 1),
        {**_channel(("e", 0), ("g", 1), 1, "bool"), "width": 2},
        _channel(("g", 0), ("y", 0), 1),
    ]}
    with pytest.raises(SchemaError, match=r"actor g: event in port 1 has width 2"):
        load_sdfg(doc)


# ---------------------------------------------------------------------------
# MIL = SIL = C


def mil_sil_c(m, steps, stim, workdir) -> Trace:
    """SIL's trace of the single-rate model `m` over `steps` base steps,
    once MIL gives the same samples and the compiled C the same CSV."""
    g = graph_of(m)
    sil = run_sil(g, steps, stim)
    cmp = compare_traces(run_mil(m, steps, stim), sil)
    assert cmp.ok, cmp
    c = c_trace(emit_bundle(g, periods=steps, stimulus=stim), workdir, sil.specs)
    assert c.to_csv() == sil.to_csv()
    return sil


def signal(name, dtype, values):
    tr = Trace()
    tr.declare(name, dtype, 1)
    for k, v in enumerate(values):
        tr.add(name, k, v)
    return tr


@pytest.mark.parametrize("dtype, controls, y", [
    ("f64", [1.0, 0.0, -0.0, -2.0, float("nan"), float("inf"), float("-inf"), 1e-300],
     [0.5, 0.5, 0.5, 0.5, 0.5, 2.0, 2.0, 12.0]),
    ("i32", [0, -1, 2 ** 31 - 1, -2 ** 31, 5], [0.5, 0.5, 0.5, 0.5, 6.0]),
])
def test_members_gate_on_a_numeric_control_when_positive(tmp_path, dtype, controls, y):
    # each member of the enabled subsystem reads the control signal itself,
    # in its own dtype: it runs when the token is > 0, so NaN, -0.0 and
    # -inf disable it, 1e-300 and +inf enable it
    ctl = {"dtype": dtype, "width": 1}
    sub = blk("sub", "Subsystem", {"mode": "enabled", "control_port": 0}, st=1,
              ins=[ctl, F1], outs=[F1],
              children=[blk("i", "Inport", {"index": 1}, st=1, outs=[F1]),
                        blk("g", "Gain", {"gain": 2.0}, st=1, ins=[F1], outs=[F1]),
                        blk("d", "UnitDelay", {"initial": 0.5}, st=1, ins=[F1], outs=[F1]),
                        blk("o", "Outport", {"index": 0}, st=1, ins=[F1])],
              connections=[conn(("i", 0), ("g", 0)), conn(("g", 0), ("d", 0)),
                           conn(("d", 0), ("o", 0))])
    m = model([blk("en", "Inport", {"index": 0}, st=1, outs=[ctl]),
               blk("u", "Inport", {"index": 1}, st=1, outs=[F1]),
               sub, blk("y", "Outport", {"index": 0}, ins=[F1])],
              [conn(("en", 0), ("sub", 0), ctl), conn(("u", 0), ("sub", 1)),
               conn(("sub", 0), ("y", 0))], name="gate")
    g = graph_of(m)
    assert [p.dtype for p in g.actor("sub/g").in_ports if p.event] == [dtype]
    stim = signal("en", dtype, controls)
    stim.declare("u", "f64", 1)
    for k in range(len(controls)):
        stim.add("u", k, float(k + 1))
    sil = mil_sil_c(m, len(controls), stim, tmp_path)
    assert [v for _, v in sil.samples["y"]] == y


def test_non_finite_literals_reach_c(tmp_path):
    # NaN and the infinities as a Constant's value and as a Gain
    cs = [blk(f"c{k}", "Constant", {"value": v}, st=1, outs=[F1])
          for k, v in enumerate([float("nan"), float("inf"), float("-inf"), 1.5])]
    gs = [blk(f"g{k}", "Gain", {"gain": v}, ins=[F1], outs=[F1])
          for k, v in enumerate([float("nan"), float("inf"), float("-inf"), 2.0])]
    ys = [blk(f"y{k}", "Outport", {"index": k}, ins=[F1]) for k in range(7)]
    m = model(cs + gs + ys,
              [*(conn(("c3", 0), (f"g{k}", 0)) for k in range(3)),
               conn(("c1", 0), ("g3", 0)),
               *(conn((f"c{k}", 0), (f"y{k}", 0)) for k in range(3)),
               *(conn((f"g{k}", 0), (f"y{k + 3}", 0)) for k in range(4))],
              name="nonfinite")
    sil = mil_sil_c(m, 2, None, tmp_path)
    assert [repr(sil.samples[f"y{k}"][0][1]) for k in range(7)] == [
        "nan", "inf", "-inf", "nan", "inf", "-inf", "inf"]


@pytest.mark.parametrize("n_in", [2, 3])
def test_chart_with_several_inputs(tmp_path, n_in):
    # a Chart's transitions read each of its inputs, and its state update
    # in MIL gathers them all
    specs = [F1, I1, F2][:n_in]
    back = ({"from": "c", "to": "a", "input": 2, "element": 1, "op": "<", "value": 0.0}
            if n_in == 3 else {"from": "c", "to": "a", "input": 0, "op": "<=", "value": 1.0})
    chart = {"states": ["a", "b", "c"], "initial": "a",
             "transitions": [{"from": "a", "to": "b", "input": 0, "op": ">", "value": 2.0},
                             {"from": "b", "to": "c", "input": 1, "op": "==", "value": 3},
                             back],
             "outputs": {"a": [1.0], "b": [2.0], "c": [3.0]}}
    names = ["u", "v", "w"][:n_in]
    m = model([*(blk(n, "Inport", {"index": k}, st=1, outs=[sp])
                 for k, (n, sp) in enumerate(zip(names, specs))),
               blk("ch", "Chart", chart, st=1, ins=specs, outs=[F1]),
               blk("y", "Outport", {"index": 0}, ins=[F1])],
              [*(conn((n, 0), ("ch", k), sp) for k, (n, sp) in enumerate(zip(names, specs))),
               conn(("ch", 0), ("y", 0))], name="chart")
    us = [0.0, 3.0, 3.0, 3.0, 0.5, 3.0, 3.0, 0.0]
    vs = [0, 0, 1, 3, 3, 3, 3, 3]
    ws = [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, -1.0),
          (1.0, 1.0), (1.0, 1.0), (-1.0, -1.0)]
    stim = signal("u", "f64", us)
    for n, sp, xs in list(zip(names, specs, [us, vs, ws]))[1:]:
        stim.declare(n, sp["dtype"], sp["width"])
        for k, x in enumerate(xs):
            stim.add(n, k, x)
    sil = mil_sil_c(m, len(us), stim, tmp_path)
    assert [v for _, v in sil.samples["y"]] == [1.0, 1.0, 2.0, 2.0, 3.0, 1.0, 2.0, 3.0]

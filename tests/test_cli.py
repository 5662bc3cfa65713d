"""End-to-end CLI runs: artifacts on disk, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import clusterq
from clusterq import cli
from clusterq.energy import MAX_ALPHA_EXP
from clusterq.errors import ScenarioError
from clusterq.scenario import scenario_from_dict

from helpers import BUNDLED, mutated

SRC = os.path.dirname(os.path.dirname(os.path.abspath(clusterq.__file__)))


def run_cli(*argv):
    return cli.main(list(argv))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


INT_SCENARIO = {
    "nodes": 2,
    "buffers": [
        {"name": "x", "extent": [6], "element_kind": "int64", "init": "iota"},
        {"name": "z", "extent": [6], "element_kind": "int64"},
    ],
    "tasks": [{"name": "triple", "range": [6], "reads": ["x"],
               "writes": ["z"], "body": "x[i] * 3"}],
    "expectations": [{"buffer": "z", "values": [0, 3, 6, 9, 12, 15]}],
}


def write_scenario(tmp_path, data, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


# ------------------------------------------------------------------------- run

def test_run_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("run", "saxpy", "--nodes", "2", "--out", str(out))
    assert rc == 0
    report = read_json(out / "report.json")
    assert list(report) == ["makespan_s", "per_task", "per_device", "transfers"]
    assert report["transfers"] == {"count": 2, "total_bytes": 64}
    task = report["per_task"][0]
    assert list(task) == ["id", "name", "duration_s", "energy_j",
                          "frequency_ghz_per_node"]
    assert task["name"] == "saxpy"
    # saxpy ships with MIN_EDP and the default device, so 1.5 GHz everywhere
    assert task["frequency_ghz_per_node"] == {"0": 1.5, "1": 1.5}
    dev = report["per_device"][0]
    assert list(dev) == ["node", "energy_j", "busy_s", "idle_s"]
    assert [d["node"] for d in report["per_device"]] == [0, 1]
    trace = read_json(out / "trace.json")
    assert set(trace) == {"traceEvents"}
    assert isinstance(trace["traceEvents"], list) and trace["traceEvents"]
    for ev in trace["traceEvents"]:
        assert {"name", "ph", "pid", "tid", "ts", "dur", "args"} <= set(ev)
    for name in ("x", "y", "z"):
        dump = read_json(out / f"buf_{name}.json")
        assert list(dump) == ["name", "extent", "element_kind", "values"]
        assert dump["extent"] == [8]
    assert read_json(out / "buf_z.json")["values"] == \
        [1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0]
    line = capsys.readouterr().out
    assert "nodes=2" in line and "target=MIN_EDP" in line


def test_run_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "stencil", "--nodes", "3", "--out", str(a)) == 0
    assert run_cli("run", "stencil", "--nodes", "3", "--out", str(b)) == 0
    for fname in ("report.json", "trace.json", "buf_a.json", "buf_b.json"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes(), fname


def test_target_flag_overrides_scenario(tmp_path):
    out = tmp_path / "out"
    rc = run_cli("run", "saxpy", "--nodes", "2", "--target", "MAX_PERF",
                 "--out", str(out))
    assert rc == 0
    report = read_json(out / "report.json")
    assert report["per_task"][0]["frequency_ghz_per_node"] == {"0": 2.0, "1": 2.0}


def test_run_int64_dump_values_are_integers(tmp_path):
    scn = write_scenario(tmp_path, INT_SCENARIO)
    out = tmp_path / "out"
    assert run_cli("run", scn, "--out", str(out)) == 0
    dump = read_json(out / "buf_z.json")
    assert dump["element_kind"] == "int64"
    assert dump["values"] == [0, 3, 6, 9, 12, 15]
    assert all(isinstance(v, int) for v in dump["values"])


def int_body_scenario(body):
    return {"buffers": [{"name": "z", "extent": [2], "element_kind": "int64"}],
            "tasks": [{"name": "t", "range": [2], "writes": ["z"], "body": body}]}


def test_run_int64_max_literal_is_accepted(tmp_path):
    scn = write_scenario(tmp_path, int_body_scenario("9223372036854775807 - i"))
    out = tmp_path / "out"
    assert run_cli("run", scn, "--out", str(out)) == 0
    assert read_json(out / "buf_z.json")["values"] == [2 ** 63 - 1, 2 ** 63 - 2]


@pytest.mark.parametrize("body", ["18446744073709551616", "18446744073709551616 / 2"])
def test_run_int64_literal_beyond_range_exits_2(tmp_path, capsys, body):
    scn = write_scenario(tmp_path, int_body_scenario(body))
    assert run_cli("run", scn, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "literal 18446744073709551616 in an int64 expression" in err
    assert "[-2**63, 2**63)" in err


def test_run_computed_nan_meets_nan_expectation(tmp_path):
    data = {"buffers": [{"name": "z", "extent": [2]}],
            "tasks": [{"name": "t", "range": [2], "writes": ["z"],
                       "body": "1 / 0 - 1 / 0"}],
            "expectations": [{"buffer": "z", "values": [float("nan")] * 2}]}
    scn = write_scenario(tmp_path, data)
    assert run_cli("run", scn, "--nodes", "2", "--out", str(tmp_path / "out")) == 0


@pytest.mark.parametrize("body, want", [
    (" + ".join(["i"] * 950), [0.0, 950.0, 1900.0]),
    ("(" * 240 + "i + 1" + ")" * 240, [1.0, 2.0, 3.0]),
], ids=["sum_of_950_terms", "240_nested_parentheses"])
def test_run_deep_kernels(tmp_path, body, want):
    # A fresh interpreter, as `clusterq run` gets, not pytest's deep stack.
    data = {"buffers": [{"name": "z", "extent": [3]}],
            "tasks": [{"name": "t", "range": [3], "writes": ["z"], "body": body}]}
    scn = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "clusterq.cli", "run", scn, "--out", str(out)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert read_json(out / "buf_z.json")["values"] == want


@pytest.mark.parametrize("body, rc, message", [
    (" + ".join(["i"] * 1500), 0, ""),
    ("(" * 1200 + "i" + ")" * 1200, 2, "scn.json.tasks[0].body.z: expression nested too deeply"),
], ids=["sum_of_1500_terms", "1200_nested_parentheses"])
def test_run_deeper_kernels_end_without_traceback(tmp_path, body, rc, message):
    data = {"buffers": [{"name": "z", "extent": [3]}],
            "tasks": [{"name": "t", "range": [3], "writes": ["z"], "body": body}]}
    scn = write_scenario(tmp_path, data)
    proc = subprocess.run([sys.executable, "-m", "clusterq.cli", "run", scn,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == rc, proc.stderr
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_run_deep_int64_kernel_error_ends_without_traceback(tmp_path):
    # The compiled program evaluates all 1,500 levels of the sum before it
    # names the failing id and its task.
    data = {"buffers": [{"name": "x", "extent": [3], "element_kind": "int64", "init": "iota"},
                        {"name": "z", "extent": [3], "element_kind": "int64"}],
            "tasks": [{"name": "t", "range": [3], "reads": ["x"], "writes": ["z"],
                       "body": " + ".join(["x[i]"] * 1500) + " + 1 / 0"}]}
    scn = write_scenario(tmp_path, data)
    proc = subprocess.run([sys.executable, "-m", "clusterq.cli", "run", scn,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "clusterq: integer division by zero at id (0,) in task 't'\n"


@pytest.mark.parametrize("offset, edge", [
    ("+9223372036854775807", 3), ("+100000000000000000000", 3),
    ("-100000000000000000000", 0)])
def test_run_read_offset_beyond_int64_clamps(tmp_path, offset, edge):
    data = {"buffers": [{"name": "x", "extent": [4], "element_kind": "int64", "init": "iota"},
                        {"name": "z", "extent": [4], "element_kind": "int64"}],
            "tasks": [{"name": "t", "range": [4], "writes": ["z"], "body": f"x[i{offset}]",
                       "reads": [{"buffer": "x", "mapper": "all"}]}]}
    out = tmp_path / "out"
    assert run_cli("run", write_scenario(tmp_path, data), "--nodes", "2", "--out", str(out)) == 0
    assert read_json(out / "buf_z.json")["values"] == [edge] * 4


def test_run_read_offset_of_5000_digits_exits_2(tmp_path, capsys):
    data = {"buffers": [{"name": "x", "extent": [4], "init": "iota"}, {"name": "z", "extent": [4]}],
            "tasks": [{"name": "t", "range": [4], "writes": ["z"], "body": "x[i+" + "9" * 5000 + "]",
                       "reads": [{"buffer": "x", "mapper": "all"}]}]}
    assert run_cli("run", write_scenario(tmp_path, data), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.endswith("scn.json.tasks[0].body.z: integer literal of "
                                            "5000 digits is too long (at position 4)\n")


@pytest.mark.parametrize("change, message", [
    ({"link": {"latency_s": 10 ** 400}},
     "link.latency_s: integer is not within the binary64 range"),
    ({"expectations": [{"buffer": "z", "values": [10 ** 400] + [0] * 5}]},
     "expectations[0].values[0]: integer is not within the binary64 range"),
    ({"tasks": [{"name": "t", "range": [6], "writes": ["z"], "body": "1" + "0" * 400}],
      "buffers": [{"name": "z", "extent": [6]}], "expectations": []},
     "literal 1" + "0" * 400 + " in a float64 expression is not within the binary64 range"),
], ids=["link_latency", "int64_expectation", "float_literal"])
def test_run_number_beyond_binary64_exits_2(tmp_path, capsys, change, message):
    scn = write_scenario(tmp_path, {**INT_SCENARIO, "nodes": 1, **change})
    assert run_cli("run", scn, "--out", str(tmp_path / "out")) == 2
    assert message in capsys.readouterr().err


def machine_scenario(tmp_path, obj, fields):
    """saxpy on two nodes with the device or link fields given."""
    return write_scenario(tmp_path, {**BUNDLED["saxpy"], "nodes": 2, obj: fields})


@pytest.mark.parametrize("obj, key, value", [
    ("device", "levels_ghz", [0.5, math.inf]),
    ("device", "f_ref_ghz", math.nan),
    ("device", "p_static_w", math.inf),
    ("device", "p_dyn_ref_w", -math.inf),
    ("device", "alpha_exp", math.inf),
    ("device", "throughput_ref", math.nan),
    ("link", "latency_s", math.nan),
    ("link", "bandwidth_bytes_per_s", math.inf),
])
def test_run_non_finite_model_field_exits_2(tmp_path, capsys, obj, key, value):
    scn = machine_scenario(tmp_path, obj, {key: value})
    assert run_cli("run", scn, "--out", str(tmp_path / "out")) == 2
    bad = value[-1] if isinstance(value, list) else value
    assert capsys.readouterr().err == (
        f"clusterq: {scn}.{obj}: {key} must be a finite number, got {bad!r}\n")


@pytest.mark.parametrize("alpha", [1e300, -(MAX_ALPHA_EXP + 0.5)])
def test_run_alpha_exp_beyond_maximum_exits_2(tmp_path, capsys, alpha):
    scn = machine_scenario(tmp_path, "device", {"alpha_exp": alpha})
    assert run_cli("run", scn, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        f"clusterq: {scn}.device: alpha_exp {alpha!r} is beyond the maximum magnitude "
        f"of {MAX_ALPHA_EXP}\n")


@pytest.mark.parametrize("alpha", [MAX_ALPHA_EXP, -MAX_ALPHA_EXP, 2.5])
def test_run_alpha_exp_within_maximum_runs(tmp_path, capsys, alpha):
    scn = machine_scenario(tmp_path, "device", {"alpha_exp": alpha})
    assert run_cli("run", scn, "--target", "MIN_ENERGY", "--out", str(tmp_path / "out")) == 0


# A non-integral alpha_exp is applied in binary64: f / f_ref of 1e400 overflows,
# 1e-400 rounds to 0, and 1e200 or 1e-200 overflow when raised to it.
@pytest.mark.parametrize("f_ref, alpha, level", [
    (1e-200, 2.5, "1e+200"), (1e200, -2.5, "1e-200"), (1.0, 2.5, "1e+200"), (1.0, -2.5, "1e-200"),
])
def test_run_power_beyond_binary64_exits_2(tmp_path, capsys, f_ref, alpha, level):
    scn = machine_scenario(tmp_path, "device", {"levels_ghz": [1e-200, 1.0, 1e200],
                                                "f_ref_ghz": f_ref, "alpha_exp": alpha})
    assert run_cli("run", scn, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        f"clusterq: {scn}.device: power at {level} GHz is not within the binary64 range\n")


@pytest.mark.parametrize("obj, fields", [
    ("device", {"throughput_ref": 5e-324}),
    ("link", {"bandwidth_bytes_per_s": 5e-324}),
    ("link", {"latency_s": 1.7e308}),  # within binary64 in seconds, not in microseconds
    ("device", {"p_static_w": 1.7e308, "throughput_ref": 1e-8}),
], ids=["throughput", "bandwidth", "latency", "energy"])
def test_run_output_beyond_binary64_exits_2(tmp_path, capsys, obj, fields):
    out = tmp_path / "out"
    assert run_cli("run", machine_scenario(tmp_path, obj, fields), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "clusterq: the makespan in microseconds or the device energy in joules is not "
        "within the binary64 range\n")
    assert not out.exists()


def test_run_expectation_failure_exits_2(tmp_path, capsys):
    data = dict(INT_SCENARIO)
    data["expectations"] = [{"buffer": "z", "values": [0, 3, 6, 9, 12, 99]}]
    scn = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    rc = run_cli("run", scn, "--out", str(out))
    assert rc == 2
    assert "expectation failed" in capsys.readouterr().err
    # artifacts are still written for post-mortem
    assert (out / "report.json").exists()


def test_empty_scenario_runs_clean(tmp_path):
    scn = write_scenario(tmp_path, {"buffers": [{"name": "x", "extent": [4]}]})
    out = tmp_path / "out"
    assert run_cli("run", scn, "--out", str(out)) == 0
    report = read_json(out / "report.json")
    assert report["makespan_s"] == 0.0
    assert report["per_task"] == []
    assert len(report["per_device"]) == 1
    assert report["per_device"][0]["energy_j"] == 0.0
    assert report["transfers"] == {"count": 0, "total_bytes": 0}


def _one_read(xshape, zshape, mapper, body):
    return {"buffers": [{"name": "x", "extent": xshape, "init": "iota"},
                        {"name": "z", "extent": zshape}],
            "tasks": [{"name": "t", "range": zshape, "writes": ["z"], "body": body,
                       "reads": [{"buffer": "x", "mapper": mapper}]}]}


@pytest.mark.parametrize("data, message", [
    # rows 4-9 map to no cells of x, though their clamped reads land on x[3]
    (_one_read([4], [10], "one_to_one", "x[i]"),
     "accessor 'x' offset (0,): outside one_to_one mapped region"),
    (_one_read([4, 4], [10, 4], {"kind": "slice", "dim": 1}, "x[i.0, i.1+2]"),
     "accessor 'x' offset (0, 2): outside slice(1) mapped region"),
    # every read clamps onto x[0], outside the fixed region
    (_one_read([4], [4], {"kind": "fixed", "region": [{"min": [3], "max": [4]}]}, "x[i-4]"),
     "accessor 'x' offset (-4,): outside fixed({[3,4)}) mapped region"),
], ids=["one_to_one_beyond_x", "slice_beyond_x", "fixed_shifted_off_x"])
def test_reads_outside_the_mapped_region_exit_2_at_submit(tmp_path, capsys, data, message):
    scn = write_scenario(tmp_path, data)
    want = f"clusterq: {scn}.tasks[0]: task 't': footprint violations: {message}\n"
    for nodes in ("1", "2", "3"):
        assert run_cli("run", scn, "--nodes", nodes, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == want, nodes
    assert run_cli("graph", scn) == 2
    assert capsys.readouterr().err == want
    assert run_cli("validate", scn, "--nodes", "3") == 2
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("second, message", [
    ({"reads": [{"buffer": "x", "mapper": "one_to_one"}], "body": "x[i+1]"},
     "footprint violations: accessor 'x' offset (1,): outside one_to_one mapped region"),
    ({"beta": 2}, "beta must be within [0, 1]"),
], ids=["footprint", "validate_task"])
def test_submit_rejection_names_the_task_path(tmp_path, capsys, second, message):
    # two tasks named alike: only the path tells which one is rejected
    data = {"buffers": [{"name": "x", "extent": [4], "init": "iota"},
                        {"name": "z", "extent": [4]}],
            "tasks": [{"name": "t", "range": [4], "writes": ["z"], "body": "1"},
                      {"name": "t", "range": [4], "writes": ["z"], "body": "2", **second}]}
    scn = write_scenario(tmp_path, data)
    for argv in (("run", scn, "--out", str(tmp_path / "out")), ("graph", scn),
                 ("validate", scn, "--nodes", "2")):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"clusterq: {scn}.tasks[1]: task 't': {message}\n"


def test_reads_within_the_radius_validate_at_every_split(tmp_path, capsys):
    # x[i+2] clamps onto x[1], within radius 1 of both ids
    data = _one_read([2], [2], {"kind": "neighborhood", "radii": [1]}, "x[i+2]")
    assert run_cli("validate", write_scenario(tmp_path, data), "--nodes", "2") == 0
    assert "validate: ok (2 nodes vs serial)" in capsys.readouterr().out


# ----------------------------------------------------------------- exit codes

def test_missing_scenario_exits_1(tmp_path, capsys):
    rc = run_cli("run", str(tmp_path / "nope.json"), "--out", str(tmp_path))
    assert rc == 1
    assert "no such scenario" in capsys.readouterr().err


def test_invalid_scenario_exits_2(tmp_path, capsys):
    scn = write_scenario(tmp_path, {"buffers": [{"name": "x"}]})
    rc = run_cli("run", scn, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert "missing required field 'extent'" in capsys.readouterr().err


def test_scenario_that_is_not_utf8_exits_2(tmp_path, capsys):
    scn = tmp_path / "latin1.json"
    scn.write_bytes(b'{"buffers": [{"name": "\xff", "extent": [4]}]}')
    rc = run_cli("run", str(scn), "--out", str(tmp_path / "out"))
    assert rc == 2
    assert f"{scn}: invalid JSON: 'utf-8' codec can't decode byte 0xff" in \
        capsys.readouterr().err


# buf_<name>.json must be a file name of at most 255 bytes of UTF-8, and a
# lone surrogate has no UTF-8 at all.
@pytest.mark.parametrize("name", ["a/b", "a\u0000b", "x" * 247, "\u00e9" * 124, "x" * 300,
                                  "x\ud800"])
def test_buffer_name_that_cannot_name_a_file_exits_2(tmp_path, capsys, name):
    scn = write_scenario(tmp_path, {"buffers": [{"name": "x", "extent": [4]},
                                                {"name": name, "extent": [4]}]})
    error = (f"buffer {name!r}: name must not contain '/' or NUL" if "/" in name or "\0" in name
             else "buffer name: buf_<name>.json must be at most 255 bytes in UTF-8")
    for argv in (["run", scn, "--out", str(tmp_path / "out")], ["graph", scn],
                 ["validate", scn]):
        assert run_cli(*argv) == 2
        assert f"{scn}.buffers[1]: {error}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["x" * 246, "\u00e9" * 123])
def test_buffer_name_of_255_bytes_runs(tmp_path, name):
    scn = write_scenario(tmp_path, {
        "buffers": [{"name": name, "extent": [4]}],
        "tasks": [{"name": "t", "range": [4], "writes": [name], "body": "1.0"}]})
    out = tmp_path / "out"
    assert run_cli("run", scn, "--out", str(out)) == 0
    assert read_json(out / f"buf_{name}.json")["values"] == [1.0] * 4


def test_kernel_error_path_in_message(tmp_path, capsys):
    data = {"buffers": [{"name": "x", "extent": [4]}],
            "tasks": [{"name": "t", "range": [4], "writes": ["x"],
                       "body": "q[i]"}]}
    scn = write_scenario(tmp_path, data, "bad.json")
    rc = run_cli("run", scn, "--out", str(tmp_path / "out"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and "tasks[0].body.x" in err


def test_run_node_count_above_maximum_exits_2(tmp_path, capsys):
    from clusterq.scheduler import MAX_NODES
    out = tmp_path / "out"
    rc = run_cli("run", "saxpy", "--nodes", str(MAX_NODES + 1), "--out", str(out))
    assert rc == 2
    assert capsys.readouterr().err == (
        f"clusterq: node count {MAX_NODES + 1} exceeds the maximum of {MAX_NODES}\n")
    assert not out.exists()


def test_usage_errors_exit_1():
    for argv in (["frobnicate", "saxpy"],
                 ["run"],
                 ["run", "saxpy", "--nodes", "0"],
                 ["run", "saxpy", "--target", "TURBO"],
                 []):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 1, argv


# ----------------------------------------------------------------------- graph

def test_graph_task_dot_to_stdout(capsys):
    assert run_cli("graph", "pipeline") == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph tasks {")
    for name in ("square", "shift", "scale"):
        assert name in dot


def test_graph_command_dot_to_file(tmp_path):
    out = tmp_path / "cmds.dot"
    rc = run_cli("graph", "saxpy", "--kind", "command", "--nodes", "2",
                 "--out", str(out))
    assert rc == 0
    dot = out.read_text(encoding="utf-8")
    assert dot.startswith("digraph commands {")
    assert dot.count("Execute") == 2
    assert "AwaitPush" in dot


DOT_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_graph_labels_are_valid_dot_for_any_name(tmp_path, capsys):
    q, p = 'q"\\', 'p\\"'
    scn = write_scenario(tmp_path, {
        "buffers": [{"name": q, "extent": [4], "init": "iota"}, {"name": p, "extent": [4]}],
        "tasks": [{"name": 'say "hi"\\', "range": [4],
                   "reads": [{"buffer": q, "name": "r"}], "writes": [p], "body": "r[i]"},
                  {"name": "back", "range": [4], "reads": [{"buffer": p, "name": "r"}],
                   "writes": [q], "body": "r[i]"}]})
    dots = {}
    for kind in ("task", "command"):
        assert run_cli("graph", scn, "--kind", kind, "--nodes", "2") == 0
        dots[kind] = capsys.readouterr().out
        labels = [line.split("[label=", 1)[1][:-len("];")]
                  for line in dots[kind].splitlines() if "[label=" in line]
        assert labels and all(DOT_STRING.fullmatch(label) for label in labels), labels
    assert 'T1 [label="T1: say \\"hi\\"\\\\"];' in dots["task"]
    assert 'Push q\\"\\\\ ' in dots["command"]


# -------------------------------------------------------------------- validate

def test_validate_ok(capsys):
    assert run_cli("validate", "stencil", "--nodes", "4") == 0
    assert "validate: ok (4 nodes vs serial)" in capsys.readouterr().out


def test_validate_defaults_to_scenario_nodes(tmp_path, capsys):
    scn = write_scenario(tmp_path, INT_SCENARIO)
    assert run_cli("validate", scn) == 0
    assert "(2 nodes vs serial)" in capsys.readouterr().out


def test_validate_node_count_above_maximum_exits_2_before_simulating(monkeypatch, capsys):
    from clusterq import scenario
    from clusterq.scheduler import MAX_NODES
    simulated = []
    original = scenario.run
    monkeypatch.setattr(scenario, "run",
                        lambda plan, **kw: simulated.append(plan) or original(plan, **kw))
    assert run_cli("validate", "stencil", "--nodes", str(MAX_NODES + 1)) == 2
    assert capsys.readouterr().err == (
        f"clusterq: node count {MAX_NODES + 1} exceeds the maximum of {MAX_NODES}\n")
    assert simulated == []


def _fits_in_memory(doc):
    """Whether a parsed scenario stays small: at most 4 nodes and 4,096 cells
    over all buffers and task ranges. Every node holds its own copy of the
    buffers it touches, so one mutated size or node count can ask for
    gigabytes; those caps are covered by their own parse-level tests."""
    try:
        scenario = scenario_from_dict(doc)
    except ScenarioError:
        return True
    cells = sum(b.extent.volume() for b in scenario.buffers) + \
        sum(t.global_range.volume() for t in scenario.tasks)
    return (scenario.nodes or 1) <= 4 and cells <= 4096


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(BUNDLED)), data=st.data())
def test_mutated_bundled_scenario_ends_without_traceback(name, data):
    doc = mutated(BUNDLED[name], data.draw)
    if not _fits_in_memory(doc):
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            codes = [
                cli.main(["run", path, "--out", os.path.join(tmp, "out")]),
                cli.main(["graph", path, "--kind", "command",
                          "--out", os.path.join(tmp, "command.dot")]),
                cli.main(["validate", path]),
            ]
    assert set(codes) <= {0, 1, 2}, out.getvalue()


def test_import_generates_no_code():
    # Value types are slotted classes written out by hand: importing the CLI
    # in a fresh interpreter must not load dataclasses, whose decorator
    # builds each class's methods with exec.
    code = "import sys, clusterq.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

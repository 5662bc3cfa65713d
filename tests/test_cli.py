"""End-to-end CLI runs: artifacts on disk, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import clusterq
from clusterq import cli

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


def test_kernel_error_path_in_message(tmp_path, capsys):
    data = {"buffers": [{"name": "x", "extent": [4]}],
            "tasks": [{"name": "t", "range": [4], "writes": ["x"],
                       "body": "q[i]"}]}
    scn = write_scenario(tmp_path, data, "bad.json")
    rc = run_cli("run", scn, "--out", str(tmp_path / "out"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and "tasks[0].body.x" in err


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


# -------------------------------------------------------------------- validate

def test_validate_ok(capsys):
    assert run_cli("validate", "stencil", "--nodes", "4") == 0
    assert "validate: ok (4 nodes vs serial)" in capsys.readouterr().out


def test_validate_defaults_to_scenario_nodes(tmp_path, capsys):
    scn = write_scenario(tmp_path, INT_SCENARIO)
    assert run_cli("validate", scn) == 0
    assert "(2 nodes vs serial)" in capsys.readouterr().out

"""Scenario JSON parsing, serialization round-trips, and scenario runs."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import clusterq
from clusterq.energy import EnergyTarget
from clusterq.errors import ScenarioError, ValidationError
from clusterq.model import All, Fixed, Neighborhood, OneToOne, Slice
from clusterq.region import Box, Region
from clusterq.scenario import (
    MAX_EXTENT_VOLUME,
    Scenario,
    _numbers,
    bundled_scenario_path,
    check_expectations,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    validate_against_serial,
)

from helpers import (
    BUNDLED,
    mutated,
    numbers_item_by_item,
    save_scenario,
    scenario_to_dict,
    total_idle_energy,
    total_kernel_energy,
)


SRC = os.path.dirname(os.path.dirname(os.path.abspath(clusterq.__file__)))

MINIMAL = {
    "buffers": [{"name": "x", "extent": [4]}],
    "tasks": [{"name": "t", "range": [4], "writes": ["x"], "body": "1.0"}],
}


def err(data, match):
    with pytest.raises(ScenarioError, match=match):
        scenario_from_dict(data)


# -------------------------------------------------------------------- parsing

def test_minimal_scenario_defaults():
    s = scenario_from_dict(MINIMAL)
    buf = s.buffers[0]
    assert buf.element_kind == "float64"
    assert buf.init.kind == "zeros"
    assert buf.extent == Box.from_shape((4,))
    assert s.nodes is None and s.devices is None and s.link is None
    assert s.queue_target is None and s.expectations == []
    task = s.tasks[0]
    assert task.beta == 0.0 and task.target is None
    assert [a.buffer for a in task.writes()] == ["x"]
    assert isinstance(task.writes()[0].mapper, OneToOne)


def test_machine_fields_parse():
    data = dict(MINIMAL)
    data["nodes"] = 3
    data["target"] = "MIN_EDP"
    data["link"] = {"latency_s": 2.0, "bandwidth_bytes_per_s": 8.0}
    data["device"] = {"levels_ghz": [0.5, 1.0], "f_ref_ghz": 1.0,
                      "p_static_w": 5.0}
    s = scenario_from_dict(data)
    assert s.nodes == 3
    assert s.queue_target is EnergyTarget.MIN_EDP
    assert s.link.latency_s == 2.0
    assert len(s.devices) == 1
    assert s.devices[0].levels_ghz == (0.5, 1.0)
    assert s.devices[0].p_static_w == 5.0


def test_all_mapper_forms_parse():
    data = {
        "buffers": [{"name": "a", "extent": [4, 4], "init": "iota"},
                    {"name": "z", "extent": [4, 4]}],
        "tasks": [{
            "name": "t", "range": [4, 4],
            "reads": [
                {"buffer": "a", "name": "r0", "mapper": "one_to_one"},
                {"buffer": "a", "name": "r1", "mapper": "all"},
                {"buffer": "a", "name": "r2",
                 "mapper": {"kind": "neighborhood", "radii": [1, 2]}},
                {"buffer": "a", "name": "r3",
                 "mapper": {"kind": "slice", "dim": 1}},
                {"buffer": "a", "name": "r4",
                 "mapper": {"kind": "fixed",
                            "region": [{"min": [0, 0], "max": [2, 2]}]}},
            ],
            "writes": ["z"],
            "body": "r0[i.0, i.1]",
        }],
    }
    s = scenario_from_dict(data)
    mappers = [a.mapper for a in s.tasks[0].reads()]
    assert isinstance(mappers[0], OneToOne)
    assert isinstance(mappers[1], All)
    assert isinstance(mappers[2], Neighborhood) and mappers[2].radii == (1, 2)
    assert isinstance(mappers[3], Slice) and mappers[3].axis == 1
    assert isinstance(mappers[4], Fixed)
    assert mappers[4].region == Region(2, [Box((0, 0), (2, 2))])


def test_neighborhood_radius_shorthand_is_1d():
    data = {
        "buffers": [{"name": "a", "extent": [8], "init": "iota"},
                    {"name": "z", "extent": [8]}],
        "tasks": [{"name": "t", "range": [8],
                   "reads": [{"buffer": "a",
                              "mapper": {"kind": "neighborhood", "radius": 2}}],
                   "writes": ["z"], "body": "a[i]"}],
    }
    s = scenario_from_dict(data)
    assert s.tasks[0].reads()[0].mapper.radii == (2,)


def test_init_forms():
    data = {
        "buffers": [
            {"name": "a", "extent": [2], "init": "zeros"},
            {"name": "b", "extent": [2], "init": "iota"},
            {"name": "c", "extent": [2], "init": "uninitialized"},
            {"name": "d", "extent": [2], "init": {"kind": "constant", "value": 3}},
            {"name": "e", "extent": [2], "init": {"kind": "values", "values": [4, 5]}},
        ],
    }
    s = scenario_from_dict(data)
    kinds = [b.init.kind for b in s.buffers]
    assert kinds == ["zeros", "iota", "uninitialized", "constant", "values"]
    assert s.buffers[3].init.value == 3
    assert s.buffers[4].init.values == (4, 5)


def test_multi_write_dict_body():
    data = {
        "buffers": [{"name": "a", "extent": [4]}, {"name": "b", "extent": [4]}],
        "tasks": [{"name": "t", "range": [4], "writes": ["a", "b"],
                   "body": {"a": "1.0", "b": "2.0"}}],
    }
    s = scenario_from_dict(data)
    assert set(s.tasks[0].body) == {"a", "b"}


def test_tasks_of_one_body_text_share_its_parse():
    def task(name, params, body="x[i] + 1.0"):
        return {"name": name, "range": [4], "reads": ["x"], "writes": ["y"],
                "params": params, "body": body}
    data = {"buffers": [{"name": "x", "extent": [4]}, {"name": "y", "extent": [4]}],
            "tasks": [task("a", {"w": 2}), task("b", {"w": 3}), task("c", {}),
                      task("d", {"w": 2}, "x[i] + 1.0 ")]}
    a, b, c, d = (t.body["y"] for t in scenario_from_dict(data).tasks)
    assert a is b
    # Other parameter names or other text parse on their own, equal or not.
    assert a == c and a is not c
    assert a == d and a is not d
    # Nothing is kept from one document to the next.
    assert scenario_from_dict(data).tasks[0].body["y"] is not a
    # A body that fails is reported at its first task.
    data["tasks"] = [task("a", {}, "1 +"), task("b", {}, "1 +")]
    err(data, r"scenario\.tasks\[0\]\.body\.y")


# ------------------------------------------------------------------ error paths

def test_error_paths_carry_json_paths():
    err({"buffers": [{"extent": [4]}]},
        r"scenario\.buffers\[0\]: missing required field 'name'")
    err({"bogus": 1}, r"scenario\.bogus: unknown field")
    err({"nodes": "two"}, r"scenario\.nodes: expected an integer, got str")
    err({"nodes": 0}, r"scenario\.nodes: must be at least 1")
    err({"buffers": [{"name": "x", "extent": [4], "frob": 1}]},
        r"scenario\.buffers\[0\]\.frob: unknown field")
    err({"buffers": [{"name": "x", "extent": []}]},
        r"scenario\.buffers\[0\]\.extent: expected 1 to 3 sizes")
    err({"buffers": [{"name": "x", "extent": [0]}]},
        r"sizes must be positive")
    err({"buffers": [{"name": "x", "extent": [2]},
                     {"name": "x", "extent": [2]}]},
        r"scenario\.buffers\[1\]: duplicate buffer name 'x'")


def test_device_and_target_exclusivity():
    base = dict(MINIMAL)
    err({**base, "device": {}, "devices": [{}]},
        r"either 'device' or 'devices'")
    err({**base, "target": "MIN_EDP", "queue_target": "MIN_EDP"},
        r"either 'target' or 'queue_target'")
    err({**base, "target": "TURBO"}, r"scenario\.target: unknown target 'TURBO'")
    err({**base, "devices": []}, r"scenario\.devices: must not be empty")


def test_task_error_paths():
    def task_data(**kw):
        t = {"name": "t", "range": [4], "writes": ["x"], "body": "1.0"}
        t.update(kw)
        return {"buffers": [{"name": "x", "extent": [4]}], "tasks": [t]}

    err(task_data(reads=["nope"]),
        r"scenario\.tasks\[0\]\.reads: unknown buffer 'nope'")
    err(task_data(writes=["nope"]),
        r"scenario\.tasks\[0\]\.writes: unknown buffer 'nope'")
    err(task_data(body="1 +"), r"scenario\.tasks\[0\]\.body\.x")
    err(task_data(target="FAST"),
        r"scenario\.tasks\[0\]\.target: unknown target 'FAST'")
    err(task_data(writes=["x", "x"], body="1.0"),
        r"bare expression string needs exactly one write")
    err(task_data(extra=1), r"scenario\.tasks\[0\]\.extra: unknown field")


def test_mapper_and_init_error_paths():
    err({"buffers": [{"name": "x", "extent": [2], "init": "random"}]},
        r"unknown init shorthand 'random'")
    err({"buffers": [{"name": "x", "extent": [2], "init": {"kind": "fill"}}]},
        r"unknown init kind 'fill'")
    base = {"buffers": [{"name": "x", "extent": [4]},
                        {"name": "z", "extent": [4]}]}

    def with_mapper(m):
        return {**base, "tasks": [{
            "name": "t", "range": [4],
            "reads": [{"buffer": "x", "mapper": m}],
            "writes": ["z"], "body": "x[i]"}]}

    err(with_mapper("wide"), r"unknown mapper 'wide'")
    err(with_mapper({"kind": "sparse"}), r"unknown mapper kind 'sparse'")
    err(with_mapper({"kind": "neighborhood"}),
        r"neighborhood needs 'radius' or 'radii'")
    err(with_mapper({"kind": "fixed", "region": []}),
        r"fixed region needs at least one box")


def test_error_paths_name_the_exact_key():
    err({**MINIMAL, "link": {"latency_s": "fast"}},
        r"^scenario\.link\.latency_s: expected a number, got str$")
    err({**MINIMAL, "link": {"latency_s": -1.0}},
        r"^scenario\.link: link latency must be nonnegative$")
    err({**MINIMAL, "queue_target": "TURBO"},
        r"^scenario\.queue_target: unknown target 'TURBO'")
    err({**MINIMAL, "queue_target": 3},
        r"^scenario\.queue_target: expected a string, got int$")


def test_numbers_must_fit_binary64():
    huge = 10 ** 400
    task = MINIMAL["tasks"][0]
    buffer = MINIMAL["buffers"][0]
    for data, path in (
            ({**MINIMAL, "tasks": [{**task, "params": {"p": huge}}]}, "tasks[0].params.p"),
            ({**MINIMAL, "tasks": [{**task, "beta": huge}]}, "tasks[0].beta"),
            ({"buffers": [{**buffer, "init": {"kind": "constant", "value": huge}}]},
             "buffers[0].init.value"),
            ({"buffers": [{**buffer, "element_kind": "int64",
                           "init": {"kind": "values", "values": [0, huge, 0, 0]}}]},
             "buffers[0].init.values[1]"),
            ({**MINIMAL, "expectations": [{"buffer": "x", "values": [huge, 0, 0, 0]}]},
             "expectations[0].values[0]"),
            ({**MINIMAL, "device": {"p_static_w": huge}}, "device.p_static_w"),
            ({**MINIMAL, "device": {"levels_ghz": [1.0, huge]}}, "device.levels_ghz[1]"),
            ({**MINIMAL, "link": {"latency_s": huge}}, "link.latency_s")):
        err(data, rf"^{re.escape('scenario.' + path)}: integer is not within the binary64 range$")
    # The largest integer binary64 holds is accepted.
    big = int(1.7976931348623157e308)
    s = scenario_from_dict({**MINIMAL, "tasks": [{**task, "params": {"p": big}}]})
    assert s.tasks[0].params == {"p": big}


NUMBER_LISTS = {
    "buffers[0].init.values": lambda values: {
        "buffers": [{"name": "x", "extent": [4], "init": {"kind": "values", "values": values}}]},
    "expectations[0].values": lambda values: {
        **MINIMAL, "expectations": [{"buffer": "x", "values": values}]},
    "device.levels_ghz": lambda values: {**MINIMAL, "device": {"levels_ghz": values}},
}


@pytest.mark.parametrize("path", sorted(NUMBER_LISTS))
@pytest.mark.parametrize("index", (0, 2, 3))
@pytest.mark.parametrize("bad, message", (
    (True, "expected a number, got bool"),
    ("1", "expected a number, got str"),
    (None, "expected a number, got NoneType"),
    (2 ** 1100, "integer is not within the binary64 range"),
    (-(2 ** 1024 - 2 ** 970), "integer is not within the binary64 range"),
))
def test_number_lists_name_the_failing_item(path, index, bad, message):
    values = [0.5, 1, 1.5, 2.0]
    values[index] = bad
    err(NUMBER_LISTS[path](values), rf"^{re.escape(f'scenario.{path}[{index}]: {message}')}$")


def test_number_lists_accept_every_binary64_integer():
    big = int(1.7976931348623157e308)
    s = scenario_from_dict(NUMBER_LISTS["expectations[0].values"]([big, -big, 2 ** 1023, 0]))
    assert s.expectations[0][1] == [big, -big, 2 ** 1023, 0]


def outcome(check, *args):
    """check's result, or the type and text of the error it raises."""
    try:
        return check(*args)
    except (ScenarioError, ValidationError) as exc:
        return type(exc), str(exc)


# An int of magnitude above 2**1023 may still convert to binary64, but it
# takes the item-by-item path.
BAD_NUMBERS = st.one_of(st.booleans(), st.text(max_size=3), st.none(), st.just([1.0]),
                        st.integers(2 ** 1023 + 1, 2 ** 1025).flatmap(
                            lambda n: st.sampled_from((n, -n))))


@st.composite
def number_lists(draw):
    """A list of floats, of ints within 2**1023 or of both, and in half of
    them one bad item at a random position."""
    items = draw(st.sampled_from((st.floats(), st.integers(-2 ** 1023, 2 ** 1023),
                                  st.one_of(st.floats(), st.integers(-2 ** 1023, 2 ** 1023)))))
    values = draw(st.lists(items, max_size=8))
    if draw(st.booleans()):
        values.insert(draw(st.integers(0, len(values))), draw(BAD_NUMBERS))
    return values


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(values=number_lists())
def test_number_lists_checked_whole_match_the_item_by_item_check(values):
    got = outcome(_numbers, values, "scenario.x")
    assert got == outcome(numbers_item_by_item, values, "scenario.x")
    assert got is not values


def test_fixed_box_with_min_above_max_names_the_box():
    data = {"buffers": [{"name": "x", "extent": [4]}, {"name": "z", "extent": [4]}],
            "tasks": [{"name": "t", "range": [4], "writes": ["z"], "body": "1.0",
                       "reads": [{"buffer": "x", "mapper": {
                           "kind": "fixed", "region": [{"min": [2], "max": [1]}]}}]}]}
    err(data, r"^scenario\.tasks\[0\]\.reads\[0\]\.mapper\.region\[0\]: "
              r"box bound 2 exceeds 1$")


def test_extent_volume_is_capped():
    cap = MAX_EXTENT_VOLUME
    # Parsing builds no array, so a declared extent at the cap costs nothing.
    s = scenario_from_dict({"buffers": [{"name": "x", "extent": [cap // 4, 4]}]})
    assert s.buffers[0].extent.volume() == cap
    for extent in ([cap + 1], [cap // 4, 4, 2], [2, 10 ** 300, 3]):
        err({"buffers": [{"name": "a", "extent": [2]}, {"name": "x", "extent": extent}]},
            rf"^scenario\.buffers\[1\]\.extent: more than the maximum of {cap} cells$")


def test_expectation_validation():
    base = {"buffers": [{"name": "x", "extent": [4]}]}
    err({**base, "expectations": [{"buffer": "y", "values": [0, 0, 0, 0]}]},
        r"unknown buffer 'y'")
    err({**base, "expectations": [{"buffer": "x", "values": [0, 0]}]},
        r"expected 4 values for buffer 'x', got 2")


def test_load_rejects_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(p)
    # An integer with more digits than the interpreter converts.
    p.write_text('{"nodes": 1' + "0" * 5000 + "}", encoding="utf-8")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(p)


# ------------------------------------------------------------------ round trips

def test_dict_round_trip_is_a_fixed_point():
    cases = [MINIMAL]
    for name in ("saxpy", "stencil", "pipeline"):
        with open(bundled_scenario_path(name), encoding="utf-8") as fh:
            cases.append(json.load(fh))
    for raw in cases:
        d1 = scenario_to_dict(scenario_from_dict(raw))
        d2 = scenario_to_dict(scenario_from_dict(d1))
        assert d1 == d2


def test_file_round_trip(tmp_path):
    s = load_scenario(bundled_scenario_path("stencil"))
    out = tmp_path / "copy.json"
    save_scenario(s, out)
    again = load_scenario(out)
    assert scenario_to_dict(again) == scenario_to_dict(s)
    text = out.read_text(encoding="utf-8")
    assert text.endswith("\n")


def test_deep_kernel_round_trips_in_a_fresh_interpreter(tmp_path):
    # A fresh interpreter, as a user's program gets, not pytest's deep stack.
    data = {"buffers": [{"name": "x", "extent": [3], "element_kind": "int64"},
                        {"name": "z", "extent": [3], "element_kind": "int64"}],
            "tasks": [{"name": "t", "range": [3], "reads": ["x"], "writes": ["z"],
                       "body": " + ".join(["x[i]"] * 1500) + " + 1 / 0"}]}
    src, out = tmp_path / "deep.json", tmp_path / "copy.json"
    src.write_text(json.dumps(data), encoding="utf-8")
    code = ("import sys\n"
            "from clusterq.scenario import load_scenario\n"
            "from helpers import save_scenario\n"
            "save_scenario(load_scenario(sys.argv[1]), sys.argv[2])\n")
    path = os.pathsep.join((SRC, os.path.dirname(os.path.abspath(__file__))))
    proc = subprocess.run([sys.executable, "-c", code, str(src), str(out)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    body = json.loads(out.read_text(encoding="utf-8"))["tasks"][0]["body"]
    assert body == {"z": " + ".join(["x[i.0]"] * 1500) + " + 1 / 0"}


def test_bundled_scenario_lookup():
    assert bundled_scenario_path("saxpy") is not None
    assert bundled_scenario_path("saxpy.json") is not None
    assert bundled_scenario_path("no_such_scenario") is None


def test_bundled_saxpy_contents():
    s = load_scenario(bundled_scenario_path("saxpy"))
    assert s.queue_target is EnergyTarget.MIN_EDP
    assert [b.name for b in s.buffers] == ["x", "y", "z"]
    assert all(b.extent.volume() == 8 for b in s.buffers)
    assert len(s.tasks) == 1 and s.tasks[0].params == {"alpha": 2}
    assert s.expectations and s.expectations[0][0] == "z"


# --------------------------------------------------------------- mutated input

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(BUNDLED)), data=st.data())
def test_mutated_bundled_scenario_parses_or_raises_scenario_error(name, data):
    # Parse only: a mutated extent could ask the simulator for any amount of memory.
    doc = mutated(BUNDLED[name], data.draw)
    try:
        first = scenario_to_dict(scenario_from_dict(doc))
    except ScenarioError:
        return
    again = scenario_to_dict(scenario_from_dict(first))
    assert json.dumps(again) == json.dumps(first)


# ------------------------------------------------------------------------ runs

def test_run_scenario_precedence():
    s = load_scenario(bundled_scenario_path("saxpy"))
    assert s.nodes is None
    p = run_scenario(s).plan
    assert p.node_count == 1 and p.target is EnergyTarget.MIN_EDP
    p = run_scenario(s, nodes=2, target=EnergyTarget.MAX_PERF).plan
    assert p.node_count == 2 and p.target is EnergyTarget.MAX_PERF
    s2 = scenario_from_dict({**MINIMAL, "nodes": 3})
    assert run_scenario(s2).plan.node_count == 3
    assert run_scenario(s2, nodes=2).plan.node_count == 2
    assert run_scenario(s2).plan.target is EnergyTarget.MAX_PERF


def test_bundled_expectations_hold():
    for name in ("saxpy", "stencil", "pipeline"):
        s = load_scenario(bundled_scenario_path(name))
        for nodes in (1, 2, 3):
            bundle = run_scenario(s, nodes=nodes)
            assert check_expectations(s, bundle.result.buffers) == [], \
                f"{name} at {nodes} nodes"


def test_check_expectations_reports_first_mismatch():
    s = load_scenario(bundled_scenario_path("saxpy"))
    bundle = run_scenario(s)
    good = bundle.result.buffers
    bad = dict(good)
    z = good["z"].copy()
    z[5] += 1.0
    bad["z"] = z
    failures = check_expectations(s, bad)
    assert len(failures) == 1
    assert "'z'" in failures[0] and "(5,)" in failures[0]


def test_validate_against_serial_bundled():
    for name in ("saxpy", "stencil", "pipeline"):
        s = load_scenario(bundled_scenario_path(name))
        for nodes in (2, 4):
            assert validate_against_serial(s, nodes) == [], f"{name}/{nodes}"


def test_run_bundle_energy_identity():
    s = load_scenario(bundled_scenario_path("stencil"))
    bundle = run_scenario(s, nodes=3)
    rep = bundle.energy
    assert total_kernel_energy(rep) + total_idle_energy(rep) \
        == rep.total_device_energy
    assert bundle.result.makespan == rep.makespan_s

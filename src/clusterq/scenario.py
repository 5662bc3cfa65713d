"""Scenario files: JSON descriptions of a machine and a task queue.

A scenario lists buffer declarations, an ordered list of tasks with kernel
bodies as text, and optionally the machine shape (node count, device models,
link) plus a queue-wide frequency target and expected output values for
self-checking runs. Parsing is strict: unknown keys, bad dimensions and
kernel grammar errors are reported with the JSON path of the offending field.
Each kind of JSON object is declared once, as a table of its fields that
gives each field's parser and default.
"""

import json
from copy import copy
from importlib import resources
from typing import Optional

import numpy as np

from .energy import DeviceModel, EnergyTarget, account_energy
from .errors import ClusterqError, ScenarioError, ValidationError
from .graph import TaskGraph
from .kernel import parse_kernel
from .model import (
    Accessor,
    AccessMode,
    All,
    BINARY64_RANGE,
    Buffer,
    BufferInit,
    Fixed,
    Neighborhood,
    OneToOne,
    Slice,
    Task,
    is_binary64,
)
from .region import Box, Region
from .scheduler import Plan, assign_frequencies, generate_commands
from .simulator import LinkModel, RunResult, run
from .value import Value


class Scenario(Value):
    __slots__ = _fields = ("buffers", "tasks", "nodes", "devices", "link", "queue_target",
                           "expectations", "path")

    def __init__(self, buffers: Optional[list[Buffer]] = None,
                 tasks: Optional[list[Task]] = None, nodes: Optional[int] = None,
                 devices: Optional[list[DeviceModel]] = None, link: Optional[LinkModel] = None,
                 queue_target: Optional[EnergyTarget] = None,
                 expectations: Optional[list[tuple[str, list]]] = None, path: str = "scenario"):
        self.buffers = [] if buffers is None else buffers
        self.tasks = [] if tasks is None else tasks
        self.nodes = nodes
        self.devices = devices
        self.link = link
        self.queue_target = queue_target
        self.expectations = [] if expectations is None else expectations
        self.path = path  # JSON path of the document, for error messages


REQUIRED = object()  # the default of a field that must be given
# Cells in one buffer at most: 128 MiB of 8-byte elements, and any node may
# come to hold a full copy of every buffer.
MAX_EXTENT_VOLUME = 2 ** 24


def _of_type(types, noun):
    """Parser that accepts instances of types, but never a bool."""
    def parse(value, path: str):
        if isinstance(value, bool) or not isinstance(value, types):
            raise ScenarioError(f"{path}: expected {noun}, got {type(value).__name__}")
        return value
    return parse


_as_int = _of_type(int, "an integer")
_as_number = _of_type((int, float), "a number")
_as_str = _of_type(str, "a string")
_as_list = _of_type(list, "a list")
_as_dict = _of_type(dict, "an object")


def _number(value, path: str):
    # The simulator computes in binary64, so every number must convert to it.
    if not is_binary64(_as_number(value, path)):
        raise ScenarioError(f"{path}: integer is not {BINARY64_RANGE}")
    return value


# Every int of at most this magnitude converts to binary64.
_INT_BOUND = 2 ** 1023


def _numbers(value, path: str) -> list:
    """A list of numbers, each read as _number reads it: as a whole list if it
    holds only floats, or only ints well within the binary64 range. In any
    other, an item that is neither gets its path built and goes to _number."""
    items = _as_list(value, path)
    if not ((kinds := set(map(type, items))) <= {float} or
            kinds == {int} and -_INT_BOUND <= min(items) and max(items) <= _INT_BOUND):
        for i, item in enumerate(items):
            kind = type(item)
            if kind is not float and not (kind is int and -_INT_BOUND <= item <= _INT_BOUND):
                _number(item, f"{path}[{i}]")
    return list(items)


def _list_of(parse):
    """Parser for a list whose items parse reads."""
    def parse_list(value, path: str) -> list:
        return [parse(item, f"{path}[{i}]") for i, item in enumerate(_as_list(value, path))]
    return parse_list


def _optional(parse):
    """Parser that reads null as None."""
    return lambda value, path: None if value is None else parse(value, path)


def _make(build, path: str, **kwargs):
    """build(**kwargs), with a value it rejects (as Box does, by ValueError) named by path."""
    try:
        return build(**kwargs)
    except (ClusterqError, ValueError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _read(value, path: str, table: dict) -> dict:
    """Read a JSON object by its field table, which maps every allowed key,
    in the order the fields are checked, to (parse, default). A given field
    is parse(value, path); an absent one takes a copy of default, or is an
    error when default is REQUIRED."""
    obj = _as_dict(value, path)
    for key in obj:
        if key not in table:
            raise ScenarioError(f"{path}.{key}: unknown field")
    out = {}
    for key, (parse, default) in table.items():
        if key in obj:
            out[key] = parse(obj[key], f"{path}.{key}")
        elif default is REQUIRED:
            raise ScenarioError(f"{path}: missing required field '{key}'")
        else:
            out[key] = copy(default)
    return out


def _object(build, table: dict):
    """Parser that reads an object by table and passes its fields to build."""
    return lambda value, path: _make(build, path, **_read(value, path, table))


def _tagged(what: str, kinds: dict, shorthand_error):
    """Parser for an object {"kind": k, ...} whose other fields kinds[k] =
    (table, build) declares. A kind without other fields may be written as
    the bare string k, and null stands for the first such kind."""
    shorthands = [kind for kind, (table, _) in kinds.items() if not table]

    def parse(value, path: str):
        if value is None:
            value = shorthands[0]
        if isinstance(value, str):
            if value not in shorthands:
                raise ScenarioError(f"{path}: {shorthand_error(value, shorthands)}")
            value = {"kind": value}
        obj = _as_dict(value, path)
        if "kind" not in obj:
            raise ScenarioError(f"{path}: missing required field 'kind'")
        kind = _as_str(obj["kind"], f"{path}.kind")
        if kind not in kinds:
            raise ScenarioError(f"{path}.kind: unknown {what} kind '{kind}'")
        table, build = kinds[kind]
        kwargs = _read({key: v for key, v in obj.items() if key != "kind"}, path, table)
        return _make(build, path, **kwargs)
    return parse


def _positive(value, path: str) -> int:
    count = _as_int(value, path)
    if count < 1:
        raise ScenarioError(f"{path}: must be at least 1, got {count}")
    return count


def _shape_box(value, path: str) -> Box:
    sizes = _list_of(_as_int)(value, path)
    if not 1 <= len(sizes) <= 3:
        raise ScenarioError(f"{path}: expected 1 to 3 sizes, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ScenarioError(f"{path}: sizes must be positive, got {sizes}")
    return Box.from_shape(tuple(sizes))


def _extent(value, path: str) -> Box:
    box = _shape_box(value, path)
    if box.volume() > MAX_EXTENT_VOLUME:
        raise ScenarioError(f"{path}: more than the maximum of {MAX_EXTENT_VOLUME} cells")
    return box


def _target(value, path: str) -> EnergyTarget:
    try:
        return EnergyTarget(_as_str(value, path))
    except ValueError:
        raise ScenarioError(
            f"{path}: unknown target '{value}' "
            f"(expected one of {[t.value for t in EnergyTarget]})"
        ) from None


INIT_KINDS = {
    "zeros": ({}, BufferInit.zeros),
    "iota": ({}, BufferInit.iota),
    "uninitialized": ({}, BufferInit.uninitialized),
    "constant": ({"value": (_number, REQUIRED)}, BufferInit.constant),
    "values": ({"values": (_numbers, REQUIRED)}, BufferInit.explicit),
}
_init = _tagged("init", INIT_KINDS, lambda value, names: (
    f"unknown init shorthand '{value}' (expected one of {sorted(names)})"
))


def _region(value, path: str) -> Region:
    boxes = _list_of(_object(lambda **box: Box(box["min"], box["max"]), {
        "min": (_list_of(_as_int), REQUIRED),
        "max": (_list_of(_as_int), REQUIRED),
    }))(value, path)
    if not boxes:
        raise ScenarioError(f"{path}: fixed region needs at least one box")
    return _make(Region, path, dims=boxes[0].dims, boxes=boxes)


def _neighborhood(radii, radius) -> Neighborhood:
    if radii is None and radius is None:
        raise ScenarioError("neighborhood needs 'radius' or 'radii'")
    return Neighborhood(tuple(radii) if radii is not None else (radius,))


_mapper = _tagged("mapper", {
    "one_to_one": ({}, OneToOne),
    "all": ({}, All),
    "neighborhood": (
        {"radii": (_list_of(_as_int), None), "radius": (_as_int, None)}, _neighborhood
    ),
    "fixed": ({"region": (_region, REQUIRED)}, Fixed),
    "slice": ({"dim": (_as_int, REQUIRED)}, lambda dim: Slice(dim)),
}, lambda value, names: (
    f"unknown mapper '{value}' (shorthand accepts {' or '.join(map(repr, names))}; "
    f"others need an object with 'kind')"
))

BUFFER = {
    "name": (_as_str, REQUIRED),
    "extent": (_extent, REQUIRED),
    "element_kind": (_as_str, "float64"),
    "init": (_init, BufferInit.zeros()),
}

ACCESSOR = {
    "buffer": (_as_str, REQUIRED),
    "name": (_optional(_as_str), None),
    "mapper": (_mapper, OneToOne()),
}


def _accessor(mode: AccessMode):
    """Parser for an accessor object, or a bare buffer name, of this mode."""
    def parse(value, path: str) -> Accessor:
        f = _read({"buffer": value} if isinstance(value, str) else value, path, ACCESSOR)
        return Accessor(f["buffer"], mode, f["mapper"], name=f["name"] or f["buffer"])
    return parse


def _params(value, path: str) -> dict:
    return {name: _number(v, f"{path}.{name}") for name, v in _as_dict(value, path).items()}


def _body(value, path: str):
    """A bare expression string, or an object of them by write accessor."""
    return value if isinstance(value, str) else _as_dict(value, path)


TASK = {
    "name": (_as_str, REQUIRED),
    "range": (_shape_box, REQUIRED),
    "reads": (_list_of(_accessor(AccessMode.READ)), []),
    "writes": (_list_of(_accessor(AccessMode.WRITE)), REQUIRED),
    "params": (_params, {}),
    "beta": (_number, 0.0),
    "target": (_optional(_target), None),
    "body": (_body, REQUIRED),
}


def _task(value, path: str, buffers: dict, parsed: dict) -> Task:
    f = _read(value, path, TASK)
    reads, writes, body = f["reads"], f["writes"], f["body"]
    if isinstance(body, str):
        if len(writes) != 1:
            raise ScenarioError(
                f"{path}.body: a bare expression string needs exactly one "
                f"write accessor, task has {len(writes)}"
            )
        body = {writes[0].name: body}

    for key, accessors in (("reads", reads), ("writes", writes)):
        for acc in accessors:
            if acc.buffer not in buffers:
                raise ScenarioError(f"{path}.{key}: unknown buffer '{acc.buffer}'")
    read_arity = {acc.name: buffers[acc.buffer].dims for acc in reads}

    kernels = {}
    for wname, text in body.items():
        text = _as_str(text, f"{path}.body.{wname}")
        key = (text, frozenset(read_arity.items()), frozenset(f["params"]), f["range"].dims)
        if key not in parsed:
            parsed[key] = _make(parse_kernel, f"{path}.body.{wname}", text=text,
                                reads=read_arity, params=set(f["params"]), dims=key[3])
        kernels[wname] = parsed[key]
    return Task(name=f["name"], global_range=f["range"], accessors=reads + writes, body=kernels,
                params=f["params"], beta=f["beta"], target=f["target"])


def _model_table(model, parsers: dict) -> dict:
    """Table of a model's fields and their defaults in its __init__, which
    has one for every field, read as numbers or by parsers."""
    return {name: (parsers.get(name, _number), default)
            for name, default in zip(model._fields, model.__init__.__defaults__, strict=True)}


DEVICE = _model_table(DeviceModel, {"levels_ghz": _numbers})
LINK = _model_table(LinkModel, {})


def _devices(value, path: str) -> list:
    devices = _list_of(_object(DeviceModel, DEVICE))(value, path)
    if not devices:
        raise ScenarioError(f"{path}: must not be empty")
    return devices


def _expectation(value, path: str, buffers: dict) -> tuple[str, list]:
    f = _read(value, path, {
        "buffer": (_as_str, REQUIRED),
        "values": (_numbers, REQUIRED),
    })
    name, values = f["buffer"], f["values"]
    if name not in buffers:
        raise ScenarioError(f"{path}.buffer: unknown buffer '{name}'")
    volume = buffers[name].extent.volume()
    if len(values) != volume:
        raise ScenarioError(
            f"{path}.values: expected {volume} values for buffer '{name}', got {len(values)}"
        )
    return name, values


SCENARIO = {
    "nodes": (_optional(_positive), None),
    "device": (_optional(_object(DeviceModel, DEVICE)), None),
    "devices": (_optional(_devices), None),
    "link": (_optional(_object(LinkModel, LINK)), None),
    "target": (_optional(_target), None),
    "queue_target": (_optional(_target), None),
    "buffers": (_list_of(_object(Buffer, BUFFER)), []),
    # Task and expectation items name buffers, so they are read once the
    # buffer table is known.
    "tasks": (_as_list, []),
    "expectations": (_as_list, []),
}


def scenario_from_dict(data: dict, path: str = "scenario") -> Scenario:
    data = _as_dict(data, path)
    for one, other in (("device", "devices"), ("target", "queue_target")):
        if one in data and other in data:
            raise ScenarioError(f"{path}: give either '{one}' or '{other}', not both")
    f = _read(data, path, SCENARIO)

    buffers = {}
    for i, buf in enumerate(f["buffers"]):
        if buf.name in buffers:
            raise ScenarioError(f"{path}.buffers[{i}]: duplicate buffer name '{buf.name}'")
        buffers[buf.name] = buf

    parsed = {}  # (text, read arities, parameter names, dims) -> body, for this document
    tasks = [_task(t, f"{path}.tasks[{i}]", buffers, parsed) for i, t in enumerate(f["tasks"])]
    expectations = [_expectation(e, f"{path}.expectations[{i}]", buffers)
                    for i, e in enumerate(f["expectations"])]
    return Scenario(buffers=f["buffers"], tasks=tasks, nodes=f["nodes"],
                    devices=[f["device"]] if f["device"] is not None else f["devices"],
                    link=f["link"], queue_target=f["target"] or f["queue_target"],
                    expectations=expectations, path=path)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.loads(fh.read())
        except ValueError as exc:  # a JSONDecodeError, an integer too long, or not UTF-8
            raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_dict(data, path=str(path))


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


# write_trace and write_buffer write the same bytes as write_json would for
# their fixed shapes, but without json's pure-Python indenting encoder (the C
# encoder ignores indent): strings and number lists go through json's C
# functions, and the layout around them is a template.
_string = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# trace lane (tid) and encoded name of each event kind
_LANES = {kind: (tid, _string(kind)) for tid, kind in enumerate(("execute", "push", "await_push"))}


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _micros(t) -> str:
    # int / int is correctly rounded, so this equals float(t * 1_000_000)
    return float.__repr__(t.numerator * 1_000_000 / t.denominator)


def _trace_events(trace):
    sep = "\n"
    # id of a time -> its _micros text: a run's events share few distinct
    # start and duration objects, which the trace keeps alive.
    micros = {}
    for ev in trace:
        tid, kind = _LANES[ev.kind]
        ts = micros.get(id(ev.start)) or micros.setdefault(id(ev.start), _micros(ev.start))
        dur = micros.get(id(ev.duration)) or micros.setdefault(id(ev.duration),
                                                                _micros(ev.duration))
        extra = ""
        if ev.frequency_ghz is not None:
            extra = f',\n        "frequency_ghz": {_float(ev.frequency_ghz)}'
        if ev.bytes:
            extra += f',\n        "bytes": {int.__repr__(ev.bytes)}'
        yield (
            f'{sep}    {{\n      "name": {_string(ev.label or ev.kind)},\n      "ph": "X",\n'
            f'      "pid": {int.__repr__(ev.node)},\n      "tid": {tid},\n'
            f'      "ts": {ts},\n      "dur": {dur},\n'
            f'      "args": {{\n        "kind": {kind},\n'
            f'        "command": {int.__repr__(ev.command_id)}{extra}\n      }}\n    }}'
        )
        sep = ",\n"


def write_trace(path, trace):
    """Write trace.json: one Chrome trace-viewer complete event per
    TraceEvent, times in microseconds, streamed event by event."""
    with open(path, "w", encoding="utf-8") as fh:
        if not trace:
            fh.write('{\n  "traceEvents": []\n}\n')
            return
        fh.write('{\n  "traceEvents": [')
        fh.writelines(_trace_events(trace))
        fh.write("\n  ]\n}\n")


def _number_list(values: list) -> str:
    # Indented like json.dump of a non-empty list. A number holds no comma, so
    # every ", " of the compact form separates two items.
    return "[\n    " + json.dumps(values)[1:-1].replace(", ", ",\n    ") + "\n  ]"


def write_buffer(path, buffer: Buffer, values: np.ndarray):
    """Write buf_<name>.json: the buffer's header and its values, flat in
    row-major order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f'{{\n  "name": {_string(buffer.name)},\n'
            f'  "extent": {_number_list(list(buffer.extent.shape))},\n'
            f'  "element_kind": {_string(buffer.element_kind)},\n'
            f'  "values": {_number_list(values.reshape(-1).tolist())}\n}}\n'
        )


def bundled_scenario_path(name: str):
    """Path to a scenario shipped with the package, or None."""
    if not name.endswith(".json"):
        name = name + ".json"
    candidate = resources.files("clusterq") / "scenarios" / name
    return candidate if candidate.is_file() else None


class RunBundle(Value):
    __slots__ = _fields = ("scenario", "plan", "result", "energy")

    def __init__(self, scenario: Scenario, plan: Plan, result: RunResult, energy: object):
        self.scenario = scenario
        self.plan = plan
        self.result = result
        self.energy = energy


def build_graph(scenario: Scenario) -> TaskGraph:
    graph = TaskGraph({b.name: b for b in scenario.buffers})
    for i, task in enumerate(scenario.tasks):
        try:
            graph.submit(task)
        except ValidationError as exc:
            raise ValidationError(f"{scenario.path}.tasks[{i}]: {exc}") from exc
    return graph


def plan_scenario(scenario: Scenario, nodes: Optional[int] = None,
                  target: Optional[EnergyTarget] = None) -> Plan:
    """The command plan with frequencies assigned. Flag > scenario field >
    default (nodes=1, target=MAX_PERF)."""
    nodes = nodes if nodes is not None else (scenario.nodes or 1)
    target = target if target is not None else (
        scenario.queue_target or EnergyTarget.MAX_PERF)
    plan = generate_commands(build_graph(scenario), nodes, devices=scenario.devices)
    assign_frequencies(plan, target)
    return plan


def run_scenario(scenario: Scenario, nodes: Optional[int] = None,
                 target: Optional[EnergyTarget] = None) -> RunBundle:
    plan = plan_scenario(scenario, nodes, target)
    result = run(plan, link=scenario.link)
    energy = account_energy(result.trace, plan.devices, result.makespan)
    # Bounds every time the outputs hold (the trace's in microseconds) and
    # every energy: each is at most the makespan or the total energy.
    if not (is_binary64(result.makespan * 1_000_000) and is_binary64(energy.total_device_energy)):
        raise ValidationError(
            f"the makespan in microseconds or the device energy in joules is not {BINARY64_RANGE}")
    return RunBundle(scenario, plan, result, energy)


def _bits(arr: np.ndarray) -> np.ndarray:
    if arr.dtype == np.float64:
        return arr.view(np.uint64)
    return arr


def _first_difference(a: np.ndarray, b: np.ndarray):
    """Index of the first element whose bits differ, or None if all agree."""
    if np.array_equal(_bits(a), _bits(b)):
        return None
    return tuple(int(x[0]) for x in np.nonzero(_bits(a) != _bits(b)))


def check_expectations(scenario: Scenario, buffers: dict) -> list[str]:
    """Compare gathered buffers against declared expected values, bit-exact."""
    failures = []
    by_name = {b.name: b for b in scenario.buffers}
    for name, values in scenario.expectations:
        buf = by_name[name]
        expected = np.array(values, dtype=buf.dtype).reshape(buf.extent.shape)
        got = buffers[name]
        first = _first_difference(expected, got)
        if first is not None:
            failures.append(
                f"buffer '{name}' differs from expectation at index {first}: "
                f"expected {expected[first]}, got {got[first]}"
            )
    return failures


def validate_against_serial(scenario: Scenario, nodes: int) -> list[str]:
    """Plan single-node and distributed from one task graph, at top frequency
    (which does not change buffers), then run both and compare every buffer
    bit for bit; a bad node count fails before any simulation."""
    graph = build_graph(scenario)
    plans = [generate_commands(graph, n, devices=scenario.devices) for n in (1, nodes)]
    serial, dist = (run(plan, link=scenario.link).buffers for plan in plans)
    failures = []
    for buf in scenario.buffers:
        a = serial[buf.name]
        b = dist[buf.name]
        first = _first_difference(a, b)
        if first is not None:
            failures.append(
                f"buffer '{buf.name}' diverges at index {first} with {nodes} nodes: "
                f"serial {a[first]}, distributed {b[first]}"
            )
    return failures

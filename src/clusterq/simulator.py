"""Discrete-event replay of a command plan: `schedule` times it, `run` also
moves its data. Both walk the commands in id order, the replay order: the
scheduler numbers each task's transfers before its Executes, so every
dependency has a lower id.

`schedule(plan, link)` checks the plan and returns the trace, whose event i
is command i's, and the makespan. Ids that are not positions, a dependency on
a command not before it (a cycle has one), a node outside [0, node_count), a
task or Push buffer the graph lacks, an Execute whose reads or writes have
other (accessor name, buffer) pairs than its task's, in order, or a write
region other than its chunk box (one_to_one writes give each its box), an
AwaitPush that does not depend on the Push at that Push's id and a command of
unknown type are each a ValidationError. Each node owns one execute lane: an
Execute starts at max(dependency finish times, lane free time) and occupies
the lane for its duration. A Push starts as soon as its dependencies are done
and takes latency + bytes / bandwidth. Time is exact rationals, floats only
at serialization; maxima compare integer cross-products of numerators and
denominators, and the makespan is the latest finish. Each value is computed
once per call: a task's accessor pairs, an Execute's duration and box text
per (node, chunk box object, beta, frequency), a Push's duration per byte
count and its label text and bytes per (buffer, region object), which
template instances share, and a finish per start and duration.

`run(plan, link)` is `schedule`, then the data walk through a backing array
per node and buffer: a Push copies its region's boxes out, through indexes
made once per region object, and its AwaitPush lands them. Executes are
deferred into a batch: consecutive ones of one task, each on a different
node, whose boxes continue one another along axis 0. The batch is evaluated
before every Push and AwaitPush, before an Execute of another task, of a node
in it or that does not continue it, and at the end, so each Execute sees the
data it would see replayed alone. It calls each body, compiled once per run
and element kind, once per write accessor over the union of its members'
boxes, each member's rows read from its node's array through indexes made
once per run. Each result is made canonical and copied once, and all are
stored by the members' rows after the last call, so in-place updates see
pre-task data. The final contents are gathered from zeros, each final region
map entry from its lowest-id holder. Reads are not checked: submit's
footprint check keeps them inside their mapped regions. The only runtime
error is an int64 division by zero; a batch that meets one is evaluated again
member by member in replay order, so the run raises it for the first failing
write box in replay order, naming that box's first failing id and its task.
Every float result is stored with NaNs in canonical form.
"""

from fractions import Fraction
from typing import Optional

import numpy as np

from .energy import exact_ratio, exec_time, require_finite
from .errors import EvalError, ValidationError
from .kernel import compile_kernel
from .model import ReadView
from .region import Box
from .scheduler import AwaitPushCommand, ExecuteCommand, Plan, PushCommand
from .value import Frozen, Value

# bench/tracing.py's kernel.eval hook wraps this name to count per-cell
# kernel evaluations. The simulator makes none, so the name is bound only
# for that hook to find, and the count reads 0.
eval_kernel = None


class LinkModel(Frozen):
    # The fields, with their defaults in __init__, are also the scenario
    # schema's link object.
    __slots__ = _fields = ("latency_s", "bandwidth_bytes_per_s")

    def __init__(self, latency_s: float = 1e-6, bandwidth_bytes_per_s: float = 1e9):
        object.__setattr__(self, "latency_s", latency_s)
        object.__setattr__(self, "bandwidth_bytes_per_s", bandwidth_bytes_per_s)
        require_finite(self)
        if self.latency_s < 0:
            raise ValidationError("link latency must be nonnegative")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValidationError("link bandwidth must be positive")

    def transfer_time(self, nbytes: int) -> Fraction:
        return Fraction(self.latency_s) + Fraction(nbytes) / Fraction(self.bandwidth_bytes_per_s)


class TraceEvent(Value):
    _fields = ("kind", "node", "command_id", "start", "duration", "bytes", "frequency_ghz",
               "task_id", "task_name", "label")
    __slots__ = _fields + ("finish",)  # derived from start and duration, so not a field

    def __init__(self, kind: str, node: int, command_id: int, start: Fraction,
                 duration: Fraction, bytes: int = 0, frequency_ghz: Optional[float] = None,
                 task_id: Optional[int] = None, task_name: Optional[str] = None,
                 label: str = "", finish: Optional[Fraction] = None):
        self.kind = kind  # "execute" | "push" | "await_push"
        self.node = node
        self.command_id = command_id
        self.start = start
        self.duration = duration
        self.bytes = bytes
        self.frequency_ghz = frequency_ghz
        self.task_id = task_id
        self.task_name = task_name
        self.label = label
        self.finish = start + duration if finish is None else finish


class RunResult(Value):
    __slots__ = _fields = ("buffers", "trace", "makespan")

    def __init__(self, buffers: dict, trace: list, makespan: Fraction):
        self.buffers = buffers  # name -> np.ndarray, gathered final contents
        self.trace = trace
        self.makespan = makespan


# The quiet NaN that JSON `NaN` and Python's float("nan") are.
_CANONICAL_NAN = np.uint64(0x7FF8000000000000).view(np.float64)


def _index(box):
    """Array index of a box; buffer extents start at 0."""
    return tuple(slice(lo, hi) for lo, hi in zip(box.mins, box.maxs))


def _canonical(values, integer):
    """A kernel result as a new array, with NaNs in canonical form. It may
    be a view of an array the batch writes, so it is copied before any store."""
    if not integer:
        nan = np.isnan(values)
        if nan.any():
            return np.where(nan, _CANONICAL_NAN, values)
    return values if values.flags.owndata else values.copy()


class _Storage(dict):
    """(buffer, node) -> the node's backing array of the buffer, made on first
    use. Node 0 starts from the host initialization; any other node starts
    from zeros and only ever observes cells that were pushed to it."""

    def __init__(self, buffers):
        self.buffers = buffers

    def __missing__(self, key):
        buf = self.buffers[key[0]]
        self[key] = (buf.init.materialize(buf.extent, buf.element_kind) if key[1] == 0
                     else np.zeros(buf.extent.shape, dtype=buf.dtype))
        return self[key]


_ZERO = (Fraction(0), 0, 1)


def _finish(sums: dict, start: tuple, dur: tuple) -> tuple:
    """start + dur, both (Fraction, numerator, denominator) triples, added
    once per run for each start and duration; keyed by ints, as a Fraction's
    hash costs a modular inverse."""
    key = (start[1], start[2], dur[1], dur[2])
    if key not in sums:
        finish = start[0] + dur[0]
        sums[key] = (finish, finish.numerator, finish.denominator)
    return sums[key]


def _triple(time: Fraction) -> tuple:
    return time, time.numerator, time.denominator


class _Batch:
    """Executes whose evaluation is deferred: consecutive ones of one task,
    whose accessors schedule has checked are its task's, each on a different
    node, and each box continuing the previous member's along axis 0."""

    def __init__(self, graph, storage):
        self.graph, self.storage = graph, storage
        self.kernels = {}  # (id of a body, integer) -> compiled body; tasks of one text share it
        self.indexes = {name: {} for name in graph.buffers}  # buffer -> its ReadViews' indexes
        self.members, self.nodes = [], set()

    def add(self, cmd):
        if self.members and not self._joins(cmd):
            self.evaluate()
        self.members.append(cmd)
        self.nodes.add(cmd.node)

    def _joins(self, cmd) -> bool:
        last = self.members[-1]
        box, prev = cmd.box, last.box
        return cmd.task_id == last.task_id and cmd.node not in self.nodes and \
            (box.mins[0], box.mins[1:], box.maxs[1:]) == \
            (prev.maxs[0], prev.mins[1:], prev.maxs[1:])

    def evaluate(self):
        """Evaluate and drop the members."""
        if not self.members:
            return
        members, self.members, self.nodes = self.members, [], set()
        task = self.graph.task(members[0].task_id)
        arrays = {b: [self.storage[b, m.node] for m in members]  # the array each member reads
                  for b in dict.fromkeys(b for _n, b, _r in members[0].reads)}
        try:
            try:
                self._call(members, task, arrays)
            except EvalError:  # member by member, in replay order, to name the first failing box
                for k, member in enumerate(members):
                    self._call([member], task, {b: [data[k]] for b, data in arrays.items()})
                raise
        except EvalError as exc:
            raise EvalError(f"{exc} in task '{task.name}'") from None

    def _call(self, members, task, arrays):
        """Compute each write accessor's values from one kernel call over the
        union of the members' boxes, then store them all, so in-place updates
        read pre-task data."""
        buffers = self.graph.buffers
        rows = tuple((m.box.mins[0], m.box.maxs[0]) for m in members)
        box = Box(members[0].box.mins, members[-1].box.maxs)
        views = {name: ReadView(buffers[b].extent, arrays[b], rows, self.indexes[b])
                 for name, b, _r in members[0].reads}
        stores = []
        for wname, bufname, _region, _v in members[0].writes:
            integer = buffers[bufname].element_kind == "int64"
            key = (id(task.body[wname]), integer)
            if key not in self.kernels:
                self.kernels[key] = compile_kernel(task.body[wname], integer)
            values = self.kernels[key](box, views, task.params)
            stores.append((bufname, _canonical(values, integer)))
        rest, base = _index(box)[1:], rows[0][0]  # members differ along axis 0 only
        for bufname, values in stores:
            for member, (lo, hi) in zip(members, rows):
                self.storage[bufname, member.node][(slice(lo, hi),) + rest] = \
                    values[lo - base:hi - base]


def schedule(plan: Plan, link: Optional[LinkModel] = None) -> tuple[list, Fraction]:
    """The timing walk of plan under link, in id order: the plan checks, then
    the trace, whose event i is command i's, and the makespan."""
    if link is None:
        link = LinkModel()
    commands, node_count = plan.commands, plan.node_count
    buffers, tasks = plan.graph.buffers, plan.graph.tasks
    finished: list = [None] * len(commands)  # id -> its finish as a (Fraction, num, den) triple
    lane_free = [_ZERO] * node_count
    executes = {}  # (node, id of a chunk box, beta, frequency) -> (duration triple, box text)
    pushes = {}  # (buffer, id of a region) -> (label text, bytes, duration triple)
    push_durs = {}  # bytes -> duration triple
    accessors = {}  # task id -> its reads' and writes' (name, buffer)s
    sums = {}  # start and duration, as numerators and denominators -> finish triple
    trace: list[TraceEvent] = []

    for cid, cmd in enumerate(commands):
        if cmd.id != cid:
            raise ValidationError(f"command {cmd.id} is at position {cid}, not at its id")
        if cmd.deps and not 0 <= min(cmd.deps) <= max(cmd.deps) < cid:
            dep = next(d for d in cmd.deps if not 0 <= d < cid)
            raise ValidationError(f"command {cid} depends on id {dep}, not an earlier command")
        ready = _ZERO
        for dep in cmd.deps:  # many share one finish triple, which needs no products
            time = finished[dep]
            if time is not ready and time[1] * ready[2] > ready[1] * time[2]:
                ready = time
        kind = type(cmd)

        if kind is ExecuteCommand:
            node = cmd.node
            if not 0 <= node < node_count:
                raise ValidationError(f"Execute {cid} is on node {node}, outside [0, {node_count})")
            if not 0 < cmd.task_id <= len(tasks):
                raise ValidationError(f"Execute {cid} names task {cmd.task_id}, not in the graph")
            task = tasks[cmd.task_id - 1]
            want = accessors.get(cmd.task_id)
            if want is None:
                want = accessors[cmd.task_id] = [[(a.name, a.buffer) for a in accs]
                                                 for accs in (task.reads(), task.writes())]
            got = [[c[:2] for c in cmd.reads], [c[:2] for c in cmd.writes]]
            if got != want:
                raise ValidationError(f"Execute {cid} reads {got[0]} and writes {got[1]}, "
                                      f"not its task's {want[0]} and {want[1]}")
            for _name, buffer, region, _v in cmd.writes:
                if region.boxes != (cmd.box,):
                    raise ValidationError(f"Execute {cid} writes {region} of buffer "
                                          f"'{buffer}', not its box {cmd.box}")
            start = lane_free[node]
            if start is ready or ready[1] * start[2] >= start[1] * ready[2]:
                start = ready
            key = (node, id(cmd.box), task.beta, cmd.frequency_ghz)
            if key not in executes:
                device = plan.devices[node]
                tn, td = exact_ratio(device.throughput_ref)
                executes[key] = (_triple(exec_time(Fraction(cmd.box.volume() * td, tn), task.beta,
                                                   device.level(cmd.frequency_ghz)[1])),
                                 str(cmd.box))
            dur, box = executes[key]
            lane_free[node] = finished[cid] = finish = _finish(sums, start, dur)
            trace.append(TraceEvent("execute", node, cid, start[0], dur[0], 0, cmd.frequency_ghz,
                                    cmd.task_id, task.name, f"{task.name}#{cmd.task_id} {box}",
                                    finish[0]))

        elif kind is PushCommand:
            if not (0 <= cmd.src < node_count and 0 <= cmd.dst < node_count):
                raise ValidationError(f"Push {cid} goes from node {cmd.src} to node {cmd.dst}, "
                                      f"outside [0, {node_count})")
            key = (cmd.buffer, id(cmd.region))
            if key not in pushes:
                if cmd.buffer not in buffers:
                    raise ValidationError(f"Push {cid} names buffer '{cmd.buffer}', "
                                          f"not in the graph")
                nbytes = cmd.bytes
                if nbytes not in push_durs:
                    push_durs[nbytes] = _triple(link.transfer_time(nbytes))
                pushes[key] = (f"{cmd.buffer} {cmd.region}", nbytes, push_durs[nbytes])
            text, nbytes, dur = pushes[key]
            finished[cid] = finish = _finish(sums, ready, dur)
            trace.append(TraceEvent("push", cmd.src, cid, ready[0], dur[0], nbytes, None, None,
                                    None, f"{text} n{cmd.src}->n{cmd.dst}", finish[0]))

        elif kind is AwaitPushCommand:
            push = cmd.push
            if not (push.id in cmd.deps and commands[push.id] is push):
                raise ValidationError(f"AwaitPush {cid} does not depend on its Push {push.id}")
            finished[cid] = ready
            text, nbytes, _dur = pushes[push.buffer, id(push.region)]
            trace.append(TraceEvent("await_push", push.dst, cid, ready[0], _ZERO[0], nbytes, None,
                                    None, None, f"{text} n{push.dst}", ready[0]))
        else:
            raise ValidationError(f"unknown command type {type(cmd).__name__}")

    # Each Execute's and Push's finish is a value of sums, and an AwaitPush
    # finishes with one of its dependencies.
    return trace, max((finish[0] for finish in sums.values()), default=_ZERO[0])


def run(plan: Plan, link: Optional[LinkModel] = None) -> RunResult:
    """schedule(plan, link), then the data walk and the final gather."""
    trace, makespan = schedule(plan, link)
    # The data walk, in id order; the batch is evaluated before every transfer.
    storage = _Storage(plan.graph.buffers)
    batch = _Batch(plan.graph, storage)
    indexes = {}  # id of a Push's region -> its boxes' array indexes
    payloads: dict[int, list] = {}  # push id -> [(box index, values)]
    for cmd in plan.commands:
        if type(cmd) is ExecuteCommand:
            batch.add(cmd)
            continue
        batch.evaluate()
        if type(cmd) is PushCommand:
            if id(cmd.region) not in indexes:
                indexes[id(cmd.region)] = [_index(box) for box in cmd.region]
            src_arr = storage[cmd.buffer, cmd.src]
            payloads[cmd.id] = [(index, src_arr[index].copy()) for index in indexes[id(cmd.region)]]
        else:
            dst_arr = storage[cmd.push.buffer, cmd.push.dst]
            for index, values in payloads.pop(cmd.push.id):
                dst_arr[index] = values
    batch.evaluate()

    final = {}
    for name, entries in plan.final_locations.items():
        buf = plan.graph.buffers[name]
        out = np.zeros(buf.extent.shape, dtype=buf.dtype)
        for region, _version, holders in entries:
            arr = storage[name, min(holders)]
            for index in map(_index, region):
                out[index] = arr[index]
        final[name] = out

    return RunResult(buffers=final, trace=trace, makespan=makespan)

"""Discrete-event replay of a command plan.

Commands are processed in dependency order (Kahn's algorithm, lowest command
id first among the ready set), with their state in lists indexed by id, which
is a command's position in the plan: a plan where it is not, or with a
dependency outside the plan, is a ValidationError. Each node owns one execute
lane: an Execute starts at max(dependency finish times, lane free time) and
occupies the lane for its duration. Transfers are not serialized against each
other or against kernels; a Push starts as soon as its dependencies are done
and takes latency + bytes / bandwidth on the link.

Time is kept as exact rationals end to end so accounting identities hold
structurally; values become floats only at serialization. The maxima above
compare integer cross-products of numerators and denominators read once per
finish time, and the makespan is the latest finish of a command nothing
depends on, as no command finishes before its dependencies. Each distinct
duration is computed once per run: an Execute's per (node, chunk volume,
beta, frequency), a Push's per byte count.

Data movement is replayed for real: each node has its own backing array per
buffer. A Push copies its region out as one array slice per box when the Push
starts (the payload is in flight from that moment), and the matching
AwaitPush lands those slices in the destination array. An Execute that reads
a buffer it also writes snapshots that buffer once before writing, so
in-place updates within one task see pre-task data; a view of a buffer the
Execute does not write wraps the live array, which nothing changes while it
runs. A read that needs no clamping to the extent is a view of that array,
not a copy. The final contents are gathered from zeros, each entry of the
plan's final region map copied from its lowest-id holder.

Each distinct body is compiled once per run, per element kind, and evaluates
a whole write box per call. Reads are not checked: submit's footprint check
keeps them inside their mapped regions. The only runtime error is an int64
division by zero; the run raises it for the first failing write box in
replay order, naming that box's first failing id and its task. Every float
result is stored with NaNs in canonical form.
"""

from fractions import Fraction
from heapq import heappop, heappush
from typing import Optional

import numpy as np

from .energy import exec_time, require_finite
from .errors import EvalError, ValidationError
from .kernel import compile_kernel
from .model import ReadView
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
    __slots__ = _fields = ("kind", "node", "command_id", "start", "duration", "bytes",
                           "frequency_ghz", "task_id", "task_name", "label")

    def __init__(self, kind: str, node: int, command_id: int, start: Fraction,
                 duration: Fraction, bytes: int = 0, frequency_ghz: Optional[float] = None,
                 task_id: Optional[int] = None, task_name: Optional[str] = None,
                 label: str = ""):
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

    @property
    def finish(self) -> Fraction:
        return self.start + self.duration


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


def _store(arr, box, values, integer):
    """Write one box of kernel results: the single place where they land,
    so NaNs are made canonical here."""
    dst = arr[_index(box)]
    dst[...] = values
    if not integer:
        dst[np.isnan(dst)] = _CANONICAL_NAN


class _Storage:
    """Per-node backing arrays, created lazily. Node 0 starts from the host
    initialization; any other node starts from zeros and only ever observes
    cells that were pushed to it."""

    def __init__(self, buffers):
        self.buffers = buffers
        self.arrays: dict[tuple[str, int], np.ndarray] = {}

    def array(self, buffer: str, node: int) -> np.ndarray:
        key = (buffer, node)
        if key not in self.arrays:
            buf = self.buffers[buffer]
            if node == 0:
                self.arrays[key] = buf.init.materialize(buf.extent, buf.element_kind)
            else:
                self.arrays[key] = np.zeros(buf.extent.shape, dtype=buf.dtype)
        return self.arrays[key]


_ZERO = (Fraction(0), 0, 1)


def _latest(times, last=_ZERO) -> tuple:
    """The latest of last and times, (Fraction, numerator, denominator) triples."""
    for time in times:
        if time[1] * last[2] > last[1] * time[2]:
            last = time
    return last


def run(plan: Plan, link: Optional[LinkModel] = None) -> RunResult:
    if link is None:
        link = LinkModel()
    buffers = plan.graph.buffers
    storage = _Storage(buffers)
    devices = plan.devices

    commands = plan.commands
    indegree = [len(c.deps) for c in commands]
    dependents: list[list[int]] = [[] for _ in commands]
    for cid, c in enumerate(commands):
        if c.id != cid:
            raise ValidationError(f"command {c.id} is at position {cid}, not at its id")
        for dep in c.deps:
            if not 0 <= dep < len(commands):
                raise ValidationError(f"command {cid} depends on id {dep}, not in the plan")
            dependents[dep].append(cid)

    heap = [cid for cid, deg in enumerate(indegree) if deg == 0]  # ascending: a heap

    finished: list = [None] * len(commands)  # command id -> its finish as a _latest triple
    lane_free = [_ZERO] * plan.node_count
    payloads: dict[int, tuple] = {}  # push id -> (label text, bytes, [(box index, values)])
    kernels = {}  # (id of a body, integer) -> compiled body
    exec_durs = {}  # (node, chunk volume, beta, frequency) -> duration
    push_durs = {}  # bytes -> duration
    trace: list[TraceEvent] = []

    while heap:
        cid = heappop(heap)
        cmd = commands[cid]
        ready = _latest([finished[dep] for dep in cmd.deps])

        if isinstance(cmd, ExecuteCommand):
            task = plan.graph.task(cmd.task_id)
            node = cmd.node
            start = _latest((lane_free[node],), ready)[0]
            volume = cmd.box.volume()
            dur_key = (node, volume, task.beta, cmd.frequency_ghz)
            dur = exec_durs.get(dur_key)
            if dur is None:
                device = devices[node]
                t_ref = Fraction(volume) / Fraction(device.throughput_ref)
                dur = exec_durs[dur_key] = exec_time(
                    t_ref, task.beta, device.level(cmd.frequency_ghz)[1])
            finish = start + dur
            lane_free[node] = finished[cid] = (finish, finish.numerator, finish.denominator)

            written = {bufname for _w, bufname, _r, _v in cmd.writes}
            arrays = {}  # buffer -> the array this Execute's reads see
            views = {}
            for name, bufname, _region in cmd.reads:
                data = arrays.get(bufname)
                if data is None:
                    data = storage.array(bufname, node)
                    if bufname in written:
                        data = data.copy()
                    arrays[bufname] = data
                views[name] = ReadView(buffers[bufname].extent, data)
            for wname, bufname, region, _v in cmd.writes:
                integer = buffers[bufname].element_kind == "int64"
                key = (id(task.body[wname]), integer)  # tasks of one text share its body
                if key not in kernels:
                    kernels[key] = compile_kernel(task.body[wname], integer)
                arr = storage.array(bufname, node)
                for box in region:
                    try:
                        values = kernels[key](box, views, task.params)
                    except EvalError as exc:
                        raise EvalError(f"{exc} in task '{task.name}'") from None
                    _store(arr, box, values, integer)

            trace.append(TraceEvent(
                kind="execute", node=node, command_id=cid, start=start, duration=dur,
                frequency_ghz=cmd.frequency_ghz, task_id=cmd.task_id, task_name=task.name,
                label=f"{task.name}#{cmd.task_id} {cmd.box}",
            ))

        elif isinstance(cmd, PushCommand):
            start = ready[0]
            nbytes = cmd.bytes
            dur = push_durs.get(nbytes)
            if dur is None:
                dur = push_durs[nbytes] = link.transfer_time(nbytes)
            finish = start + dur
            finished[cid] = (finish, finish.numerator, finish.denominator)
            src_arr = storage.array(cmd.buffer, cmd.src)
            text = f"{cmd.buffer} {cmd.region}"
            payloads[cid] = (text, nbytes, [
                (index, src_arr[index].copy()) for index in map(_index, cmd.region)
            ])
            trace.append(TraceEvent(
                kind="push", node=cmd.src, command_id=cid, start=start, duration=dur,
                bytes=nbytes, label=f"{text} n{cmd.src}->n{cmd.dst}",
            ))

        elif isinstance(cmd, AwaitPushCommand):
            finished[cid] = ready
            start = ready[0]
            push = cmd.push
            dst_arr = storage.array(push.buffer, push.dst)
            text, nbytes, slices = payloads.pop(push.id)
            for index, values in slices:
                dst_arr[index] = values
            trace.append(TraceEvent(
                kind="await_push", node=push.dst, command_id=cid, start=start,
                duration=_ZERO[0], bytes=nbytes, label=f"{text} n{push.dst}",
            ))
        else:
            raise ValidationError(f"unknown command type {type(cmd).__name__}")

        for nxt in dependents[cid]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heappush(heap, nxt)

    stuck = [cid for cid, deg in enumerate(indegree) if deg]
    if stuck:
        raise ValidationError(f"command graph has a cycle involving ids {stuck}")

    makespan = _latest([finished[cid] for cid, after in enumerate(dependents) if not after])[0]

    final = {}
    for name, entries in plan.final_locations.items():
        buf = buffers[name]
        out = np.zeros(buf.extent.shape, dtype=buf.dtype)
        for region, _version, holders in entries:
            arr = storage.array(name, min(holders))
            for index in map(_index, region):
                out[index] = arr[index]
        final[name] = out

    return RunResult(buffers=final, trace=trace, makespan=makespan)

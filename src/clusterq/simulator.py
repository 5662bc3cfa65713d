"""Discrete-event replay of a command plan.

Commands are processed in dependency order (Kahn's algorithm, lowest command
id first among the ready set). Each node owns one execute lane: an Execute
starts at max(dependency finish times, lane free time) and occupies the lane
for its duration. Transfers are not serialized against each other or against
kernels; a Push starts as soon as its dependencies are done and takes
latency + bytes / bandwidth on the link.

Time is kept as exact rationals end to end so accounting identities hold
structurally; values become floats only at serialization. Each distinct
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
not a copy.

Each (task, write accessor) body is compiled once per run and evaluates a
whole write box per call; on a box where some id fails it raises the error
of the first failing id, so the run's error is that of the first failing
write box in replay order. Every float result is stored with NaNs in
canonical form.
"""

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Optional

import numpy as np

from .energy import exec_time, require_finite
from .errors import ValidationError
from .kernel import compile_kernel
from .model import ELEMENT_BYTES, ReadView
from .scheduler import AwaitPushCommand, ExecuteCommand, Plan, PushCommand

# bench/tracing.py's kernel.eval hook wraps this name to count per-cell
# kernel evaluations. The simulator makes none, so the name is bound only
# for that hook to find, and the count reads 0.
eval_kernel = None


@dataclass(frozen=True)
class LinkModel:
    latency_s: float = 1e-6
    bandwidth_bytes_per_s: float = 1e9

    def __post_init__(self):
        require_finite(self)
        if self.latency_s < 0:
            raise ValidationError("link latency must be nonnegative")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValidationError("link bandwidth must be positive")

    def transfer_time(self, nbytes: int) -> Fraction:
        return Fraction(self.latency_s) + Fraction(nbytes) / Fraction(self.bandwidth_bytes_per_s)


@dataclass
class TraceEvent:
    kind: str  # "execute" | "push" | "await_push"
    node: int
    command_id: int
    start: Fraction
    duration: Fraction
    bytes: int = 0
    frequency_ghz: Optional[float] = None
    task_id: Optional[int] = None
    task_name: Optional[str] = None
    label: str = ""

    @property
    def finish(self) -> Fraction:
        return self.start + self.duration


@dataclass
class RunResult:
    buffers: dict  # name -> np.ndarray, gathered final contents
    trace: list
    makespan: Fraction
    plan: Plan


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


def run(plan: Plan, link: Optional[LinkModel] = None) -> RunResult:
    if link is None:
        link = LinkModel()
    buffers = plan.graph.buffers
    storage = _Storage(buffers)
    devices = plan.devices

    by_id = {c.id: c for c in plan.commands}
    indegree = {c.id: len(c.deps) for c in plan.commands}
    dependents: dict[int, list[int]] = {c.id: [] for c in plan.commands}
    for c in plan.commands:
        for dep in c.deps:
            dependents[dep].append(c.id)

    heap = [cid for cid, deg in sorted(indegree.items()) if deg == 0]
    heapify(heap)

    zero = Fraction(0)
    finish_time: dict[int, Fraction] = {}
    lane_free: dict[int, Fraction] = {n: zero for n in range(plan.node_count)}
    payloads: dict[int, list] = {}  # push id -> [(box index, values)]
    kernels = {}  # (task id, write accessor) -> compiled body
    exec_durs = {}  # (node, chunk volume, beta, frequency) -> duration
    push_durs = {}  # bytes -> duration
    trace: list[TraceEvent] = []
    makespan = zero
    done = 0

    while heap:
        cid = heappop(heap)
        cmd = by_id[cid]
        dep_ready = max((finish_time[d] for d in cmd.deps), default=zero)

        if isinstance(cmd, ExecuteCommand):
            task = plan.graph.task(cmd.task_id)
            node = cmd.node
            start = max(dep_ready, lane_free[node])
            volume = cmd.chunk.box.volume()
            dur_key = (node, volume, task.beta, cmd.frequency_ghz)
            dur = exec_durs.get(dur_key)
            if dur is None:
                device = devices[node]
                t_ref = Fraction(volume) / Fraction(device.throughput_ref)
                dur = exec_durs[dur_key] = exec_time(
                    t_ref, task.beta, device.f_ref_ghz, cmd.frequency_ghz)
            finish = lane_free[node] = start + dur

            written = {bufname for _w, bufname, _r, _v in cmd.writes}
            arrays = {}  # buffer -> the array this Execute's reads see
            views = {}
            for name, bufname, region in cmd.reads:
                data = arrays.get(bufname)
                if data is None:
                    data = storage.array(bufname, node)
                    if bufname in written:
                        data = data.copy()
                    arrays[bufname] = data
                views[name] = ReadView(
                    name, bufname, region, buffers[bufname].extent, data,
                    context=f"task '{task.name}'",
                )
            for wname, bufname, region, _v in cmd.writes:
                integer = buffers[bufname].element_kind == "int64"
                key = (cmd.task_id, wname)
                if key not in kernels:
                    kernels[key] = compile_kernel(task.body[wname], integer)
                arr = storage.array(bufname, node)
                for box in region:
                    _store(arr, box, kernels[key](box, views, task.params), integer)

            trace.append(TraceEvent(
                kind="execute", node=node, command_id=cid, start=start, duration=dur,
                frequency_ghz=cmd.frequency_ghz, task_id=cmd.task_id, task_name=task.name,
                label=f"{task.name}#{cmd.task_id} {cmd.chunk.box}",
            ))

        elif isinstance(cmd, PushCommand):
            start = dep_ready
            dur = push_durs.get(cmd.bytes)
            if dur is None:
                dur = push_durs[cmd.bytes] = link.transfer_time(cmd.bytes)
            finish = start + dur
            src_arr = storage.array(cmd.buffer, cmd.src)
            payloads[cid] = [
                (index, src_arr[index].copy()) for index in map(_index, cmd.region)
            ]
            trace.append(TraceEvent(
                kind="push", node=cmd.src, command_id=cid, start=start, duration=dur,
                bytes=cmd.bytes,
                label=f"{cmd.buffer} {cmd.region} n{cmd.src}->n{cmd.dst}",
            ))

        elif isinstance(cmd, AwaitPushCommand):
            start = finish = dep_ready
            dst_arr = storage.array(cmd.buffer, cmd.dst)
            for index, values in payloads.pop(cmd.push_id):
                dst_arr[index] = values
            trace.append(TraceEvent(
                kind="await_push", node=cmd.dst, command_id=cid, start=start, duration=zero,
                bytes=ELEMENT_BYTES * cmd.region.volume(),
                label=f"{cmd.buffer} {cmd.region} n{cmd.dst}",
            ))
        else:
            raise ValidationError(f"unknown command type {type(cmd).__name__}")

        finish_time[cid] = finish
        if finish > makespan:
            makespan = finish
        done += 1
        for nxt in dependents[cid]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heappush(heap, nxt)

    if done != len(plan.commands):
        stuck = sorted(cid for cid, deg in indegree.items() if deg > 0)
        raise ValidationError(f"command graph has a cycle involving ids {stuck}")

    final = {}
    for name, entries in plan.final_locations.items():
        buf = buffers[name]
        out = storage.array(name, 0).copy() if buf.init.is_initialized else np.zeros(
            buf.extent.shape, dtype=buf.dtype)
        for region, _version, holders in entries:
            arr = storage.array(name, min(holders))
            for index in map(_index, region):
                out[index] = arr[index]
        final[name] = out

    return RunResult(buffers=final, trace=trace, makespan=makespan, plan=plan)

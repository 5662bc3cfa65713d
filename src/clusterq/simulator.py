"""Discrete-event replay of a command plan.

Commands are processed in dependency order (Kahn's algorithm, lowest command
id first among the ready set). Each node owns one execute lane: an Execute
starts at max(dependency finish times, lane free time) and occupies the lane
for its duration. Transfers are not serialized against each other or against
kernels; a Push starts as soon as its dependencies are done and takes
latency + bytes / bandwidth on the link.

Time is kept as exact rationals end to end so accounting identities hold
structurally; values become floats only at serialization.

Data movement is replayed for real: each node has its own backing array per
buffer. A Push copies its region out as one array slice per box when the Push
starts (the payload is in flight from that moment), and the matching
AwaitPush lands those slices in the destination array. Execute snapshots its
read views before writing so in-place updates within one task see pre-task
data.

Each (task, write accessor) body is compiled once per run and evaluates a
whole write box per call. A box the compiled program declines is re-run
through the scalar reference, which raises the exact error of the first
failing id. Every float result is stored with NaNs in canonical form.
"""

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Optional

import numpy as np

from .energy import exec_time
from .errors import ValidationError
# bench/tracing.py counts per-cell kernel evaluations by wrapping this module's
# eval_kernel. The simulator makes none (its error path goes through eval_box),
# so the name stays only for that wrapper to find.
from .kernel import compile_kernel, eval_box, eval_kernel  # noqa: F401
from .model import ELEMENT_BYTES, ReadView
from .scheduler import AwaitPushCommand, ExecuteCommand, Plan, PushCommand


@dataclass(frozen=True)
class LinkModel:
    latency_s: float = 1e-6
    bandwidth_bytes_per_s: float = 1e9

    def __post_init__(self):
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
    """Write one box of kernel results: the single place where both
    evaluators' results land, so NaNs are made canonical here."""
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

    finish_time: dict[int, Fraction] = {}
    lane_free: dict[int, Fraction] = {n: Fraction(0) for n in range(plan.node_count)}
    payloads: dict[int, list] = {}  # push id -> [(box index, values)]
    kernels = {}  # (task id, write accessor) -> compiled body
    trace: list[TraceEvent] = []
    done = 0

    while heap:
        cid = heappop(heap)
        cmd = by_id[cid]
        dep_ready = max((finish_time[d] for d in cmd.deps), default=Fraction(0))

        if isinstance(cmd, ExecuteCommand):
            task = plan.graph.task(cmd.task_id)
            node = cmd.node
            device = devices[node]
            start = max(dep_ready, lane_free[node])
            t_ref = Fraction(cmd.chunk.box.volume()) / Fraction(device.throughput_ref)
            dur = exec_time(t_ref, task.beta, device.f_ref_ghz, cmd.frequency_ghz)
            lane_free[node] = start + dur

            views = {}
            for name, bufname, region in cmd.reads:
                buf = buffers[bufname]
                views[name] = ReadView(
                    name, bufname, region, buf.extent,
                    storage.array(bufname, node).copy(),
                    context=f"task '{task.name}'",
                )
            for wname, bufname, region, _v in cmd.writes:
                expr = task.body[wname]
                integer = buffers[bufname].element_kind == "int64"
                key = (cmd.task_id, wname)
                if key not in kernels:
                    kernels[key] = compile_kernel(expr, integer)
                arr = storage.array(bufname, node)
                for box in region:
                    values = kernels[key](box, views, task.params)
                    if values is None:
                        values = eval_box(expr, box, views, task.params, integer)
                    _store(arr, box, values, integer)

            trace.append(TraceEvent(
                kind="execute", node=node, command_id=cid, start=start, duration=dur,
                frequency_ghz=cmd.frequency_ghz, task_id=cmd.task_id, task_name=task.name,
                label=f"{task.name}#{cmd.task_id} {cmd.chunk.box}",
            ))

        elif isinstance(cmd, PushCommand):
            start = dep_ready
            dur = link.transfer_time(cmd.bytes)
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
            start = dep_ready
            dur = Fraction(0)
            dst_arr = storage.array(cmd.buffer, cmd.dst)
            for index, values in payloads.pop(cmd.push_id):
                dst_arr[index] = values
            trace.append(TraceEvent(
                kind="await_push", node=cmd.dst, command_id=cid, start=start, duration=dur,
                bytes=ELEMENT_BYTES * cmd.region.volume(),
                label=f"{cmd.buffer} {cmd.region} n{cmd.dst}",
            ))
        else:
            raise ValidationError(f"unknown command type {type(cmd).__name__}")

        finish_time[cid] = trace[-1].finish
        done += 1
        for nxt in dependents[cid]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heappush(heap, nxt)

    if done != len(plan.commands):
        stuck = sorted(cid for cid, deg in indegree.items() if deg > 0)
        raise ValidationError(f"command graph has a cycle involving ids {stuck}")

    makespan = max((ev.finish for ev in trace), default=Fraction(0))

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


def trace_to_chrome(trace) -> list[dict]:
    """Chrome trace-viewer event list. Times in microseconds."""
    lanes = {"execute": 0, "push": 1, "await_push": 2}
    out = []
    for ev in trace:
        out.append({
            "name": ev.label or ev.kind,
            "ph": "X",
            "pid": ev.node,
            "tid": lanes[ev.kind],
            "ts": float(ev.start * 1_000_000),
            "dur": float(ev.duration * 1_000_000),
            "args": {
                "kind": ev.kind,
                "command": ev.command_id,
                **({"frequency_ghz": ev.frequency_ghz} if ev.frequency_ghz is not None else {}),
                **({"bytes": ev.bytes} if ev.bytes else {}),
            },
        })
    return out

"""Chunk splitting, data-distribution tracking and command generation.

Tasks are split along dimension 0 into contiguous chunk boxes, one per node
(box k runs on node k; sizes differ by at most one with larger boxes first).
Chunk boxes, mapped reads, needs and write regions are computed once per
distinct (range, accessors) value, a fixed mapper's keyed by its region's
dims and boxes, and shared by the tasks of that shape. A RegionMapTable
tracks, per buffer, which nodes hold which sub-regions at which version, as
pairwise disjoint (region, version, holders) entries. Walking tasks in
topological order, the generator resolves each chunk's need of a buffer with
one region.overlapping query of the buffer's region.SpanIndex, built once per
task, so a chunk visits only the entries near its axis-0 span: each entry's
part of the need counts toward coverage, and a part the chunk's node does not
hold gets a Push from the lowest-id holder plus an AwaitPush holding that
Push. Cells no entry covers are an uninitialized read. Then comes an Execute
per chunk, with its task id, box and node. A command's id is its position in
the plan. A task bumps the version of each buffer it writes once. Transferred
regions gain the destination as holder, so re-reading resident data never
produces a second transfer: each piece remembers the entry it was cut from,
and stays pending until the buffer's next read or the final snapshot splits
that entry in place, or its next write, which drops the pieces of entries it
removes whole and applies the rest first. A write is one region.cut that
takes the task's chunk writes, which are pairwise disjoint, out of the
entries their spans meet, in Execute order, and appends them, at the new
version with the writer as sole holder. The entries and their box
decomposition are the ones that applying each piece and each chunk write in
turn, by a scan of every entry, would give.

Executes are planned at their device's top frequency level, so the structure
does not depend on the energy target; assign_frequencies then sets each
Execute's level in one pass over the finished plan.

An Execute depends on its AwaitPushes, on every Execute of each direct
task-graph predecessor, and on same-task Pushes leaving its node whose region
overlaps the Execute's writes (the data must leave before it is overwritten in
place). A Push depends on the command that produced its data on the source
node. A predecessor task that is an ancestor of another predecessor adds no
dependency: every task has at least one Execute, so the other predecessor's
Executes already wait for its Executes. Reachability is unchanged, and the
number of dependencies grows linearly with the queue length.
"""

from fractions import Fraction
from typing import Optional

from .energy import DeviceModel, EnergyTarget, select_frequency
from .errors import UninitializedReadError, ValidationError
from .graph import TaskGraph, dot_string
from .model import ELEMENT_BYTES, Fixed, Task
from .region import Box, Region, SpanIndex, cut, inside, overlapping
from .value import Value

# Devices, simulator lanes and energy accounts are allocated per node.
MAX_NODES = 2 ** 16


def split_task(task: Task, node_count: int) -> list[Box]:
    """Contiguous split along dimension 0, box k for node k; no box is empty."""
    if node_count < 1:
        raise ValidationError("node count must be at least 1")
    rng = task.global_range
    n = rng.maxs[0] - rng.mins[0]
    q, r = divmod(n, node_count)
    boxes = []
    lo = rng.mins[0]
    for node in range(node_count):
        size = q + (1 if node < r else 0)
        if size == 0:
            break
        boxes.append(Box((lo,) + rng.mins[1:], (lo + size,) + rng.maxs[1:]))
        lo += size
    return boxes


class Command(Value):
    __slots__ = _fields = ("id", "deps")


class ExecuteCommand(Command):
    __slots__ = ("task_id", "box", "node", "frequency_ghz", "reads", "writes")
    _fields = Command._fields + __slots__

    def __init__(self, id: int, deps: tuple[int, ...], task_id: int, box: Box, node: int,
                 frequency_ghz: float, reads: tuple = (), writes: tuple = ()):
        self.id = id
        self.deps = deps
        self.task_id = task_id
        self.box = box
        self.node = node
        self.frequency_ghz = frequency_ghz
        # (accessor name, buffer, mapped region) per read accessor
        self.reads = reads
        # (accessor name, buffer, mapped region, version written) per write accessor
        self.writes = writes


class PushCommand(Command):
    __slots__ = ("src", "dst", "buffer", "region", "version")
    _fields = Command._fields + __slots__

    def __init__(self, id: int, deps: tuple[int, ...], src: int, dst: int, buffer: str,
                 region: Region, version: int):
        self.id = id
        self.deps = deps
        self.src = src
        self.dst = dst
        self.buffer = buffer
        self.region = region
        self.version = version

    @property
    def bytes(self) -> int:
        return ELEMENT_BYTES * self.region.volume()


class AwaitPushCommand(Command):
    __slots__ = ("push",)
    _fields = Command._fields + __slots__

    def __init__(self, id: int, deps: tuple[int, ...], push: PushCommand):
        self.id = id
        self.deps = deps
        self.push = push


class RegionMapTable:
    """Tracks buffer sub-regions to (version, holder nodes).

    A buffer's entries are pairwise disjoint (region, version, holders)
    tuples; holders maps each node holding the region to the command that
    materialized it there (None for host-initialized data). add_holders
    splits only the entries a task's transferred pieces were cut from, in
    place, and read, write and snapshot apply the pending gains first. write
    cuts a task's written regions out of the entries they meet in one pass
    before appending them as new entries.
    """

    def __init__(self, buffers):
        self.entries: dict[str, list[tuple]] = {}
        self.pending: dict[str, dict] = {}  # buffer -> the gains add_holders has yet to apply
        self.version_counter: dict[str, int] = {}
        for name, buf in buffers.items():
            if buf.init.is_initialized:
                full = Region.from_box(buf.extent)
                self.entries[name] = [(full, 1, {0: None})]
                self.version_counter[name] = 1
            else:
                self.entries[name] = []
                self.version_counter[name] = 0

    def add_holders(self, buffer: str, gains: dict):
        """Record that nodes now also hold pieces at their current version.

        gains maps the index of an entry of buffer to the (region, node,
        producer) pieces cut from that entry, in transfer order. Each such
        entry is replaced where it stands by its splits; a piece overlaps
        no other entry, so every other entry stays as it is.
        """
        entries = self.entries[buffer]
        for index in sorted(gains, reverse=True):
            pieces = [entries[index]]
            for region, node, producer in gains[index]:
                split = []
                for piece in pieces:
                    have, version, holders = piece
                    if not have.overlaps(region):
                        split.append(piece)
                        continue
                    part = region if inside(region, have) else have.intersect(region)
                    # A piece equal to the split it lands on leaves no rest.
                    rest = have.difference(part) if part.boxes != have.boxes else None
                    if rest:
                        split.append((rest, version, holders))
                    split.append((part, version, {**holders, node: producer}))
                pieces = split
            entries[index:index + 1] = pieces

    def read(self, buffer: str) -> list:
        """The entries of buffer, with its pending gains applied."""
        self.add_holders(buffer, self.pending.pop(buffer, {}))
        return self.entries[buffer]

    def write(self, buffer: str, version: int, writes):
        """Record one task's writes of buffer: pairwise disjoint (region,
        node, producer) triples in Execute order, each now held only by its
        node at version. The pending gains of an entry the writes remove
        whole go with it; the others are applied first."""
        regions = [region for region, _node, _producer in writes]
        gains = self.pending.pop(buffer, {})
        while True:  # each entry's rest, tagged with its index; again after applying gains
            entries = self.entries[buffer]
            rests = cut([(e[0], i) for i, e in enumerate(entries)], regions, SpanIndex(entries))
            gains = {i: gains[i] for _rest, i in rests if i in gains}
            if not gains:
                break
            self.add_holders(buffer, gains)
            gains = {}
        kept = [entries[i] if rest is entries[i][0] else (rest,) + entries[i][1:]
                for rest, i in rests]
        kept.extend((region, version, {node: producer}) for region, node, producer in writes)
        self.entries[buffer] = kept

    def bump_version(self, buffer: str) -> int:
        self.version_counter[buffer] += 1
        return self.version_counter[buffer]

    def snapshot(self):
        for buffer in list(self.pending):
            self.read(buffer)
        return {
            name: [(region, version, frozenset(holders)) for region, version, holders in entries]
            for name, entries in self.entries.items()
        }


class Plan(Value):
    """Output of command generation, consumed by the simulator."""

    __slots__ = _fields = ("graph", "node_count", "commands", "devices", "final_locations",
                           "target")

    def __init__(self, graph: TaskGraph, node_count: int, commands: list[Command],
                 devices: list[DeviceModel], final_locations: Optional[dict] = None,
                 target: Optional[EnergyTarget] = None):
        self.graph = graph
        self.node_count = node_count
        self.commands = commands
        self.devices = devices
        self.final_locations = {} if final_locations is None else final_locations
        self.target = target  # queue target of assign_frequencies

    def executes(self):
        return [c for c in self.commands if isinstance(c, ExecuteCommand)]

    def pushes(self):
        return [c for c in self.commands if isinstance(c, PushCommand)]

    def await_pushes(self):
        return [c for c in self.commands if isinstance(c, AwaitPushCommand)]


def _resolve_devices(devices, node_count) -> list[DeviceModel]:
    if devices is None:
        devices = DeviceModel()
    if isinstance(devices, DeviceModel):
        return [devices] * node_count
    devices = list(devices)
    if len(devices) == 1:
        return devices * node_count
    if len(devices) != node_count:
        raise ValidationError(
            f"device count must be 1 or equal to the node count ({node_count}), "
            f"got {len(devices)}"
        )
    return devices


def _chunk_shapes(task: Task, node_count: int, buffers) -> list:
    """Per chunk of task: its box, its read specs, each read buffer's need
    and its (accessor name, buffer, mapped region) writes."""
    chunks = []
    for box in split_task(task, node_count):
        reads = tuple((acc.name, acc.buffer, acc.mapper.map_chunk(box, buffers[acc.buffer].extent))
                      for acc in task.reads())
        writes = [(acc.name, acc.buffer, acc.mapper.map_chunk(box, buffers[acc.buffer].extent))
                  for acc in task.writes()]
        needs = {}
        for _name, buffer, mapped in reads:
            needs[buffer] = needs[buffer].union(mapped) if buffer in needs else mapped
        chunks.append((box, reads, tuple(needs.items()), writes))
    return chunks


def generate_commands(graph: TaskGraph, node_count: int, devices=None) -> Plan:
    """The command plan, every Execute at its device's top frequency level."""
    if node_count < 1:
        raise ValidationError("node count must be at least 1")
    if node_count > MAX_NODES:
        raise ValidationError(
            f"node count {node_count} exceeds the maximum of {MAX_NODES}"
        )
    devices = _resolve_devices(devices, node_count)
    table = RegionMapTable(graph.buffers)

    commands: list[Command] = []
    exec_ids_by_task: dict[int, list[int]] = {}
    shapes = {}  # (range, accessors) -> _chunk_shapes, shared by the tasks of that shape

    for tid in graph.topological_order():
        task = graph.task(tid)

        pred_exec_ids = []
        for pred in graph.reduced_predecessors(tid):
            pred_exec_ids.extend(exec_ids_by_task.get(pred, ()))

        version = {acc.buffer: table.bump_version(acc.buffer) for acc in task.writes()}
        shape = (task.global_range, tuple(  # a Region has no hash
            (a.buffer, a.mode, a.name, (a.mapper.region.dims, a.mapper.region.boxes)
             if isinstance(a.mapper, Fixed) else a.mapper) for a in task.accessors))
        chunks = shapes.get(shape)
        if chunks is None:
            chunks = shapes[shape] = _chunk_shapes(task, node_count, graph.buffers)

        pushes_from: dict[int, list[PushCommand]] = {}  # source node -> pushes
        task_execs: list[ExecuteCommand] = []
        # buffer -> entry index -> (piece, dst node, awaitpush id) cut from it
        gains: dict[str, dict[int, list]] = {}
        # The entries change only after the chunks, so each is indexed once per task.
        indexes = {b: SpanIndex(table.read(b)) for b in {acc.buffer for acc in task.reads()}}

        for node, (box, reads, needs, writes) in enumerate(chunks):
            await_ids = []
            for buffer, need in needs:
                found = 0
                entries = table.entries[buffer]
                for index, (have, held_version, holders) in overlapping(
                        entries, need, indexes[buffer]):
                    part = have if inside(have, need) else have.intersect(need)
                    found += part.volume()
                    if node in holders:
                        continue
                    src = min(holders)
                    producer = holders[src]
                    push = PushCommand(len(commands), () if producer is None else (producer,),
                                       src, node, buffer, part, held_version)
                    commands.append(push)
                    pushes_from.setdefault(src, []).append(push)
                    ap = AwaitPushCommand(len(commands), (push.id,), push)
                    commands.append(ap)
                    await_ids.append(ap.id)
                    gains.setdefault(buffer, {}).setdefault(index, []).append(
                        (part, node, ap.id))
                if found != need.volume():
                    missing = [(need,)]
                    [(uncovered,)] = cut(missing, [e[0] for e in entries], SpanIndex(missing))
                    raise UninitializedReadError(
                        f"task '{task.name}' (id {tid}) reads {uncovered} of buffer "
                        f"'{buffer}' which was never written or host-initialized"
                    )

            exe = ExecuteCommand(
                len(commands), tuple(sorted(set(await_ids) | set(pred_exec_ids))), tid, box,
                node, devices[node].levels_ghz[-1], reads,
                tuple((name, b, region, version[b]) for name, b, region in writes))
            commands.append(exe)
            task_execs.append(exe)

        # In-place hazard: data pushed out of a node must leave before the
        # node's own Execute overwrites it within the same task.
        for exe in task_execs:
            extra = set()
            for push in pushes_from.get(exe.node, ()):
                for _, buffer, region, _v in exe.writes:
                    if buffer == push.buffer and region.overlaps(push.region):
                        extra.add(push.id)
                        break
            if extra:
                exe.deps = tuple(sorted(set(exe.deps) | extra))

        table.pending.update(gains)  # the task read those buffers, so none has gains pending
        for buffer, v in version.items():
            table.write(buffer, v, [(region, exe.node, exe.id) for exe in task_execs
                                    for _, b, region, _v in exe.writes if b == buffer])

        exec_ids_by_task[tid] = [e.id for e in task_execs]

    return Plan(graph, node_count, commands, devices, table.snapshot())


def assign_frequencies(plan: Plan, target: EnergyTarget = EnergyTarget.MAX_PERF):
    """Set each Execute's frequency for its task's target, else the queue's.

    Every level's objective carries the chunk's t_ref**k, a positive factor
    common to all levels, so the level chosen depends only on (device,
    target, beta): it is selected once per such key, for the first chunk
    with that key, and reused.
    """
    chosen = {}
    for exe in plan.executes():
        task = plan.graph.task(exe.task_id)
        device = plan.devices[exe.node]
        key = (device, task.target or target, task.beta)
        if key not in chosen:
            t_ref = Fraction(exe.box.volume()) / Fraction(device.throughput_ref)
            chosen[key] = select_frequency(device, key[1], t_ref, task.beta)
        exe.frequency_ghz = chosen[key]
    plan.target = target


def export_command_graph(plan: Plan) -> str:
    lines = ["digraph commands {"]
    for cmd in plan.commands:
        if isinstance(cmd, ExecuteCommand):
            label = (
                f"C{cmd.id}: Execute T{cmd.task_id} {cmd.box} "
                f"n{cmd.node} @{cmd.frequency_ghz}GHz"
            )
        elif isinstance(cmd, PushCommand):
            label = (
                f"C{cmd.id}: Push {cmd.buffer} {cmd.region} v{cmd.version} "
                f"n{cmd.src}->n{cmd.dst}"
            )
        else:
            push = cmd.push
            label = f"C{cmd.id}: AwaitPush {push.buffer} {push.region} v{push.version} n{push.dst}"
        lines.append(f"  C{cmd.id} [label={dot_string(label)}];")
    for cmd in plan.commands:
        for dep in sorted(cmd.deps):
            lines.append(f"  C{dep} -> C{cmd.id};")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Chunk splitting, data-distribution tracking and command generation.

Tasks are split along dimension 0 into contiguous chunk boxes, one per node
(box k runs on node k; sizes differ by at most one with larger boxes first).
Chunk boxes, mapped reads, needs and write regions are computed once per task
shape (model.shape_key) and shared by its tasks. A RegionMapTable tracks, per
buffer, which nodes hold which sub-regions at which version, as pairwise
disjoint (region, version, holders) entries. Walking tasks in topological
order, a chunk's need of a buffer is one region.overlapping query of the
buffer's region.SpanIndex, built once per task: each entry's part of the need
counts toward coverage, and a part the chunk's node does not hold gets a Push
from the lowest-id holder plus an AwaitPush holding that Push. Cells no entry
covers are an uninitialized read. After all of the task's transfers comes an
Execute per chunk, with its task id, box and node. A command's id is its
position in the plan, and every dependency has a lower id. A task bumps the
version of each buffer it writes once. Transferred pieces gain the
destination as holder, so resident data is never sent twice: each remembers
the entry it was cut from, and stays pending until the buffer's next read or
the final snapshot splits that entry in place, or its next write, which drops
the pieces of entries it removes whole and applies the rest first. A write is
one region.cut of the task's chunk writes out of the entries their spans
meet, which then come last, at the new version with the writer as sole
holder. Entries and boxes are those that applying each piece and each chunk
write in turn, by a scan of every entry, would give.

Planning reads, of the buffers a task touches, only their layouts: entry
boxes, holder nodes and which of them hold host data, and pending pieces. A
task's key is its shape and the id of each such layout, interned per
generate_commands call. At a key's first sighting the task is planned on the
table; at its second, on a copy of its buffers whose versions, producers and
new versions are tokens, which gives the key's template: the commands and the
buffers' resulting entries, pending pieces and layout ids. Later sightings
instantiate it: ids shift, tokens resolve against the current entries and
regions are shared. So an iterative queue does its region algebra once per
key, as Legion's dynamic tracing (Lee et al., SC 2018) memoizes its analysis.

Executes are planned at their device's top frequency level, so the structure
does not depend on the energy target; assign_frequencies then sets each
Execute's level in one pass over the finished plan.

An Execute depends on the Executes of each direct task-graph predecessor
that is no ancestor of another (every task has an Execute, so reachability
is unchanged, and dependencies grow linearly with the queue length), then on
its AwaitPushes and on same-task Pushes leaving its node whose region meets
its writes, as that data must leave before it is overwritten in place. A
Push depends on the command that produced its data on its source node.
"""

from fractions import Fraction
from itertools import count
from typing import Optional

from .energy import DeviceModel, EnergyTarget, exact_ratio, select_frequency
from .errors import UninitializedReadError, ValidationError
from .graph import TaskGraph, dot_string
from .model import ELEMENT_BYTES, Task, shape_key
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
    """Output of command generation, consumed by the simulator: commands at
    the positions of their ids, each depending on lower ids only."""

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


def _plan_task(table: RegionMapTable, task: Task, tid: int, chunks: list, version: dict,
               base: int, pred: tuple, levels: list) -> list[Command]:
    """Plan task tid on table: its commands, with ids from base, its
    Push/AwaitPush pairs before its Executes. Each Execute runs at its node's
    level in levels and depends on pred, the ascending Execute ids below base
    it waits for, then on its AwaitPushes and on the task's Pushes out of its
    node whose region meets its writes; each buffer b the task writes gets
    version[b]."""
    commands: list[Command] = []
    pushes_from: dict[int, list[PushCommand]] = {}  # source node -> pushes
    awaits: list[list[int]] = []  # per chunk, its AwaitPush ids
    # buffer -> entry index -> (piece, dst node, awaitpush id) cut from it
    gains: dict[str, dict[int, list]] = {}
    # The entries change only after the chunks, so each is indexed once per task.
    indexes = {b: SpanIndex(table.read(b)) for b in {acc.buffer for acc in task.reads()}}

    for node, (_box, _reads, needs, _writes) in enumerate(chunks):
        awaits.append(await_ids := [])
        for buffer, need in needs:
            held = []  # (entry region, its part of need) of each entry that holds some
            entries = table.entries[buffer]
            for index, (have, held_version, holders) in overlapping(
                    entries, need, indexes[buffer]):
                part = have if inside(have, need) else have.intersect(need)
                held.append((have, part))
                if node in holders:
                    continue
                src = min(holders)
                producer = holders[src]
                push = PushCommand(base + len(commands), () if producer is None else (producer,),
                                   src, node, buffer, part, held_version)
                commands.append(push)
                pushes_from.setdefault(src, []).append(push)
                ap = AwaitPushCommand(push.id + 1, (push.id,), push)
                commands.append(ap)
                await_ids.append(ap.id)
                gains.setdefault(buffer, {}).setdefault(index, []).append((part, node, ap.id))
            # need lies inside its one entry, or else its parts add up to it
            if not (len(held) == 1 and inside(need, held[0][0])) and \
                    sum(part.volume() for _have, part in held) != need.volume():
                missing = [(need,)]
                [(uncovered,)] = cut(missing, [e[0] for e in entries], SpanIndex(missing))
                raise UninitializedReadError(
                    f"task '{task.name}' (id {tid}) reads {uncovered} of buffer "
                    f"'{buffer}' which was never written or host-initialized"
                )

    executes: list[ExecuteCommand] = []
    for node, ((box, reads, _needs, writes), await_ids) in enumerate(zip(chunks, awaits)):
        writes = tuple((name, b, region, version[b]) for name, b, region in writes)
        # In-place hazard: data pushed out of a node must leave before the
        # node's own Execute overwrites it within the same task.
        hazards = [push.id for push in pushes_from.get(node, ())
                   if any(b == push.buffer and region.overlaps(push.region)
                          for _n, b, region, _v in writes)]
        deps = pred + tuple(await_ids + hazards)
        executes.append(ExecuteCommand(base + len(commands) + node, deps, tid, box, node,
                                       levels[node], reads, writes))

    table.pending.update(gains)  # the task read those buffers, so none has gains pending
    for buffer, v in version.items():
        table.write(buffer, v, [(region, exe.node, exe.id) for exe in executes
                                for _, b, region, _v in exe.writes if b == buffer])
    return commands + executes


def _layout(table: RegionMapTable, buffer: str) -> tuple:
    """What planning reads of buffer in table: each entry's boxes, as (mins,
    maxs) tuples, which hash in C, holder nodes and which of them hold host
    data, and the pending pieces."""
    return (tuple([(tuple([(b.mins, b.maxs) for b in e[0].boxes]),
                    tuple([(n, p is None) for n, p in e[2].items()]))
                   for e in table.entries[buffer]]),
            tuple([(i, tuple([(tuple([(b.mins, b.maxs) for b in r.boxes]), n)
                              for r, n, _p in pieces]))
                   for i, pieces in table.pending.get(buffer, {}).items()]))


def _record(table: RegionMapTable, task: Task, tid: int, chunks: list, touched: tuple,
            levels: list, layouts: dict) -> tuple:
    """The template of task on its buffers' layouts. It is planned on a copy
    of them that numbers their versions and producers 1, 2, ... in entry
    order, then the new versions, then the ids: each value in it, a host
    producer as 0, is the index of the value an instance resolves."""
    copy = object.__new__(type(table))  # no __init__: it holds touched only
    copy.entries, copy.pending = {}, {}
    token = count(1).__next__
    for b in touched:
        copy.entries[b] = [(r, token(), {n: p if p is None else token() for n, p in h.items()})
                           for r, _v, h in table.entries[b]]
        if b in table.pending:
            copy.pending[b] = {i: [(r, n, token()) for r, n, _p in pieces]
                               for i, pieces in table.pending[b].items()}
    version = {acc.buffer: token() for acc in task.writes()}
    base = token()
    commands = _plan_task(copy, task, tid, chunks, version, base, (), levels)
    results = {b: ([(r, v, tuple((n, 0 if p is None else p) for n, p in h.items()))
                    for r, v, h in copy.entries[b]],
                   copy.pending.get(b, {}), layouts.setdefault(_layout(copy, b), len(layouts)))
               for b in touched}
    return commands, results, tuple(version), base


def _instantiate(template: tuple, table: RegionMapTable, tid: int, base: int, pred: tuple,
                 touched: tuple) -> list[Command]:
    """The commands of template for task tid with ids from base, each
    Execute depending first on pred; table's touched buffers take the
    template's entries and pending pieces."""
    local, results, written, local_base = template
    values = [None]  # then what the tokens stand for, in the order _record numbers them
    for b in touched:
        for _r, version, holders in table.entries[b]:
            values.append(version)
            values.extend([p for p in holders.values() if p is not None])
        for pieces in table.pending.get(b, {}).values():
            values.extend([p for _r, _n, p in pieces])
    values += [table.bump_version(b) for b in written]
    values += range(base, base + len(local))
    shift = base - local_base
    commands: list[Command] = []
    for c in local:
        if isinstance(c, PushCommand):
            cmd = PushCommand(c.id + shift, tuple([values[d] for d in c.deps]), c.src, c.dst,
                              c.buffer, c.region, values[c.version])
        elif isinstance(c, AwaitPushCommand):
            cmd = AwaitPushCommand(c.id + shift, (c.push.id + shift,),
                                   commands[c.push.id - local_base])
        else:
            cmd = ExecuteCommand(c.id + shift, pred + tuple([values[d] for d in c.deps]), tid,
                                 c.box, c.node, c.frequency_ghz, c.reads,
                                 tuple([(n, b, r, values[v]) for n, b, r, v in c.writes]))
        commands.append(cmd)
    for b, (entries, pending, _id) in results.items():
        table.entries[b] = [(r, values[v], {n: values[p] for n, p in holders})
                            for r, v, holders in entries]
        table.pending[b] = {i: [(r, n, values[p]) for r, n, p in pieces]
                            for i, pieces in pending.items()}
    return commands


def generate_commands(graph: TaskGraph, node_count: int, devices=None) -> Plan:
    """The command plan, every Execute at its device's top frequency level."""
    if node_count < 1:
        raise ValidationError("node count must be at least 1")
    if node_count > MAX_NODES:
        raise ValidationError(f"node count {node_count} exceeds the maximum of {MAX_NODES}")
    devices = _resolve_devices(devices, node_count)
    levels = [device.levels_ghz[-1] for device in devices]
    table = RegionMapTable(graph.buffers)

    commands: list[Command] = []
    exec_ids_by_task: dict[int, list[int]] = {}
    shapes = {}  # shape_key -> (its index, _chunk_shapes, the buffers it touches)
    layouts, current = {}, {}  # _layout -> its id; buffer -> its layout's id, while known
    seen, templates = set(), {}  # keys: (shape index, layout id of each touched buffer)

    for tid in graph.topological_order():
        task = graph.task(tid)
        pred = tuple([e for p in graph.reduced_predecessors(tid) for e in exec_ids_by_task[p]])
        shape = shapes.get(key := shape_key(task))
        if shape is None:
            shape = shapes[key] = (len(shapes), _chunk_shapes(task, node_count, graph.buffers),
                                   tuple(dict.fromkeys(a.buffer for a in task.accessors)))
        index, chunks, touched = shape
        key = (index,) + tuple([current[b] if b in current else current.setdefault(
            b, layouts.setdefault(_layout(table, b), len(layouts))) for b in touched])

        template = templates.get(key)
        if template is None and key in seen:
            template = templates[key] = _record(table, task, tid, chunks, touched, levels,
                                                layouts)
        if template is None:
            seen.add(key)
            version = {acc.buffer: table.bump_version(acc.buffer) for acc in task.writes()}
            new = _plan_task(table, task, tid, chunks, version, len(commands), pred, levels)
            current.clear()
        else:
            new = _instantiate(template, table, tid, len(commands), pred, touched)
            current.update((b, result[2]) for b, result in template[1].items())
        commands.extend(new)
        exec_ids_by_task[tid] = [c.id for c in new if isinstance(c, ExecuteCommand)]

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
            tn, td = exact_ratio(device.throughput_ref)
            chosen[key] = select_frequency(device, key[1], Fraction(exe.box.volume() * td, tn),
                                           task.beta)
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

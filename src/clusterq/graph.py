"""Task dependency graph: the dependencies each submission finds.

Submitting a task checks it (validate_task, static_footprint_check) once
per shape: model.shape_key, the bodies by identity, the params and beta, all
that the checks read but the name. It maps every accessor over the full
kernel range and finds its dependencies through two region maps per buffer,
as Celerity does (Knorr, Thoman, Fahringer, IJPP 2023): the last writer of
each region, and the readers of each region since its last write. A read
depends on the last writers it overlaps (RAW); a write depends on the last
writers (WAW) and on the readers since (WAR). Both maps are (region, task id)
lists that region.overlapping queries and region.cut cuts, as it cuts the
scheduler's region map; a task's lookups in a map and its cut of that map
share one region.SpanIndex. A write cuts both maps. A read cuts the reader
entries of the tasks it already depends on: a later write there depends on
it, and so reaches them. So a task touches only the entries its regions
overlap, never the whole history, and each map holds at most one entry per
task and buffer.

Each dependency is recorded as it is found, keyed by (source, buffer, kind),
with the map entry's region and the accessed region; the edges are read off
that record, the conflict region being their intersection. A task that
conflicts with an earlier one reaches it through these dependencies, so the
ancestor bitset (a Python int with bit p set for every task p it
transitively depends on) is the one a scan of every earlier task gives, and
the predecessors that no other predecessor already implies are found from it
without walking the graph. Edges always point from an earlier to a later
submission, so the graph is acyclic by construction and submission order is
a topological order. Host initialization is a virtual task with id 0; it
seeds the scheduler's region table rather than appearing as a graph node.
"""

import enum

from .errors import ValidationError
from .model import AccessMode, Task, shape_key, static_footprint_check, validate_task
from .region import Region, SpanIndex, cut, overlapping
from .value import Frozen


class DepKind(enum.Enum):
    RAW = "RAW"
    WAR = "WAR"
    WAW = "WAW"


KINDS = tuple(DepKind)  # RAW, WAR, WAW: the order of a pair's edges on one buffer


class Edge(Frozen):
    __slots__ = _fields = ("src", "dst", "kind", "buffer", "region")

    def __init__(self, src: int, dst: int, kind: DepKind, buffer: str, region: Region):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "buffer", buffer)
        object.__setattr__(self, "region", region)


def dot_string(text: str) -> str:
    """text as a DOT quoted string, with backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


class TaskGraph:
    def __init__(self, buffers):
        self.buffers = dict(buffers)
        self.tasks: list[Task] = []
        # Per buffer, pairwise disjoint (region, last writer) entries, and
        # (region, reader) entries for the reads since those regions' last write.
        self._last_writers: dict[str, list] = {}
        self._readers: dict[str, list] = {}
        # Per task id, {(source id, buffer, kind index into KINDS): (map entry
        # region, accessed region)} for each dependency found, and the ancestor
        # bitset; index 0 is unused.
        self._deps: list[dict] = [{}]
        self._ancestors: list[int] = [0]
        self._checked = set()  # the keys of the task shapes that passed the checks

    def submit(self, task: Task) -> int:
        # Tasks parsed from one text share bodies, and self.tasks keeps them.
        checked = (shape_key(task), tuple((name, id(expr)) for name, expr in task.body.items()),
                   tuple(task.params.items()), task.beta)
        if checked not in self._checked:
            validate_task(task, self.buffers)
            violations = static_footprint_check(task, self.buffers)
            if violations:
                detail = "; ".join(str(v) for v in violations)
                raise ValidationError(f"task '{task.name}': footprint violations: {detail}")

        tid = len(self.tasks) + 1
        task = Task(*Task._values(task)[:-1], tid)  # a copy: one Task submitted twice is two
        reads: dict[str, Region] = {}
        writes: dict[str, Region] = {}
        for acc in task.accessors:
            extent = self.buffers[acc.buffer].extent
            mapped = acc.mapper.map_chunk(task.global_range, extent)
            target = reads if acc.mode is AccessMode.READ else writes
            if acc.buffer in target:
                target[acc.buffer] = target[acc.buffer].union(mapped)
            else:
                target[acc.buffer] = mapped

        # One SpanIndex per (map, buffer) serves the lookups and the cut after
        # them, as no map changes before its lookups are done.
        writer_index = {b: SpanIndex(self._last_writers.get(b, ())) for b in {**reads, **writes}}
        reader_index = {b: SpanIndex(self._readers.get(b, ())) for b in writes}
        deps = {}  # kind indexes KINDS
        for kind, table, index, regions in ((0, self._last_writers, writer_index, reads),
                                            (1, self._readers, reader_index, writes),
                                            (2, self._last_writers, writer_index, writes)):
            for buffer, region in regions.items():
                for _, (entry, p) in overlapping(table.get(buffer, ()), region, index[buffer]):
                    deps[p, buffer, kind] = entry, region
        ancestors = 0
        for p, _, _ in deps:
            ancestors |= (1 << p) | self._ancestors[p]

        for buffer, region in writes.items():
            self._last_writers[buffer] = cut(self._last_writers.get(buffer, ()), [region],
                                             writer_index[buffer]) + [(region, tid)]
            self._readers[buffer] = cut(self._readers.get(buffer, ()), [region],
                                        reader_index[buffer])
        for buffer, region in reads.items():
            readers = self._readers.get(buffer, [])
            known = [e for e in readers if (ancestors >> e[1]) & 1]
            others = [e for e in readers if not (ancestors >> e[1]) & 1]
            self._readers[buffer] = others + cut(known, [region], SpanIndex(known)) + [
                (region, tid)]

        self.tasks.append(task)
        self._checked.add(checked)
        self._deps.append(deps)
        self._ancestors.append(ancestors)
        return tid

    def task(self, tid: int) -> Task:
        return self.tasks[tid - 1]

    @property
    def edges(self) -> list[Edge]:
        """One edge per recorded dependency, by destination, source, buffer
        and then RAW, WAR, WAW, with the conflict region on it."""
        return [Edge(src, tid, KINDS[kind], buffer, entry.intersect(region))
                for tid in range(1, len(self._deps))
                for (src, buffer, kind), (entry, region) in sorted(self._deps[tid].items())]

    def reduced_predecessors(self, tid: int) -> list[int]:
        """Predecessors that are not an ancestor of another predecessor: the
        edges into tid that survive transitive reduction."""
        covered = 0
        kept = []
        # Edges point forward, so a predecessor can only be reached through
        # one with a higher id: walk them from the highest down.
        for p in sorted({src for src, _, _ in self._deps[tid]}, reverse=True):
            if not (covered >> p) & 1:
                kept.append(p)
                covered |= self._ancestors[p]
        kept.reverse()
        return kept

    def topological_order(self) -> list[int]:
        """Submission order; edges always point forward."""
        return [t.id for t in self.tasks]

    def to_dot(self) -> str:
        lines = ["digraph tasks {"]
        for t in self.tasks:
            lines.append(f"  T{t.id} [label={dot_string(f'T{t.id}: {t.name}')}];")
        for e in self.edges:
            label = dot_string(f"{e.kind.value} {e.buffer} {e.region}")
            lines.append(f"  T{e.src} -> T{e.dst} [label={label}];")
        lines.append("}")
        return "\n".join(lines) + "\n"

"""Task dependency graph with region-precise conflict edges.

Submitting a task maps every accessor over the full kernel range and records
an edge to each earlier task whose mapped region conflicts: RAW for an earlier
write overlapping a new read, WAR for an earlier read overlapping a new write,
WAW for overlapping writes. The conflict region is stored on the edge. Edges
always point from an earlier to a later submission, so the graph is acyclic by
construction and submission order is a topological order. Host initialization
is a virtual task with id 0; it seeds the scheduler's region table rather than
appearing as a graph node.

Each task also records its predecessor set and its ancestors as a bitset (a
Python int with bit p set for every task p it transitively depends on), so
the predecessors that no other predecessor already implies are found without
walking the graph.
"""

import enum
from dataclasses import dataclass

from .errors import ValidationError
from .model import AccessMode, Task, static_footprint_check, validate_task
from .region import Region


class DepKind(enum.Enum):
    RAW = "RAW"
    WAR = "WAR"
    WAW = "WAW"


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    kind: DepKind
    buffer: str
    region: Region


class TaskGraph:
    def __init__(self, buffers):
        self.buffers = dict(buffers)
        self.tasks: list[Task] = []
        self.edges: list[Edge] = []
        # Full-range mapped regions per task id, split by mode.
        self._reads: dict[int, dict[str, Region]] = {}
        self._writes: dict[int, dict[str, Region]] = {}
        # Predecessor ids and ancestor bitset per task id; index 0 is unused.
        self._preds: list[set[int]] = [set()]
        self._ancestors: list[int] = [0]

    def submit(self, task: Task) -> int:
        validate_task(task, self.buffers)
        violations = static_footprint_check(task, self.buffers)
        if violations:
            detail = "; ".join(str(v) for v in violations)
            raise ValidationError(f"task '{task.name}': footprint violations: {detail}")

        tid = len(self.tasks) + 1
        task.id = tid
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

        preds = set()
        for earlier in self.tasks:
            eid = earlier.id
            for buffer in sorted(set(self._reads[eid]) | set(self._writes[eid])):
                ew = self._writes[eid].get(buffer)
                er = self._reads[eid].get(buffer)
                for kind, old, new in (
                    (DepKind.RAW, ew, reads), (DepKind.WAR, er, writes), (DepKind.WAW, ew, writes)
                ):
                    if old is not None and buffer in new and old.overlaps(new[buffer]):
                        conflict = old.intersect(new[buffer])
                        self.edges.append(Edge(eid, tid, kind, buffer, conflict))
                        preds.add(eid)

        ancestors = 0
        for p in preds:
            ancestors |= (1 << p) | self._ancestors[p]
        self.tasks.append(task)
        self._reads[tid] = reads
        self._writes[tid] = writes
        self._preds.append(preds)
        self._ancestors.append(ancestors)
        return tid

    def task(self, tid: int) -> Task:
        return self.tasks[tid - 1]

    def predecessors(self, tid: int) -> list[int]:
        return sorted(self._preds[tid])

    def reduced_predecessors(self, tid: int) -> list[int]:
        """Predecessors that are not an ancestor of another predecessor: the
        edges into tid that survive transitive reduction."""
        covered = 0
        kept = []
        # Edges point forward, so a predecessor can only be reached through
        # one with a higher id: walk them from the highest down.
        for p in sorted(self._preds[tid], reverse=True):
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
            lines.append(f'  T{t.id} [label="T{t.id}: {t.name}"];')
        for e in self.edges:
            lines.append(
                f'  T{e.src} -> T{e.dst} [label="{e.kind.value} {e.buffer} {e.region}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

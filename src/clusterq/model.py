"""Buffers, range mappers, accessors and tasks.

A task is a data-parallel kernel over a global id range. Each accessor names a
buffer, a mode (read or write) and a range mapper that maps any chunk of the
id range to the buffer region the kernel may touch for that chunk. Write
mappers must be one_to_one so chunks write disjoint cells. All reads observe
pre-task buffer state; out-of-range reads at the global boundary are clamped
to the nearest valid index. A task whose clamped reads leave an accessor's
mapped region for some chunk of some split is rejected at submit
(static_footprint_check), so reads are not checked at run time.
"""

import enum
import operator
from typing import Optional

import numpy as np

from . import kernel
from .errors import ValidationError
from .kernel import Expr
from .region import Box, Region, clamped, inside
from .value import Frozen, Value

ELEMENT_KINDS = ("float64", "int64")
ELEMENT_BYTES = 8


INT64_RANGE = "an integer in [-2**63, 2**63)"
BINARY64_RANGE = "within the binary64 range"


def is_int64(value) -> bool:
    """Whether value is an integer in the int64 range: an int as it is, a
    float only when it is integral."""
    if isinstance(value, float):
        return value.is_integer() and -(2.0 ** 63) <= value < 2.0 ** 63
    return isinstance(value, (int, np.integer)) and -(2 ** 63) <= value < 2 ** 63


def is_binary64(value) -> bool:
    """Whether value converts to a binary64 float; a large int overflows."""
    try:
        float(value)
    except OverflowError:
        return False
    return True


class AccessMode(enum.Enum):
    READ = "read"
    WRITE = "write"


class BufferInit(Frozen):
    """How a buffer's initial contents are produced on node 0."""

    __slots__ = _fields = ("kind", "value", "values")

    def __init__(self, kind: str, value: Optional[float] = None, values: Optional[tuple] = None):
        object.__setattr__(self, "kind", kind)  # zeros | iota | constant | values | uninitialized
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls):
        return cls("zeros")

    @classmethod
    def iota(cls):
        return cls("iota")

    @classmethod
    def constant(cls, value):
        return cls("constant", value=value)

    @classmethod
    def explicit(cls, values):
        return cls("values", values=tuple(values))

    @classmethod
    def uninitialized(cls):
        return cls("uninitialized")

    @property
    def is_initialized(self) -> bool:
        return self.kind != "uninitialized"

    def materialize(self, extent: Box, element_kind: str) -> np.ndarray:
        dtype = np.int64 if element_kind == "int64" else np.float64
        shape = extent.shape
        if self.kind == "iota":
            return np.arange(extent.volume(), dtype=dtype).reshape(shape)
        if self.kind == "constant":
            return np.full(shape, self.value, dtype=dtype)
        if self.kind == "values":
            return np.array(self.values, dtype=dtype).reshape(shape)
        # zeros and uninitialized both back storage with zeros; an
        # uninitialized buffer simply has no resident region on any node.
        return np.zeros(shape, dtype=dtype)


class Buffer(Frozen):
    __slots__ = _fields = ("name", "extent", "element_kind", "init")

    def __init__(self, name: str, extent: Box, element_kind: str = "float64",
                 init: BufferInit = BufferInit.zeros()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "element_kind", element_kind)
        object.__setattr__(self, "init", init)
        if "/" in name or "\0" in name:
            raise ValidationError(f"buffer {name!r}: name must not contain '/' or NUL")
        try:  # the dump buf_<name>.json must be a file name
            fits = len(f"buf_{name}.json".encode()) <= 255
        except UnicodeEncodeError:  # a lone surrogate, which no file name holds
            fits = False
        if not fits:
            raise ValidationError("buffer name: buf_<name>.json must be at most 255 bytes in UTF-8")
        if any(lo != 0 for lo in self.extent.mins):
            raise ValidationError(f"buffer '{self.name}': extent must start at 0")
        if self.extent.is_empty():
            raise ValidationError(f"buffer '{self.name}': extent must be non-empty")
        if self.element_kind not in ELEMENT_KINDS:
            raise ValidationError(
                f"buffer '{self.name}': element kind must be one of {ELEMENT_KINDS}"
            )
        if self.init.kind == "constant" and self.element_kind == "int64":
            if not is_int64(self.init.value):
                raise ValidationError(
                    f"buffer '{self.name}': int64 constant init {self.init.value!r} "
                    f"is not {INT64_RANGE}"
                )
        if self.init.kind == "values":
            if len(self.init.values) != self.extent.volume():
                raise ValidationError(
                    f"buffer '{self.name}': init values length {len(self.init.values)} "
                    f"does not match extent volume {self.extent.volume()}"
                )
            values = self.init.values  # checked whole if all are ints, else item by item
            if self.element_kind == "int64" and (set(map(type, values)) != {int} or
                                                 min(values) < -2 ** 63 or max(values) >= 2 ** 63):
                for k, v in enumerate(values):
                    if not is_int64(v):
                        raise ValidationError(
                            f"buffer '{self.name}': int64 init value {v!r} at index {k} "
                            f"is not {INT64_RANGE}"
                        )

    @property
    def dims(self) -> int:
        return self.extent.dims

    @property
    def dtype(self):
        return np.int64 if self.element_kind == "int64" else np.float64


class RangeMapper(Frozen):
    """Maps a chunk of the kernel range to the buffer region it may access."""

    __slots__ = ()

    def map_chunk(self, chunk: Box, extent: Box) -> Region:
        raise NotImplementedError


class OneToOne(RangeMapper):
    __slots__ = ()

    def map_chunk(self, chunk, extent):
        if chunk.dims != extent.dims:
            raise ValidationError(
                f"one_to_one requires matching dimensionality, kernel is {chunk.dims}D "
                f"but buffer is {extent.dims}D"
            )
        return clamped(chunk.mins, chunk.maxs, extent)

    def __str__(self):
        return "one_to_one"


class Neighborhood(RangeMapper):
    __slots__ = _fields = ("radii",)

    def __init__(self, radii: tuple[int, ...]):
        object.__setattr__(self, "radii", tuple(int(r) for r in radii))
        if any(r < 0 for r in self.radii):
            raise ValidationError("neighborhood radii must be non-negative")

    def map_chunk(self, chunk, extent):
        if chunk.dims != extent.dims or len(self.radii) != extent.dims:
            raise ValidationError(
                f"neighborhood({list(self.radii)}) does not fit a {chunk.dims}D kernel "
                f"over a {extent.dims}D buffer"
            )
        # The radii are non-negative ints of the buffer's dimensionality.
        return clamped(tuple(map(operator.sub, chunk.mins, self.radii)),
                       tuple(map(operator.add, chunk.maxs, self.radii)), extent)

    def __str__(self):
        return f"neighborhood({list(self.radii)})"


class Fixed(RangeMapper):
    __slots__ = _fields = ("region",)

    def __init__(self, region: Region):
        object.__setattr__(self, "region", region)

    def map_chunk(self, chunk, extent):
        if self.region.dims != extent.dims:
            raise ValidationError(
                f"fixed region is {self.region.dims}D but buffer is {extent.dims}D"
            )
        return self.region.intersect_box(extent)

    def __str__(self):
        return f"fixed({self.region})"


class All(RangeMapper):
    __slots__ = ()

    def map_chunk(self, chunk, extent):
        return Region.from_box(extent)

    def __str__(self):
        return "all"


class Slice(RangeMapper):
    __slots__ = _fields = ("axis",)

    def __init__(self, axis: int):
        object.__setattr__(self, "axis", axis)

    def map_chunk(self, chunk, extent):
        if chunk.dims != extent.dims:
            raise ValidationError(
                f"slice requires matching dimensionality, kernel is {chunk.dims}D "
                f"but buffer is {extent.dims}D"
            )
        if not 0 <= self.axis < extent.dims:
            raise ValidationError(f"slice axis {self.axis} out of range for {extent.dims}D buffer")
        mins = list(chunk.mins)
        maxs = list(chunk.maxs)
        mins[self.axis] = extent.mins[self.axis]
        maxs[self.axis] = extent.maxs[self.axis]
        return clamped(tuple(mins), tuple(maxs), extent)

    def __str__(self):
        return f"slice({self.axis})"


class Accessor(Frozen):
    __slots__ = _fields = ("buffer", "mode", "mapper", "name")

    def __init__(self, buffer: str, mode: AccessMode, mapper: RangeMapper = OneToOne(),
                 name: Optional[str] = None):
        object.__setattr__(self, "buffer", buffer)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "mapper", mapper)
        object.__setattr__(self, "name", buffer if name is None else name)


class Task(Value):
    """One data-parallel kernel submission."""

    __slots__ = _fields = ("name", "global_range", "accessors", "body", "params", "beta",
                           "target", "id")

    def __init__(self, name: str, global_range: Box, accessors: tuple[Accessor, ...],
                 body: dict[str, Expr], params: Optional[dict[str, float]] = None,
                 beta: float = 0.0, target: Optional["object"] = None, id: Optional[int] = None):
        self.name = name
        self.global_range = global_range
        self.accessors = tuple(accessors)
        self.body = body
        self.params = {} if params is None else params
        self.beta = beta  # frequency-insensitive fraction of the runtime
        self.target = target  # per-task energy target override
        self.id = id

    @property
    def dims(self) -> int:
        return self.global_range.dims

    def reads(self):
        return tuple(a for a in self.accessors if a.mode is AccessMode.READ)

    def writes(self):
        return tuple(a for a in self.accessors if a.mode is AccessMode.WRITE)


def shape_key(task: Task) -> tuple:
    """task's range and accessors as one hashable value, a fixed mapper's by
    its region's dims and boxes, as a Region has no hash."""
    return (task.global_range, tuple(
        (a.buffer, a.mode, a.name, (a.mapper.region.dims, a.mapper.region.boxes)
         if isinstance(a.mapper, Fixed) else a.mapper) for a in task.accessors))


def collect_read_offsets(task: Task) -> dict[str, list[tuple[int, ...]]]:
    """Constant offsets used per read accessor across all body expressions."""
    offsets: dict[str, set] = {}
    for expr in task.body.values():
        for node in kernel.postorder(expr):
            if isinstance(node, kernel.Read):
                offsets.setdefault(node.accessor, set()).add(node.offsets)
    return {name: sorted(offs) for name, offs in sorted(offsets.items())}


class FootprintViolation(Frozen):
    __slots__ = _fields = ("accessor", "offset", "reason")

    def __init__(self, accessor: str, offset: tuple[int, ...], reason: str):
        object.__setattr__(self, "accessor", accessor)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "reason", reason)

    def __str__(self):
        return f"accessor '{self.accessor}' offset {self.offset}: {self.reason}"


def static_footprint_check(task: Task, buffers) -> list[FootprintViolation]:
    """The read offsets whose clamped reads leave the accessor's mapped
    region for some chunk of some split of the task range along axis 0.

    Each offset is tested on three chunks: the whole range R, and R's first
    and last rows along axis 0. A chunk's clamped reads form a box, since
    clamping is monotone per axis, so each test is interval arithmetic:
    [clamp(lo+o), clamp(hi-1+o)+1) per buffer axis. This is exact:
    - fixed and all map every chunk to the same region, and the reads of R
      hold the reads of every chunk, so R decides;
    - one_to_one, neighborhood and slice map each axis of a chunk by a
      clamped dilation with r >= 0 (slice: the whole extent on its axis), so
      a chunk's region holds the regions of its rows and the rows decide. On
      axis 0, row p passes iff |clamp(p+o) - p| <= r; g(p) = clamp(p+o) - p
      is non-increasing, so the first row bounds its maximum and the last row
      its minimum. The other axes are the same for every row.
    A test one family does not need is implied for it by those it does need,
    so the extra chunks reject nothing that runs at every split.
    """
    rng = task.global_range
    first = Box(rng.mins, (rng.mins[0] + 1,) + rng.maxs[1:])
    last = Box((rng.maxs[0] - 1,) + rng.mins[1:], rng.maxs)
    by_name = {a.name: a for a in task.accessors}
    violations = []
    for name, offsets in collect_read_offsets(task).items():
        acc = by_name[name]
        extent = buffers[acc.buffer].extent
        mapped = [(chunk, acc.mapper.map_chunk(chunk, extent))
                  for chunk in (rng, first, last)]
        for off in offsets:
            if not all(_reads_inside(chunk, off, extent, region) for chunk, region in mapped):
                violations.append(
                    FootprintViolation(name, off, f"outside {acc.mapper} mapped region")
                )
    return violations


def _reads_inside(chunk: Box, offsets, extent: Box, region: Region) -> bool:
    """Whether every clamped read of chunk's ids shifted by offsets lies in
    region; zip drops the kernel axes the buffer does not have."""
    lows, highs = [], []
    for lo, hi, off, elo, ehi in zip(chunk.mins, chunk.maxs, offsets, extent.mins, extent.maxs):
        lows.append(min(max(lo + off, elo), ehi - 1))
        highs.append(min(max(hi - 1 + off, elo), ehi - 1) + 1)
    reads = Region.from_box(Box(tuple(lows), tuple(highs)))
    return inside(reads, region) or len(region.boxes) > 1 and region.contains_region(reads)


def validate_task(task: Task, buffers) -> None:
    """Structural validation against the buffer set; raises ValidationError."""
    if task.global_range.is_empty():
        raise ValidationError(f"task '{task.name}': global range must be non-empty")
    if any(lo != 0 for lo in task.global_range.mins):
        raise ValidationError(f"task '{task.name}': global range must start at 0")
    if not 0.0 <= float(task.beta) <= 1.0:
        raise ValidationError(f"task '{task.name}': beta must be within [0, 1]")

    names = [a.name for a in task.accessors]
    if len(set(names)) != len(names):
        raise ValidationError(f"task '{task.name}': accessor names must be unique")
    if "i" in names or "i" in task.params:
        raise ValidationError(f"task '{task.name}': the name 'i' is reserved for the global id")
    if set(names) & set(task.params):
        raise ValidationError(f"task '{task.name}': accessor and parameter names overlap")

    writes = task.writes()
    if not writes:
        raise ValidationError(f"task '{task.name}': at least one write accessor is required")
    write_buffers = [a.buffer for a in writes]
    if len(set(write_buffers)) != len(write_buffers):
        raise ValidationError(f"task '{task.name}': a buffer may have at most one write accessor")

    for acc in task.accessors:
        if acc.buffer not in buffers:
            raise ValidationError(f"task '{task.name}': unknown buffer '{acc.buffer}'")
        buf = buffers[acc.buffer]
        if acc.mode is AccessMode.WRITE:
            if not isinstance(acc.mapper, OneToOne):
                raise ValidationError(
                    f"task '{task.name}': write mappers must be one_to_one "
                    f"(accessor '{acc.name}' uses {acc.mapper})"
                )
            if buf.dims != task.dims:
                raise ValidationError(
                    f"task '{task.name}': write buffer '{buf.name}' is {buf.dims}D "
                    f"but the kernel range is {task.dims}D"
                )
            if not buf.extent.contains_box(task.global_range):
                raise ValidationError(
                    f"task '{task.name}': range {task.global_range} exceeds extent "
                    f"{buf.extent} of write buffer '{buf.name}'"
                )
        else:
            if buf.dims > task.dims:
                raise ValidationError(
                    f"task '{task.name}': read buffer '{buf.name}' has more dimensions "
                    f"than the kernel range"
                )
            # Trigger mapper/buffer dimensionality errors at validation time.
            acc.mapper.map_chunk(task.global_range, buf.extent)

    read_names = {a.name: a for a in task.reads()}
    if set(task.body) != {a.name for a in writes}:
        raise ValidationError(
            f"task '{task.name}': body must assign exactly the write accessors "
            f"{sorted(a.name for a in writes)}"
        )
    by_name = {a.name: a for a in task.accessors}
    for wname, expr in task.body.items():
        out_kind = buffers[by_name[wname].buffer].element_kind
        integer = out_kind == "int64"
        for node in kernel.postorder(expr):
            if isinstance(node, kernel.Read):
                if node.accessor not in read_names:
                    raise ValidationError(
                        f"task '{task.name}': '{node.accessor}' is not a read accessor"
                    )
                rbuf = buffers[read_names[node.accessor].buffer]
                if len(node.offsets) != rbuf.dims:
                    raise ValidationError(
                        f"task '{task.name}': accessor '{node.accessor}' takes "
                        f"{rbuf.dims} indices, got {len(node.offsets)}"
                    )
                if rbuf.element_kind != out_kind:
                    raise ValidationError(
                        f"task '{task.name}': expression for '{wname}' mixes element kinds "
                        f"({rbuf.element_kind} read into {out_kind} write)"
                    )
            elif isinstance(node, kernel.IdComponent):
                if node.axis >= task.dims:
                    raise ValidationError(
                        f"task '{task.name}': id component i.{node.axis} out of range"
                    )
            elif isinstance(node, kernel.Param):
                if node.name not in task.params:
                    raise ValidationError(f"task '{task.name}': unknown parameter '{node.name}'")
                value = task.params[node.name]
                if integer and not is_int64(value):
                    raise ValidationError(
                        f"task '{task.name}': parameter '{node.name}' = {value!r} in an "
                        f"int64 expression is not {INT64_RANGE}"
                    )
            elif isinstance(node, kernel.Num):
                if integer and not is_int64(node.value):
                    raise ValidationError(
                        f"task '{task.name}': literal {node.value!r} in an int64 expression "
                        f"is not {INT64_RANGE}"
                    )
                if not integer and not is_binary64(node.value):
                    raise ValidationError(
                        f"task '{task.name}': literal {node.value!r} in a float64 expression "
                        f"is not {BINARY64_RANGE}"
                    )


class ReadView:
    """One accessor's readable data: one array, or arrays each read at the
    ids whose axis-0 coordinate lies in its (lo, hi) of rows. Reads are
    clamped per axis to the buffer extent; the footprint check at submit keeps
    every clamped read in the accessor's mapped region, so none is checked.
    Views of one extent may share indexes, a dict from (rows, box, offsets)
    to each array's index, which holds for any arrays of that extent."""

    __slots__ = ("extent", "arrays", "rows", "indexes")

    def __init__(self, extent, data, rows=None, indexes=None):
        self.extent = extent
        self.arrays = (data,) if rows is None else data
        self.rows = rows
        self.indexes = {} if indexes is None else indexes

    def gather(self, mins, maxs, offsets):
        """The clamped read at every point of the box [mins, maxs) shifted by
        offsets, as an array over the buffer's axes. Only the first
        len(offsets) axes of the box are used; the rows of several arrays
        must tile its axis-0 span, in order.

        A read of one array that needs no clamping is a view of it, not a
        copy, so a caller must never write into what gather returns."""
        key = (self.rows, mins, maxs, offsets)
        indexes = self.indexes.get(key)
        if indexes is None:
            indexes = self.indexes[key] = [
                self._index((lo,) + mins[1:], (hi,) + maxs[1:], offsets)
                for lo, hi in self.rows or [(mins[0], maxs[0])]]
        if len(indexes) == 1:
            return self.arrays[0][indexes[0]]
        return np.concatenate([data[index] for data, index in zip(self.arrays, indexes)])

    def _index(self, mins, maxs, offsets):
        """Slices, or the np.ix_ of the clamped axes where the read clamps."""
        index = []
        for lo, hi, off, elo, ehi in zip(mins, maxs, offsets, self.extent.mins, self.extent.maxs):
            if lo + off < elo or hi + off > ehi:
                return np.ix_(*self._clamped_axes(mins, maxs, offsets))
            index.append(slice(lo + off, hi + off))
        return tuple(index)

    def _clamped_axes(self, mins, maxs, offsets):
        """Per buffer axis, the clamped index of every point read. A start
        more than the box's length below the extent, or beyond it, clamps
        like one at that bound, so numpy sees no offset of any size."""
        axes = []
        for lo, hi, off, elo, ehi in zip(mins, maxs, offsets, self.extent.mins, self.extent.maxs):
            n = hi - lo
            start = min(max(lo + off, elo - n), ehi)
            axes.append(np.minimum(np.maximum(np.arange(start, start + n), elo), ehi - 1))
        return axes

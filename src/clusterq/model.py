"""Buffers, range mappers, accessors and tasks.

A task is a data-parallel kernel over a global id range. Each accessor names a
buffer, a mode (read or write) and a range mapper that maps any chunk of the
id range to the buffer region the kernel may touch for that chunk. Write
mappers must be one_to_one so chunks write disjoint cells. All reads observe
pre-task buffer state; out-of-range reads at the global boundary are clamped
to the nearest valid index.
"""

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernel
from .errors import DimensionError, MapperViolationError, ValidationError
from .kernel import Expr
from .region import Box, Region

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


@dataclass(frozen=True)
class BufferInit:
    """How a buffer's initial contents are produced on node 0."""

    kind: str  # zeros | iota | constant | values | uninitialized
    value: Optional[float] = None
    values: Optional[tuple] = None

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


@dataclass(frozen=True)
class Buffer:
    name: str
    extent: Box
    element_kind: str = "float64"
    init: BufferInit = field(default_factory=BufferInit.zeros)

    def __post_init__(self):
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
            if self.element_kind == "int64":
                for k, v in enumerate(self.init.values):
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


class RangeMapper:
    """Maps a chunk of the kernel range to the buffer region it may access."""

    def map_chunk(self, chunk: Box, kernel_range: Box, extent: Box) -> Region:
        raise NotImplementedError

    def offset_allowed(self, offset, kernel_range: Box, extent: Box) -> bool:
        """Whether a constant access offset stays inside the mapped region of
        every interior unit chunk (boundary ids are clamped at eval time)."""
        raise NotImplementedError


def _clamp(box: Box, extent: Box) -> Region:
    hit = box.intersect(extent)
    return Region.from_box(hit) if hit is not None else Region.empty(extent.dims)


@dataclass(frozen=True)
class OneToOne(RangeMapper):
    def map_chunk(self, chunk, kernel_range, extent):
        if chunk.dims != extent.dims:
            raise ValidationError(
                f"one_to_one requires matching dimensionality, kernel is {chunk.dims}D "
                f"but buffer is {extent.dims}D"
            )
        return _clamp(chunk, extent)

    def offset_allowed(self, offset, kernel_range, extent):
        return all(c == 0 for c in offset)

    def __str__(self):
        return "one_to_one"


@dataclass(frozen=True)
class Neighborhood(RangeMapper):
    radii: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(int(r) for r in self.radii))
        if any(r < 0 for r in self.radii):
            raise ValidationError("neighborhood radii must be non-negative")

    def map_chunk(self, chunk, kernel_range, extent):
        if chunk.dims != extent.dims or len(self.radii) != extent.dims:
            raise ValidationError(
                f"neighborhood({list(self.radii)}) does not fit a {chunk.dims}D kernel "
                f"over a {extent.dims}D buffer"
            )
        return _clamp(chunk.dilate(self.radii), extent)

    def offset_allowed(self, offset, kernel_range, extent):
        return all(abs(c) <= r for c, r in zip(offset, self.radii))

    def __str__(self):
        return f"neighborhood({list(self.radii)})"


@dataclass(frozen=True)
class Fixed(RangeMapper):
    region: Region

    def map_chunk(self, chunk, kernel_range, extent):
        if self.region.dims != extent.dims:
            raise ValidationError(
                f"fixed region is {self.region.dims}D but buffer is {extent.dims}D"
            )
        return self.region.intersect_box(extent)

    def offset_allowed(self, offset, kernel_range, extent):
        # Every in-extent target of the shifted kernel range must lie in the
        # fixed region; kernel_range arrives already projected to buffer dims.
        targets = Region.from_box(kernel_range).translate(offset).intersect_box(extent)
        return self.region.intersect_box(extent).contains_region(targets)

    def __str__(self):
        return f"fixed({self.region})"


@dataclass(frozen=True)
class All(RangeMapper):
    def map_chunk(self, chunk, kernel_range, extent):
        return Region.from_box(extent)

    def offset_allowed(self, offset, kernel_range, extent):
        return True

    def __str__(self):
        return "all"


@dataclass(frozen=True)
class Slice(RangeMapper):
    axis: int

    def map_chunk(self, chunk, kernel_range, extent):
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
        return _clamp(Box(tuple(mins), tuple(maxs)), extent)

    def offset_allowed(self, offset, kernel_range, extent):
        return all(c == 0 for j, c in enumerate(offset) if j != self.axis)

    def __str__(self):
        return f"slice({self.axis})"


def apply_mapper(mapper: RangeMapper, chunk: Box, kernel_range: Box, extent: Box) -> Region:
    """Mapped buffer region for a chunk, always clamped to the buffer extent."""
    if chunk.dims != kernel_range.dims:
        raise DimensionError("chunk and kernel range dimensionality differ")
    if not kernel_range.contains_box(chunk):
        raise ValidationError(f"chunk {chunk} is not contained in kernel range {kernel_range}")
    return mapper.map_chunk(chunk, kernel_range, extent)


@dataclass(frozen=True)
class Accessor:
    buffer: str
    mode: AccessMode
    mapper: RangeMapper = field(default_factory=OneToOne)
    name: Optional[str] = None

    def __post_init__(self):
        if self.name is None:
            object.__setattr__(self, "name", self.buffer)


@dataclass
class Task:
    """One data-parallel kernel submission."""

    name: str
    global_range: Box
    accessors: tuple[Accessor, ...]
    body: dict[str, Expr]
    params: dict[str, float] = field(default_factory=dict)
    beta: float = 0.0  # frequency-insensitive fraction of the runtime
    target: Optional["object"] = None  # per-task energy target override
    id: Optional[int] = None

    def __post_init__(self):
        self.accessors = tuple(self.accessors)

    @property
    def dims(self) -> int:
        return self.global_range.dims

    def reads(self):
        return tuple(a for a in self.accessors if a.mode is AccessMode.READ)

    def writes(self):
        return tuple(a for a in self.accessors if a.mode is AccessMode.WRITE)


def collect_read_offsets(task: Task) -> dict[str, list[tuple[int, ...]]]:
    """Constant offsets used per read accessor across all body expressions."""
    offsets: dict[str, set] = {}
    for expr in task.body.values():
        for node in kernel.postorder(expr):
            if isinstance(node, kernel.Read):
                offsets.setdefault(node.accessor, set()).add(node.offsets)
    return {name: sorted(offs) for name, offs in sorted(offsets.items())}


@dataclass(frozen=True)
class FootprintViolation:
    accessor: str
    offset: tuple[int, ...]
    reason: str

    def __str__(self):
        return f"accessor '{self.accessor}' offset {self.offset}: {self.reason}"


def _projected_range(task_range: Box, dims: int) -> Box:
    return Box(task_range.mins[:dims], task_range.maxs[:dims])


def static_footprint_check(task: Task, buffers) -> list[FootprintViolation]:
    """Check that every constant read offset stays within the region the
    accessor's mapper grants to a unit chunk, for all interior unit chunks."""
    by_name = {a.name: a for a in task.accessors}
    used = collect_read_offsets(task)
    violations = []
    for name, offsets in used.items():
        acc = by_name[name]
        extent = buffers[acc.buffer].extent
        kr = _projected_range(task.global_range, extent.dims)
        for off in offsets:
            if not acc.mapper.offset_allowed(off, kr, extent):
                violations.append(
                    FootprintViolation(name, off, f"outside {acc.mapper} mapped region")
                )
    return violations


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
            apply_mapper(acc.mapper, task.global_range, task.global_range, buf.extent)

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
    """One accessor's readable data, bounded by its mapped region.

    Reads are clamped per dimension to the buffer extent; a clamped index that
    still falls outside the mapped region is a MapperViolationError.
    """

    __slots__ = ("accessor", "buffer", "region", "extent", "data", "context")

    def __init__(self, accessor, buffer, region, extent, data, context=""):
        self.accessor = accessor
        self.buffer = buffer
        self.region = region
        self.extent = extent
        self.data = data
        self.context = context

    def violation(self, point):
        """The error of a read at the unclamped point whose clamped index
        falls outside the mapped region."""
        where = f" in {self.context}" if self.context else ""
        return MapperViolationError(
            f"accessor '{self.accessor}' read {point}{where} outside mapped "
            f"region {self.region} of buffer '{self.buffer}'"
        )

    def gather(self, mins, maxs, offsets):
        """The clamped read at every point of the box [mins, maxs) shifted by
        offsets, as an array over the buffer's axes; None when any clamped
        point falls outside the mapped region. Only the first len(offsets)
        axes of the box are used.

        A read that needs no clamping is a view of the data array, not a
        copy, so a caller must never write into what gather returns."""
        lows, highs = [], []  # bounds of the clamped points read
        clamped = False
        for lo, hi, off, elo, ehi in zip(mins, maxs, offsets, self.extent.mins, self.extent.maxs):
            lo += off
            hi += off
            if lo < elo or hi > ehi:
                clamped = True
                lo = min(max(lo, elo), ehi - 1)
                hi = min(max(hi - 1, elo), ehi - 1) + 1
            lows.append(lo)
            highs.append(hi)
        inside = any(
            all(b <= v for b, v in zip(box.mins, lows))
            and all(v <= b for b, v in zip(box.maxs, highs))
            for box in self.region.boxes
        ) or self.region.contains_region(Region.from_box(Box(tuple(lows), tuple(highs))))
        if not inside:
            return None
        if not clamped:
            return self.data[tuple(map(slice, lows, highs))]
        return self.data[np.ix_(*self._clamped_axes(mins, maxs, offsets))]

    def gather_masked(self, mins, maxs, offsets):
        """gather's clamped values as a copy, whatever the region, and a mask
        over the same axes of the points whose clamped index falls outside
        the mapped region."""
        axes = np.ix_(*self._clamped_axes(mins, maxs, offsets))
        values = self.data[axes]
        outside = np.ones(values.shape, dtype=bool)
        for box in self.region.boxes:
            hit = True
            for ax, lo, hi in zip(axes, box.mins, box.maxs):
                hit = hit & (lo <= ax) & (ax < hi)
            outside &= ~hit
        return values, outside

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

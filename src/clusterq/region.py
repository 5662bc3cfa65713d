"""Exact set algebra over half-open integer boxes in 1 to 3 dimensions.

A Box is a product of half-open intervals [min_k, max_k). A Region is a finite
union of pairwise disjoint boxes kept in a canonical form: empty boxes are
dropped, adjacent boxes are merged greedily per dimension until a fixed point,
and the result is sorted lexicographically by (mins, maxs). Only the cell set
of a Region is contractual; the particular box decomposition is not, which is
why Region equality compares cell sets rather than box lists.
"""

from dataclasses import dataclass

from .errors import DimensionError

MAX_DIMS = 3


@dataclass(frozen=True)
class Box:
    mins: tuple[int, ...]
    maxs: tuple[int, ...]

    def __post_init__(self):
        mins = tuple(int(v) for v in self.mins)
        maxs = tuple(int(v) for v in self.maxs)
        if not 1 <= len(mins) <= MAX_DIMS:
            raise DimensionError(f"boxes support 1 to {MAX_DIMS} dimensions, got {len(mins)}")
        if len(mins) != len(maxs):
            raise DimensionError("mins and maxs differ in length")
        for lo, hi in zip(mins, maxs):
            if lo > hi:
                raise ValueError(f"box bound {lo} exceeds {hi}")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @classmethod
    def from_shape(cls, shape) -> "Box":
        """Box spanning [0, n_k) along every dimension."""
        shape = tuple(int(n) for n in shape)
        return cls(tuple(0 for _ in shape), shape)

    @property
    def dims(self) -> int:
        return len(self.mins)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in zip(self.mins, self.maxs))

    def volume(self) -> int:
        v = 1
        for lo, hi in zip(self.mins, self.maxs):
            v *= hi - lo
        return v

    def is_empty(self) -> bool:
        return any(lo == hi for lo, hi in zip(self.mins, self.maxs))

    def intersect(self, other: "Box"):
        """Intersection box, or None when it has zero volume."""
        _require_same_dims(self, other)
        mins = tuple(map(max, self.mins, other.mins))
        maxs = tuple(map(min, self.maxs, other.maxs))
        for lo, hi in zip(mins, maxs):
            if lo >= hi:
                return None
        return _box(mins, maxs)

    def contains_box(self, other: "Box") -> bool:
        _require_same_dims(self, other)
        if other.is_empty():
            return True
        return all(a <= b for a, b in zip(self.mins, other.mins)) and all(
            a >= b for a, b in zip(self.maxs, other.maxs)
        )

    def translate(self, offset) -> "Box":
        if len(offset) != self.dims:
            raise DimensionError("offset dimensionality mismatch")
        return Box(
            tuple(lo + d for lo, d in zip(self.mins, offset)),
            tuple(hi + d for hi, d in zip(self.maxs, offset)),
        )

    def dilate(self, radii) -> "Box":
        if len(radii) != self.dims:
            raise DimensionError("radius dimensionality mismatch")
        for r in radii:
            if r < 0:
                raise ValueError("radii must be non-negative")
        return Box(
            tuple(lo - r for lo, r in zip(self.mins, radii)),
            tuple(hi + r for hi, r in zip(self.maxs, radii)),
        )

    def __str__(self):
        return "x".join(f"[{lo},{hi})" for lo, hi in zip(self.mins, self.maxs))


def _require_same_dims(a, b):
    if a.dims != b.dims:
        raise DimensionError(f"dimension mismatch: {a.dims} vs {b.dims}")


def _box(mins: tuple, maxs: tuple) -> Box:
    """Box from int tuples an internal operation derived from valid boxes,
    built without the checks of Box.__post_init__."""
    b = object.__new__(Box)
    object.__setattr__(b, "mins", mins)
    object.__setattr__(b, "maxs", maxs)
    return b


def box_subtract(a: Box, b: Box) -> list[Box]:
    """Disjoint boxes covering the cells of a not in b.

    Axis-by-axis split, dimension 0 first: at most 2*dims pieces. Dimensions
    before the split axis are clamped to the intersection, later ones keep the
    full range of a, so the pieces tile a minus the intersection exactly.
    """
    ib = a.intersect(b)
    if ib is None:
        return [] if a.is_empty() else [a]
    out = []
    for k in range(a.dims):
        lo_pre = ib.mins[:k]
        hi_pre = ib.maxs[:k]
        lo_post = a.mins[k + 1 :]
        hi_post = a.maxs[k + 1 :]
        if a.mins[k] < ib.mins[k]:
            out.append(_box(lo_pre + (a.mins[k],) + lo_post, hi_pre + (ib.mins[k],) + hi_post))
        if ib.maxs[k] < a.maxs[k]:
            out.append(_box(lo_pre + (ib.maxs[k],) + lo_post, hi_pre + (a.maxs[k],) + hi_post))
    return out


def _merge_axis(boxes: list[Box], axis: int):
    """One greedy merge pass along a single axis. Returns (boxes, changed)."""
    groups: dict = {}
    for b in boxes:
        key = (b.mins[:axis] + b.mins[axis + 1 :], b.maxs[:axis] + b.maxs[axis + 1 :])
        groups.setdefault(key, []).append(b)
    out = []
    changed = False
    for key in sorted(groups):
        group = sorted(groups[key], key=lambda b: b.mins[axis])
        cur = group[0]
        for nxt in group[1:]:
            if cur.maxs[axis] == nxt.mins[axis]:
                cur = _box(cur.mins, cur.maxs[:axis] + (nxt.maxs[axis],) + cur.maxs[axis + 1 :])
                changed = True
            else:
                out.append(cur)
                cur = nxt
        out.append(cur)
    return out, changed


def _canonical(dims: int, boxes) -> tuple[Box, ...]:
    """Canonical form of pairwise disjoint, non-empty boxes."""
    if len(boxes) < 2:
        return tuple(boxes)
    # Greedy per-dimension merging can expose new adjacencies in earlier
    # dimensions, so iterate to a fixed point; that makes normalization
    # idempotent by construction.
    while True:
        changed = False
        for axis in range(dims):
            boxes, ch = _merge_axis(boxes, axis)
            changed = changed or ch
        if not changed:
            break
    return tuple(sorted(boxes, key=lambda b: (b.mins, b.maxs)))


class Region:
    """Union of disjoint boxes in canonical form."""

    __slots__ = ("dims", "boxes")

    def __init__(self, dims: int, boxes=()):
        if not 1 <= dims <= MAX_DIMS:
            raise DimensionError(f"regions support 1 to {MAX_DIMS} dimensions, got {dims}")
        disjoint: list[Box] = []
        for b in boxes:
            if b.dims != dims:
                raise DimensionError("box dimensionality does not match region")
            if b.is_empty():
                continue
            pieces = [b]
            for existing in disjoint:
                pieces = [q for p in pieces for q in box_subtract(p, existing)]
            disjoint.extend(pieces)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "boxes", _canonical(dims, disjoint))

    def __setattr__(self, name, value):
        raise AttributeError("Region is immutable")

    @classmethod
    def empty(cls, dims: int) -> "Region":
        return cls(dims)

    @classmethod
    def from_box(cls, box: Box) -> "Region":
        return cls(box.dims, (box,))

    def is_empty(self) -> bool:
        return not self.boxes

    def volume(self) -> int:
        return sum(b.volume() for b in self.boxes)

    def union(self, other: "Region") -> "Region":
        self._check(other)
        extra = []
        for b in other.boxes:
            pieces = [b]
            for a in self.boxes:
                pieces = [q for p in pieces for q in box_subtract(p, a)]
            extra.extend(pieces)
        return _from_disjoint(self.dims, list(self.boxes) + extra)

    def intersect(self, other: "Region") -> "Region":
        self._check(other)
        pieces = []
        for a in self.boxes:
            for b in other.boxes:
                ab = a.intersect(b)
                if ab is not None:
                    pieces.append(ab)
        return _from_disjoint(self.dims, pieces)

    def difference(self, other: "Region") -> "Region":
        self._check(other)
        pieces = list(self.boxes)
        for b in other.boxes:
            pieces = [q for p in pieces for q in box_subtract(p, b)]
        return _from_disjoint(self.dims, pieces)

    def overlaps(self, other: "Region") -> bool:
        """Whether the regions share a cell; bool(self.intersect(other)),
        without building the intersection."""
        self._check(other)
        for a in self.boxes:
            for b in other.boxes:
                for alo, ahi, blo, bhi in zip(a.mins, a.maxs, b.mins, b.maxs):
                    if alo >= bhi or blo >= ahi:
                        break
                else:
                    return True
        return False

    def intersect_box(self, box: Box) -> "Region":
        return self.intersect(Region.from_box(box))

    def translate(self, offset) -> "Region":
        return _from_disjoint(self.dims, [b.translate(offset) for b in self.boxes])

    def contains_region(self, other: "Region") -> bool:
        self._check(other)
        return other.difference(self).is_empty()

    def bounding_box(self):
        if not self.boxes:
            return None
        mins = tuple(min(b.mins[k] for b in self.boxes) for k in range(self.dims))
        maxs = tuple(max(b.maxs[k] for b in self.boxes) for k in range(self.dims))
        return Box(mins, maxs)

    def _check(self, other):
        if not isinstance(other, Region):
            raise TypeError("expected a Region")
        if other.dims != self.dims:
            raise DimensionError(f"dimension mismatch: {self.dims} vs {other.dims}")

    def __eq__(self, other):
        if not isinstance(other, Region):
            return NotImplemented
        if self.dims != other.dims:
            return False
        if self.boxes == other.boxes:
            return True
        # Decompositions may differ; only the cell set is contractual.
        return self.difference(other).is_empty() and other.difference(self).is_empty()

    __hash__ = None

    def __bool__(self):
        return not self.is_empty()

    def __iter__(self):
        return iter(self.boxes)

    def __str__(self):
        if not self.boxes:
            return "{}"
        return "{" + " ".join(str(b) for b in self.boxes) + "}"

    def __repr__(self):
        return f"Region({self.dims}, {list(self.boxes)!r})"


def _from_disjoint(dims: int, boxes: list[Box]) -> Region:
    """Build a Region from non-empty boxes already known to be pairwise
    disjoint."""
    r = Region.__new__(Region)
    object.__setattr__(r, "dims", dims)
    object.__setattr__(r, "boxes", _canonical(dims, boxes))
    return r


def normalize(r: Region) -> Region:
    """Re-canonicalize a Region (idempotent)."""
    return _from_disjoint(r.dims, list(r.boxes))

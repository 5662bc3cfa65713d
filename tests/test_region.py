"""Region algebra against a dense bitmap oracle."""

import random

import numpy as np
import pytest

from clusterq.errors import DimensionError
from clusterq.region import Box, Region, box_subtract, normalize

from helpers import box_bitmap, random_box, random_region, region_bitmap


def test_box_construction_and_props():
    b = Box((0, 3), (4, 5))
    assert b.dims == 2
    assert b.shape == (4, 2)
    assert b.volume() == 8
    assert not b.is_empty()
    assert str(b) == "[0,4)x[3,5)"


def test_box_from_shape():
    b = Box.from_shape((2, 3, 4))
    assert b.mins == (0, 0, 0)
    assert b.maxs == (2, 3, 4)
    assert b.volume() == 24


def test_box_rejects_bad_dims():
    with pytest.raises(DimensionError):
        Box((), ())
    with pytest.raises(DimensionError):
        Box((0, 0, 0, 0), (1, 1, 1, 1))
    with pytest.raises(DimensionError):
        Box((0,), (1, 2))
    with pytest.raises(ValueError):
        Box((3,), (2,))


def test_box_intersect():
    a = Box((0, 0), (4, 4))
    b = Box((2, 2), (6, 6))
    assert a.intersect(b) == Box((2, 2), (4, 4))
    assert a.intersect(Box((4, 0), (5, 4))) is None  # half-open, only touching


def test_box_contains_and_dilate():
    b = Box((2,), (5,))
    assert b.contains_box(Box((2,), (3,)))
    assert b.contains_box(Box((4,), (5,)))
    assert not b.contains_box(Box((5,), (6,)))
    assert b.dilate((1,)) == Box((1,), (6,))
    assert b.translate((3,)) == Box((5,), (8,))


def test_box_subtract_1d():
    pieces = box_subtract(Box((0,), (10,)), Box((3,), (6,)))
    assert sorted((p.mins[0], p.maxs[0]) for p in pieces) == [(0, 3), (6, 10)]


def test_box_subtract_no_overlap():
    pieces = box_subtract(Box((0,), (4,)), Box((6,), (8,)))
    assert pieces == [Box((0,), (4,))]


def test_box_subtract_oracle():
    rng = random.Random(7)
    for _ in range(300):
        dims = rng.choice((1, 2, 3))
        shape = (8,) * dims
        a = random_box(rng, shape)
        b = random_box(rng, shape)
        pieces = box_subtract(a, b)
        got = np.zeros(shape, dtype=bool)
        for p in pieces:
            piece = box_bitmap(p, shape)
            assert not (got & piece).any(), "subtract produced overlapping pieces"
            got |= piece
        assert np.array_equal(got, box_bitmap(a, shape) & ~box_bitmap(b, shape))


def test_region_empty():
    r = Region.empty(2)
    assert r.is_empty()
    assert r.volume() == 0
    assert not r
    assert list(r) == []


def test_region_folds_overlaps():
    r = Region(1, [Box((0,), (5,)), Box((3,), (8,))])
    assert r.volume() == 8
    assert r.boxes == (Box((0,), (8,)),)


def test_region_merges_adjacent():
    r = Region(1, [Box((0,), (3,)), Box((3,), (6,))])
    assert r.boxes == (Box((0,), (6,)),)


def test_region_2d_merge():
    # two stacked rows merge into one box
    r = Region(2, [Box((0, 0), (1, 4)), Box((1, 0), (2, 4))])
    assert r.boxes == (Box((0, 0), (2, 4)),)


def test_region_str():
    r = Region(1, [Box((0,), (3,)), Box((5,), (8,))])
    assert str(r) == "{[0,3) [5,8)}"


def test_region_equality_is_cell_set():
    a = Region(1, [Box((0,), (4,)), Box((4,), (8,))])
    b = Region(1, [Box((0,), (8,))])
    assert a == b
    assert a != Region(1, [Box((0,), (7,))])


def test_region_construction_deterministic_and_idempotent():
    # Only the cell set is contractual; the decomposition must be stable for
    # identical inputs and already be a normalization fixed point.
    rng = random.Random(21)
    for _ in range(100):
        dims = rng.choice((1, 2, 3))
        shape = (6,) * dims
        boxes = [random_box(rng, shape) for _ in range(rng.randrange(1, 5))]
        r1 = Region(dims, boxes)
        r2 = Region(dims, list(boxes))
        assert r1.boxes == r2.boxes
        assert normalize(r1).boxes == r1.boxes
        shuffled = list(boxes)
        rng.shuffle(shuffled)
        r3 = Region(dims, shuffled + boxes)  # duplicates must not matter
        assert r1 == r3
        assert r1.volume() == r3.volume()
        assert list(r1.boxes) == sorted(r1.boxes, key=lambda b: (b.mins, b.maxs))


def test_region_ops_oracle():
    rng = random.Random(3)
    for _ in range(250):
        dims = rng.choice((1, 2, 3))
        shape = {1: (16,), 2: (12, 9), 3: (6, 5, 4)}[dims]
        a = random_region(rng, shape)
        b = random_region(rng, shape)
        oa = region_bitmap(a, shape)
        ob = region_bitmap(b, shape)
        assert np.array_equal(region_bitmap(a.union(b), shape), oa | ob)
        assert np.array_equal(region_bitmap(a.intersect(b), shape), oa & ob)
        assert np.array_equal(region_bitmap(a.difference(b), shape), oa & ~ob)
        assert a.volume() == int(oa.sum())


def test_overlaps_oracle():
    rng = random.Random(5)
    for _ in range(250):
        dims = rng.choice((1, 2, 3))
        shape = {1: (16,), 2: (12, 9), 3: (6, 5, 4)}[dims]
        a = random_region(rng, shape)
        b = random_region(rng, shape)
        overlapping = bool((region_bitmap(a, shape) & region_bitmap(b, shape)).any())
        assert a.overlaps(b) == overlapping == bool(a.intersect(b))
        if not overlapping:
            # The scheduler keeps a disjoint piece as it is instead of
            # subtracting: both give the same boxes.
            assert a.difference(b).boxes == a.boxes
    touching = Region(2, [Box((0, 0), (2, 2))])
    assert not touching.overlaps(Region(2, [Box((2, 0), (4, 2)), Box((0, 2), (2, 4))]))
    assert touching.overlaps(Region(2, [Box((1, 1), (3, 3))]))
    with pytest.raises(DimensionError):
        touching.overlaps(Region(1, [Box((0,), (1,))]))


def test_inclusion_exclusion():
    rng = random.Random(11)
    for _ in range(200):
        dims = rng.choice((1, 2, 3))
        shape = (8,) * dims
        a = random_region(rng, shape)
        b = random_region(rng, shape)
        assert a.union(b).volume() == a.volume() + b.volume() - a.intersect(b).volume()


def test_region_boxes_disjoint_invariant():
    rng = random.Random(13)
    for _ in range(120):
        dims = rng.choice((1, 2, 3))
        shape = (7,) * dims
        r = random_region(rng, shape, max_boxes=5)
        seen = np.zeros(shape, dtype=bool)
        for box in r:
            piece = box_bitmap(box, shape)
            assert not (seen & piece).any()
            seen |= piece


def test_region_contains():
    r = Region(2, [Box((0, 0), (4, 4))])
    assert r.contains_region(Region(2, [Box((3, 3), (4, 4))]))
    assert not r.contains_region(Region(2, [Box((4, 0), (5, 1))]))
    assert r.contains_region(Region(2, [Box((1, 1), (3, 3))]))
    assert not r.contains_region(Region(2, [Box((3, 3), (5, 5))]))


def test_region_translate_and_bounding_box():
    r = Region(1, [Box((0,), (2,)), Box((5,), (6,))])
    t = r.translate((10,))
    assert t.boxes == (Box((10,), (12,)), Box((15,), (16,)))
    assert r.bounding_box() == Box((0,), (6,))


def test_region_intersect_box():
    r = Region(1, [Box((0,), (4,)), Box((6,), (9,))])
    assert r.intersect_box(Box((2,), (7,))).volume() == 3


def test_region_immutable():
    r = Region(1, [Box((0,), (2,))])
    with pytest.raises(AttributeError):
        r.boxes = ()
    with pytest.raises(TypeError):
        hash(r)


def test_normalize_module_function():
    r = Region(1, [Box((0,), (2,)), Box((2,), (4,)), Box((1,), (3,))])
    assert r.boxes == (Box((0,), (4,)),)
    assert normalize(r).boxes == r.boxes


def test_mixed_dim_ops_rejected():
    a = Region(1, [Box((0,), (2,))])
    b = Region(2, [Box((0, 0), (2, 2))])
    with pytest.raises(DimensionError):
        a.union(b)

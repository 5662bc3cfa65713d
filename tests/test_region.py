"""Region algebra against a dense bitmap oracle."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clusterq.errors import DimensionError
from clusterq.region import Box, Region, SpanIndex, box_subtract, cut, inside, overlapping

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


def test_box_contains():
    b = Box((2,), (5,))
    assert b.contains_box(Box((2,), (3,)))
    assert b.contains_box(Box((4,), (5,)))
    assert not b.contains_box(Box((5,), (6,)))


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
        assert Region(dims, r1.boxes).boxes == r1.boxes
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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_region_map_overlapping_and_cut_oracle(seed):
    rng = random.Random(seed)
    shape = rng.choice(((16,), (12, 9), (6, 5, 4)))
    entries = [(random_region(rng, shape), k, {"tag": k}) for k in range(rng.randrange(6))]
    regions = [random_region(rng, shape) for _ in range(rng.randrange(3))]
    cells = [region_bitmap(r, shape) for r, _k, _t in entries]

    query = random_region(rng, shape)
    hit = region_bitmap(query, shape)
    assert list(overlapping(entries, query, SpanIndex(entries))) == \
        [(i, e) for i, (e, c) in enumerate(zip(entries, cells)) if (c & hit).any()]

    removed = np.zeros(shape, dtype=bool)
    for r in regions:
        removed |= region_bitmap(r, shape)
    kept = [(e, c & ~removed) for e, c in zip(entries, cells) if (c & ~removed).any()]
    got = cut(entries, regions, SpanIndex(entries))
    assert [e[1:] for e in got] == [e[1:] for e, _c in kept]
    for g, (e, c) in zip(got, kept):
        assert np.array_equal(region_bitmap(g[0], shape), c)
        # An entry no region touches is kept as the same object.
        assert (g is e) == np.array_equal(c, region_bitmap(e[0], shape))


def full_scan_overlapping(entries, region):
    """The reference lookup: every entry tested, in list order."""
    return [(i, e) for i, e in enumerate(entries) if e[0].overlaps(region)]


def full_scan_cut(entries, regions):
    """The reference cut: every region removed from every entry it overlaps."""
    out = []
    for entry in entries:
        rest = entry[0]
        for region in regions:
            if rest.overlaps(region):
                rest = rest.difference(region)
        if rest is entry[0]:
            out.append(entry)
        elif rest:
            out.append((rest,) + entry[1:])
    return out


def assert_same_cut(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[1:] == w[1:] and g[0].boxes == w[0].boxes
        assert (g is w) == (g[0] is w[0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from(((16,), (12, 9), (6, 5, 4))))
def test_span_index_matches_full_scan(seed, shape):
    rng = random.Random(seed)
    dims = len(shape)
    # Pairwise disjoint entries, as a region map holds: each a random region
    # minus the ones before it, so in 2D and 3D many have several boxes and
    # axis-0 spans that overlap other entries' spans; some are empty.
    taken, entries = Region(dims), []
    for k in range(rng.randrange(9)):
        region = Region(dims) if rng.random() < 0.1 else \
            random_region(rng, shape).difference(taken)
        taken = taken.union(region)
        entries.append((region, k))
    queries = [random_region(rng, shape) for _ in range(3)] + [Region(dims)]
    index = SpanIndex(entries)
    for query in queries:
        want = full_scan_overlapping(entries, query)
        assert list(overlapping(entries, query, index)) == want
    regions = rng.sample(queries, rng.randrange(len(queries) + 1))
    assert_same_cut(cut(entries, regions, index), full_scan_cut(entries, regions))
    # Cutting with the entries' own regions drops every non-empty entry,
    # and leaves the empty ones as they are.
    assert cut(entries, [e[0] for e in entries], index) == [e for e in entries if not e[0]]


def test_span_index_reaches_past_short_spans():
    # Sorted by start, the ends run 9, 3, 5: the first entry reaches past
    # the others, so an index that bisected the ends alone would miss it.
    long_l = Region(2, [Box((0, 0), (9, 1)), Box((0, 1), (1, 3))])
    entries = [(long_l, "L"), (Region(2, [Box((1, 1), (3, 3))]), "a"),
               (Region(2, [Box((3, 1), (5, 3))]), "b"), (Region(2), "empty")]
    index = SpanIndex(entries)
    for query, hits in (
        (Region(2, [Box((7, 0), (8, 3))]), ["L"]),
        (Region(2, [Box((4, 2), (8, 3))]), ["b"]),
        (Region(2, [Box((0, 2), (6, 3))]), ["L", "a", "b"]),
        (Region(2, [Box((5, 1), (9, 3))]), []),
        (Region(2), []),
    ):
        assert [e[1] for _i, e in overlapping(entries, query, index)] == hits
        assert full_scan_overlapping(entries, query) == list(overlapping(entries, query, index))
    regions = [Region(2, [Box((0, 0), (9, 3))])]
    assert cut(entries, regions, index) == [(Region(2), "empty")]
    assert_same_cut(cut(entries, regions, index), full_scan_cut(entries, regions))


def test_inside_is_box_containment():
    outer = Region(2, [Box((0, 0), (4, 2)), Box((0, 2), (2, 4))])
    assert inside(Region(2, [Box((1, 0), (3, 2))]), outer)
    assert inside(Region(2, [Box((0, 0), (1, 1)), Box((1, 2), (2, 4))]), outer)
    assert not inside(Region(2, [Box((3, 1), (5, 2))]), outer)
    # Inside as cells, but its one box spans two boxes of outer.
    assert not inside(Region(2, [Box((0, 1), (2, 3))]), outer)
    assert inside(Region(2), outer)
    part = Region(2, [Box((1, 0), (3, 2))])
    assert part.intersect(outer).boxes == outer.intersect(part).boxes == part.boxes


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


def test_region_intersect_box():
    r = Region(1, [Box((0,), (4,)), Box((6,), (9,))])
    assert r.intersect_box(Box((2,), (7,))).volume() == 3


def test_region_immutable():
    r = Region(1, [Box((0,), (2,))])
    with pytest.raises(AttributeError):
        r.boxes = ()
    with pytest.raises(TypeError):
        hash(r)


def test_mixed_dim_ops_rejected():
    a = Region(1, [Box((0,), (2,))])
    b = Region(2, [Box((0, 0), (2, 2))])
    with pytest.raises(DimensionError):
        a.union(b)

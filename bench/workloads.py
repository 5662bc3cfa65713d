"""Benchmark workloads: seeded scenario generators with numpy references.

Each generator takes the workload's size parameters and a seed and returns a
scenario dict (the JSON a user would write), the final buffer contents the
scenario must produce, computed here with numpy and independently of
clusterq's evaluator, and the total transfer volume in bytes that the
documented chunking and halo rules imply. The seed sets the buffer values and
jitters the link by at most 0.5%, so simulated times differ between seeds but
repeat exactly for one seed.
"""

from dataclasses import dataclass

import numpy as np

ELEMENT_BYTES = 8
TARGETS = ("MIN_ENERGY", "MIN_EDP", "MIN_ED2P", "MAX_PERF")


@dataclass
class Workload:
    name: str
    params: dict  # benchmark sizes
    smoke: dict  # smallest sizes, used by smoke.py
    generate: object  # (params, seed) -> Generated


@dataclass
class Generated:
    scenario: dict
    reference: dict  # buffer name -> np.ndarray of final values
    transfer_bytes: int


def _link(rng) -> dict:
    latency, bandwidth = 1.0 + 0.01 * (rng.random(2) - 0.5)
    return {"latency_s": 1e-6 * latency, "bandwidth_bytes_per_s": 1e9 * bandwidth}


def _chunk_rows(rows: int, nodes: int) -> list[tuple[int, int]]:
    """Row ranges per node, as clusterq splits dimension 0."""
    q, r = divmod(rows, nodes)
    out, lo = [], 0
    for node in range(nodes):
        size = q + (1 if node < r else 0)
        if size == 0:
            break
        out.append((lo, lo + size))
        lo += size
    return out


def _halo_transfer_cells(rows: int, row_cells: int, nodes: int, sweeps: int) -> int:
    """Cells moved by a radius-1 ping-pong over a row-split buffer.

    The first sweep reads the host-initialized buffer, which sits whole on
    node 0, so every other node pulls its rows plus one halo row per side.
    Every later sweep reads a buffer its chunks just wrote, so each internal
    chunk boundary moves one row in each direction.
    """
    chunks = _chunk_rows(rows, nodes)
    first = sum(min(hi + 1, rows) - max(lo - 1, 0) for lo, hi in chunks[1:])
    later = (sweeps - 1) * 2 * (len(chunks) - 1)
    return (first + later) * row_cells


def _shifted(x: np.ndarray, axis: int, offset: int) -> np.ndarray:
    """x read at (index + offset) along axis, clamped to the extent."""
    idx = np.clip(np.arange(x.shape[axis]) + offset, 0, x.shape[axis] - 1)
    return np.take(x, idx, axis=axis)


def _ping_pong_tasks(prefix, rng_shape, sweeps, radii, body_for, params):
    tasks = []
    for k in range(sweeps):
        src, dst = ("a", "b") if k % 2 == 0 else ("b", "a")
        tasks.append({
            "name": f"{prefix}{k}",
            "range": list(rng_shape),
            "reads": [{"buffer": src, "mapper": {"kind": "neighborhood", "radii": radii}}],
            "writes": [dst],
            "body": body_for(src),
            "params": dict(params),
        })
    return tasks


def _expectations(reference: dict) -> list:
    return [{"buffer": name, "values": arr.reshape(-1).tolist()}
            for name, arr in sorted(reference.items())]


def stencil2d(p: dict, seed: int) -> Generated:
    n, sweeps, nodes = p["n"], p["sweeps"], p["nodes"]
    rng = np.random.default_rng(seed)
    link = _link(rng)
    a = rng.random((n, n))
    w = 0.2

    def body(src):
        return (f"w * ({src}[i.0-1, i.1] + {src}[i.0, i.1-1] + {src}[i.0, i.1] "
                f"+ {src}[i.0, i.1+1] + {src}[i.0+1, i.1])")

    bufs = {"a": a.copy(), "b": np.zeros((n, n))}
    for k in range(sweeps):
        src, dst = ("a", "b") if k % 2 == 0 else ("b", "a")
        x = bufs[src]
        # Same operand order as the kernel text: left to right, then * w.
        total = _shifted(x, 0, -1) + _shifted(x, 1, -1)
        total = total + x
        total = total + _shifted(x, 1, 1)
        total = total + _shifted(x, 0, 1)
        bufs[dst] = w * total

    scenario = {
        "nodes": nodes,
        "target": "MAX_PERF",
        "link": link,
        "buffers": [
            {"name": "a", "extent": [n, n],
             "init": {"kind": "values", "values": a.reshape(-1).tolist()}},
            {"name": "b", "extent": [n, n], "init": "zeros"},
        ],
        "tasks": _ping_pong_tasks("jacobi", (n, n), sweeps, [1, 1], body, {"w": w}),
        "expectations": _expectations(bufs),
    }
    moved = _halo_transfer_cells(n, n, nodes, sweeps)
    return Generated(scenario, bufs, moved * ELEMENT_BYTES)


def chain(p: dict, seed: int) -> Generated:
    tasks, cells, nodes = p["tasks"], p["cells"], p["nodes"]
    rng = np.random.default_rng(seed)
    link = _link(rng)
    a = rng.random(cells)
    w = 1.0 / 3.0

    def body(src):
        return f"w * ({src}[i-1] + {src}[i] + {src}[i+1])"

    bufs = {"a": a.copy(), "b": np.zeros(cells)}
    for k in range(tasks):
        src, dst = ("a", "b") if k % 2 == 0 else ("b", "a")
        x = bufs[src]
        bufs[dst] = w * ((_shifted(x, 0, -1) + x) + _shifted(x, 0, 1))

    scenario = {
        "nodes": nodes,
        "link": link,
        "buffers": [
            {"name": "a", "extent": [cells], "init": {"kind": "values", "values": a.tolist()}},
            {"name": "b", "extent": [cells], "init": "zeros"},
        ],
        "tasks": _ping_pong_tasks("step", (cells,), tasks, [1], body, {"w": w}),
        "expectations": _expectations(bufs),
    }
    moved = _halo_transfer_cells(cells, 1, nodes, tasks)
    return Generated(scenario, bufs, moved * ELEMENT_BYTES)


def _int64_values(rng, count: int) -> np.ndarray:
    """Values spread over +-2**62 with some pinned near the edges.

    Every value is a multiple of 1024, so it is exactly representable as a
    float64; clusterq rejects int64 init values that are not.
    """
    values = rng.integers(-(1 << 52), 1 << 52, size=count, dtype=np.int64) << 10
    edge = rng.choice(count, size=max(1, count // 16), replace=False)
    sign = np.where(rng.random(edge.size) < 0.5, -1, 1)
    near = (1 << 62) - (rng.integers(0, 1 << 20, size=edge.size, dtype=np.int64) << 10)
    values[edge] = sign * near
    return values


def _trunc_div(a: np.ndarray, d: int) -> np.ndarray:
    """int64 division rounding toward zero; |d| >= 2 so nothing overflows."""
    q = a // d
    fix = (a % d != 0) & ((a < 0) != (d < 0))
    return q + fix.astype(np.int64)


# Per round: multiplier, read offset and divisor of
# (src[i] * m - src[i + o]) / d. Multiplying values near 2**62 wraps.
ALLGATHER_ROUNDS = ((3, 5, 2), (-7, -11, 3), (5, 17, -5), (9, -3, 7))


def _allgather_devices(nodes: int) -> list:
    devices = []
    for k in range(nodes):
        scale = 1.0 + 0.05 * k
        levels = [round(f * scale, 3) for f in (0.6, 0.9, 1.2, 1.5, 1.8, 2.1)]
        devices.append({
            "levels_ghz": levels,
            "f_ref_ghz": levels[2],
            "p_static_w": 4.0 + 0.5 * k,
            "p_dyn_ref_w": 12.0 + 1.5 * k,
            "alpha_exp": 2.3 + 0.15 * k,
            "throughput_ref": 1e9 * (1.0 + 0.1 * (k % 3)),
        })
    return devices


def allgather(p: dict, seed: int) -> Generated:
    cells, rounds, nodes = p["cells"], p["rounds"], p["nodes"]
    rng = np.random.default_rng(seed)
    link = _link(rng)
    x = _int64_values(rng, cells)

    bufs = {"x": x.copy(), "y": np.zeros(cells, dtype=np.int64)}
    tasks = []
    with np.errstate(over="ignore"):
        for k in range(rounds):
            m, o, d = ALLGATHER_ROUNDS[k % len(ALLGATHER_ROUNDS)]
            src, dst = ("x", "y") if k % 2 == 0 else ("y", "x")
            v = bufs[src]
            bufs[dst] = _trunc_div(v * np.int64(m) - _shifted(v, 0, o), d)
            tasks.append({
                "name": f"gather{k}",
                "range": [cells],
                "reads": [{"buffer": src, "mapper": "all"}],
                "writes": [dst],
                "body": f"({src}[i] * m - {src}[i{o:+d}]) / d",
                "params": {"m": m, "d": d},
                "beta": 0.1 + 0.1 * (k % 4),
                "target": TARGETS[k % len(TARGETS)],
            })

    scenario = {
        "nodes": nodes,
        "devices": _allgather_devices(nodes),
        "link": link,
        "buffers": [
            {"name": "x", "extent": [cells], "element_kind": "int64",
             "init": {"kind": "values", "values": x.tolist()}},
            {"name": "y", "extent": [cells], "element_kind": "int64", "init": "zeros"},
        ],
        "tasks": tasks,
        "expectations": _expectations(bufs),
    }
    # Every round, each node pulls all of the read buffer it does not hold:
    # (nodes - 1) whole copies, whether it sits on node 0 or is spread.
    return Generated(scenario, bufs, rounds * (nodes - 1) * cells * ELEMENT_BYTES)


# Each workload makes a different layer dominate host time, so a change to
# one layer shows on one workload and should leave the others unchanged.
# Sizes keep one run near 0.2-0.4 s: on a shared machine the fastest of a
# hundred short runs repeats far better than the fastest of twenty long ones
# (see README.md). sweep.py runs chain and stencil2d at larger sizes.
WORKLOADS = {
    w.name: w for w in (
        # Per-cell kernel evaluation is ~80% of host time; 4 tasks and 10
        # edges keep graph and scheduler near 0. Vectorized simulate shows
        # here, linear dependency tracking should not.
        Workload("stencil2d", {"n": 40, "sweeps": 4, "nodes": 4},
                 {"n": 8, "sweeps": 2, "nodes": 4}, stencil2d),
        # Few cells but task edges and command deps grow with tasks squared:
        # region ops, simulator dependency maxima, scheduler and graph
        # dominate. Linear dependency tracking shows here.
        Workload("chain", {"tasks": 30, "cells": 64, "nodes": 8},
                 {"tasks": 4, "cells": 16, "nodes": 8}, chain),
        # Every node pulls every chunk: 7 cells captured and landed per cell
        # computed, so payload copies rival kernel evaluation, and the
        # region map tracks many holders per piece. A compute speed-up that
        # slows copies shows here.
        Workload("allgather", {"cells": 2048, "rounds": 4, "nodes": 8},
                 {"cells": 64, "rounds": 4, "nodes": 8}, allgather),
    )
}

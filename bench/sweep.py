"""Scaling sweep: how host time and plan size grow with the input size.

    python3 bench/sweep.py [--seed N]

Runs chain at several task counts T and stencil2d at several grid sides n
through the same harness as run.py: wall_s is the fastest of 3 plain runs,
as in run.py, and one traced run gives the exact graph.edges and
scheduler.deps. It prints one row per size and the growth exponent of each
figure, the least-squares slope of log(figure) against log(size). An
exponent near 2 in T says the cost grows with the square of the queue
length; a change that only shaves a constant factor leaves it where it was.
The sweep takes about a minute and is not part of the per-check runs.
"""

import argparse
import json
import sys

import numpy as np

from run import SRC, session_for
from tracing import Tracer, layer_counts
from workloads import WORKLOADS

SWEEPS = {"chain": ("tasks", (50, 100, 200)), "stencil2d": ("n", (32, 64, 128))}
FIGURES = ("wall_s", "graph.edges", "scheduler.deps")
REPEATS = 3


def exponent(sizes, values) -> float:
    return float(np.polyfit(np.log(sizes), np.log(values), 1)[0])


def sweep(workload: str, seed: int) -> dict:
    axis, sizes = SWEEPS[workload]
    rows = []
    for size in sizes:
        params = dict(WORKLOADS[workload].params, **{axis: size})
        with session_for(workload, params, seed) as session:
            walls = [session.iteration() for _ in range(REPEATS)]
            tracer = Tracer()
            session.iteration(tracer)
            if session.failed:
                raise SystemExit(f"{workload} {axis}={size}: {session.failed} runs failed")
        results = tracer.results
        counts = layer_counts(results["graph"], results["scheduler"], results["simulator"])
        rows.append({"wall_s": min(walls),
                     "graph.edges": counts["graph.edges"],
                     "scheduler.deps": counts["scheduler.deps"]})
        print(f"{workload} {axis}={size}: " + " ".join(f"{k}={v}" for k, v in rows[-1].items()))
    return {figure: round(exponent(sizes, [row[figure] for row in rows]), 3)
            for figure in FIGURES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    growth = {}
    for workload, (axis, _sizes) in SWEEPS.items():
        growth[workload] = {"axis": axis, **sweep(workload, args.seed)}
        print(f"{workload} growth exponent in {axis}: " + " ".join(
            f"{figure}={growth[workload][figure]:.2f}" for figure in FIGURES))
    print(json.dumps(growth))
    return 0


if __name__ == "__main__":
    sys.exit(main())

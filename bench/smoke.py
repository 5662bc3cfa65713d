"""Smoke check of the benchmark harness at the smallest workload sizes.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json once plain and once traced at the
sizes in workloads.py's `smoke` field, through the same code as run.py, and
checks that every run passes the harness's output checks and that exactly
the end-to-end and per-layer metrics named in BENCHMARK.json are reported. It has no time bound: timing gates on a shared machine are flaky.
Exits 0 when everything holds, 1 otherwise.
"""

import json
import sys

from run import ROOT, SRC, measure
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, metrics in expected.items():
            result = measure(name, 1, 0, bool(trace), WORKLOADS[name].smoke)
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} runs failed")
            got = result["metrics"]
            want = {m["name"] for m in metrics}
            if set(got) != want:
                problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(want - set(got))}, "
                                f"extra {sorted(set(got) - want)}")
    for line in problems:
        print(f"smoke: {line}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Fresh-process probe for peak memory, started by run.py.

    python3 bench/probe.py SCENARIO OUT

Runs `clusterq run SCENARIO --out OUT` once and prints one JSON object with
the exit code and the process's peak resident set size in MB.
"""

import contextlib
import io
import json
import os
import resource
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(scenario: str, out: str) -> dict:
    sys.path.insert(0, SRC)
    import clusterq.cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = clusterq.cli.main(["run", scenario, "--out", out])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"rc": rc, "peak_rss_mb": peak_kib / 1024}


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:3])))

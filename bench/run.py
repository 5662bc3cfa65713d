"""clusterq benchmark harness: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; clusterq is imported from ./src. The harness
generates the workload's scenario from the seed (see workloads.py), writes it
as a JSON file and drives it through the user's own entry point,
`clusterq.cli.main(["run", FILE, "--out", DIR])`, back to back in this one
process and thread for S seconds after one untimed warm-up run.

Every run is checked from outside the program: exit code 0 (which includes
clusterq's own check of the scenario's expectations), the written buf_*.json
equal bit for bit to the numpy reference, report.json's transfer volume
equal to the one the chunking rules imply, and a sha256 over report.json,
trace.json and buf_*.json equal to the first run's. A run failing any check
counts in `failed`.

--trace 0 prints the end-to-end metrics: the wall time of one run, the
time of clusterq's own set-up (a fresh import of clusterq and of every module
it adds to the harness's, plus load_scenario, once after every timed run),
peak RSS of a fresh process, and the simulated makespan, energy and transfer
volume. --trace 1 alternates plain and traced runs and prints the per-layer
metrics (tracing.py) plus the tracing overhead. Times are host time unless the name starts with `sim_`;
each metric's unit is the one BENCHMARK.json gives it.

In-process host times are the fastest of the run's iterations, with the
median and every sample printed beside it. Noise from other tenants of a
shared machine only ever adds time: on a shared 2-vCPU Xeon virtual machine
the speed of a fixed pure-Python loop swung by up to 1.8x within seconds,
which moved the median of a 30 s run by 20-30% from one run to the next.

The last line of output is one JSON object with the keys correct, attempted,
failed and metrics. Scratch files go to ./.bench_out and are removed, except
the traced run's spans, which are written there once at the end.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import Tracer, layer_counts, traced
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
PROBE = Path(__file__).resolve().parent / "probe.py"
PROBE_TIMEOUT_S = 150
UNITS = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
         for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
# Everything loaded before clusterq is first imported, after the first
# workload is generated: the standard library and numpy modules the harness
# uses. setup_once re-imports all the rest.
HARNESS_MODULES = set()


def output_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    names = ["report.json", "trace.json"] + sorted(p.name for p in out_dir.glob("buf_*.json"))
    for name in names:
        digest.update(name.encode() + b"\0")
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


def check_outputs(out_dir: Path, gen) -> list[str]:
    """Compare one run's files against the harness's own expectations."""
    problems = []
    for name, ref in sorted(gen.reference.items()):
        dump = json.loads((out_dir / f"buf_{name}.json").read_text())
        got = np.array(dump["values"], dtype=ref.dtype).reshape(ref.shape)
        if got.tobytes() != ref.tobytes():
            first = np.argwhere(got.view(np.uint64) != ref.view(np.uint64))[0]
            problems.append(f"buf_{name}.json differs from the numpy reference at "
                            f"{tuple(int(i) for i in first)}")
    report = json.loads((out_dir / "report.json").read_text())
    moved = report["transfers"]["total_bytes"]
    if moved != gen.transfer_bytes:
        problems.append(f"report.json moves {moved} bytes, expected {gen.transfer_bytes}")
    if not report["makespan_s"] > 0:
        problems.append(f"report.json makespan {report['makespan_s']} is not positive")
    return problems


class Session:
    """Back-to-back runs of one scenario, each checked after it returns."""

    def __init__(self, gen, scenario: Path, work: Path):
        if "clusterq" not in sys.modules:
            HARNESS_MODULES.update(sys.modules)
        import clusterq.cli

        self.main = clusterq.cli.main
        self.gen = gen
        self.scenario = scenario
        self.work = work
        self.out = work / "out"
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.report = None

    def _check_files(self, out_dir: Path):
        """The first correct run is checked in full; later runs by digest."""
        digest = output_digest(out_dir)
        if self.digest is None:
            problems = check_outputs(out_dir, self.gen)
            if problems:
                return "; ".join(problems)
            self.digest = digest
            self.report = json.loads((out_dir / "report.json").read_text())
        elif digest != self.digest:
            return f"output digest {digest} differs from the first run's {self.digest}"
        return None

    def iteration(self, tracer=None) -> float:
        """One `clusterq run`; returns its wall time in seconds."""
        gc.collect()
        argv = ["run", str(self.scenario), "--out", str(self.out)]
        main = self.main if tracer is None else tracer.span("cli.main", self.main)
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            if tracer is not None:
                stack.enter_context(traced(tracer))
            start = perf_counter()
            try:
                outcome = main(argv)
            except Exception:  # a crash is a failed run, not a failed benchmark
                outcome = traceback.format_exc()
            wall = perf_counter() - start
        self.verify(outcome, self.out)
        return wall

    def verify(self, outcome, out_dir: Path):
        self.attempted += 1
        if isinstance(outcome, str):
            problem = f"raised\n{outcome}"
        elif outcome != 0:
            problem = f"exit code {outcome}"
        else:
            try:
                problem = self._check_files(out_dir)
            except (OSError, ValueError, KeyError) as exc:
                problem = f"unreadable outputs: {exc!r}"
        if problem:
            self.failed += 1
            print(f"run {self.attempted} failed: {problem}", file=sys.stderr)


def peak_rss(scenario: Path, out: Path) -> dict:
    """One full run in a fresh process (probe.py): exit code and peak RSS."""
    proc = subprocess.run(
        [sys.executable, str(PROBE), str(scenario), str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe.py exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _added_modules() -> list:
    return [name for name in sys.modules if name not in HARNESS_MODULES]


def setup_once(scenario: Path) -> float:
    """Time clusterq's own set-up: a fresh import of clusterq and of every
    module it pulls in beyond the harness's own, plus load_scenario. The
    modules loaded before are put back afterwards, also as attributes of
    their parent packages, so the runs and the tracer keep using one set."""
    saved = {name: sys.modules.pop(name) for name in _added_modules()}
    try:
        start = perf_counter()
        importlib.import_module("clusterq.cli").load_scenario(scenario)
        return perf_counter() - start
    finally:
        for name in _added_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        for name, module in saved.items():
            parent, _, child = name.rpartition(".")
            if parent in sys.modules:
                setattr(sys.modules[parent], child, module)


def _rounded(values, digits=4) -> list:
    return [round(v, digits) for v in values]


def until(seconds: float, body) -> None:
    """Call body() back to back until `seconds` have passed; at least once."""
    deadline = perf_counter() + seconds
    while True:
        body()
        if perf_counter() >= deadline:
            return


def end_to_end(session: Session, seconds: float) -> dict:
    walls, setup = [], []

    def step():
        walls.append(session.iteration())
        setup.append(setup_once(session.scenario))

    until(seconds, step)
    rss = peak_rss(session.scenario, session.work / "rss")
    session.verify(rss["rc"], session.work / "rss")
    print(f"samples: wall_s fastest of {len(walls)} runs {_rounded(walls)} "
          f"(median {statistics.median(walls):.4f}), setup_s fastest of {len(setup)} "
          f"set-ups {_rounded(setup, 5)} (median {statistics.median(setup):.5f}), "
          f"peak_rss_mb 1 fresh process")
    report = session.report or {"makespan_s": 0.0, "per_device": [],
                                "transfers": {"total_bytes": 0}}
    return {
        "wall_s": min(walls),
        "setup_s": min(setup),
        "peak_rss_mb": rss["peak_rss_mb"],
        "sim_makespan_s": report["makespan_s"],
        "sim_energy_j": sum(d["energy_j"] for d in report["per_device"]),
        "sim_transfer_bytes": report["transfers"]["total_bytes"],
    }


def per_layer(session: Session, seconds: float, spans_file: Path) -> dict:
    plain, with_trace, layers, dumps = [], [], [], []
    tracer = None

    def pair():
        nonlocal tracer
        plain.append(session.iteration())
        tracer = Tracer()
        with_trace.append(session.iteration(tracer))
        layers.append(tracer.layer_times())
        dumps.append(tracer.dump())

    until(seconds, pair)
    print(f"samples: {len(plain)} plain runs {_rounded(plain)} and {len(with_trace)} "
          f"traced runs {_rounded(with_trace)}, alternating")
    spans_file.write_text(json.dumps(dumps))
    values = {name: min(layer[name] for layer in layers) for name in layers[0]}
    results = tracer.results
    values.update(layer_counts(results["graph"], results["scheduler"], results["simulator"]))
    values["cli.output_bytes"] = sum(p.stat().st_size for p in session.out.iterdir())
    values["trace.overhead_s"] = min(with_trace) - min(plain)
    return values


@contextlib.contextmanager
def session_for(workload: str, params: dict, seed: int):
    """Generate the workload, write its scenario file and warm up one run.

    The scenario and the run's outputs live in a scratch directory under
    .bench_out that is removed when the block ends.
    """
    gen = WORKLOADS[workload].generate(params, seed)
    work = SCRATCH / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        scenario = work / "scenario.json"
        scenario.write_text(json.dumps(gen.scenario))
        session = Session(gen, scenario, work)
        session.iteration()  # warm-up: checked, not timed
        yield session
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool, params=None) -> dict:
    params = dict(WORKLOADS[workload].params if params is None else params)
    print(f"workload {workload} {json.dumps(params, sort_keys=True)} seed {seed}; "
          f"python {platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} cpus")
    with session_for(workload, params, seed) as session:
        if trace:
            spans = SCRATCH / f"spans-{workload}-seed{seed}.json"
            metrics = per_layer(session, seconds, spans)
            print(f"spans written to {spans.relative_to(ROOT)}")
        else:
            metrics = end_to_end(session, seconds)
    print(f"output digest sha256 {session.digest}")
    for name, value in metrics.items():
        print(f"{name} {value} {UNITS[name]}")
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "clusterq" / "__init__.py").is_file():
        print(f"run.py: no clusterq sources under {SRC}; run from a repository "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

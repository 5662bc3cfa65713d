"""Command-line entry point.

Subcommands:
  run <scenario> [--nodes N] [--target T] [--out DIR]
      Simulate and write report.json, trace.json and buf_<name>.json dumps.
  graph <scenario> [--nodes N] [--kind task|command] [--out FILE.dot]
      Emit the task or command DAG as DOT text.
  validate <scenario> [--nodes N]
      Compare the distributed run against a single-node run bit for bit.

Exit codes: 0 success, 1 usage or I/O error, 2 validation or expectation
failure. Scenario names that are not files on disk fall back to the bundled
examples (saxpy, stencil, pipeline).
"""

import argparse
import os
import sys

from .energy import EnergyTarget
from .errors import ClusterqError
from .scenario import (
    Scenario,
    build_graph,
    bundled_scenario_path,
    check_expectations,
    load_scenario,
    plan_scenario,
    run_scenario,
    validate_against_serial,
    write_buffer,
    write_json,
    write_trace,
)
from .scheduler import export_command_graph


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for validation
    # failures and uses 1 for usage errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="clusterq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    targets = [t.value for t in EnergyTarget]

    p_run = sub.add_parser("run", help="simulate a scenario and write reports")
    p_run.add_argument("scenario")
    p_run.add_argument("--nodes", type=_positive_int, default=None)
    p_run.add_argument("--target", choices=targets, default=None)
    p_run.add_argument("--out", default=".", help="output directory (default: .)")

    p_graph = sub.add_parser("graph", help="emit the task or command DAG as DOT")
    p_graph.add_argument("scenario")
    p_graph.add_argument("--nodes", type=_positive_int, default=None)
    p_graph.add_argument("--kind", choices=["task", "command"], default="task")
    p_graph.add_argument("--out", default=None, help="output file (default: stdout)")

    p_val = sub.add_parser("validate", help="compare a distributed run against serial")
    p_val.add_argument("scenario")
    p_val.add_argument("--nodes", type=_positive_int, default=None)

    return parser


def _load(name: str) -> Scenario:
    if os.path.exists(name):
        return load_scenario(name)
    bundled = bundled_scenario_path(name)
    if bundled is not None:
        return load_scenario(bundled)
    raise FileNotFoundError(f"no such scenario file or bundled scenario: {name}")


def build_report(bundle) -> dict:
    energy = bundle.energy
    pushes = [ev for ev in bundle.result.trace if ev.kind == "push"]
    return {
        "makespan_s": float(energy.makespan_s),
        "per_task": [
            {
                "id": t.task_id,
                "name": t.name,
                "duration_s": float(t.duration_s),
                "energy_j": float(t.energy_j),
                "frequency_ghz_per_node": {
                    str(node): f for node, f in t.frequency_ghz_per_node.items()
                },
            }
            for t in energy.per_task
        ],
        "per_device": [
            {
                "node": d.node,
                "energy_j": float(d.energy_j),
                "busy_s": float(d.busy_s),
                "idle_s": float(d.idle_s),
            }
            for d in energy.per_device
        ],
        "transfers": {
            "count": len(pushes),
            "total_bytes": sum(ev.bytes for ev in pushes),
        },
    }


def _cmd_run(args) -> int:
    scenario = _load(args.scenario)
    target = EnergyTarget(args.target) if args.target else None
    bundle = run_scenario(scenario, nodes=args.nodes, target=target)

    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "report.json"), build_report(bundle))
    write_trace(os.path.join(args.out, "trace.json"), bundle.result.trace)
    buffers = {buf.name: buf for buf in scenario.buffers}
    for name in sorted(bundle.result.buffers):
        write_buffer(os.path.join(args.out, f"buf_{name}.json"), buffers[name],
                     bundle.result.buffers[name])

    failures = check_expectations(scenario, bundle.result.buffers)
    for line in failures:
        print(f"expectation failed: {line}", file=sys.stderr)
    print(
        f"nodes={bundle.plan.node_count} target={bundle.plan.target.value} "
        f"makespan={float(bundle.result.makespan):.6g}s "
        f"commands={len(bundle.plan.commands)} -> {args.out}"
    )
    return 2 if failures else 0


def _cmd_graph(args) -> int:
    scenario = _load(args.scenario)
    if args.kind == "task":
        dot = build_graph(scenario).to_dot()
    else:
        dot = export_command_graph(plan_scenario(scenario, args.nodes))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        sys.stdout.write(dot)
    return 0


def _cmd_validate(args) -> int:
    scenario = _load(args.scenario)
    nodes = args.nodes if args.nodes is not None else (scenario.nodes or 1)
    failures = validate_against_serial(scenario, nodes)
    if failures:
        for line in failures:
            print(f"validate: {line}", file=sys.stderr)
        return 2
    print(f"validate: ok ({nodes} nodes vs serial)")
    return 0


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "graph": _cmd_graph, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except ClusterqError as exc:
        print(f"clusterq: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"clusterq: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

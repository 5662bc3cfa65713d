"""Acceptance gate: one test per top-level criterion.

Each test prints a single `ACCEPTANCE <n> <name>: PASS|FAIL` line on the
terminal regardless of capture settings, then fails normally if the
criterion does not hold.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from clusterq import cli
from clusterq.energy import (
    DeviceModel,
    EnergyTarget,
    account_energy,
    select_frequency,
)
from clusterq.graph import TaskGraph
from clusterq.scenario import (
    bundled_scenario_path,
    load_scenario,
    run_scenario,
)
from clusterq.scheduler import generate_commands
from clusterq.simulator import run

from helpers import (
    await_pushes,
    check_plan,
    push_commands,
    random_region,
    random_workload,
    region_bitmap,
    total_idle_energy,
    total_kernel_energy,
)


@contextmanager
def criterion(capsys, num, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} {name}: PASS")


def bits(arr):
    return arr.view(np.uint64) if arr.dtype == np.float64 else arr


def graph_for(buffers, tasks):
    g = TaskGraph(buffers)
    for t in tasks:
        g.submit(t)
    return g


def test_criterion_1_region_oracle_equivalence(capsys):
    with criterion(capsys, 1, "region-oracle-equivalence"):
        rng = random.Random(101)
        t0 = time.monotonic()
        for case in range(1000):
            dims = rng.choice((1, 2, 3))
            shape = tuple(rng.randrange(2, 17) for _ in range(dims))
            a = random_region(rng, shape)
            b = random_region(rng, shape)
            ga = region_bitmap(a, shape)
            gb = region_bitmap(b, shape)
            union = a.union(b)
            inter = a.intersect(b)
            diff = a.difference(b)
            assert np.array_equal(region_bitmap(union, shape), ga | gb), case
            assert np.array_equal(region_bitmap(inter, shape), ga & gb), case
            assert np.array_equal(region_bitmap(diff, shape), ga & ~gb), case
            assert union.volume() == a.volume() + b.volume() - inter.volume()
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_distributed_equals_serial(capsys):
    with criterion(capsys, 2, "distributed-equals-serial"):
        rng = random.Random(103)
        t0 = time.monotonic()
        kinds_seen = set()
        for case in range(100):
            counter = [0, 1, 2, 3, 4]
            rng.shuffle(counter)
            buffers, tasks = random_workload(rng, mapper_counter=counter)
            for t in tasks:
                for acc in t.accessors:
                    kinds_seen.add(type(acc.mapper).__name__)
            base = None
            for nodes in (1, 2, 3, 4, 8):
                g = graph_for(buffers, tasks)
                res = run(generate_commands(g, nodes))
                if base is None:
                    base = res.buffers
                else:
                    for name in base:
                        assert np.array_equal(
                            bits(base[name]), bits(res.buffers[name])), \
                            f"case {case}, buffer {name}, nodes {nodes}"
        assert kinds_seen >= {"OneToOne", "Neighborhood", "All", "Fixed", "Slice"}
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_3_saxpy_transfers(capsys):
    with criterion(capsys, 3, "saxpy-transfers"):
        s1 = load_scenario(bundled_scenario_path("saxpy"))
        g = graph_for({b.name: b for b in s1.buffers}, s1.tasks)
        plan = generate_commands(g, 2)
        pushes = push_commands(plan)
        assert len(pushes) == 2
        for p in pushes:
            assert (p.src, p.dst) == (0, 1)
            assert p.region.volume() == 4
        assert {p.buffer for p in pushes} == {"x", "y"}

        # immediately repeated identical task: no new transfers
        s2 = load_scenario(bundled_scenario_path("saxpy"))
        s3 = load_scenario(bundled_scenario_path("saxpy"))
        g2 = graph_for({b.name: b for b in s2.buffers},
                       [s2.tasks[0], s3.tasks[0]])
        plan2 = generate_commands(g2, 2)
        assert len(push_commands(plan2)) == 2  # both belong to the first submission
        first_exec_of_task2 = min(
            c.id for c in plan2.executes() if c.task_id == 2)
        assert all(p.id < first_exec_of_task2 for p in push_commands(plan2))
        check_plan(plan2, g2.buffers)


def halo_oracle_volume(n, node_count, sweeps, first_buffer_full_on_node0):
    """Independent residency replay for the 1D radius-1 ping-pong stencil;
    returns total elements that must move between nodes."""
    q, r = divmod(n, node_count)
    chunks = []
    lo = 0
    for node in range(node_count):
        size = q + 1 if node < r else q
        if size == 0:
            break
        chunks.append((node, lo, lo + size))
        lo += size
    fresh = {
        name: {node: np.zeros(n, dtype=bool) for node, _, _ in chunks}
        for name in ("a", "b")
    }
    for name, full in first_buffer_full_on_node0.items():
        if full:
            fresh[name][0][:] = True
    total = 0
    rbuf, wbuf = "a", "b"
    for _ in range(sweeps):
        for node, lo, hi in chunks:
            need = np.zeros(n, dtype=bool)
            need[max(lo - 1, 0):min(hi + 1, n)] = True
            total += int((need & ~fresh[rbuf][node]).sum())
            fresh[rbuf][node] |= need
        for node, lo, hi in chunks:
            for other, _, _ in chunks:
                fresh[wbuf][other][lo:hi] = other == node
        rbuf, wbuf = wbuf, rbuf
    return total


def test_criterion_4_stencil_halo_exchange(capsys):
    with criterion(capsys, 4, "stencil-halo-exchange"):
        s = load_scenario(bundled_scenario_path("stencil"))
        g = graph_for({b.name: b for b in s.buffers}, s.tasks)
        plan = generate_commands(g, 2)
        pushes = push_commands(plan)

        oracle = halo_oracle_volume(16, 2, 3, {"a": True, "b": True})
        assert sum(p.region.volume() for p in pushes) == oracle == 13

        # map each push to the task that consumes it via its await id
        awaits = {a.push.id: a.id for a in await_pushes(plan)}
        consumer = {}
        for p in pushes:
            aid = awaits[p.id]
            execs = [c for c in plan.executes() if aid in c.deps]
            assert execs, f"push C{p.id} has no consumer"
            consumer[p.id] = execs[0].task_id
        by_task = {}
        for p in pushes:
            by_task.setdefault(consumer[p.id], []).append(p)
        # first sweep: the one bulk distribution push
        assert [p.region.volume() for p in by_task[1]] == [9]
        # each later sweep: exactly one element per direction
        for tid in (2, 3):
            sweep = by_task[tid]
            assert [p.region.volume() for p in sweep] == [1, 1]
            assert {(p.src, p.dst) for p in sweep} == {(0, 1), (1, 0)}
        check_plan(plan, g.buffers)


def test_criterion_5_frequency_selection(capsys):
    with criterion(capsys, 5, "frequency-selection"):
        ref = DeviceModel(levels_ghz=(0.5, 1.0, 1.5, 2.0), f_ref_ghz=1.0,
                          p_static_w=10.0, p_dyn_ref_w=10.0, alpha_exp=3.0)

        def energy(f):  # E(f) = P(f) * t(f) evaluated independently
            p = Fraction(10) + Fraction(10) * Fraction(f) ** 3
            return p / Fraction(f)

        edp = {f: energy(f) / Fraction(f) for f in ref.levels_ghz}
        assert min(edp, key=lambda f: edp[f]) == 1.5
        e = {f: energy(f) for f in ref.levels_ghz}
        assert min(e, key=lambda f: e[f]) == 1.0
        assert select_frequency(ref, EnergyTarget.MIN_EDP, 1.0) == 1.5
        assert select_frequency(ref, EnergyTarget.MIN_ENERGY, 1.0) == 1.0

        # devices pinned to f_ref = 1.0 GHz, where the bracketing formula
        # f* = (2 P_static / P_dyn_ref)^(1/3) is exact
        rng = random.Random(107)
        grid = [round(0.2 * k, 1) for k in range(1, 26)]
        bracketed = 0
        for _ in range(100):
            levels = tuple(sorted(set(rng.sample(grid, rng.randrange(2, 8)))
                                  | {1.0}))
            dev = DeviceModel(
                levels_ghz=levels,
                f_ref_ghz=1.0,
                p_static_w=round(rng.uniform(0.5, 40.0), 2),
                p_dyn_ref_w=round(rng.uniform(0.5, 25.0), 2),
            )
            fstar = (2.0 * dev.p_static_w / dev.p_dyn_ref_w) ** (1.0 / 3.0)
            chosen = select_frequency(dev, EnergyTarget.MIN_EDP, 1.0, 0.0)
            if levels[0] <= fstar <= levels[-1]:
                below = max(f for f in levels if f <= fstar)
                above = min(f for f in levels if f >= fstar)
                assert chosen in {below, above}, \
                    f"{chosen} vs f*={fstar:.3f} in {levels}"
                bracketed += 1
        assert bracketed >= 30


def test_criterion_6_energy_accounting(capsys):
    with criterion(capsys, 6, "energy-accounting"):
        bundles = []
        for name in ("saxpy", "stencil", "pipeline"):
            s = load_scenario(bundled_scenario_path(name))
            for nodes in (1, 2, 3):
                bundles.append(run_scenario(s, nodes=nodes))
        rng = random.Random(109)
        for _ in range(10):
            buffers, tasks = random_workload(rng)
            g = graph_for(buffers, tasks)
            plan = generate_commands(g, rng.choice((1, 2, 4)))
            result = run(plan)
            rep = account_energy(result.trace, plan.devices, result.makespan)
            bundles.append(type("B", (), {
                "energy": rep, "plan": plan, "result": result})())
        for b in bundles:
            rep = b.energy
            assert total_kernel_energy(rep) + total_idle_energy(rep) \
                == rep.total_device_energy
            for node, dev in enumerate(b.plan.devices):
                per = rep.per_device[node]
                assert per.energy_j >= Fraction(dev.p_static_w) * rep.makespan_s


def test_criterion_7_graph_invariants(capsys):
    with criterion(capsys, 7, "graph-invariants"):
        rng = random.Random(113)
        for case in range(30):
            buffers, tasks = random_workload(rng)
            g = graph_for(buffers, tasks)
            # task DAG: edges strictly forward in submission order
            for edge in g.edges:
                assert edge.src < edge.dst
            for nodes in (2, 4):
                plan = generate_commands(g, nodes)
                # acyclicity, read coverage, and push/await bijection
                check_plan(plan, g.buffers)
                for c in plan.executes():
                    assert c.box.volume() > 0
                    assert 0 <= c.node < nodes


def test_criterion_8_determinism(capsys, tmp_path):
    with criterion(capsys, 8, "determinism"):
        for name in ("saxpy", "stencil", "pipeline"):
            dirs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{name}_{tag}"
                rc = cli.main(["run", name, "--nodes", "3", "--out", str(out)])
                assert rc == 0
                dirs.append(out)
            da, db = dirs
            names = sorted(p.name for p in da.iterdir())
            assert names == sorted(p.name for p in db.iterdir())
            for fname in names:
                assert (da / fname).read_bytes() == (db / fname).read_bytes(), \
                    f"{name}/{fname}"
            for kind in ("task", "command"):
                dots = []
                for tag in ("a", "b"):
                    out = tmp_path / f"{name}_{kind}_{tag}.dot"
                    rc = cli.main(["graph", name, "--kind", kind,
                                   "--nodes", "3", "--out", str(out)])
                    assert rc == 0
                    dots.append(out.read_bytes())
                assert dots[0] == dots[1], f"{name}/{kind}"

"""Frequency selection, the power model, and exact energy accounting."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clusterq.energy import (
    DeviceModel,
    EnergyTarget,
    account_energy,
    exec_time,
    select_frequency,
)
from clusterq.errors import ValidationError
from clusterq.simulator import LinkModel, TraceEvent

from helpers import chunk_time, level_oracle, total_idle_energy, total_kernel_energy


REF = DeviceModel(levels_ghz=(0.5, 1.0, 1.5, 2.0), f_ref_ghz=1.0,
                  p_static_w=10.0, p_dyn_ref_w=10.0, alpha_exp=3.0)


def objective(device, target, t_ref, beta, f):
    """Independent evaluation of the selection objectives."""
    t = chunk_time(t_ref, beta, device, f)
    e = level_oracle(device, f)[0] * t
    if target is EnergyTarget.MIN_ENERGY:
        return e
    if target is EnergyTarget.MIN_EDP:
        return e * t
    return e * t * t


# ---------------------------------------------------------- frequency selection

def test_max_perf_selects_highest_level():
    assert select_frequency(REF, EnergyTarget.MAX_PERF, 1.0) == 2.0


def test_min_edp_reference_device():
    # EDP(f) = 10/f^2 + 10 f over the levels: 45, 20, 19.44.., 22.5
    edp = {f: objective(REF, EnergyTarget.MIN_EDP, 1, 0, f) for f in REF.levels_ghz}
    assert edp[0.5] == Fraction(45)
    assert edp[1.0] == Fraction(20)
    assert edp[1.5] == Fraction(10, 1) / Fraction(9, 4) + Fraction(15)
    assert edp[2.0] == Fraction(45, 2)
    assert min(edp, key=lambda f: edp[f]) == 1.5
    assert select_frequency(REF, EnergyTarget.MIN_EDP, 1.0) == 1.5


def test_min_energy_reference_device():
    # E(f) = 10/f + 10 f^2 over the levels: 22.5, 20, 29.17.., 45
    e = {f: objective(REF, EnergyTarget.MIN_ENERGY, 1, 0, f) for f in REF.levels_ghz}
    assert e[0.5] == Fraction(45, 2)
    assert e[1.0] == Fraction(20)
    assert e[2.0] == Fraction(45)
    assert min(e, key=lambda f: e[f]) == 1.0
    assert select_frequency(REF, EnergyTarget.MIN_ENERGY, 1.0) == 1.0


def test_tie_breaks_toward_higher_frequency():
    # P(f) = 6 + f^3 makes E(1) = E(2) = 7 exactly
    dev = DeviceModel(levels_ghz=(1.0, 2.0), f_ref_ghz=1.0,
                      p_static_w=6.0, p_dyn_ref_w=1.0)
    assert objective(dev, EnergyTarget.MIN_ENERGY, 1, 0, 1.0) == \
        objective(dev, EnergyTarget.MIN_ENERGY, 1, 0, 2.0) == Fraction(7)
    assert select_frequency(dev, EnergyTarget.MIN_ENERGY, 1.0) == 2.0


def test_selection_is_objective_optimal_on_random_devices():
    rng = random.Random(61)
    grid = [round(0.2 * k, 1) for k in range(1, 21)]
    for _ in range(50):
        levels = tuple(sorted(rng.sample(grid, rng.randrange(2, 7))))
        dev = DeviceModel(
            levels_ghz=levels,
            f_ref_ghz=rng.choice(levels),
            p_static_w=round(rng.uniform(0.0, 30.0), 2),
            p_dyn_ref_w=round(rng.uniform(0.5, 20.0), 2),
        )
        t_ref = round(rng.uniform(0.1, 4.0), 3)
        beta = rng.choice((0.0, 0.25, 0.5))
        for target in (EnergyTarget.MIN_ENERGY, EnergyTarget.MIN_EDP,
                       EnergyTarget.MIN_ED2P):
            chosen = select_frequency(dev, target, t_ref, beta)
            best = objective(dev, target, t_ref, beta, chosen)
            for f in levels:
                obj = objective(dev, target, t_ref, beta, f)
                assert best <= obj
                if obj == best:
                    assert chosen >= f  # ties resolved upward


@st.composite
def devices(draw):
    """Devices with integral and non-integral exponents, with and without
    static power."""
    levels = tuple(sorted(draw(st.lists(st.floats(0.05, 8.0), min_size=1, max_size=6,
                                        unique=True))))
    alpha = draw(st.one_of(st.integers(-4, 4).map(float),
                           st.floats(-4.0, 4.0).filter(lambda a: not a.is_integer())))
    return DeviceModel(levels_ghz=levels, f_ref_ghz=draw(st.sampled_from(levels)),
                       p_static_w=draw(st.one_of(st.just(0.0), st.floats(0.0, 50.0))),
                       p_dyn_ref_w=draw(st.floats(0.0, 50.0)), alpha_exp=alpha)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(device=devices(), t_ref=st.floats(1e-6, 1e3),
       beta=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)))
def test_level_table_and_selection_match_fresh_evaluation(device, t_ref, beta):
    assert list(device.level_table) == list(device.levels_ghz)
    for f in device.levels_ghz:
        assert device.level_table[f] == device.level(f) == level_oracle(device, f)
    assert select_frequency(device, EnergyTarget.MAX_PERF, t_ref, beta) == device.levels_ghz[-1]
    for target in (EnergyTarget.MIN_ENERGY, EnergyTarget.MIN_EDP, EnergyTarget.MIN_ED2P):
        obj = {f: objective(device, target, t_ref, beta, f) for f in device.levels_ghz}
        best = min(obj.values())
        # brute-force argmin; ties go to the higher level
        want = max(f for f, o in obj.items() if o == best)
        assert select_frequency(device, target, t_ref, beta) == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(device=devices(),
       t_ref=st.one_of(st.floats(1e-6, 1e3), st.integers(1, 10 ** 6),
                       st.fractions(Fraction(1, 10 ** 9), 10 ** 3)),
       beta=st.one_of(st.sampled_from((0, 1, 0.0, 1.0)), st.floats(0.0, 1.0)))
def test_chunk_durations_match_fresh_evaluation(device, t_ref, beta):
    for f in device.levels_ghz:
        assert exec_time(t_ref, beta, device.level(f)[1]) == chunk_time(t_ref, beta, device, f)


# f / f_ref = 1e400 is beyond binary64 even where no power is drawn: the
# exact ratio is rounded once, so its overflow is caught, not taken as inf.
@pytest.mark.parametrize("alpha", [2.5, -2.5])
def test_ratio_beyond_binary64_is_rejected_at_zero_dynamic_power(alpha):
    with pytest.raises(ValidationError, match=r"^power at 1e\+200 GHz is not within the binary64"):
        DeviceModel(levels_ghz=(1e-200, 1.0, 1e200), f_ref_ghz=1e-200, p_dyn_ref_w=0.0,
                    alpha_exp=alpha)


def test_min_edp_brackets_continuous_minimizer():
    rng = random.Random(67)
    checked = 0
    for _ in range(100):
        grid = [round(0.2 * k, 1) for k in range(1, 21)]
        levels = tuple(sorted(rng.sample(grid, rng.randrange(2, 7))))
        dev = DeviceModel(
            levels_ghz=levels,
            f_ref_ghz=rng.choice(levels),
            p_static_w=round(rng.uniform(0.5, 30.0), 2),
            p_dyn_ref_w=round(rng.uniform(0.5, 20.0), 2),
        )
        # the continuous EDP minimizer scales with f_ref
        fstar = (2.0 * dev.p_static_w / dev.p_dyn_ref_w) ** (1.0 / 3.0) \
            * dev.f_ref_ghz
        if not levels[0] <= fstar <= levels[-1]:
            continue
        chosen = select_frequency(dev, EnergyTarget.MIN_EDP, 1.0, 0.0)
        below = max((f for f in levels if f <= fstar), default=None)
        above = min((f for f in levels if f >= fstar), default=None)
        assert chosen in {below, above}, \
            f"{chosen} does not bracket f*={fstar:.3f} in {levels}"
        checked += 1
    assert checked >= 30  # the filter must not hollow the test out


def test_beta_one_degeneracy():
    # time is frequency-invariant, so energy strictly falls with f
    for target in (EnergyTarget.MIN_ENERGY, EnergyTarget.MIN_EDP,
                   EnergyTarget.MIN_ED2P):
        assert select_frequency(REF, target, 1.0, beta=1.0) == 0.5
    assert select_frequency(REF, EnergyTarget.MAX_PERF, 1.0, beta=1.0) == 2.0


def test_nonpositive_t_ref_rejected():
    with pytest.raises(ValidationError):
        select_frequency(REF, EnergyTarget.MIN_EDP, 0.0)
    with pytest.raises(ValidationError):
        select_frequency(REF, EnergyTarget.MIN_EDP, -1.0)


# ------------------------------------------------------------------ power model

def test_power_model_values():
    assert REF.level_table[1.0][0] == 20.0
    assert REF.level_table[2.0][0] == 90.0
    assert REF.level_table[0.5][0] == 11.25


def test_device_validation():
    with pytest.raises(ValidationError):
        DeviceModel(levels_ghz=())
    with pytest.raises(ValidationError):
        DeviceModel(levels_ghz=(1.0, 0.5))  # not ascending
    with pytest.raises(ValidationError):
        DeviceModel(levels_ghz=(1.0, 1.0, 2.0))  # duplicate
    with pytest.raises(ValidationError):
        DeviceModel(levels_ghz=(-1.0, 1.0))
    with pytest.raises(ValidationError):
        DeviceModel(levels_ghz=(0.5, 2.0), f_ref_ghz=1.0)  # f_ref not a level
    with pytest.raises(ValidationError):
        DeviceModel(p_static_w=-1.0)
    with pytest.raises(ValidationError):
        DeviceModel(throughput_ref=0.0)


@pytest.mark.parametrize("model, field", [
    (DeviceModel, "f_ref_ghz"), (DeviceModel, "p_static_w"), (DeviceModel, "p_dyn_ref_w"),
    (DeviceModel, "alpha_exp"), (DeviceModel, "throughput_ref"),
    (LinkModel, "latency_s"), (LinkModel, "bandwidth_bytes_per_s"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_models_reject_non_finite_fields(model, field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be a finite number"):
        model(**{field: value})


def test_device_rejects_non_finite_level():
    with pytest.raises(ValidationError, match="^levels_ghz must be a finite number, got nan"):
        DeviceModel(levels_ghz=(1.0, math.nan))


def test_exec_time_exact():
    slowdown = {f: REF.level(f)[1] for f in REF.levels_ghz}
    assert slowdown == {0.5: 2, 1.0: 1, 1.5: Fraction(2, 3), 2.0: Fraction(1, 2)}
    assert exec_time(1, 0.0, slowdown[2.0]) == Fraction(1, 2)
    assert exec_time(1, 1.0, slowdown[0.5]) == Fraction(1)
    assert exec_time(1, 0.5, slowdown[2.0]) == Fraction(3, 4)
    slow = DeviceModel(levels_ghz=(0.5, 2.0), f_ref_ghz=2.0)
    assert exec_time(Fraction(3), 0.0, slow.level(0.5)[1]) == Fraction(12)


# ------------------------------------------------------------------- accounting

def exe(node, start, dur, f, tid=1, name="k", cid=0):
    return TraceEvent(kind="execute", node=node, command_id=cid,
                      start=Fraction(start), duration=Fraction(dur),
                      frequency_ghz=f, task_id=tid, task_name=name)


def test_single_kernel_twenty_joules():
    report = account_energy([exe(0, 0, 1, 1.0)], [REF], Fraction(1))
    assert report.per_task[0].energy_j == Fraction(20)
    assert report.per_task[0].duration_s == Fraction(1)
    assert report.per_task[0].frequency_ghz_per_node == {0: 1.0}
    assert report.per_device[0].energy_j == Fraction(20)
    assert report.per_device[0].busy_s == Fraction(1)
    assert report.per_device[0].idle_s == Fraction(0)


def test_idle_device_draws_static_power():
    report = account_energy([exe(0, 0, 1, 1.0)], [REF, REF], Fraction(1))
    dev1 = report.per_device[1]
    assert dev1.energy_j == Fraction(10)
    assert dev1.busy_s == Fraction(0)
    assert dev1.idle_s == Fraction(1)


def test_two_half_second_kernels_at_two_ghz():
    trace = [exe(0, 0, Fraction(1, 2), 2.0, tid=1, cid=0),
             exe(0, Fraction(1, 2), Fraction(1, 2), 2.0, tid=2, cid=1)]
    report = account_energy(trace, [REF], Fraction(1))
    assert [t.energy_j for t in report.per_task] == [Fraction(45), Fraction(45)]
    assert report.per_device[0].energy_j == Fraction(90)
    assert report.per_device[0].idle_s == Fraction(0)


def test_push_events_charge_static_only():
    base = [exe(0, 0, 1, 1.0)]
    push = TraceEvent(kind="push", node=0, command_id=9, start=Fraction(0),
                      duration=Fraction(3), bytes=64)
    r1 = account_energy(base, [REF], Fraction(1))
    r2 = account_energy(base + [push], [REF], Fraction(1))
    assert r1.total_device_energy == r2.total_device_energy
    assert total_kernel_energy(r1) == total_kernel_energy(r2)


def test_accounting_identity_random_traces():
    rng = random.Random(71)
    for _ in range(25):
        devices = [REF] * rng.randrange(1, 4)
        trace = []
        clock = {n: Fraction(0) for n in range(len(devices))}
        for cid in range(rng.randrange(0, 12)):
            node = rng.randrange(len(devices))
            dur = Fraction(rng.randrange(1, 8), rng.choice((1, 2, 4)))
            f = rng.choice(REF.levels_ghz)
            trace.append(exe(node, clock[node], dur, f,
                             tid=rng.randrange(1, 4), cid=cid))
            clock[node] += dur
        makespan = max(clock.values(), default=Fraction(0))
        report = account_energy(trace, devices, makespan)
        assert total_kernel_energy(report) + total_idle_energy(report) \
            == report.total_device_energy
        for dev in report.per_device:
            assert dev.busy_s + dev.idle_s == makespan
            assert dev.energy_j >= Fraction(10) * makespan  # P_static floor


def test_grouped_sums_match_a_sum_per_event():
    # Few distinct (node, level, duration) groups shared across tasks, on
    # devices with different P(f): every sum equals the one made event by
    # event, with each finish start + duration.
    devices = [REF, DeviceModel(levels_ghz=(0.5, 1.0, 2.0), f_ref_ghz=1.0, p_static_w=3.0,
                                p_dyn_ref_w=7.0, alpha_exp=2.0)]
    rng = random.Random(5)
    trace, clock = [], [Fraction(0)] * 2
    for cid in range(60):
        node = rng.randrange(2)
        dur = rng.choice((Fraction(1, 3), Fraction(2, 3), Fraction(1)))
        trace.append(exe(node, clock[node], dur, rng.choice((0.5, 2.0)), tid=rng.randrange(5),
                         cid=cid))
        clock[node] += dur
    report = account_energy(trace, devices, max(clock))
    for task in report.per_task:
        events = [ev for ev in trace if ev.task_id == task.task_id]
        assert all(ev.finish == ev.start + ev.duration for ev in events)
        assert task.energy_j == sum(level_oracle(devices[ev.node], ev.frequency_ghz)[0] *
                                    ev.duration for ev in events)
        assert task.duration_s == max(ev.finish for ev in events) - min(ev.start for ev in events)
    for node, dev in enumerate(report.per_device):
        events = [ev for ev in trace if ev.node == node]
        assert dev.busy_s == sum(ev.duration for ev in events)
        assert dev.energy_j == Fraction(devices[node].p_static_w) * dev.idle_s + sum(
            level_oracle(devices[node], ev.frequency_ghz)[0] * ev.duration for ev in events)


def test_task_duration_spans_chunks():
    # chunks of one task on two nodes at staggered times: span, not sum
    trace = [exe(0, 0, 2, 1.0, tid=1, cid=0),
             exe(1, 3, 1, 1.0, tid=1, cid=1)]
    report = account_energy(trace, [REF, REF], Fraction(4))
    task = report.per_task[0]
    assert task.duration_s == Fraction(4)
    assert task.energy_j == Fraction(60)
    assert task.frequency_ghz_per_node == {0: 1.0, 1: 1.0}


def test_unknown_device_rejected():
    with pytest.raises(ValidationError):
        account_energy([exe(3, 0, 1, 1.0)], [REF], Fraction(1))


def test_frequency_not_a_level_rejected():
    with pytest.raises(ValidationError, match=r"^0\.75 GHz is not one of the levels"):
        account_energy([exe(0, 0, 1, 1.0), exe(0, 1, 1, 0.75, cid=1)], [REF], Fraction(2))


def test_empty_trace():
    report = account_energy([], [REF], Fraction(0))
    assert report.per_task == []
    assert report.total_device_energy == Fraction(0)
    assert report.makespan_s == Fraction(0)

"""Device power model, frequency selection and energy accounting.

Power draw at frequency f is P(f) = P_static + P_dyn_ref * (f / f_ref)^alpha.
A chunk whose reference runtime is t_ref takes t(f) = t_ref * (beta +
(1 - beta) * f_ref / f); beta is the frequency-insensitive fraction. A
DeviceModel computes P(f) and f_ref / f once per level, each in ints from its
inputs' integer ratios and normalised once as one Fraction; frequency
selection, the replay's durations and energy accounting read them.

Frequency selection enumerates the device's discrete levels and minimizes the
target objective; ties prefer the higher frequency. Plans are built with every
chunk at its device's top level, and scheduler.assign_frequencies then applies
the queue target and the per-task overrides through select_frequency.
Objectives are compared by exact integer cross-products, building no Fraction,
so ties are decided by value, never by rounding. Energy accounting likewise
runs on exact rationals over the float-valued inputs, which makes kernel + idle
== device energy an identity rather than an approximation. Transfers draw no
dynamic power; static power covers them.
"""

import enum
from fractions import Fraction
from typing import Optional

from .errors import ValidationError
from .value import Frozen, Value


class EnergyTarget(enum.Enum):
    MAX_PERF = "MAX_PERF"
    MIN_ENERGY = "MIN_ENERGY"
    MIN_EDP = "MIN_EDP"
    MIN_ED2P = "MIN_ED2P"


# Largest |alpha_exp|. An integral exponent is applied exactly, as a rational
# power whose size grows with it; measured dynamic power follows exponents
# of about 1 to 3.
MAX_ALPHA_EXP = 16
_INF = float("inf")


def exact_ratio(x) -> tuple[int, int]:
    """x as (numerator, denominator) ints, also for a numpy integer."""
    return (x if isinstance(x, (int, float, Fraction)) else Fraction(x)).as_integer_ratio()


def require_finite(model):
    """Reject a model whose number fields are not all finite: the exact
    rationals time and energy are computed in have no infinity or NaN."""
    for name in model._fields:
        value = getattr(model, name)
        for v in value if isinstance(value, tuple) else (value,):
            if not -_INF < v < _INF:
                raise ValidationError(f"{name} must be a finite number, got {v!r}")


class DeviceModel(Frozen):
    # The fields, with their defaults in __init__, are also the scenario
    # schema's device object; level_table and _hash are derived from them.
    _fields = ("levels_ghz", "f_ref_ghz", "p_static_w", "p_dyn_ref_w", "alpha_exp",
               "throughput_ref")
    __slots__ = _fields + ("level_table", "_hash")

    def __init__(self, levels_ghz: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0),
                 f_ref_ghz: float = 1.0, p_static_w: float = 10.0, p_dyn_ref_w: float = 10.0,
                 alpha_exp: float = 3.0, throughput_ref: float = 1e9):
        levels = tuple(float(f) for f in levels_ghz)
        object.__setattr__(self, "levels_ghz", levels)
        object.__setattr__(self, "f_ref_ghz", f_ref_ghz)
        object.__setattr__(self, "p_static_w", p_static_w)
        object.__setattr__(self, "p_dyn_ref_w", p_dyn_ref_w)
        object.__setattr__(self, "alpha_exp", alpha_exp)
        object.__setattr__(self, "throughput_ref", throughput_ref)  # elements per second at f_ref
        require_finite(self)
        if not levels:
            raise ValidationError("device needs at least one frequency level")
        if any(f <= 0 for f in levels):
            raise ValidationError("frequency levels must be positive")
        if list(levels) != sorted(levels) or len(set(levels)) != len(levels):
            raise ValidationError("frequency levels must be strictly ascending")
        if self.f_ref_ghz not in levels:
            raise ValidationError(f"f_ref {self.f_ref_ghz} is not one of the levels {levels}")
        if self.p_static_w < 0 or self.p_dyn_ref_w < 0:
            raise ValidationError("power terms must be non-negative")
        if self.throughput_ref <= 0:
            raise ValidationError("throughput_ref must be positive")
        if abs(self.alpha_exp) > MAX_ALPHA_EXP:
            raise ValidationError(
                f"alpha_exp {self.alpha_exp!r} is beyond the maximum magnitude of {MAX_ALPHA_EXP}")
        # P_dyn_ref * (f / f_ref) ** alpha_exp = xn / xd: exact for an integral alpha_exp, else
        # in binary64 from f / f_ref correctly rounded, which can overflow (or round to 0).
        # P(f) is monotone in f, so if any level fails, the lowest or the highest does first.
        (rn, rd), (sn, sd), (dn, dd) = map(exact_ratio, (f_ref_ghz, p_static_w, p_dyn_ref_w))
        k = int(alpha_exp) if float(alpha_exp) == int(alpha_exp) else None
        table = {}
        for f in (levels[0], levels[-1], *levels[1:-1]):
            fn, fd = f.as_integer_ratio()
            up, down = fn * rd, fd * rn  # f / f_ref
            try:
                if k is None:
                    xn, xd = exact_ratio(p_dyn_ref_w * (up / down) ** float(alpha_exp))
                else:
                    xn, xd = (dn * up ** k, dd * down ** k) if k >= 0 else (
                        dn * down ** -k, dd * up ** -k)
            except (OverflowError, ZeroDivisionError):
                raise ValidationError(
                    f"power at {f} GHz is not within the binary64 range") from None
            table[f] = (Fraction(sn * xd + xn * sd, sd * xd), Fraction(rn * fd, rd * fn))
        object.__setattr__(self, "level_table", {f: table[f] for f in levels})
        # assign_frequencies hashes the device of every Execute.
        object.__setattr__(self, "_hash", hash(self._values(self)))

    def __hash__(self):
        return self._hash

    def level(self, f_ghz: float) -> tuple[Fraction, Fraction]:
        """Exact (P(f), f_ref / f) of one of the device's levels."""
        entry = self.level_table.get(f_ghz)
        if entry is None:
            raise ValidationError(f"{f_ghz!r} GHz is not one of the levels {self.levels_ghz}")
        return entry


def exec_time(t_ref, beta, slowdown) -> Fraction:
    """Exact chunk runtime t_ref * (beta + (1 - beta) * slowdown), where
    slowdown is the level's f_ref / f from DeviceModel.level."""
    (tn, td), (bn, bd), (sn, sd) = exact_ratio(t_ref), exact_ratio(beta), exact_ratio(slowdown)
    return Fraction(tn * (bn * sd + (bd - bn) * sn), td * bd * sd)


# Each objective is P(f) * t(f) ** k: energy, EDP and ED2P.
_TIME_POWER = {EnergyTarget.MIN_ENERGY: 1, EnergyTarget.MIN_EDP: 2, EnergyTarget.MIN_ED2P: 3}


def select_frequency(device: DeviceModel, target: EnergyTarget, chunk_t_ref, beta=0.0) -> float:
    """Frequency level minimizing the target objective; ties pick the higher
    level. MAX_PERF always selects the highest level."""
    if Fraction(chunk_t_ref) <= 0:
        raise ValidationError("chunk_t_ref must be positive")
    if target is EnergyTarget.MAX_PERF:
        return device.levels_ghz[-1]
    k = _TIME_POWER.get(target)
    if k is None:
        raise ValidationError(f"no objective for target {target}")
    # The objective is P(f) * (t_ref * (beta + (1 - beta) * f_ref / f)) ** k.
    # Its factor t_ref ** k is positive and the same at every level, so it is
    # left out: the exact values it scales order the levels the same way.
    # With P = pn / pd, beta = bn / bd and f_ref / f = sn / sd, the rest is num / den.
    bn, bd = exact_ratio(beta)
    best = best_num = best_den = None
    # ascending, so <= keeps the higher level on ties
    for f, (power, slowdown) in device.level_table.items():
        (pn, pd), (sn, sd) = power.as_integer_ratio(), slowdown.as_integer_ratio()
        num, den = pn * (bn * sd + (bd - bn) * sn) ** k, pd * (bd * sd) ** k
        if best is None or num * best_den <= best_num * den:
            best, best_num, best_den = f, num, den
    return best


class TaskEnergy(Value):
    __slots__ = _fields = ("task_id", "name", "duration_s", "energy_j", "frequency_ghz_per_node")

    def __init__(self, task_id: int, name: str, duration_s: Fraction, energy_j: Fraction,
                 frequency_ghz_per_node: dict[int, float]):
        self.task_id = task_id
        self.name = name
        self.duration_s = duration_s
        self.energy_j = energy_j
        self.frequency_ghz_per_node = frequency_ghz_per_node


class DeviceEnergy(Value):
    __slots__ = _fields = ("node", "energy_j", "busy_s", "idle_s", "static_power_w")

    def __init__(self, node: int, energy_j: Fraction, busy_s: Fraction, idle_s: Fraction,
                 static_power_w: float = 0.0):
        self.node = node
        self.energy_j = energy_j
        self.busy_s = busy_s
        self.idle_s = idle_s
        self.static_power_w = static_power_w


class EnergyReport(Value):
    __slots__ = _fields = ("per_task", "per_device", "makespan_s")

    def __init__(self, per_task: Optional[list[TaskEnergy]] = None,
                 per_device: Optional[list[DeviceEnergy]] = None,
                 makespan_s: Fraction = Fraction(0)):
        self.per_task = [] if per_task is None else per_task
        self.per_device = [] if per_device is None else per_device
        self.makespan_s = makespan_s

    @property
    def total_device_energy(self) -> Fraction:
        return sum((d.energy_j for d in self.per_device), Fraction(0))


def account_energy(trace, devices, makespan) -> EnergyReport:
    """Aggregate energy from execute events plus static idle draw.

    Kernel energy for an event is P(f) * duration; device energy is the sum of
    its events' kernel energy plus P_static * idle time. Push events charge
    nothing beyond static draw. Event times must be exact rationals, as
    simulator.run gives them, and each frequency must be one of its device's
    levels, whose P(f) the device computed once. Each group of events of one
    node, level and duration has its energy computed and summed once.
    """
    makespan = Fraction(makespan)
    report = EnergyReport(makespan_s=makespan)
    tasks: dict[int, TaskEnergy] = {}
    # (node, level, duration's numerator, denominator: a Fraction's hash computes a
    # modular inverse) -> [energy, events]
    groups: dict[tuple, list] = {}
    spans: dict[int, list] = {}  # task id -> [earliest start, latest finish], exact int compares

    for ev in trace:
        if ev.kind != "execute":
            continue
        node, f, dur = ev.node, ev.frequency_ghz, ev.duration
        if not 0 <= node < len(devices):
            raise ValidationError(f"trace event references unknown device {node}")
        group = groups.get(key := (node, f, dur.numerator, dur.denominator))
        if group is None:
            group = groups[key] = [devices[node].level(f)[0] * dur, 0]
        group[1] += 1
        entry = tasks.get(ev.task_id)
        if entry is None:
            entry = TaskEnergy(ev.task_id, ev.task_name or "", Fraction(0), Fraction(0), {})
            tasks[ev.task_id] = entry
        entry.energy_j += group[0]
        entry.frequency_ghz_per_node[node] = f
        start, finish = ev.start, ev.finish
        lo, hi = span = spans.setdefault(ev.task_id, [start, finish])
        if start.numerator * lo.denominator < lo.numerator * start.denominator:
            span[0] = start
        if hi.numerator * finish.denominator < finish.numerator * hi.denominator:
            span[1] = finish

    for tid in sorted(tasks):
        entry = tasks[tid]
        lo, hi = spans[tid]
        entry.duration_s = hi - lo
        entry.frequency_ghz_per_node = dict(sorted(entry.frequency_ghz_per_node.items()))
        report.per_task.append(entry)

    busy = [Fraction(0)] * len(devices)
    busy_energy = [Fraction(0)] * len(devices)
    for (node, _f, num, den), (energy, count) in groups.items():
        busy[node] += Fraction(num * count, den)
        busy_energy[node] += energy * count
    for node, device in enumerate(devices):
        idle = makespan - busy[node]
        report.per_device.append(DeviceEnergy(
            node, busy_energy[node] + Fraction(device.p_static_w) * idle, busy[node], idle,
            device.p_static_w))
    return report

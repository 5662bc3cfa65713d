"""Simulator for a distributed task-queue runtime with region-based data
distribution and per-kernel frequency selection."""

from .energy import (
    DeviceModel,
    EnergyReport,
    EnergyTarget,
    account_energy,
    select_frequency,
)
from .errors import (
    ClusterqError,
    DimensionError,
    EvalError,
    KernelNameError,
    KernelSyntaxError,
    MapperViolationError,
    ScenarioError,
    UninitializedReadError,
    ValidationError,
)
from .graph import TaskGraph
from .kernel import format_kernel, parse_kernel
from .model import (
    Accessor,
    AccessMode,
    All,
    Buffer,
    BufferInit,
    Fixed,
    Neighborhood,
    OneToOne,
    Slice,
    Task,
)
from .region import Box, Region
from .scenario import (
    Scenario,
    build_graph,
    check_expectations,
    load_scenario,
    plan_scenario,
    run_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_against_serial,
    write_trace,
)
from .scheduler import (
    AwaitPushCommand,
    ExecuteCommand,
    Plan,
    PushCommand,
    RegionMapTable,
    assign_frequencies,
    export_command_graph,
    generate_commands,
    split_task,
)
from .simulator import LinkModel, RunResult, TraceEvent, run

__version__ = "0.1.0"

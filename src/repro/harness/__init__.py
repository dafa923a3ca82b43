"""Experiment harness: per-figure reproduction runners and reports."""

from .ablations import (
    ablate_iteration_depth,
    ablate_kernel_partition,
    ablate_retry_threshold,
    ablate_rf_decision,
    ablate_skew,
)
from .experiment import (
    SYSTEM_LABELS,
    SYSTEMS,
    ExperimentConfig,
    SystemRun,
    run_all,
    run_system,
)
from .figures import (
    COMBINING_ONLY_CFG,
    default_config,
    fig01_profiling,
    fig02_normalized_time,
    fig07_throughput,
    fig08_response_time,
    fig09_instruction_profile,
    fig10_traversal_steps,
    fig11_design_choices,
    fig12_optimization_contributions,
    fig13_range_query,
    linearizability_demo,
)
from .report import FigureResult
from .sanitize import sanitize_report, sanitize_systems
from .scaling import shard_scaling

__all__ = [
    "COMBINING_ONLY_CFG",
    "ablate_iteration_depth",
    "ablate_kernel_partition",
    "ablate_retry_threshold",
    "ablate_rf_decision",
    "ablate_skew",
    "ExperimentConfig",
    "FigureResult",
    "SYSTEMS",
    "SYSTEM_LABELS",
    "SystemRun",
    "default_config",
    "fig01_profiling",
    "fig02_normalized_time",
    "fig07_throughput",
    "fig08_response_time",
    "fig09_instruction_profile",
    "fig10_traversal_steps",
    "fig11_design_choices",
    "fig12_optimization_contributions",
    "fig13_range_query",
    "linearizability_demo",
    "run_all",
    "run_system",
    "sanitize_report",
    "sanitize_systems",
    "shard_scaling",
]

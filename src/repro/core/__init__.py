"""Eirene core: the pass pipeline, combining, range patches, kernels,
locality, and the system itself."""

# .pipeline must import before .eirene: the system module builds its pass
# lists from the pipeline framework
from .pipeline import (
    FinalizePass,
    Pass,
    PassPipeline,
    PipelineContext,
    run_pipeline,
)
from .combining import CombinePlan, CombineWork, combine_point_requests, propagate_results
from .eirene import EireneTree
from .kernels import (
    LaneSlot,
    UpdateResult,
    d_protected_query,
    d_query,
    d_range_raw,
    d_update,
)
from .locality import (
    IterationPlan,
    LocalitySteps,
    build_iteration_plan,
    vector_locality_steps,
)
from .range_combining import RangePatchPlan, apply_range_patches, plan_range_patches

__all__ = [
    "CombinePlan",
    "CombineWork",
    "EireneTree",
    "FinalizePass",
    "IterationPlan",
    "LaneSlot",
    "LocalitySteps",
    "Pass",
    "PassPipeline",
    "PipelineContext",
    "RangePatchPlan",
    "UpdateResult",
    "apply_range_patches",
    "build_iteration_plan",
    "combine_point_requests",
    "d_protected_query",
    "d_query",
    "d_range_raw",
    "d_update",
    "plan_range_patches",
    "propagate_results",
    "run_pipeline",
    "vector_locality_steps",
]

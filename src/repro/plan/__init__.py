"""repro.plan -- the cost-model-driven execution planner.

One planning layer for every decision about *how* a fused program runs
(backend and worker count): a static cost model over problem
shape plus store-persisted online profiles, resolved under the
precedence **explicit > session > profile > model**.  See
docs/PLANNING.md.
"""

from repro.plan.model import (
    DEFAULT_BATCH_JOBS,
    CostEstimate,
    ShapeInfo,
    estimate_costs,
    job_candidates,
    shape_info,
)
from repro.plan.planner import (
    ExecutionPlan,
    Planner,
    default_planner,
    plan_snapshot,
)
from repro.plan.profile import (
    MemoryProfiles,
    ProfileRow,
    memory_profiles,
    size_bucket,
)

__all__ = [
    "DEFAULT_BATCH_JOBS",
    "CostEstimate",
    "ExecutionPlan",
    "MemoryProfiles",
    "Planner",
    "ProfileRow",
    "ShapeInfo",
    "default_planner",
    "estimate_costs",
    "job_candidates",
    "memory_profiles",
    "plan_snapshot",
    "shape_info",
    "size_bucket",
]

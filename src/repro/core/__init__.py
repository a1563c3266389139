"""SRUMMA: the paper's primary contribution.

- :mod:`repro.core.tasks` — task-list construction (§3.1 step 1);
- :mod:`repro.core.schedule` — diagonal shift / local-first ordering (step 2);
- :mod:`repro.core.srumma` — the double-buffered algorithm, all flavours;
- :mod:`repro.core.hierarchical` — the two-level (inter-/intra-node) variant;
- :mod:`repro.core.api` — :func:`srumma_multiply`, the one-call front door.
"""

from .api import MultiplyResult, make_operands, measured_omega, srumma_multiply
from .hierarchical import hierarchical_multiply
from .schedule import ScheduleOptions, order_tasks, task_is_domain_local
from .srumma import RankStats, SrummaOptions, resolve_flavor, srumma_rank
from .tasks import BlockTask, build_tasks, k_dimension

__all__ = [
    "MultiplyResult", "make_operands", "measured_omega", "srumma_multiply",
    "hierarchical_multiply",
    "ScheduleOptions", "order_tasks", "task_is_domain_local",
    "RankStats", "SrummaOptions", "resolve_flavor", "srumma_rank",
    "BlockTask", "build_tasks", "k_dimension",
]

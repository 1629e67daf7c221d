"""Registry of every reproduced experiment, keyed by paper figure."""

from __future__ import annotations

from typing import Callable, Dict, List

from .ablation import run_checkpoint_policy_ablation
from .figure01 import run_figure01
from .figure07 import run_figure07
from .figure09 import run_figure09
from .figure10 import run_figure10
from .figure11 import run_figure11
from .figure12 import run_figure12
from .figure13 import run_figure13
from .figure14 import run_figure14
from .runner import ExperimentResult

#: Every experiment of the paper's evaluation section (plus the ablation),
#: mapped to the callable that regenerates it.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "figure01": run_figure01,
    "figure07": run_figure07,
    "figure09": run_figure09,
    "figure10": run_figure10,
    "figure11": run_figure11,
    "figure12": run_figure12,
    "figure13": run_figure13,
    "figure14": run_figure14,
    "ablation-checkpoint-policy": run_checkpoint_policy_ablation,
}


def available_experiments() -> List[str]:
    """Names of every registered experiment."""
    return sorted(EXPERIMENTS)

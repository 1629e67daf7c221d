"""Every input the benchmark measures, defined here and nowhere else.

The benchmark builds its machines, traces and sampling plans from the
simulator's public generators and config factories, with every number
written out in this file.  It deliberately does not import
``repro.perf`` or ``repro.workloads.xl.XL_SAMPLING``: a change to
``repro bench`` or to the suggested XL plan cannot change what this
benchmark measures.

Three workloads, each a body of cells run end to end:

``memwall``
    Exact, in-process, serial ``api.run`` of three machines over one
    seeded multi-chain pointer chase at 1000-cycle memory: the paper's
    regime, where kilo-instruction windows wait on serial misses and the
    event-driven kernel skips most cycles.
``fig9-sweep``
    The paper's Figure 9 quick grid (two baselines, three cooo points,
    eight ``spec2000fp_like`` traces at scale 0.6) through
    ``SweepEngine`` with a fresh result cache: short, busy cells plus
    pool dispatch and cache writes.
``xl-sampled``
    ``spec2000fp-xl`` {daxpy, gather} on baseline-128 and cooo-64-1024
    under a SMARTS-style sampling plan, through ``SweepEngine`` with a
    fresh result cache and one shared warm-checkpoint directory.

Exact cells start with cold caches and predictors; sampled windows adopt
the functional pass's warm state.  Each workload has two sizes: ``full``
(what the benchmark measures) and ``tiny`` (the smoke tests).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    # Measure the checkout's own simulator, never an installed copy.
    raise SystemExit(f"error: no simulator source under {SRC}; run from a checkout's root")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.common.config import (  # noqa: E402
    ProcessorConfig,
    SamplingPlan,
    cooo_config,
    scaled_baseline,
)
from repro.experiments.sweep import SweepSpec  # noqa: E402
from repro.trace.trace import Trace  # noqa: E402
from repro.workloads import multi_pointer_chase  # noqa: E402
from repro.workloads.registry import get_suite, register_suite, suite_names  # noqa: E402
from repro.workloads.suite import Suite  # noqa: E402

WORKLOADS = ("memwall", "fig9-sweep", "xl-sampled")
SIZES = ("full", "tiny")

#: The seed whose outputs are pinned in ``reference.json``.
DEFAULT_SEED = 0

#: Main-memory latency of every workload (the paper's 1000-cycle regime).
MEMORY_LATENCY = 1000


def worker_count() -> int:
    """Sweep workers: ``min(2, nproc)``."""
    return max(1, min(2, os.cpu_count() or 1))


def _baseline(window: int) -> Tuple[str, ProcessorConfig]:
    return f"baseline-{window}", scaled_baseline(window=window, memory_latency=MEMORY_LATENCY)


def _cooo(iq: int, sliq: int) -> Tuple[str, ProcessorConfig]:
    return f"cooo-{iq}-{sliq}", cooo_config(
        iq_size=iq, sliq_size=sliq, checkpoints=8, memory_latency=MEMORY_LATENCY
    )


# -- memwall -----------------------------------------------------------------

#: Total pointer-chase hops (spread round-robin over four chains).
MEMWALL_HOPS = {"full": 2000, "tiny": 90}
MEMWALL_CHAINS = 4
MEMWALL_TRACE = "memwall_chase"


def memwall_machines() -> List[Tuple[str, ProcessorConfig]]:
    return [_baseline(128), _baseline(4096), _cooo(64, 1024)]


def memwall_trace(seed: int, size: str) -> Trace:
    """The seeded multi-chain pointer chase; the seed picks the nodes."""
    return multi_pointer_chase(
        hops=MEMWALL_HOPS[size], chains=MEMWALL_CHAINS, seed=seed, name=MEMWALL_TRACE
    )


# -- fig9-sweep --------------------------------------------------------------

FIG9_SCALE = {"full": 0.6, "tiny": 0.05}


def fig9_machines() -> List[Tuple[str, ProcessorConfig]]:
    """Figure 9's quick grid: two baselines, then the cooo diagonal."""
    machines = [_baseline(128), _baseline(4096)]
    return machines + [_cooo(iq, sliq) for iq, sliq in ((32, 512), (64, 1024), (128, 2048))]


def fig9_spec(machines: List[Tuple[str, ProcessorConfig]], size: str) -> SweepSpec:
    """The paper's fixed suite, so no seed."""
    return SweepSpec(
        "simbench-fig9",
        [config for _label, config in machines],
        scale=FIG9_SCALE[size],
        suite="spec2000fp_like",
    )


# -- xl-sampled --------------------------------------------------------------

#: Scale 0.93 of spec2000fp-xl keeps both members between 194k and 204k
#: instructions, where the 50k-period plan places exactly four windows
#: whatever the seed's offset: seeds move the windows, not the amount of
#: detailed work.
XL_SCALE = {"full": 0.93, "tiny": 0.03}
XL_MEMBERS = ("daxpy", "gather")
XL_SUITE = "simbench-xl"
#: (period, window, warmup): the XL plan's numbers, written out.
XL_PLAN = {"full": (50_000, 6_000, 4_000), "tiny": (2_000, 300, 200)}


def xl_plan(seed: int, size: str) -> SamplingPlan:
    period, window, warmup = XL_PLAN[size]
    return SamplingPlan(period=period, window=window, warmup=warmup, seed=seed)


def xl_machines() -> List[Tuple[str, ProcessorConfig]]:
    return [_baseline(128), _cooo(64, 1024)]


def register_xl_suite() -> None:
    """Register spec2000fp-xl's {daxpy, gather} as a suite of their own.

    A spec filtered to two members of the eight-member XL suite would
    make the serial engine (the traced run) build all eight traces; a
    two-member suite builds exactly what the parallel workers build.
    """
    if XL_SUITE in suite_names():
        return
    members = [member for member in get_suite("spec2000fp-xl") if member.name in XL_MEMBERS]
    register_suite(
        Suite(XL_SUITE, members, description="spec2000fp-xl daxpy and gather")
    )


def xl_spec(machines: List[Tuple[str, ProcessorConfig]], seed: int, size: str) -> SweepSpec:
    register_xl_suite()
    return SweepSpec(
        "simbench-xl",
        [config for _label, config in machines],
        scale=XL_SCALE[size],
        suite=XL_SUITE,
        sampling=xl_plan(seed, size),
    )


# -- shared ------------------------------------------------------------------


@dataclass
class Inputs:
    """What one workload's body runs: built once per benchmark process."""

    workload: str
    seed: int
    size: str
    machines: List[Tuple[str, ProcessorConfig]]
    trace: Optional[Trace] = None  #: memwall only: built by this process
    spec: Optional[SweepSpec] = None  #: sweep workloads: built by the workers

    @property
    def seeded(self) -> bool:
        """Whether the seed changes this workload's inputs."""
        return self.workload != "fig9-sweep"


def build_inputs(workload: str, seed: int, size: str) -> Inputs:
    """Set-up: build what the benchmark process itself needs."""
    if workload == "memwall":
        return Inputs(workload, seed, size, memwall_machines(), trace=memwall_trace(seed, size))
    if workload == "fig9-sweep":
        machines = fig9_machines()
        return Inputs(workload, seed, size, machines, spec=fig9_spec(machines, size))
    if workload == "xl-sampled":
        machines = xl_machines()
        return Inputs(workload, seed, size, machines, spec=xl_spec(machines, seed, size))
    raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

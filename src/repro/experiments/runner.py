"""Shared experiment infrastructure.

Every figure module follows the same pattern: build (or reuse) the
workload suite, run a set of machine configurations over it, average IPC
(or another metric) across the suite exactly as the paper averages over
SPEC2000fp, and return an :class:`ExperimentResult` with the rows/series
the paper's figure reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.report import format_table
from ..common.stats import arithmetic_mean
from ..core.result import SimulationResult
from ..trace.trace import Trace
from ..workloads.registry import get_suite

#: Default suite scale used by the benchmark harness: small enough that a
#: full figure regenerates in tens of seconds of pure-Python simulation,
#: large enough that windows of thousands of instructions can build up.
DEFAULT_SCALE = 0.6

#: Per-process trace cache: (suite, rounded scale) -> workload -> Trace.
#: Sweep workers and the in-process runner fill it one member at a time.
_TRACE_CACHE: Dict[Tuple[str, float], Dict[str, Trace]] = {}

#: Traces generated by this process (cache misses only).  Tests use it to
#: assert that a filtered sweep builds only its members and that
#: workload-major task ordering lets each worker's cache hit.
TRACE_BUILDS = 0


def suite_traces(
    scale: float = DEFAULT_SCALE,
    suite: str = "spec2000fp_like",
    workloads: Optional[Sequence[str]] = None,
) -> Dict[str, Trace]:
    """The traces of a suite at ``scale``, built lazily and cached per process.

    Only the requested members are generated.  ``workloads=None`` means
    the whole suite, returned in suite order as the same dict on every
    call.  Trace generation is deterministic (fixed seeds), so a trace
    built in a worker equals one built in the parent.
    """
    global TRACE_BUILDS
    key = (suite, round(scale, 6))
    built = _TRACE_CACHE.setdefault(key, {})
    members = {member.name: member for member in get_suite(suite)}
    names = list(members) if workloads is None else list(workloads)
    for name in names:
        if name not in built:
            if name not in members:
                raise KeyError(f"unknown workload {name!r} in suite {suite!r}")
            built[name] = members[name].build(scale)
            TRACE_BUILDS += 1
    if workloads is not None:
        return {name: built[name] for name in names}
    if list(built) != names:  # members were built out of suite order
        built = _TRACE_CACHE[key] = {name: built[name] for name in names}
    return built


def suite_ipc(results: Mapping[str, SimulationResult]) -> float:
    """Arithmetic-mean IPC across the suite (the paper's reported metric)."""
    return arithmetic_mean(result.ipc for result in results.values())


def suite_metric(
    results: Mapping[str, SimulationResult],
    metric: Callable[[SimulationResult], float],
) -> float:
    """Arithmetic mean of an arbitrary per-run metric across the suite."""
    return arithmetic_mean(metric(result) for result in results.values())


@dataclass
class ExperimentResult:
    """Output of one figure-reproduction experiment."""

    experiment: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    per_workload: Dict[str, Dict[str, object]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def row(self, **values: object) -> Dict[str, object]:
        """Append one result row and return it."""
        self.rows.append(dict(values))
        return self.rows[-1]

    def find_row(self, **criteria: object) -> Optional[Dict[str, object]]:
        """First row matching every key/value pair in ``criteria``."""
        for row in self.rows:
            if all(row.get(key) == value for key, value in criteria.items()):
                return row
        return None

    def value(self, column: str, **criteria: object) -> float:
        """Value of ``column`` in the first row matching ``criteria``."""
        row = self.find_row(**criteria)
        if row is None:
            raise KeyError(f"no row matches {criteria} in {self.experiment}")
        return float(row[column])  # type: ignore[arg-type]

    def column(self, column: str) -> List[float]:
        return [float(row[column]) for row in self.rows if column in row]  # type: ignore[arg-type]

    def report(self) -> str:
        """Plain-text rendition of the experiment (header, table, notes)."""
        lines = [f"== {self.experiment}: {self.description} =="]
        lines.append(format_table(self.rows))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

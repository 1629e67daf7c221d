"""Deterministic, seeded fault injection for the sweep substrate.

Every recovery path the sweep engine grew (retry, quarantine, pool
rebuild, journal resume) is only trustworthy if it can be *driven*: the
:class:`FaultInjector` makes crashes, hangs, mid-simulate exceptions,
cache corruption and SIGINT delivery reproducible the same way the
fuzzer makes kernel divergence reproducible — from a seed.

Decisions are stateless and context-keyed: whether a site fires for
``(seed, site, context)`` is a pure function of those three values
(a sha256-derived uniform draw compared against the rule's rate), so

* the same plan over the same sweep fires the same faults in any
  process, any worker count, any retry interleaving;
* the context string carries the attempt number, so a cell that
  crashed on attempt 0 can (and usually does) succeed on attempt 1 —
  which is exactly what lets a chaos campaign converge.

Sites (see :data:`FAULT_SITES`):

``worker.crash``
    The worker process exits hard (``os._exit``) mid-cell, as if
    OOM-killed.  Only fires inside pool workers (see :func:`in_worker`);
    the parent — and the serial/degraded path — is never killed.
``cell.hang``
    The cell sleeps past any sane budget; the per-cell watchdog is what
    recovers it.  Worker-only, like ``worker.crash``.
``simulate.error``
    A probe raises :class:`~repro.common.errors.InjectedFaultError`
    mid-simulation (at a commit), exercising clean mid-cell failure.
``cache.store.crash``
    The cache write dies between the temp-file write and the atomic
    ``os.replace`` — half the payload is on disk.  Worker processes
    exit hard (a torn write from a killed process); elsewhere it
    raises, so the atomicity contract is testable in-process too.
``cache.corrupt``
    A just-stored cache entry is scribbled over, as if by a bad disk;
    the *next* load must quarantine it and re-simulate.
``sweep.sigint``
    The parent raises ``KeyboardInterrupt`` after collecting a result,
    driving the drain/journal/resume path.

Nothing in this module is imported by the simulator proper: with no
injector configured the sweep engine passes ``None`` around and no
fault code runs (the strictly-opt-in guarantee).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..common.errors import ConfigurationError, InjectedFaultError

#: Every named injection site, in documentation order.
FAULT_SITES: Tuple[str, ...] = (
    "worker.crash",
    "cell.hang",
    "simulate.error",
    "cache.store.crash",
    "cache.corrupt",
    "sweep.sigint",
)

#: Exit status of a worker killed by ``worker.crash``/``cache.store.crash``
#: (EX_TEMPFAIL: the failure is transient by construction — a retry of
#: the same cell draws a different context and normally succeeds).
FAULT_EXIT_CODE = 75

#: How long ``cell.hang`` sleeps unless the plan overrides it: far past
#: any plausible watchdog budget, so an unwatched hang is unmistakable.
DEFAULT_HANG_SECONDS = 3600.0

#: Process-local flag: True only inside a resilient-pool worker.  The
#: process-fatal sites consult it so an injection plan can never kill
#: the parent (serial and degraded execution run in the parent).
_IN_WORKER = False


def mark_worker() -> None:
    """Declare this process a pool worker (called by the worker bootstrap)."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker() -> bool:
    """True inside a resilient-pool worker process."""
    return _IN_WORKER


@dataclass(frozen=True)
class FaultRule:
    """One arm of a plan: fire ``site`` at ``rate`` when ``match`` applies.

    ``match`` is a plain substring test against the decision context
    (e.g. a workload name, or ``"a0"`` to hit only first attempts);
    empty matches everything.
    """

    site: str
    rate: float = 1.0
    match: str = ""

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; sites: {', '.join(FAULT_SITES)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(
                f"fault rate must be in [0, 1], got {self.rate!r} for {self.site}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {"site": self.site, "rate": self.rate, "match": self.match}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultRule":
        return cls(
            site=str(data["site"]),
            rate=float(data.get("rate", 1.0)),  # type: ignore[arg-type]
            match=str(data.get("match", "")),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the rules; serializable so it can cross process lines."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()
    #: ``cell.hang`` sleep length; tests shrink it under a short watchdog.
    hang_seconds: float = DEFAULT_HANG_SECONDS

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
            "hang_seconds": self.hang_seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        return cls(
            seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
            rules=tuple(
                FaultRule.from_dict(rule)  # type: ignore[arg-type]
                for rule in data.get("rules", ())
            ),
            hang_seconds=float(data.get("hang_seconds", DEFAULT_HANG_SECONDS)),  # type: ignore[arg-type]
        )


def parse_fault_plan(
    spec: str, seed: int = 0, hang_seconds: float = DEFAULT_HANG_SECONDS
) -> FaultPlan:
    """Parse the CLI plan syntax: ``SITE[@MATCH][=RATE](,...)``.

    Examples::

        worker.crash=0.25
        worker.crash=0.25,cell.hang=0.1,cache.corrupt=0.2
        simulate.error@daxpy=1.0          # only cells whose context mentions daxpy
    """
    rules: List[FaultRule] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        site, _, rate_text = chunk.partition("=")
        site, _, match = site.partition("@")
        try:
            rate = float(rate_text) if rate_text else 1.0
        except ValueError:
            raise ConfigurationError(
                f"fault rate {rate_text!r} in {chunk!r} is not a number"
            )
        rules.append(FaultRule(site=site.strip(), rate=rate, match=match.strip()))
    if not rules:
        raise ConfigurationError(f"fault plan {spec!r} names no sites")
    return FaultPlan(seed=seed, rules=tuple(rules), hang_seconds=hang_seconds)


class _CommitFaultProbe:
    """Probe raising :class:`InjectedFaultError` at the Nth commit.

    Rides the existing probe API, so the mid-simulate site adds zero
    hooks to the pipeline: an injector-free run attaches nothing.
    Deliberately not a :class:`~repro.core.probes.Probe` subclass —
    defining only ``on_commit`` keeps every other event unbound.
    """

    def __init__(self, context: str, after_commits: int = 1) -> None:
        self.context = context
        self.remaining = max(1, after_commits)

    def on_attach(self, pipeline) -> None:  # noqa: D401 - probe contract
        """No state to register."""

    def on_commit(self, pipeline, inst) -> None:
        self.remaining -= 1
        if self.remaining <= 0:
            raise InjectedFaultError(
                f"injected simulate.error [{self.context}] at commit of seq {inst.seq}"
            )


class FaultInjector:
    """Seeded decisions plus the act-on-it helpers for each site.

    The decision function is stateless; the instance only accumulates a
    ``fired`` log (``(site, context)`` pairs) so workers can report what
    they injected back to the parent for counters and journal records.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.fired: List[Tuple[str, str]] = []

    # -- serialization (injectors travel to workers as plans) ----------------
    def to_dict(self) -> Dict[str, object]:
        return self.plan.to_dict()

    def __reduce__(self):
        # A pickled copy (a pool task payload) starts with an empty fired
        # log: what a worker fires is reported back, never re-counted.
        return (FaultInjector, (self.plan,))

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultInjector":
        return cls(FaultPlan.from_dict(data))

    # -- the decision function ----------------------------------------------
    @staticmethod
    def _draw(seed: int, site: str, context: str) -> float:
        blob = f"{seed}:{site}:{context}".encode("utf-8")
        return int(hashlib.sha256(blob).hexdigest()[:16], 16) / float(1 << 64)

    def decide(self, site: str, context: str) -> bool:
        """True when ``site`` fires for ``context`` under this plan."""
        for rule in self.plan.rules:
            if rule.site != site:
                continue
            if rule.match and rule.match not in context:
                continue
            if self._draw(self.plan.seed, site, context) < rule.rate:
                self.fired.append((site, context))
                return True
        return False

    # -- act-on-it helpers ----------------------------------------------------
    def crash_point(self, context: str) -> None:
        """``worker.crash``: exit hard — pool workers only, never the parent."""
        if in_worker() and self.decide("worker.crash", context):
            os._exit(FAULT_EXIT_CODE)

    def hang_point(self, context: str, sleep=time.sleep) -> None:
        """``cell.hang``: sleep past the watchdog — pool workers only."""
        if in_worker() and self.decide("cell.hang", context):
            sleep(self.plan.hang_seconds)

    def simulate_error_probe(
        self, context: str, after_commits: int = 1
    ) -> Optional[_CommitFaultProbe]:
        """A probe for ``simulate.error``, or None when the site stays quiet."""
        if self.decide("simulate.error", context):
            return _CommitFaultProbe(context, after_commits=after_commits)
        return None

    def store_crash_point(self, context: str) -> None:
        """``cache.store.crash``: die between temp write and ``os.replace``.

        Inside a worker the process exits hard (the realistic torn-write
        crash); elsewhere it raises, so in-process tests can assert the
        cache survives without forking.
        """
        if self.decide("cache.store.crash", context):
            if in_worker():
                os._exit(FAULT_EXIT_CODE)
            raise InjectedFaultError(f"injected cache.store.crash [{context}]")

    def corrupt_point(self, path: os.PathLike, context: str) -> bool:
        """``cache.corrupt``: scribble over ``path``; True when it fired."""
        if self.decide("cache.corrupt", context):
            with open(path, "r+b") as handle:
                handle.seek(0)
                handle.write(b"\x00corrupted-by-fault-injection\x00")
            return True
        return False

    def sigint_point(self, context: str) -> None:
        """``sweep.sigint``: deliver a KeyboardInterrupt in the parent."""
        if self.decide("sweep.sigint", context):
            raise KeyboardInterrupt(f"injected sweep.sigint [{context}]")

"""Layer spans for the traced run, installed from outside the simulator.

:class:`LayerTracer` wraps the public functions of each simulator layer
with timing wrappers (``install``), keeps every span in memory, and
restores the originals on ``uninstall``.  Nothing inside ``src/`` is
edited or asked to trace itself.  The wrapped boundaries:

============================  =====================================
layer                         functions
============================  =====================================
``workloads.build``           ``Suite.build``, ``SuiteMember.build``
                              and the benchmark's own generator call
                              (``sb_inputs.memwall_trace``)
``trace.digest``              ``Trace.digest``
``core.run``                  ``PipelineBase.run`` (a skip-aware
                              :class:`StepCounter` probe is attached
                              to count executed and skipped cycles)
``sampling.fast_forward``     ``FunctionalWarmer.fast_forward``
``warmstate.*``               ``capture_warm_state``,
                              ``restore_warm_state``,
                              ``store_checkpoint``,
                              ``load_matching_checkpoint``
``sweep.cache_store``         ``ResultCache.store``
============================  =====================================

A pipeline that adopted sampled warm state
(``PipelineBase.adopt_warm_state``) is a detailed sampling window; its
``core.run`` span is marked so window time can be told apart.

A span's self time is its duration minus that of its direct children;
the layer ledger sums self times per layer, so nested spans are never
counted twice and ``unattributed_s`` is what no wrapped boundary covers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import sb_inputs
from repro.core import pipeline as pipeline_module
from repro.core import sampling as sampling_module
from repro.core import warmstate
from repro.core.probes import Probe
from repro.experiments.sweep import ResultCache
from repro.trace.trace import Trace
from repro.workloads.suite import Suite, SuiteMember

LAYERS = (
    "workloads.build",
    "trace.digest",
    "core.run",
    "sampling.fast_forward",
    "warmstate.capture",
    "warmstate.restore",
    "warmstate.save",
    "warmstate.load",
    "sweep.cache_store",
)


@dataclass
class Span:
    layer: str
    start: float
    parent: Optional["Span"]
    end: float = 0.0
    children: float = 0.0  #: summed duration of direct children
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


class StepCounter(Probe):
    """Skip-aware probe: counts stepped cycles and bulk-skipped cycles.

    Overriding ``on_idle_cycles`` alongside ``on_cycle`` keeps the
    event-driven kernel on its skipping path.
    """

    def __init__(self) -> None:
        self.steps = 0
        self.skipped = 0

    def on_cycle(self, pipeline) -> None:
        self.steps += 1

    def on_idle_cycles(self, pipeline, cycles: int) -> None:
        self.skipped += cycles


class LayerTracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: Optional[Span] = None
        self._restore: List[Callable[[], None]] = []
        self._windows: set = set()

    # -- recording ------------------------------------------------------------
    def begin(self, layer: str) -> Span:
        span = Span(layer, time.perf_counter(), self._open)
        self._open = span
        return span

    def finish(self, span: Span, **attrs: object) -> None:
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        self._open = span.parent
        if span.parent is not None:
            span.parent.children += span.duration
        self.spans.append(span)

    def timed(self, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a ``layer`` span; returns its result."""
        span = self.begin(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(span)

    # -- installation ---------------------------------------------------------
    def _patch(self, owner, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._restore.append(lambda: setattr(owner, name, original))

    def _wrap(self, owner, name: str, layer: str) -> None:
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                return tracer.timed(layer, original, *args, **kwargs)

            return wrapper

        self._patch(owner, name, make)

    def install(self) -> None:
        tracer = self
        self._wrap(Suite, "build", "workloads.build")
        self._wrap(Trace, "digest", "trace.digest")
        self._wrap(warmstate, "capture_warm_state", "warmstate.capture")
        self._wrap(warmstate, "restore_warm_state", "warmstate.restore")
        self._wrap(ResultCache, "store", "sweep.cache_store")

        def build_one(original):
            def wrapper(*args, **kwargs):
                span = tracer.begin("workloads.build")
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.finish(span, traces=1)

            return wrapper

        def fast_forward(original):
            def wrapper(warmer, trace, start, count, *args, **kwargs):
                span = tracer.begin("sampling.fast_forward")
                try:
                    return original(warmer, trace, start, count, *args, **kwargs)
                finally:
                    tracer.finish(span, instructions=count)

            return wrapper

        def store_checkpoint(original):
            def wrapper(*args, **kwargs):
                span = tracer.begin("warmstate.save")
                path = None
                try:
                    path = original(*args, **kwargs)
                    return path
                finally:
                    tracer.finish(span, bytes=path.stat().st_size if path is not None else 0)

            return wrapper

        def load_checkpoint(original):
            def wrapper(*args, **kwargs):
                span = tracer.begin("warmstate.load")
                checkpoint = None
                try:
                    checkpoint = original(*args, **kwargs)
                    return checkpoint
                finally:
                    tracer.finish(span, hit=checkpoint is not None)

            return wrapper

        def adopt(original):
            def wrapper(pipeline, *args, **kwargs):
                tracer._windows.add(id(pipeline))
                return original(pipeline, *args, **kwargs)

            return wrapper

        def run(original):
            def wrapper(pipeline, *args, **kwargs):
                counter = StepCounter()
                pipeline.attach_probe(counter)
                window = id(pipeline) in tracer._windows
                span = tracer.begin("core.run")
                try:
                    return original(pipeline, *args, **kwargs)
                finally:
                    tracer._windows.discard(id(pipeline))
                    tracer.finish(
                        span,
                        mode=pipeline.config.mode,
                        window=window,
                        steps=counter.steps,
                        skipped=counter.skipped,
                    )

            return wrapper

        self._patch(SuiteMember, "build", build_one)
        self._patch(sb_inputs, "memwall_trace", build_one)
        self._patch(sampling_module.FunctionalWarmer, "fast_forward", fast_forward)
        self._patch(warmstate, "store_checkpoint", store_checkpoint)
        self._patch(warmstate, "load_matching_checkpoint", load_checkpoint)
        self._patch(pipeline_module.PipelineBase, "adopt_warm_state", adopt)
        self._patch(pipeline_module.PipelineBase, "run", run)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- the ledger -----------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Per-layer self times and the counts measured at the boundaries."""
        out: Dict[str, float] = {f"{layer}_s": 0.0 for layer in LAYERS}
        counts = {
            "traces_built": 0,
            "digests": 0,
            "ff_instructions": 0,
            "window_s": 0.0,
            "window_steps": 0,
            "windows": 0,
            "checkpoint_bytes": 0,
            "checkpoint_loads": 0,
            "checkpoint_hits": 0,
            "steps": 0,
            "skipped": 0,
        }
        for mode in ("baseline", "cooo"):
            counts[f"run_s.{mode}"] = 0.0
            counts[f"steps.{mode}"] = 0
        for span in self.spans:
            out[f"{span.layer}_s"] += span.self_time
            attrs = span.attrs
            if span.layer == "workloads.build":
                counts["traces_built"] += int(attrs.get("traces", 0))
            elif span.layer == "trace.digest":
                counts["digests"] += 1
            elif span.layer == "sampling.fast_forward":
                counts["ff_instructions"] += int(attrs["instructions"])
            elif span.layer == "warmstate.save":
                counts["checkpoint_bytes"] += int(attrs["bytes"])
            elif span.layer == "warmstate.load":
                counts["checkpoint_loads"] += 1
                counts["checkpoint_hits"] += int(bool(attrs["hit"]))
            elif span.layer == "core.run":
                steps = int(attrs["steps"])
                counts["steps"] += steps
                counts["skipped"] += int(attrs["skipped"])
                mode = str(attrs["mode"])
                counts[f"run_s.{mode}"] = counts.get(f"run_s.{mode}", 0.0) + span.self_time
                counts[f"steps.{mode}"] = counts.get(f"steps.{mode}", 0) + steps
                if attrs["window"]:
                    counts["windows"] += 1
                    counts["window_s"] += span.self_time
                    counts["window_steps"] += steps
        out.update(counts)
        out["attributed_s"] = sum(span.self_time for span in self.spans)
        return out

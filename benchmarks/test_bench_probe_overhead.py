"""Benchmark guard: the probe machinery must not tax the fast path.

The occupancy accounting that used to be inlined in ``PipelineBase``
now lives in the default :class:`~repro.core.probes.OccupancyProbe`, so
a default-constructed pipeline does the same per-instruction work the
seed simulator did (plus one bound-hook indirection per event).  Two
invariants keep that honest:

* **no-probe fast path** — a pipeline with zero probes does strictly
  less work than the seed's inlined accounting, so it must not be more
  than 5% slower than the default (seed-equivalent) configuration;
* **event dispatch** — attaching a probe that overrides *no* events
  binds no hooks and must therefore cost nothing measurable either.

Each round runs the two configurations back to back (which one goes
first alternates) after a full garbage collection, timed with
``time.process_time``.  Host load that slows one run of a round slows
its partner about as much, so the round's ratio cancels it; the median
over many short rounds ignores the few rounds where the load changed
between the two runs.  A best-of-N time per side does not cancel it:
one side's single lucky quiet run decides the ratio.
"""

from __future__ import annotations

import gc
import time

from conftest import run_once

from repro.api import Simulation
from repro.common.config import cooo_config, scaled_baseline
from repro.core.probes import Probe
from repro.workloads import daxpy

#: Allowed slowdown of the leaner configuration vs. the default path.
TOLERANCE = 1.05
#: Odd, so the median round is one measured round.
ROUNDS = 61


def _trace():
    # Short (~1000 instructions) so the two runs of a round sit close in time.
    return daxpy(elements=150)


def _median_round(sim_a: Simulation, sim_b: Simulation, trace, rounds: int = ROUNDS):
    """CPU times ``(a, b)`` of the round whose ratio ``b / a`` is the median."""
    sims = (sim_a, sim_b)
    timed = []
    for round_index in range(rounds):
        times = [0.0, 0.0]
        for side in (0, 1) if round_index % 2 == 0 else (1, 0):
            gc.collect()
            start = time.process_time()
            sims[side].run(trace)
            times[side] = time.process_time() - start
        timed.append(times)
    timed.sort(key=lambda times: times[1] / times[0])
    t_a, t_b = timed[len(timed) // 2]
    return t_a, t_b


def test_bench_no_probe_fast_path_vs_default(benchmark):
    """probes=() must be at least as fast as the seed-equivalent default."""
    config = scaled_baseline(window=256, memory_latency=200)
    trace = _trace()
    default = Simulation(config)
    bare = Simulation(config, default_probes=False)
    # Structural half of the guard: a bare pipeline binds no hooks at all.
    pipeline = bare.pipeline(trace)
    assert pipeline.probes == ()
    assert pipeline._hooks_dispatch == [] and pipeline._hooks_cycle == []
    t_default, t_bare = run_once(
        benchmark, lambda: _median_round(default, bare, trace)
    )
    assert t_bare <= TOLERANCE * t_default, (
        f"no-probe fast path took {t_bare:.4f}s vs. default {t_default:.4f}s "
        f"(> {TOLERANCE:.0%}); event emission is taxing the bare pipeline"
    )
    print(f"\nno-probe {t_bare:.4f}s vs default {t_default:.4f}s "
          f"({t_bare / t_default:.2%} of default)")


def test_bench_telemetry_disabled_path_is_free(benchmark):
    """telemetry=None must leave the hot path untouched.

    The opt-in telemetry layer only acts when a session is passed: no
    probes attach, no clock is read, and the run body is wrapped in a
    nullcontext.  Guard that structurally and with the same 5% timing
    tolerance as the other fast-path invariants.
    """
    config = scaled_baseline(window=256, memory_latency=200)
    trace = _trace()
    default = Simulation(config)
    disabled = Simulation(config, telemetry=None)
    pipeline = disabled.pipeline(trace)
    assert len(pipeline.probes) == 1  # occupancy only; telemetry added nothing
    t_default, t_disabled = run_once(
        benchmark, lambda: _median_round(default, disabled, trace)
    )
    assert t_disabled <= TOLERANCE * t_default, (
        f"telemetry-disabled run took {t_disabled:.4f}s vs. default "
        f"{t_default:.4f}s (> {TOLERANCE:.0%}); telemetry=None must be free"
    )
    print(f"\ntelemetry-off {t_disabled:.4f}s vs default {t_default:.4f}s "
          f"({t_disabled / t_default:.2%} of default)")


def test_bench_inert_probe_costs_nothing(benchmark):
    """A probe overriding no events must bind no hooks (cooo machine)."""
    config = cooo_config(iq_size=64, sliq_size=512, checkpoints=4, memory_latency=200)
    trace = _trace()
    default = Simulation(config)
    inert = Simulation(config, probes=[Probe()])
    pipeline = inert.pipeline(trace)
    assert len(pipeline.probes) == 2  # occupancy + inert
    assert len(pipeline._hooks_dispatch) == 1  # only occupancy bound a hook
    t_default, t_inert = run_once(
        benchmark, lambda: _median_round(default, inert, trace)
    )
    assert t_inert <= TOLERANCE * t_default, (
        f"inert probe took {t_inert:.4f}s vs. default {t_default:.4f}s; "
        f"unbound events must not be dispatched"
    )
    print(f"\ninert-probe {t_inert:.4f}s vs default {t_default:.4f}s "
          f"({t_inert / t_default:.2%} of default)")

#!/usr/bin/env python3
"""Towards kilo-instruction processors: window scaling on a budget.

Section 5 of the paper argues that checkpointing plus two-level instruction
queuing (plus ephemeral registers) makes processors with thousands of
in-flight instructions affordable.  This example measures, for the whole
SPEC2000fp-like suite, how the average in-flight window and the IPC grow as
the COoO machine's cheap structures (SLIQ, checkpoints) are scaled — while
its expensive structures (issue queue, pseudo-ROB) stay fixed at 64 entries.
"""

from repro import api, cooo_config, get_suite, scaled_baseline
from repro.analysis import format_table
from repro.experiments import suite_ipc, suite_metric


def run(config, traces):
    return api.Simulation(config).run_suite(traces)


def main() -> None:
    memory_latency = 1000
    traces = get_suite("spec2000fp_like").build(scale=0.4)
    print(f"suite: {', '.join(traces)} (memory latency {memory_latency} cycles)\n")

    rows = []
    baseline = run(scaled_baseline(window=128, memory_latency=memory_latency), traces)
    rows.append({
        "machine": "baseline-128",
        "ipc": round(suite_ipc(baseline), 3),
        "avg in-flight": round(suite_metric(baseline, lambda r: r.mean_in_flight), 0),
    })

    for sliq_size, checkpoints in ((256, 4), (512, 8), (1024, 8), (2048, 16), (4096, 32)):
        config = cooo_config(
            iq_size=64,
            sliq_size=sliq_size,
            checkpoints=checkpoints,
            memory_latency=memory_latency,
        )
        results = run(config, traces)
        rows.append({
            "machine": f"COoO iq64 sliq{sliq_size} ckpt{checkpoints}",
            "ipc": round(suite_ipc(results), 3),
            "avg in-flight": round(suite_metric(results, lambda r: r.mean_in_flight), 0),
        })

    limit = run(scaled_baseline(window=4096, memory_latency=memory_latency), traces)
    rows.append({
        "machine": "baseline-4096 (unbuildable)",
        "ipc": round(suite_ipc(limit), 3),
        "avg in-flight": round(suite_metric(limit, lambda r: r.mean_in_flight), 0),
    })

    print(format_table(rows))
    print(
        "\nThe expensive, cycle-time-critical structures stay at 64 entries; only the\n"
        "RAM-like SLIQ and the tiny checkpoint table grow, yet the machine sustains\n"
        "in-flight windows in the thousands and closes most of the gap to the\n"
        "unbuildable 4096-entry conventional design."
    )


if __name__ == "__main__":
    main()

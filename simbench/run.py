"""The repository benchmark: end-to-end and per-layer simulator metrics.

Run from the root of a checkout::

    python3 simbench/run.py --workload memwall --seed 0 --seconds 30 --trace 0
    python3 simbench/run.py --report --seconds 5     # every workload, both runs
    python3 simbench/run.py --pin                    # re-pin reference.json

``--trace 0`` repeats the workload's body for ``--seconds`` and reports
the end-to-end metrics (medians over the repeats, tracing off).  Its
times are rescaled to a reference host speed by a calibration loop timed
around every body (see ``CALIBRATION_REF_S``); raw seconds are printed
beside them.
``--trace 1`` is the separate traced run: one untraced parallel body for
the pool figures, then an untraced and a traced serial body, each in a
fresh child process, for the per-layer ledger and the tracing overhead.
Either way the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name and unit, with the host facts.

Inputs are defined in ``sb_inputs``, pinned outputs are checked by
``sb_check``, and layer spans come from ``sb_layers``.  The benchmark
reads and writes only inside the checkout (scratch files go under
``.simbench-tmp/``) and waits for every process it starts.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import sb_inputs
import sb_check
from sb_layers import LayerTracer

import repro
from repro import api
from repro.experiments.sweep import ResultCache, SweepEngine
from repro.workloads.registry import get_suite

ROOT = sb_inputs.ROOT
SCRATCH = os.path.join(ROOT, ".simbench-tmp")

#: Fresh processes timed from launch to readiness; setup_s is their median.
SETUP_PROBES = 7

#: The host's speed drifts by up to a third over tens of seconds on a
#: shared VM, slowing the simulator and a plain Python loop alike.  A
#: calibration loop timed around every measured body tracks the drift, and
#: the time metrics are reported at the speed of a reference host whose
#: calibration takes CALIBRATION_REF_S (a 2-vCPU Xeon KVM guest, Python
#: 3.11); the raw seconds are printed beside them.
CALIBRATION_LOOPS = 600_000
CALIBRATION_REF_S = 0.07

#: Longest any child process may take before it is killed.
CHILD_TIMEOUT = 170


def _metrics(kind: str) -> List[Tuple[str, str]]:
    """(name, unit) of every ``kind`` metric, in BENCHMARK.json's order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [(metric["name"], metric["unit"]) for metric in json.load(handle)[kind]]


# -- running one body ------------------------------------------------------------


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _dirs, names in os.walk(path)
        for name in names
    )


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_body(inputs: sb_inputs.Inputs, jobs: int, workdir: str) -> Dict:
    """Run every cell of the workload once: ``{wall, cells, sweep}``.

    ``memwall`` calls ``api.run`` per machine in this process; the sweep
    workloads run ``SweepEngine`` with ``jobs`` workers, a fresh result
    cache and (when sampled) a fresh shared warm-checkpoint directory.
    """
    if inputs.spec is None:
        trace = inputs.trace
        cells = []
        started = time.perf_counter()
        for label, config in inputs.machines:
            name = f"{label}/{trace.name}"
            try:
                result = api.run(config, trace)
            except Exception as exc:  # noqa: BLE001 - a failed cell is counted
                cells.append(sb_check.cell_output(name, trace.name, None, _error(exc)))
            else:
                cells.append(sb_check.cell_output(name, trace.name, result))
        return {"wall": time.perf_counter() - started, "cells": cells, "sweep": None}

    spec = inputs.spec
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    checkpoint_dir = (
        tempfile.mkdtemp(prefix="ckpt-", dir=workdir) if spec.sampling is not None else None
    )
    try:
        engine = SweepEngine(jobs=jobs, cache=ResultCache(cache_dir), checkpoint_dir=checkpoint_dir)
        outcome, error = None, None
        started = time.perf_counter()
        try:
            outcome = engine.run(spec)
        except Exception as exc:  # noqa: BLE001 - every cell counts as failed
            error = _error(exc)
        wall = time.perf_counter() - started
        labels = [label for label, _config in inputs.machines]
        members = spec.workload_names()
        cells = [
            sb_check.cell_output(
                f"{labels[cell.index // len(members)]}/{cell.workload}",
                cell.workload,
                outcome.results[cell.index] if outcome is not None else None,
                error,
            )
            for cell in spec.cells()
        ]
        sweep = {
            "cells": len(cells),
            "simulated": outcome.simulated if outcome else 0,
            "retries": outcome.retries if outcome else 0,
            "failed_cells": len(outcome.failed_cells) if outcome else len(cells),
            "worker_busy": outcome.worker_busy if outcome else 0.0,
            "elapsed": outcome.elapsed if outcome else wall,
            "worker_deaths": outcome.worker_deaths if outcome else 0,
            "workers": min(jobs, len(cells)) if jobs > 1 else 0,
            "cache_bytes": _dir_bytes(cache_dir),
        }
        return {"wall": wall, "cells": cells, "sweep": sweep}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        if checkpoint_dir is not None:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)


# -- child processes -------------------------------------------------------------


def child_command(args, kind: str, traced: int = 0) -> List[str]:
    return [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        kind,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--size",
        args.size,
        "--trace",
        str(traced),
    ]


def run_child(command: List[str], workdir: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, TMPDIR=workdir)
    done = subprocess.run(
        command,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"child {' '.join(command[2:])} exited {done.returncode}:\n{done.stderr}"
        )
    return done


def child_main(args, workdir: str) -> int:
    """``--child setup``: build the inputs and exit (a set-up probe).
    ``--child serial``: one serial body, traced or not, reported as JSON."""
    if args.child == "setup":
        sb_inputs.build_inputs(args.workload, args.seed, args.size)
        return 0
    get_suite("spec2000fp_like")  # load the registries outside the timed scope
    tracer = LayerTracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        started = time.perf_counter()
        inputs = sb_inputs.build_inputs(args.workload, args.seed, args.size)
        body = run_body(inputs, 1, workdir)
        body["scope_wall"] = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    body["layers"] = tracer.summary() if tracer is not None else None
    print(json.dumps(body))
    return 0


# -- reference and verification --------------------------------------------------


class Verifier:
    """Checks cells against the pinned reference and tallies failures."""

    def __init__(self, reference: Dict, inputs: sb_inputs.Inputs) -> None:
        self.entry = reference.get("sizes", {}).get(inputs.size, {}).get(inputs.workload)
        self.pinned = self.entry is not None and (
            not inputs.seeded or self.entry["seed"] == inputs.seed
        )
        self.lengths = (
            self.entry["trace_instructions"] if self.entry is not None else trace_lengths(inputs)
        )
        self.attempted = 0
        self.failures: List[Tuple[str, str]] = []
        if self.pinned:
            self.description = f"pinned (repro {repro.__version__})"
        elif self.entry is None:
            self.description = f"unpinned: no reference for size {inputs.size}"
        else:
            self.description = (
                f"unpinned: seed {inputs.seed} is not the pinned seed {self.entry['seed']}"
            )

    def check(self, cells: List[Dict]) -> None:
        for cell in cells:
            self.attempted += 1
            reason = sb_check.check_cell(cell, self.entry, self.pinned, self.lengths)
            if reason is not None:
                self.failures.append((cell["cell"], reason))


def trace_lengths(inputs: sb_inputs.Inputs) -> Dict[str, int]:
    """Trace lengths by building the suite here (pinning and unpinned sizes)."""
    if inputs.trace is not None:
        return {inputs.trace.name: len(inputs.trace)}
    traces = get_suite(inputs.spec.suite).build(inputs.spec.scale)
    return {name: len(traces[name]) for name in inputs.spec.workload_names()}


# -- measuring -------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Largest maximum RSS of this process and any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def covered_instructions(cells: List[Dict]) -> int:
    return sum(int(cell.get("covered", 0)) for cell in cells if cell["error"] is None)


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: a probe of the host's speed."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


def at_reference_speed(samples: List[float], calibrations: List[float]) -> List[float]:
    """Each sample rescaled to the reference host speed.

    ``calibrations`` brackets the samples (one before the first, one
    after each); a sample is scaled by the mean of the two around it.
    """
    return [
        sample * 2.0 * CALIBRATION_REF_S / (calibrations[i] + calibrations[i + 1])
        for i, sample in enumerate(samples)
    ]


def measure_untraced(args, reference: Dict, workdir: str) -> Tuple[Dict, Verifier, List[str]]:
    setup, setup_calibrations = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        run_child(child_command(args, "setup"), workdir)
        setup.append(time.perf_counter() - started)
        setup_calibrations.append(calibrate())
    inputs = sb_inputs.build_inputs(args.workload, args.seed, args.size)
    verifier = Verifier(reference, inputs)
    jobs = sb_inputs.worker_count()
    walls: List[float] = []
    covered: List[int] = []
    calibrations = [calibrate()]
    cells: List[Dict] = []
    started = time.perf_counter()
    while True:
        gc.collect()
        body = run_body(inputs, jobs, workdir)
        calibrations.append(calibrate())
        verifier.check(body["cells"])
        cells.extend(body["cells"])
        walls.append(body["wall"])
        covered.append(covered_instructions(body["cells"]))
        if time.perf_counter() - started >= args.seconds:
            break
    scaled_walls = at_reference_speed(walls, calibrations)
    accuracy = sb_check.sampling_error(cells, verifier.entry)
    error_rate = len(verifier.failures) / verifier.attempted
    metrics = {
        "setup_s": statistics.median(at_reference_speed(setup, setup_calibrations)),
        "wall_s": statistics.median(scaled_walls),
        "kips": statistics.median(n / 1000.0 / wall for n, wall in zip(covered, scaled_walls)),
        "peak_rss_mb": peak_rss_mb(),
        "cell_success_pct": 100.0 * (1.0 - error_rate),
        "ipc_accuracy_pct": accuracy["ipc_accuracy_pct"],
        "ci95_tightness_pct": accuracy["ci95_tightness_pct"],
    }
    speed = CALIBRATION_REF_S / statistics.median(calibrations)
    notes = [
        f"host speed {speed:.4f}x the reference (calibration median "
        f"{statistics.median(calibrations):.4f} s vs {CALIBRATION_REF_S} s); "
        f"time metrics below are at reference speed",
        f"repeats: {len(walls)} bodies; raw wall_s min/median/max "
        f"{min(walls):.4f}/{statistics.median(walls):.4f}/{max(walls):.4f} s",
        f"setup probes: {SETUP_PROBES}; raw setup_s min/median/max "
        f"{min(setup):.4f}/{statistics.median(setup):.4f}/{max(setup):.4f} s",
        f"error_rate {error_rate:.6g} (failed/attempted cells); "
        f"ipc_err_pct {accuracy['ipc_err_pct']:.6g} %; ci95_pct {accuracy['ci95_pct']:.6g} %",
    ]
    return metrics, verifier, notes


def _cell_sum(cells: List[Dict], key: str) -> int:
    return sum(int(cell[key]) for cell in cells if cell["error"] is None)


def _stat_sum(cells: List[Dict], name: str) -> int:
    return sum(int(cell["stats"][name]) for cell in cells if cell["error"] is None)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure_traced(args, reference: Dict, workdir: str) -> Tuple[Dict, Verifier, List[str]]:
    inputs = sb_inputs.build_inputs(args.workload, args.seed, args.size)
    verifier = Verifier(reference, inputs)
    pool = {"busy": 0.0, "utilization": 0.0, "idle": 0.0, "deaths": 0}
    if inputs.spec is not None:
        body = run_body(inputs, sb_inputs.worker_count(), workdir)
        verifier.check(body["cells"])
        sweep = body["sweep"]
        capacity = sweep["elapsed"] * sweep["workers"]
        pool = {
            "busy": sweep["worker_busy"],
            "utilization": _ratio(sweep["worker_busy"], capacity),
            "idle": max(0.0, capacity - sweep["worker_busy"]) if sweep["workers"] else 0.0,
            "deaths": sweep["worker_deaths"],
        }
    untraced = json.loads(run_child(child_command(args, "serial", 0), workdir).stdout.splitlines()[-1])
    traced = json.loads(run_child(child_command(args, "serial", 1), workdir).stdout.splitlines()[-1])
    verifier.check(untraced["cells"])
    verifier.check(traced["cells"])
    layers = traced["layers"]
    cells = traced["cells"]
    sweep = traced["sweep"] or {}
    steps, skipped = layers["steps"], layers["skipped"]
    sampled = sum(1 for cell in cells if cell["error"] is None and cell["sampled"])
    loads, hits = layers["checkpoint_loads"], layers["checkpoint_hits"]
    metrics = {
        "workloads.build_s": layers["workloads.build_s"],
        "workloads.traces_built": layers["traces_built"],
        "trace.digest_s": layers["trace.digest_s"],
        "trace.digests": layers["digests"],
        "core.run_s": layers["core.run_s"],
        "core.us_per_step.baseline": 1e6 * _ratio(layers["run_s.baseline"], layers["steps.baseline"]),
        "core.us_per_step.cooo": 1e6 * _ratio(layers["run_s.cooo"], layers["steps.cooo"]),
        "core.steps": steps,
        "core.skipped_cycles": skipped,
        "core.skip_frac": _ratio(skipped, steps + skipped),
        "core.sim_cycles": _cell_sum(cells, "cycles"),
        "core.committed": _cell_sum(cells, "committed"),
        "mem.l2_misses": _stat_sum(cells, "mem.l2_miss_loads"),
        "branch.mispredictions": _stat_sum(cells, "branch.mispredictions"),
        "checkpoint.created": _stat_sum(cells, "checkpoint.created"),
        "checkpoint.rollbacks": _stat_sum(cells, "checkpoint.rollbacks"),
        "squash.instructions": _stat_sum(cells, "squash.instructions"),
        "sampling.fast_forward_s": layers["sampling.fast_forward_s"],
        "sampling.ff_kips": _ratio(layers["ff_instructions"] / 1000.0, layers["sampling.fast_forward_s"]),
        "sampling.window_s": layers["window_s"],
        "sampling.windows": layers["windows"],
        "sampling.window_us_per_step": 1e6 * _ratio(layers["window_s"], layers["window_steps"]),
        "warmstate.capture_s": layers["warmstate.capture_s"],
        "warmstate.restore_s": layers["warmstate.restore_s"],
        "warmstate.save_s": layers["warmstate.save_s"],
        "warmstate.load_s": layers["warmstate.load_s"],
        "warmstate.bytes": layers["checkpoint_bytes"],
        "warmstate.passes": loads - hits,
        "warmstate.reuse": _ratio(hits, sampled),
        "sweep.cells": sweep.get("cells", 0),
        "sweep.simulated": sweep.get("simulated", 0),
        "sweep.cache_store_s": layers["sweep.cache_store_s"],
        "sweep.cache_bytes": sweep.get("cache_bytes", 0),
        "sweep.retries": sweep.get("retries", 0),
        "sweep.failed_cells": sweep.get("failed_cells", 0),
        "pool.busy_s": pool["busy"],
        "pool.utilization": pool["utilization"],
        "pool.idle_s": pool["idle"],
        "pool.worker_deaths": pool["deaths"],
        "trace_overhead_pct": 100.0 * _ratio(
            traced["scope_wall"] - untraced["scope_wall"], untraced["scope_wall"]
        ),
        "unattributed_s": traced["scope_wall"] - layers["attributed_s"],
    }
    notes = [
        f"serial scope: untraced {untraced['scope_wall']:.4f} s, traced "
        f"{traced['scope_wall']:.4f} s; layers attribute {layers['attributed_s']:.4f} s "
        f"of the traced scope",
    ]
    return metrics, verifier, notes


# -- host facts and output -------------------------------------------------------


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_facts() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "workers": sb_inputs.worker_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repro_version": repro.__version__,
        "commit": git_commit(),
    }


def print_table(metrics: Dict[str, float], names: List[Tuple[str, str]]) -> None:
    width = max(len(name) for name, _unit in names)
    for name, unit in names:
        print(f"  {name:<{width}}  {metrics[name]:>16.6g}  {unit}")


def measure(args, workdir: str) -> int:
    try:
        reference = sb_check.load_reference(args.reference)
    except sb_check.ReferenceMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.trace:
        metrics, verifier, notes = measure_traced(args, reference, workdir)
        names = _metrics("per_layer")
    else:
        metrics, verifier, notes = measure_untraced(args, reference, workdir)
        names = _metrics("end_to_end")
    print(f"simbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    print(f"host: {json.dumps(host_facts(), sort_keys=True)}")
    print(f"reference: {verifier.description}")
    print(f"note: {sb_check.VALIDITY_NOTE}")
    for note in notes:
        print(note)
    for cell, reason in verifier.failures:
        print(f"FAILED {cell}: {reason}")
    print_table(metrics, names)
    print(
        json.dumps(
            {
                "correct": not verifier.failures,
                "attempted": verifier.attempted,
                "failed": len(verifier.failures),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in names
                },
            }
        )
    )
    return 0


def pin(args, workdir: str) -> int:
    """Run each workload once at the default seed and write the reference."""
    try:
        reference = sb_check.load_reference(args.reference)
    except sb_check.ReferenceMismatch as exc:
        print(f"re-pinning: {exc}", file=sys.stderr)
        reference = {"sizes": {}}
    workloads = [args.workload] if args.workload else list(sb_inputs.WORKLOADS)
    for workload in workloads:
        inputs = sb_inputs.build_inputs(workload, sb_inputs.DEFAULT_SEED, args.size)
        body = run_body(inputs, sb_inputs.worker_count(), workdir)
        entry = sb_check.pin_entry(body["cells"], inputs.seed, trace_lengths(inputs))
        if inputs.spec is not None and inputs.spec.sampling is not None:
            exact_spec = dataclasses.replace(inputs.spec, sampling=None)
            exact = SweepEngine(jobs=sb_inputs.worker_count()).run(exact_spec)
            labels = [label for label, _config in inputs.machines]
            members = exact_spec.workload_names()
            entry["exact_ipc"] = {
                f"{labels[cell.index // len(members)]}/{cell.workload}": exact.results[cell.index].ipc
                for cell in exact_spec.cells()
            }
        reference.setdefault("sizes", {}).setdefault(args.size, {})[workload] = entry
        print(f"pinned {workload} ({args.size}): {len(body['cells'])} cells")
    sb_check.save_reference(args.reference, reference)
    print(f"wrote {args.reference}")
    return 0


def report(args) -> int:
    """Every workload, untraced then traced, each as its own benchmark process."""
    for workload in sb_inputs.WORKLOADS:
        for traced in (0, 1):
            command = [
                sys.executable,
                os.path.abspath(__file__),
                "--workload",
                workload,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                str(traced),
                "--size",
                args.size,
                "--reference",
                args.reference,
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]) if done.returncode == 0 else done.stderr)
            if done.returncode != 0:
                return done.returncode
            print()
    return 0


def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sb_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=sb_inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sb_inputs.SIZES, default="full")
    parser.add_argument("--reference", default=sb_check.REFERENCE)
    parser.add_argument("--pin", action="store_true", help="re-pin the reference outputs")
    parser.add_argument("--report", action="store_true", help="run and print every workload")
    parser.add_argument("--child", choices=("setup", "serial"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.pin or args.report) and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.report:
        return report(args)
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=SCRATCH)
    try:
        if args.child:
            return child_main(args, workdir)
        if args.pin:
            return pin(args, workdir)
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

"""Pinned reference outputs and the per-cell correctness check.

``reference.json`` is stamped with the ``repro.__version__`` it was
pinned under and holds, per size and workload:

* ``trace_instructions``: each trace's length (no workload's lengths
  depend on the seed);
* ``cells``: cycles, committed instructions and IPC of every cell at
  the default seed, plus windows and CI half-width for sampled cells;
* ``exact_ipc`` (sampled workloads): each cell's IPC from a full-detail
  run, the reference for sampling error.  The exact run does not depend
  on the sampling seed, so this reference holds for every seed.

A cell fails when it raised, was quarantined, did not cover its whole
trace, or (when pinned) differs from its pinned output.  The simulator
is not validated against hardware: these checks hold the simulator to
its own earlier outputs, and the sampling error is measured against the
simulator's own exact mode.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Optional

import sb_inputs  # noqa: F401  (puts src/ on sys.path)
import repro

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

VALIDITY_NOTE = (
    "the simulator is unvalidated against hardware; ipc_err_pct is sampling "
    "error against this simulator's own exact mode"
)

#: Simulated counts carried with each cell (summed per layer in traced runs).
CELL_STATS = (
    "mem.l2_miss_loads",
    "branch.mispredictions",
    "checkpoint.created",
    "checkpoint.rollbacks",
    "squash.instructions",
)


class ReferenceMismatch(Exception):
    """The reference was pinned under another simulator version."""


def cell_output(cell: str, workload: str, result, error: Optional[str] = None) -> Dict:
    """The plain-dict record of one finished (or failed) cell."""
    out: Dict[str, object] = {"cell": cell, "workload": workload, "error": error}
    if result is None:
        if error is None:
            out["error"] = "no result (quarantined)"
        return out
    stats = result.stats
    covered = result.committed_instructions
    if result.sampled:
        covered = int(stats.get("sampling.detailed_instructions", 0)) + int(
            stats.get("sampling.fast_forwarded_instructions", 0)
        )
    out.update(
        cycles=result.cycles,
        committed=result.committed_instructions,
        ipc=result.ipc,
        covered=covered,
        sampled=result.sampled,
        windows=len(result.windows),
        ci95=result.ipc_ci95,
        stats={name: int(stats.get(name, 0)) for name in CELL_STATS},
    )
    return out


def load_reference(path: str) -> Dict:
    """The reference file; raises :class:`ReferenceMismatch` on a version skew."""
    if not os.path.exists(path):
        return {"repro_version": repro.__version__, "sizes": {}}
    with open(path, encoding="utf-8") as handle:
        reference = json.load(handle)
    pinned = reference.get("repro_version")
    if pinned != repro.__version__:
        raise ReferenceMismatch(
            f"{path} was pinned under repro {pinned}, but this tree is repro "
            f"{repro.__version__}; results are not comparable. Re-pin explicitly "
            f"with `python3 simbench/run.py --pin` after checking the new outputs."
        )
    return reference


def save_reference(path: str, reference: Dict) -> None:
    reference["repro_version"] = repro.__version__
    reference["note"] = VALIDITY_NOTE
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def pin_entry(cells: List[Dict], seed: int, trace_lengths: Dict[str, int]) -> Dict:
    """A reference entry for one workload from a clean run's cells."""
    pinned = {}
    for cell in cells:
        if cell["error"] is not None:
            raise RuntimeError(f"cannot pin failed cell {cell['cell']}: {cell['error']}")
        record = {"cycles": cell["cycles"], "committed": cell["committed"], "ipc": cell["ipc"]}
        if cell["sampled"]:
            record.update(windows=cell["windows"], ci95=cell["ci95"])
        pinned[cell["cell"]] = record
    return {"seed": seed, "trace_instructions": dict(trace_lengths), "cells": pinned}


def _same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def check_cell(cell: Dict, entry: Optional[Dict], pinned: bool, lengths: Dict[str, int]) -> Optional[str]:
    """Why ``cell`` failed, or None when it is correct."""
    if cell["error"] is not None:
        return cell["error"]
    if cell["covered"] != lengths[cell["workload"]]:
        return f"covered {cell['covered']} of {lengths[cell['workload']]} trace instructions"
    if not pinned:
        return None
    record = (entry or {}).get("cells", {}).get(cell["cell"])
    if record is None:
        return "no pinned output"
    for key in ("cycles", "committed", "windows"):
        if key in record and record[key] != cell[key]:
            return f"{key} {cell[key]} != pinned {record[key]}"
    for key in ("ipc", "ci95"):
        if key in record and not _same(float(record[key]), float(cell[key])):
            return f"{key} {cell[key]!r} != pinned {record[key]!r}"
    return None


def sampling_error(cells: List[Dict], entry: Optional[Dict]) -> Dict[str, float]:
    """Sampling error of the cells' IPC against the exact full-detail IPC.

    ``ipc_err_pct``: mean |sampled - exact| / exact; ``ci95_pct``: mean
    CI half-width / IPC.  Their never-zero forms for the end-to-end
    metrics, both 100 for an exact cell: ``ipc_accuracy_pct``, the mean
    smaller-over-larger ratio of sampled and exact IPC, and
    ``ci95_tightness_pct``, the mean IPC / (IPC + CI half-width).
    Sampled cells without an exact reference are skipped.
    """
    exact = (entry or {}).get("exact_ipc", {})
    rows = []
    for cell in cells:
        if cell["error"] is not None:
            continue
        if not cell["sampled"]:
            rows.append((0.0, 0.0, 100.0, 100.0))
            continue
        if cell["cell"] not in exact:
            continue
        truth, ipc, ci95 = float(exact[cell["cell"]]), cell["ipc"], cell["ci95"]
        rows.append(
            (
                100.0 * abs(ipc - truth) / truth,
                100.0 * ci95 / ipc,
                100.0 * min(ipc, truth) / max(ipc, truth),
                100.0 * ipc / (ipc + ci95),
            )
        )
    names = ("ipc_err_pct", "ci95_pct", "ipc_accuracy_pct", "ci95_tightness_pct")
    if not rows:
        return dict(zip(names, (0.0, 0.0, 100.0, 100.0)))
    return {name: sum(column) / len(rows) for name, column in zip(names, zip(*rows))}

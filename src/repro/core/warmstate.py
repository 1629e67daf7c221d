"""Warm-state snapshots for sampled execution.

Sampled simulation alternates functional fast-forward with detailed
windows.  The functional pass evolves long-lived microarchitectural
state — cache tags/LRU/dirty bits, the prefetcher table, the branch
predictor and BTB — and every detailed window adopts that state at its
boundary.  This module turns those boundary states into first-class,
serializable *snapshots*:

* :func:`capture_warm_state` / :func:`restore_warm_state` snapshot and
  rebuild the warm structures (each structure implements
  ``warm_state()``/``load_warm_state()``);
* :func:`checkpoint_key` derives the sha256 identity of a whole warm
  pass from ``(trace digest, sampling plan, warm-relevant parameters,
  simulator version)``;
* :func:`load_matching_checkpoint` / :func:`store_checkpoint` read and
  write keyed ``<key>.warm.gz`` files in a checkpoint directory.

The key deliberately covers only the parameters that *shape* warm state:
cache geometry, prefetcher kind/degree, perfect-memory flags, predictor
kind/sizes.  ROB/queue/checkpoint/SLIQ sizes and memory/branch latencies
change how a window executes but not what state it starts from, so an
N-machine sweep over those knobs shares one warm pass — the checkpoint
is computed once and adopted N times.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..branch import BranchTargetBuffer, build_predictor
from ..common import eviction
from ..common.config import ProcessorConfig, SamplingPlan
from ..common.errors import TraceError
from ..common.stats import StatsRegistry
from ..memory.hierarchy import CacheHierarchy
from ..trace.io import CHECKPOINT_SUFFIX, WarmCheckpoint, load_checkpoint, save_checkpoint

#: Hierarchy knobs that change window *timing* but not warm contents.
_TIMING_ONLY_MEMORY_FIELDS = ("memory_latency", "memory_ports")


def warm_parameters(effective: ProcessorConfig) -> Dict[str, Any]:
    """The config parameters that determine functional warm state.

    ``effective`` must already be the machine's *effective* config
    (:meth:`PipelineBase.effective_config` applied), so variant machines
    that force hierarchy flags — perfect-l2, unbounded-rob — key on what
    they actually warm.  Cache latencies are kept: they are part of each
    level's identity in config hashing and cost nothing in sharing
    (sweeps vary ``memory_latency``, which is excluded).
    """
    memory = dataclasses.asdict(effective.memory)
    for name in _TIMING_ONLY_MEMORY_FIELDS:
        memory.pop(name, None)
    branch = {
        "kind": effective.branch.kind,
        "history_entries": effective.branch.history_entries,
        "btb_entries": effective.branch.btb_entries,
        "perfect": effective.branch.perfect,
    }
    return {"memory": memory, "branch": branch}


def checkpoint_key(
    trace_digest: str,
    plan: SamplingPlan,
    effective: ProcessorConfig,
    simulator_version: Optional[str] = None,
) -> str:
    """sha256 identity of the warm pass ``(trace, plan, params, version)``.

    Two runs share a checkpoint iff this key matches: same instruction
    sequence, same window schedule, same warm-relevant parameters, same
    simulator semantics (the package version is bumped whenever the
    functional models change).
    """
    if simulator_version is None:
        from .. import __version__ as simulator_version
    blob = json.dumps(
        {
            "trace": trace_digest,
            "plan": plan.to_dict(),
            "params": warm_parameters(effective),
            "simulator": simulator_version,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build_warm_structures(
    effective: ProcessorConfig, stats: StatsRegistry
) -> Tuple[CacheHierarchy, Any, BranchTargetBuffer]:
    """Fresh hierarchy/predictor/BTB in the order the sampled driver uses.

    The construction order matters for statistics-registration parity
    between serial and parallel sampled runs, so both build through this
    one helper.
    """
    hierarchy = CacheHierarchy(effective.memory, stats)
    predictor = build_predictor(effective.branch, stats)
    btb = BranchTargetBuffer(effective.branch, stats)
    return hierarchy, predictor, btb


def capture_warm_state(hierarchy: CacheHierarchy, predictor, btb: BranchTargetBuffer) -> Dict[str, Any]:
    """JSON-safe snapshot of the three warm structures."""
    return {
        "hierarchy": hierarchy.warm_state(),
        "predictor": predictor.warm_state(),
        "btb": btb.warm_state(),
    }


def restore_warm_state(
    snapshot: Dict[str, Any], hierarchy: CacheHierarchy, predictor, btb: BranchTargetBuffer
) -> None:
    """Load a :func:`capture_warm_state` snapshot into fresh structures."""
    hierarchy.load_warm_state(snapshot["hierarchy"])
    state = snapshot.get("predictor")
    if state is not None:
        predictor.load_warm_state(state)
    btb.load_warm_state(snapshot["btb"])


def checkpoint_path(directory: os.PathLike, key: str) -> Path:
    """Location of the checkpoint for ``key`` inside ``directory``."""
    return Path(directory).expanduser() / f"{key}{CHECKPOINT_SUFFIX}"


def load_matching_checkpoint(directory: os.PathLike, key: str) -> Optional[WarmCheckpoint]:
    """The checkpoint for ``key``, or None on any miss.

    A missing file, a corrupt/truncated/foreign file, or a file whose
    *content* key disagrees with its name all miss (corrupt files are
    renamed aside so they cannot mask the slot) — warm state is never
    adopted from a checkpoint that does not match the requested key.
    A match refreshes the file's mtime, so ``repro checkpoint gc``
    (:func:`repro.common.eviction.evict_lru`) keeps checkpoints that
    are in use and evicts the ones that are not.
    """
    path = checkpoint_path(directory, key)
    if not path.exists():
        return None
    try:
        checkpoint = load_checkpoint(path)
    except TraceError:
        quarantined = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:
            pass
        return None
    if checkpoint.key != key:
        return None
    eviction.touch(path)
    return checkpoint


def store_checkpoint(directory: os.PathLike, checkpoint: WarmCheckpoint) -> Path:
    """Write ``checkpoint`` into ``directory`` under its key."""
    return save_checkpoint(checkpoint, checkpoint_path(directory, checkpoint.key))

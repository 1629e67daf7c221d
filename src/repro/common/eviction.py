"""LRU eviction for the warm-state checkpoint directory.

The sampled driver's warm-state checkpoints (``<key>.warm.gz``) live in
a flat directory of content-addressed files.  This module gives it a
size-cap policy: keep the most recently *used* entries, evict the rest.
"Used" is the file's mtime: a write sets it and every matching load
(:func:`repro.core.warmstate.load_matching_checkpoint`) refreshes it
(``os.utime``), so recency survives process restarts the way an
in-memory LRU cannot.  ``repro checkpoint gc`` applies the cap; sampled
runs never evict, and the sweep ``ResultCache`` is unbounded and does
not use this module.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Tuple


def directory_size(directory: os.PathLike, suffix: str) -> int:
    """Total bytes of the ``suffix`` entries in ``directory`` (0 if absent)."""
    total = 0
    for path in _entries(directory, suffix):
        try:
            total += path.stat().st_size
        except OSError:
            continue
    return total


def touch(path: os.PathLike) -> None:
    """Refresh a store entry's recency (best-effort; races are harmless)."""
    try:
        os.utime(path, None)
    except OSError:
        pass


def evict_lru(directory: os.PathLike, max_bytes: int, suffix: str) -> Tuple[int, int]:
    """Delete oldest-mtime ``suffix`` files until the store fits ``max_bytes``.

    Returns ``(files_removed, bytes_freed)``.  A missing directory
    removes nothing.  Races with concurrent writers are tolerated: a
    file that disappears mid-scan is simply skipped, and a store
    momentarily over budget is trimmed on the next call.
    """
    entries: List[Tuple[float, int, Path]] = []
    for path in _entries(directory, suffix):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((stat.st_mtime, stat.st_size, path))
    total = sum(size for _mtime, size, _path in entries)
    if total <= max_bytes:
        return 0, 0
    removed = 0
    freed = 0
    for _mtime, size, path in sorted(entries):
        if total <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        freed += size
        removed += 1
    return removed, freed


def _entries(directory: os.PathLike, suffix: str) -> List[Path]:
    root = Path(directory).expanduser()
    if not root.is_dir():
        return []
    return [path for path in root.iterdir() if path.name.endswith(suffix) and path.is_file()]

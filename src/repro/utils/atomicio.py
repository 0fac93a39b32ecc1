"""Atomic (tmp + ``os.replace``) file writes for durable directories.

Every durable artifact in this repo — job records, progress mirrors,
result/checkpoint archives, telemetry dumps — must be written so that a
concurrent reader in another process never sees a torn file and a crash
mid-write leaves the previous version intact.  The recipe is always the
same: write the full payload to a sibling ``*.tmp`` file, then
``os.replace`` it over the destination (atomic on POSIX within one
filesystem).

This module is the single blessed implementation of that recipe; the
``atomic-write`` rule of :mod:`repro.analysis` flags durable-directory
writes that bypass it.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional, Union

__all__ = ["atomic_output", "atomic_write_text", "atomic_write_json"]


@contextmanager
def atomic_output(path: Union[str, Path]) -> Iterator[Path]:
    """Yield a temporary sibling of ``path``; publish it atomically.

    The caller writes the complete payload to the yielded tmp path; on
    clean exit the tmp file is ``os.replace``-d over ``path``, on error
    it is removed and ``path`` is left untouched::

        with atomic_output(directory / "result.npz") as tmp:
            with open(tmp, "wb") as fh:
                np.savez(fh, **payload)
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` via tmp + rename."""
    with atomic_output(path) as tmp:
        tmp.write_text(text)


def atomic_write_json(
    path: Union[str, Path],
    payload: Any,
    *,
    indent: Optional[int] = None,
    sort_keys: bool = False,
) -> None:
    """Serialize ``payload`` as JSON (newline-terminated) atomically."""
    atomic_write_text(
        path, json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    )

"""Test-side reference implementations.

``ReferenceBufferExecutor`` re-implements the BufferExchange/AllReduce
semantics in ~30 independent lines so the engine and the planners can be
checked against a second, simpler interpretation of the same schedule.

``result_fingerprint`` / ``assert_results_identical`` are the shared
vocabulary of the streaming parity suite (``tests/data``) and the golden
regression suite (``tests/golden``): a reconstruction is reduced to
SHA-256 digests of its exact bytes plus its traffic counters, so "these
two runs are identical" and "this run still matches the committed
golden" are literally the same comparison.

``deflate_archive`` rewrites an archive in the deflated format every
archive had before the writer switched to stored members, so the
legacy-load and upgrade-path tests can build old archives on demand.
"""

from __future__ import annotations

import hashlib
import zipfile
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core.decomposition import Decomposition
from repro.core.reconstructor import ReconstructionResult
from repro.schedule.ops import (
    AllReduceGradient,
    Barrier,
    BufferExchange,
    Schedule,
)


def array_sha256(array: np.ndarray) -> str:
    """SHA-256 of an array's exact bytes, prefixed with dtype/shape so
    a reshaped or recast array never collides with the original."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(f"{array.dtype.str}:{array.shape}:".encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def zip_compress_types(path: Path) -> set:
    """The set of zip compression methods used by an archive's members."""
    with zipfile.ZipFile(path) as archive:
        return {info.compress_type for info in archive.infolist()}


def deflate_archive(path: Path) -> None:
    """Rewrite an ``.npz`` archive in place with every member deflated,
    as ``np.savez_compressed`` wrote archives before they were stored."""
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    np.savez_compressed(path, **members)
    assert zip_compress_types(path) == {zipfile.ZIP_DEFLATED}


def result_fingerprint(result: ReconstructionResult) -> Dict[str, object]:
    """Bit-exact identity of a reconstruction: volume/history digests
    plus the communication counters (peak memory deliberately excluded —
    it measures *where bytes live*, which streaming exists to change)."""
    fp = {
        "volume_sha256": array_sha256(result.volume),
        "history_sha256": array_sha256(
            np.asarray(result.history, dtype=np.float64)
        ),
        "messages": int(result.messages),
        "message_bytes": int(result.message_bytes),
        "n_iterations": int(result.n_iterations),
    }
    if result.probe is not None:
        fp["probe_sha256"] = array_sha256(result.probe)
    return fp


def assert_results_identical(
    reference: ReconstructionResult, candidate: ReconstructionResult
) -> None:
    """Assert two reconstructions are fingerprint-identical, with an
    array-level diff on failure (far more debuggable than hash text)."""
    np.testing.assert_array_equal(reference.volume, candidate.volume)
    assert reference.history == candidate.history
    fp_ref = result_fingerprint(reference)
    fp_new = result_fingerprint(candidate)
    assert fp_ref == fp_new


class ReferenceBufferExecutor:
    """Minimal add/replace interpreter over per-rank buffers.

    Implements the same snapshot semantics as the engine for
    direct-neighbour exchanges (tag ``TAG_NEIGHBOR``): pairwise symmetric
    adds must read pre-exchange values.
    """

    def __init__(self, decomp: Decomposition, buffers: List[np.ndarray]) -> None:
        if len(buffers) != decomp.n_ranks:
            raise ValueError("one buffer per rank required")
        self.decomp = decomp
        self.buffers = buffers

    def run(self, schedule: Schedule) -> None:
        from repro.core.passes import TAG_NEIGHBOR

        snapshots: Dict[int, np.ndarray] = {}
        for op in schedule:
            if isinstance(op, BufferExchange):
                src_t = self.decomp.tile(op.src)
                dst_t = self.decomp.tile(op.dst)
                s = op.region.slices_in(src_t.ext)
                d = op.region.slices_in(dst_t.ext)
                if op.tag == TAG_NEIGHBOR:
                    if op.src not in snapshots:
                        snapshots[op.src] = self.buffers[op.src].copy()
                    if op.dst not in snapshots:
                        snapshots[op.dst] = self.buffers[op.dst].copy()
                    source = snapshots[op.src]
                else:
                    source = self.buffers[op.src]
                payload = source[(Ellipsis, *s)].copy()
                if op.mode == "add":
                    self.buffers[op.dst][(Ellipsis, *d)] += payload
                else:
                    self.buffers[op.dst][(Ellipsis, *d)] = payload
            elif isinstance(op, AllReduceGradient):
                total = self.global_sum()
                for rank, tile in enumerate(self.decomp.tiles):
                    sl = tile.ext.slices_in(self.decomp.bounds)
                    self.buffers[rank][...] = total[(Ellipsis, *sl)]
            elif isinstance(op, Barrier):
                continue
            else:
                raise TypeError(f"unsupported op {type(op).__name__}")

    def global_sum(self) -> np.ndarray:
        """Sum of all buffers scattered into the full image frame."""
        bounds = self.decomp.bounds
        lead = self.buffers[0].shape[:-2]
        total = np.zeros(
            (*lead, bounds.height, bounds.width), dtype=self.buffers[0].dtype
        )
        for rank, tile in enumerate(self.decomp.tiles):
            sl = tile.ext.slices_in(bounds)
            total[(Ellipsis, *sl)] += self.buffers[rank]
        return total


def random_buffers(
    decomp: Decomposition, rng: np.random.Generator, lead: tuple = ()
) -> List[np.ndarray]:
    """One random buffer per rank, shaped to its extended tile."""
    return [
        rng.normal(size=(*lead, t.ext.height, t.ext.width))
        for t in decomp.tiles
    ]

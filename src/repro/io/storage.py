"""Persistence for acquisitions and reconstructions.

Single-file stored (uncompressed) ``.npz`` archives:

* **datasets** — measured amplitudes, probe wavefunction, the full
  :class:`~repro.physics.dataset.DatasetSpec` (as JSON), and optionally the
  ground-truth volume.  ``load_dataset`` reconstructs a fully functional
  :class:`PtychoDataset` (scan geometry is derived from the spec, so the
  archive stays compact).
* **results** — stitched volume, cost history, refined probe (if any),
  run metadata, and (when provided) the resolved
  :class:`~repro.api.config.ReconstructionConfig` that produced the run,
  so any archive can be replayed bit-for-bit.  Together with the
  reconstructors' ``initial_volume`` parameter this gives
  checkpoint/restart.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, List, Mapping, Optional, Union

import numpy as np

from repro.core.reconstructor import ReconstructionResult
from repro.utils.atomicio import atomic_output

if TYPE_CHECKING:  # pragma: no cover
    # Imported lazily at runtime: repro.api.events imports this module,
    # so a module-level import here would be circular.
    from repro.api.config import ReconstructionConfig
from repro.physics.dataset import DatasetSpec, PtychoDataset
from repro.physics.probe import Probe
from repro.physics.scan import RasterScan

__all__ = [
    "save_dataset",
    "load_dataset",
    "save_result",
    "load_result",
    "ResultArchive",
]

_FORMAT_VERSION = 1


def _savez_atomic(path: Path, payload: Mapping[str, Any]) -> Path:
    """Stored (uncompressed) npz write via tmp + ``os.replace``.

    Members are written ``ZIP_STORED``: on benchmark-sized archives
    deflate saves only 15-26 % of the bytes of these complex/float
    arrays, at 24-46x the write time.  ``np.load`` reads deflated
    archives too, so archives written before the switch still load.

    Archives land in durable directories (service job dirs, checkpoint
    dirs); a crash mid-``savez`` must never leave a torn ``.npz`` that
    recovery later tries to consolidate.  Mirrors numpy's convention of
    appending ``.npz`` to suffix-less paths, and returns the path the
    archive actually landed at.
    """
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    with atomic_output(path) as tmp:
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
    return path


def _spec_to_json(spec: DatasetSpec) -> str:
    return json.dumps(dataclasses.asdict(spec))


def _spec_from_json(payload: str) -> DatasetSpec:
    raw = json.loads(payload)
    raw["scan_grid"] = tuple(raw["scan_grid"])
    raw["object_shape"] = tuple(raw["object_shape"])
    return DatasetSpec(**raw)


# ----------------------------------------------------------------------
# Datasets
# ----------------------------------------------------------------------
def save_dataset(
    path: Union[str, Path],
    dataset: PtychoDataset,
    include_ground_truth: bool = True,
) -> Path:
    """Write ``dataset`` to a stored (uncompressed) npz archive; returns
    the path."""
    path = Path(path)
    payload = {
        "format_version": np.array(_FORMAT_VERSION),
        "kind": np.array("dataset"),
        "spec_json": np.array(_spec_to_json(dataset.spec)),
        "amplitudes": dataset.amplitudes,
        "probe": dataset.probe.array,
    }
    if include_ground_truth and dataset.ground_truth is not None:
        payload["ground_truth"] = dataset.ground_truth
    return _savez_atomic(path, payload)


def load_dataset(path: Union[str, Path]) -> PtychoDataset:
    """Read an acquisition archive written by :func:`save_dataset`."""
    with np.load(Path(path), allow_pickle=False) as archive:
        _check_kind(archive, "dataset", path)
        spec = _spec_from_json(str(archive["spec_json"]))
        amplitudes = archive["amplitudes"]
        probe_array = archive["probe"]
        ground_truth = (
            archive["ground_truth"] if "ground_truth" in archive else None
        )
    scan = RasterScan(spec.scan_spec(), probe_window_px=spec.detector_px)
    if amplitudes.shape[0] != scan.n_positions:
        raise ValueError(
            f"archive holds {amplitudes.shape[0]} measurements but the spec "
            f"describes {scan.n_positions} probe locations"
        )
    return PtychoDataset(
        spec=spec,
        probe=Probe(array=probe_array, spec=spec.probe_spec),
        scan=scan,
        amplitudes=amplitudes,
        ground_truth=ground_truth,
    )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class ResultArchive:
    """A reconstruction loaded from disk (decomposition geometry is not
    persisted — only what a downstream consumer needs)."""

    volume: np.ndarray
    history: List[float]
    messages: int
    message_bytes: int
    peak_memory_per_rank: List[int]
    n_ranks: int
    #: Refined probe estimate, when the run refined one.  Shape is the
    #: discriminator: ``(w, w)`` is a scalar (single-mode) probe —
    #: every legacy archive — and ``(M, w, w)`` is a mixed-state mode
    #: stack.  npz stores shapes exactly, so the two never collide and
    #: a resumed mixed-state run gets its stack back bit for bit.
    probe: Optional[np.ndarray] = None
    #: The resolved config the run was produced from, when the writer
    #: embedded one (``save_result(..., config=...)``); replay it with
    #: ``repro.reconstruct(dataset, archive.config)``.
    config: Optional["ReconstructionConfig"] = None
    #: Aggregated telemetry summary (``Telemetry.summary()``), when the
    #: archived run was traced; ``repro stats archive.npz`` reads it.
    telemetry: Optional[Mapping[str, Any]] = None

    @property
    def final_cost(self) -> float:
        """Last recorded sweep cost."""
        return self.history[-1] if self.history else float("nan")

    @property
    def n_iterations(self) -> int:
        """Iterations the archived run performed (mirrors
        :attr:`ReconstructionResult.n_iterations`, so archives and live
        results fingerprint interchangeably)."""
        return len(self.history)


def save_result(
    path: Union[str, Path],
    result: Union[ReconstructionResult, ResultArchive],
    config: Optional[Union["ReconstructionConfig", Mapping[str, Any]]] = None,
) -> Path:
    """Write a :class:`ReconstructionResult` (or a loaded
    :class:`ResultArchive`) to a stored (uncompressed) npz archive.

    ``config`` (a :class:`~repro.api.config.ReconstructionConfig` or its
    ``to_dict`` form) is embedded as JSON for provenance/replay.
    """
    path = Path(path)
    payload = {
        "format_version": np.array(_FORMAT_VERSION),
        "kind": np.array("result"),
        "volume": result.volume,
        "history": np.asarray(result.history, dtype=np.float64),
        "messages": np.array(result.messages, dtype=np.int64),
        "message_bytes": np.array(result.message_bytes, dtype=np.int64),
        "peak_memory_per_rank": np.asarray(
            result.peak_memory_per_rank, dtype=np.int64
        ),
        "n_ranks": np.array(result.n_ranks, dtype=np.int64),
    }
    if result.probe is not None:
        payload["probe"] = result.probe
    if config is not None:
        from repro.api.config import ReconstructionConfig

        if not isinstance(config, ReconstructionConfig):
            config = ReconstructionConfig.from_dict(config)
        payload["config_json"] = np.array(config.to_json())
    if getattr(result, "telemetry", None) is not None:
        payload["telemetry_json"] = np.array(
            json.dumps(result.telemetry, sort_keys=True)
        )
    return _savez_atomic(path, payload)


def load_result(path: Union[str, Path]) -> ResultArchive:
    """Read a reconstruction archive written by :func:`save_result`."""
    from repro.api.config import ReconstructionConfig

    with np.load(Path(path), allow_pickle=False) as archive:
        _check_kind(archive, "result", path)
        return ResultArchive(
            volume=archive["volume"],
            history=[float(x) for x in archive["history"]],
            messages=int(archive["messages"]),
            message_bytes=int(archive["message_bytes"]),
            peak_memory_per_rank=[
                int(x) for x in archive["peak_memory_per_rank"]
            ],
            n_ranks=int(archive["n_ranks"]),
            probe=archive["probe"] if "probe" in archive else None,
            config=(
                ReconstructionConfig.from_json(str(archive["config_json"]))
                if "config_json" in archive
                else None
            ),
            telemetry=(
                json.loads(str(archive["telemetry_json"]))
                if "telemetry_json" in archive
                else None
            ),
        )


def _check_kind(archive, expected: str, path) -> None:
    if "kind" not in archive:
        raise ValueError(f"{path} is not a repro archive")
    kind = str(archive["kind"])
    if kind != expected:
        raise ValueError(f"{path} holds a {kind!r} archive, not {expected!r}")
    version = int(archive["format_version"])
    if version > _FORMAT_VERSION:
        raise ValueError(
            f"{path} uses format v{version}; this build reads <= v{_FORMAT_VERSION}"
        )

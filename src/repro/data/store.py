"""Diffraction-measurement stores: where ``|y_i|`` lives during a run.

The numeric engine historically materialized every measured amplitude in
RAM (the ``(N, det, det)`` stack of :class:`~repro.physics.dataset.
PtychoDataset`).  That is exactly what the paper's memory-efficiency
argument says must *not* happen at scale — Table I's large acquisition is
70 GB of measurements before a single voxel is allocated.  A
:class:`DiffractionStore` abstracts the measurement source so the engine
reads amplitudes on demand:

* :class:`InMemoryStore` — the reference: zero-copy views into an
  in-RAM stack.  The engine's default; bit-identical to the historical
  behaviour (including its per-rank measurement-shard byte accounting).
* :class:`ChunkedNpzStore` — write-once, chunked, single-file on-disk
  store (an uncompressed zip of ``.npy`` chunk members plus a JSON
  header).  Reads copy frames straight out of one read-only mapping of
  the file; each chunk's CRC-32 is checked on its first touch.
* :class:`Hdf5Store` — the same layout on HDF5 chunked datasets, for
  interoperability with beamline pipelines.  Import-guarded: registered
  always, usable only where ``h5py`` is installed.

``open_store`` resolves the ``data_source`` spelling used by configs and
the CLI (``None``/``"memory"`` → in-memory; a path → on-disk, dispatched
on extension) — mirroring how backend/executor names resolve through
their registries.

All stores return amplitudes at *storage* dtype (``float16`` for the
simulated acquisitions); precision conversion stays in the compute
layer, so swapping stores can never change numerics — the invariant the
parity suite in ``tests/data`` pins.
"""

from __future__ import annotations

import json
import mmap
import struct
import threading
import zipfile
import zlib
from abc import ABC, abstractmethod
from pathlib import Path
from typing import (
    IO,
    TYPE_CHECKING,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.physics.dataset import PtychoDataset

__all__ = [
    "DiffractionStore",
    "InMemoryStore",
    "ChunkedNpzStore",
    "Hdf5Store",
    "StoreFormatError",
    "StoreUnavailableError",
    "open_store",
    "write_store",
]

#: Zip member holding the chunked-store header.
_META_MEMBER = "store_meta.json"
_STORE_KIND = "repro-diffraction-store"
_STORE_VERSION = 1
#: Default probes per on-disk chunk (write side).
DEFAULT_CHUNK_SIZE = 64
#: Chunks an on-disk store declares resident per rank (current + next)
#: — the read window the memory tracker accounts.
DEFAULT_CACHE_CHUNKS = 2
#: Zip local file header: signature ... name length, extra length.
_LOCAL_HEADER = struct.Struct("<4s22xHH")
_LOCAL_HEADER_SIGNATURE = b"PK\x03\x04"

_HDF5_SUFFIXES = (".h5", ".hdf5")


class StoreFormatError(ValueError):
    """Raised when a file is not (or is an incompatible version of) a
    diffraction store."""


class StoreUnavailableError(RuntimeError):
    """Raised when a store format needs an optional dependency that is
    not installed here (mirrors
    :class:`repro.backend.BackendUnavailableError`)."""


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class DiffractionStore(ABC):
    """One measurement source: indexed reads of ``|y_i|`` amplitudes.

    Reads return arrays at the store's native dtype; callers convert to
    compute precision (exactly as they did for the in-RAM stack, which
    keeps every store swap numerics-neutral).
    """

    @property
    @abstractmethod
    def n_probes(self) -> int:
        """Number of stored probe positions."""

    @property
    @abstractmethod
    def detector_px(self) -> int:
        """Side length of each stored amplitude frame."""

    @property
    @abstractmethod
    def dtype(self) -> np.dtype:
        """Native storage dtype of the amplitudes."""

    @abstractmethod
    def read(self, index: int) -> np.ndarray:
        """The ``(det, det)`` amplitude frame of probe ``index``."""

    def read_batch(self, indices: Sequence[int]) -> np.ndarray:
        """``(B, det, det)`` stack for ``indices`` (gathered reads).

        The default stacks :meth:`read` results; stores override to
        gather the batch in one pass.
        """
        return np.stack([self.read(i) for i in indices])

    def shard_nbytes(self, indices: Sequence[int]) -> int:
        """Resident bytes a rank holding ``indices`` pays this store.

        The in-memory reference pins the whole shard; out-of-core stores
        report their bounded read window instead — the quantity the
        memory tracker records per rank.
        """
        itemsize = self.dtype.itemsize
        return len(indices) * self.detector_px**2 * itemsize

    @property
    def frame_nbytes(self) -> int:
        """Bytes of one stored amplitude frame."""
        return self.detector_px**2 * self.dtype.itemsize

    def close(self) -> None:
        """Release file handles and mappings.  Idempotent."""
        return

    def worker_copy(self) -> "DiffractionStore":
        """A copy safe for a *forked* worker process to read from.

        Fork inherits open file descriptors, so workers sharing the
        parent's handle would race on one seek position; file-backed
        stores override this to open their own handle.  The in-memory
        reference returns itself (fork page-sharing is exactly what it
        wants).  Under ``spawn`` the pickle path already drops handles,
        and this reduces to a cheap reopen.
        """
        return self

    def __enter__(self) -> "DiffractionStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n_probes={self.n_probes}, "
            f"detector_px={self.detector_px}, dtype={self.dtype})"
        )


# ----------------------------------------------------------------------
# In-memory reference
# ----------------------------------------------------------------------
class InMemoryStore(DiffractionStore):
    """Zero-copy views into an in-RAM ``(N, det, det)`` amplitude stack
    — the reference implementation and the engine's default."""

    def __init__(self, amplitudes: np.ndarray) -> None:
        amplitudes = np.asarray(amplitudes)
        if amplitudes.ndim != 3 or amplitudes.shape[1] != amplitudes.shape[2]:
            raise ValueError(
                f"amplitudes must be (N, det, det), got {amplitudes.shape}"
            )
        self._amplitudes = amplitudes

    @property
    def n_probes(self) -> int:
        return self._amplitudes.shape[0]

    @property
    def detector_px(self) -> int:
        return self._amplitudes.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self._amplitudes.dtype

    def read(self, index: int) -> np.ndarray:
        return self._amplitudes[index]

    def read_batch(self, indices: Sequence[int]) -> np.ndarray:
        # Fancy indexing gathers the whole batch in one pass.
        return self._amplitudes[np.asarray(indices, dtype=np.intp)]


# ----------------------------------------------------------------------
# Chunked single-file on-disk store (.npz-style zip)
# ----------------------------------------------------------------------
class ChunkedNpzStore(DiffractionStore):
    """Write-once chunked store in one uncompressed zip file.

    Layout: a JSON header member plus ``chunk_%05d.npy`` members of
    ``chunk_size`` consecutive frames each (the last chunk may be
    ragged).  Members are stored uncompressed, so each chunk's frames
    sit contiguously in the file, and the single-file form travels like
    any ``.npz`` archive.

    Opening parses the zip directory and each chunk's local and ``.npy``
    headers once, recording where its frames start.  The first read
    maps the whole file read-only; :meth:`read_batch` then copies each
    frame out of the mapping into a fresh array — no per-chunk parse, no
    cache, no thread.  The page cache, not this object, holds what was
    read, so the store declares the read window of
    ``DEFAULT_CACHE_CHUNKS`` chunks as its resident bytes.  Each chunk's
    CRC-32 is checked the first time a read touches it.  With
    ``prefetch=True`` the mapping is advised ``MADV_WILLNEED`` (where the
    platform has it) so the kernel reads the file ahead.

    Instances pickle by path — the mapping is dropped and rebuilt on the
    first read — so a store rides an
    :class:`~repro.runtime.executor.EnginePlan` into worker processes,
    each of which then maps the file independently.
    """

    def __init__(
        self, path: Union[str, Path], prefetch: bool = False
    ) -> None:
        self.path = Path(path)
        self.prefetch = bool(prefetch)
        # Serializes reads against close(): close() may unmap only once
        # no read holds a view into the mapping, and _closed makes every
        # later read fail pointedly instead of silently remapping.
        self._io_lock = threading.Lock()
        self._closed = False
        self._map: Optional[mmap.mmap] = None
        self._chunks: List[np.ndarray] = []  # frame views into _map
        self._verified: Set[int] = set()
        self._meta: Dict = {}
        self._members: List[_Member] = []
        self._read_header()

    # -- header --------------------------------------------------------
    def _read_header(self) -> None:
        """Fill ``_meta`` from the JSON header and ``_members`` with
        every chunk's :meth:`_locate_chunk` record."""
        try:
            with open(self.path, "rb") as fh, zipfile.ZipFile(fh) as zf:
                if _META_MEMBER not in zf.namelist():
                    raise StoreFormatError(
                        f"{self.path} is not a chunked diffraction store "
                        f"(missing {_META_MEMBER})"
                    )
                meta = json.loads(zf.read(_META_MEMBER).decode("utf-8"))
                if meta.get("kind") != _STORE_KIND:
                    raise StoreFormatError(
                        f"{self.path} holds {meta.get('kind')!r}, "
                        f"not {_STORE_KIND!r}"
                    )
                if int(meta.get("version", 0)) > _STORE_VERSION:
                    raise StoreFormatError(
                        f"{self.path} uses store format v{meta['version']}; "
                        f"this build reads <= v{_STORE_VERSION}"
                    )
                self._meta = meta
                self._members = [
                    self._locate_chunk(fh, zf, ci)
                    for ci in range(self.n_chunks)
                ]
        except zipfile.BadZipFile as exc:
            raise StoreFormatError(
                f"{self.path} is not a chunked diffraction store: {exc}"
            ) from None

    def _locate_chunk(
        self, fh: IO[bytes], zf: zipfile.ZipFile, ci: int
    ) -> "_Member":
        """Where chunk ``ci``'s member and frames sit in the file, after
        checking its zip and ``.npy`` headers against the store header."""
        name = _chunk_member(ci)
        member = f"{self.path} member {name}"
        try:
            info = zf.getinfo(name)
        except KeyError:
            raise StoreFormatError(f"{member} is missing") from None
        if info.compress_type != zipfile.ZIP_STORED:
            raise StoreFormatError(
                f"{member} is compressed; chunk members must be stored "
                f"uncompressed — rewrite the store with `repro store`"
            )
        fh.seek(info.header_offset)
        local = fh.read(_LOCAL_HEADER.size)
        if len(local) < _LOCAL_HEADER.size:
            raise StoreFormatError(f"{member}: truncated local header")
        signature, name_len, extra_len = _LOCAL_HEADER.unpack(local)
        if signature != _LOCAL_HEADER_SIGNATURE:
            raise StoreFormatError(
                f"{member}: bad local header signature {signature!r}"
            )
        start = info.header_offset + _LOCAL_HEADER.size + name_len + extra_len
        fh.seek(start)
        try:
            version = np.lib.format.read_magic(fh)
            read_header = (
                np.lib.format.read_array_header_1_0
                if version == (1, 0)
                else np.lib.format.read_array_header_2_0
            )
            shape, fortran_order, dtype = read_header(fh)
        except ValueError as exc:
            raise StoreFormatError(
                f"{member} is not a valid .npy array: {exc}"
            ) from None
        rows = min(self.chunk_size, self.n_probes - ci * self.chunk_size)
        expected = (rows, self.detector_px, self.detector_px)
        if fortran_order or dtype != self.dtype or shape != expected:
            order = "Fortran" if fortran_order else "C"
            raise StoreFormatError(
                f"{member} holds a {order}-order {dtype} array of shape "
                f"{shape}; the store header promises a C-order "
                f"{self.dtype} array of shape {expected}"
            )
        frames = fh.tell()
        size = frames - start + rows * self.frame_nbytes
        if size != info.file_size:
            raise StoreFormatError(
                f"{member} is {info.file_size} bytes, not the {size} its "
                f".npy header describes"
            )
        return _Member(start, size, info.CRC, frames, rows)

    # -- protocol ------------------------------------------------------
    @property
    def n_probes(self) -> int:
        return int(self._meta["n_probes"])

    @property
    def detector_px(self) -> int:
        return int(self._meta["detector_px"])

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self._meta["dtype"])

    @property
    def chunk_size(self) -> int:
        """Frames per on-disk chunk (write-time choice)."""
        return int(self._meta["chunk_size"])

    @property
    def n_chunks(self) -> int:
        """Number of on-disk chunks."""
        return -(-self.n_probes // self.chunk_size)

    @property
    def chunk_nbytes(self) -> int:
        """Bytes of one full chunk."""
        return self.chunk_size * self.frame_nbytes

    def shard_nbytes(self, indices: Sequence[int]) -> int:
        """Resident bytes are bounded by the read window, not
        shard-sized — the out-of-core memory win the tracker should
        report."""
        full = super().shard_nbytes(indices)
        return min(full, DEFAULT_CACHE_CHUNKS * self.chunk_nbytes)

    def read(self, index: int) -> np.ndarray:
        return self.read_batch((index,))[0]

    def read_batch(self, indices: Sequence[int]) -> np.ndarray:
        n, per_chunk = self.n_probes, self.chunk_size
        where = []
        for index in indices:
            if not 0 <= index < n:
                raise IndexError(
                    f"probe index {index} out of range [0, {n})"
                )
            where.append(divmod(int(index), per_chunk))
        out = np.empty(
            (len(where), self.detector_px, self.detector_px),
            dtype=self.dtype,
        )
        with self._io_lock:
            # The lock must cover the one-time open+map: a close()
            # between mapping and installing it would leak the mapping.
            # repro-lint: allow[lock-blocking] -- once per handle
            chunks = self._mapped_chunks(where)
            for b, (ci, row) in enumerate(where):
                out[b] = chunks[ci][row]
            # Released under the lock: once close() holds it, it drops
            # the views and unmaps, which raises BufferError while any
            # view is still referenced.
            del chunks
        return out

    # -- mapping -------------------------------------------------------
    def _mapped_chunks(
        self, where: Sequence[Tuple[int, int]]
    ) -> List[np.ndarray]:
        """The per-chunk frame views, mapping the file on first use and
        checking every touched chunk's CRC-32 on its first touch.

        Callers hold ``_io_lock`` and drop the returned list before
        releasing it; nothing here may raise while a view is bound to a
        local, or the traceback would pin the mapping open.
        """
        if self._closed:
            raise ValueError(
                f"store {self.path} is closed; reads after close() are "
                "a lifecycle bug (reopen via worker_copy() if needed)"
            )
        if self._map is None:
            with open(self.path, "rb") as fh:
                mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            if self.prefetch and hasattr(mmap, "MADV_WILLNEED"):
                mapping.madvise(mmap.MADV_WILLNEED)
            det = self.detector_px
            self._chunks = [
                np.frombuffer(
                    mapping, self.dtype, m.rows * det * det, m.frames
                ).reshape(m.rows, det, det)
                for m in self._members
            ]
            self._map = mapping
        for ci, _ in where:
            if ci not in self._verified:
                self._verify(self._map, ci)
        return self._chunks

    def _verify(self, mapping: mmap.mmap, ci: int) -> None:
        member = self._members[ci]
        crc = zlib.crc32(mapping[member.start : member.start + member.size])
        if crc != member.crc:
            raise StoreFormatError(
                f"{self.path} member {_chunk_member(ci)} fails its CRC-32 "
                f"check (directory {member.crc:08x}, data {crc:08x}); the "
                f"file is corrupt"
            )
        self._verified.add(ci)

    # -- lifecycle / pickling ------------------------------------------
    def close(self) -> None:
        # Views dropped and _closed set under the lock: an in-flight
        # read finishes first, and every later read raises instead of
        # remapping the file this call unmaps.
        with self._io_lock:
            self._closed = True
            self._chunks = []
            mapping, self._map = self._map, None
        if mapping is not None:
            mapping.close()

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_map"] = None
        state["_chunks"] = []
        state["_verified"] = set()
        del state["_io_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._io_lock = threading.Lock()

    def worker_copy(self) -> "ChunkedNpzStore":
        return ChunkedNpzStore(self.path, prefetch=self.prefetch)

    # -- writer --------------------------------------------------------
    @classmethod
    def write(
        cls,
        path: Union[str, Path],
        amplitudes: np.ndarray,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Path:
        """Write a chunked store from an ``(N, det, det)`` stack.

        One pass, one chunk in flight — the writer never holds more than
        ``chunk_size`` frames beyond the input itself, so it also serves
        as the streaming sink for simulation pipelines.
        """
        amplitudes = np.asarray(amplitudes)
        if amplitudes.ndim != 3 or amplitudes.shape[1] != amplitudes.shape[2]:
            raise ValueError(
                f"amplitudes must be (N, det, det), got {amplitudes.shape}"
            )
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        path = Path(path)
        n = amplitudes.shape[0]
        meta = {
            "kind": _STORE_KIND,
            "version": _STORE_VERSION,
            "n_probes": int(n),
            "detector_px": int(amplitudes.shape[1]),
            "dtype": amplitudes.dtype.name,
            "chunk_size": int(chunk_size),
        }
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
            zf.writestr(_META_MEMBER, json.dumps(meta, indent=2))
            for ci, start in enumerate(range(0, n, chunk_size)):
                chunk = np.ascontiguousarray(
                    amplitudes[start : start + chunk_size]
                )
                with zf.open(_chunk_member(ci), "w") as member:
                    np.lib.format.write_array(
                        member, chunk, allow_pickle=False
                    )
        return path


def _chunk_member(ci: int) -> str:
    return f"chunk_{ci:05d}.npy"


class _Member(NamedTuple):
    """Byte offsets of one chunk member in a :class:`ChunkedNpzStore`."""

    start: int  # first byte of the member's data (its .npy header)
    size: int  # member bytes, .npy header included
    crc: int  # CRC-32 of those bytes, from the zip directory
    frames: int  # first byte of the frame data
    rows: int  # frames in the chunk


# ----------------------------------------------------------------------
# HDF5 store (optional dependency)
# ----------------------------------------------------------------------
def _h5py():
    try:
        import h5py
    except ImportError:
        raise StoreUnavailableError(
            "the HDF5 diffraction store needs h5py, which is not "
            "installed; use the chunked .npz store instead"
        ) from None
    return h5py


class Hdf5Store(DiffractionStore):
    """Chunked HDF5 store: dataset ``amplitudes`` of shape
    ``(N, det, det)``, chunked ``(chunk_size, det, det)``.

    Same read contract as :class:`ChunkedNpzStore` (HDF5's own chunk
    cache serves repeated reads; ``prefetch`` is accepted and ignored).
    Import-guarded: constructing or writing
    raises :class:`StoreUnavailableError` where ``h5py`` is missing.
    """

    def __init__(self, path: Union[str, Path], prefetch: bool = False) -> None:
        h5py = _h5py()
        self.path = Path(path)
        self.prefetch = bool(prefetch)  # h5py reads are already buffered
        self._file = h5py.File(self.path, "r")
        if "amplitudes" not in self._file:
            self._file.close()
            raise StoreFormatError(
                f"{self.path} has no 'amplitudes' dataset"
            )
        self._ds = self._file["amplitudes"]
        if self._ds.ndim != 3 or self._ds.shape[1] != self._ds.shape[2]:
            self._file.close()
            raise StoreFormatError(
                f"{self.path} amplitudes dataset is {self._ds.shape}, "
                "expected (N, det, det)"
            )

    @classmethod
    def available(cls) -> bool:
        """Whether ``h5py`` is importable here."""
        try:
            _h5py()
        except StoreUnavailableError:
            return False
        return True

    @property
    def n_probes(self) -> int:
        return int(self._ds.shape[0])

    @property
    def detector_px(self) -> int:
        return int(self._ds.shape[1])

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self._ds.dtype)

    def shard_nbytes(self, indices: Sequence[int]) -> int:
        full = super().shard_nbytes(indices)
        chunks = self._ds.chunks
        if chunks is None:  # pragma: no cover - contiguous layout
            return full
        return min(full, DEFAULT_CACHE_CHUNKS * chunks[0] * self.frame_nbytes)

    def read(self, index: int) -> np.ndarray:
        return self._ds[index]

    def read_batch(self, indices: Sequence[int]) -> np.ndarray:
        # h5py fancy selection needs increasing, duplicate-free
        # indices; one selection read + an inverse-permutation scatter
        # beats B scalar dataset reads (per-call HDF5 overhead).
        idx = np.asarray(indices, dtype=np.intp)
        unique, inverse = np.unique(idx, return_inverse=True)
        data = self._ds[unique.tolist()]
        return np.ascontiguousarray(data[inverse])

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
            self._ds = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_file"] = None
        state["_ds"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self.path is not None:
            fresh = Hdf5Store(self.path, prefetch=self.prefetch)
            self._file = fresh._file
            self._ds = fresh._ds

    def worker_copy(self) -> "Hdf5Store":
        return Hdf5Store(self.path, prefetch=self.prefetch)

    @classmethod
    def write(
        cls,
        path: Union[str, Path],
        amplitudes: np.ndarray,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Path:
        """Write an HDF5 store from an ``(N, det, det)`` stack."""
        h5py = _h5py()
        amplitudes = np.asarray(amplitudes)
        if amplitudes.ndim != 3 or amplitudes.shape[1] != amplitudes.shape[2]:
            raise ValueError(
                f"amplitudes must be (N, det, det), got {amplitudes.shape}"
            )
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        path = Path(path)
        chunk = (
            min(chunk_size, amplitudes.shape[0]),
            amplitudes.shape[1],
            amplitudes.shape[2],
        )
        with h5py.File(path, "w") as f:
            f.create_dataset("amplitudes", data=amplitudes, chunks=chunk)
        return path


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
def open_store(
    source: Union[str, Path, DiffractionStore, None],
    dataset: Optional["PtychoDataset"] = None,
    prefetch: bool = False,
) -> Tuple[DiffractionStore, bool]:
    """Resolve a ``data_source`` spelling to a store.

    ``None`` or ``"memory"`` wraps ``dataset.amplitudes`` in the
    in-memory reference (``dataset`` required); a path dispatches on
    extension (``.h5``/``.hdf5`` → HDF5, anything else → chunked zip);
    a store instance passes through untouched (but is still
    geometry-checked against ``dataset`` when one is given).

    Returns ``(store, owned)`` — ``owned`` is True when this call opened
    the store, i.e. the caller is responsible for closing it (instances
    passed through belong to whoever built them).
    """
    if isinstance(source, DiffractionStore):
        if dataset is not None:
            _check_store_matches(source, dataset, source, owned=False)
        return source, False
    if source is None or source == "memory":
        if dataset is None:
            raise ValueError(
                "data_source 'memory' needs a dataset to wrap"
            )
        return InMemoryStore(dataset.amplitudes), True
    path = Path(source)
    if not path.is_file():
        raise ValueError(
            f"data_source {str(source)!r} does not exist (write one "
            f"with repro.data.write_store or the CLI store subcommand)"
        )
    if path.suffix.lower() in _HDF5_SUFFIXES:
        store: DiffractionStore = Hdf5Store(path, prefetch=prefetch)
    else:
        store = ChunkedNpzStore(path, prefetch=prefetch)
    if dataset is not None:
        _check_store_matches(store, dataset, path, owned=True)
    return store, True


def _check_store_matches(
    store: DiffractionStore, dataset: "PtychoDataset", where, owned: bool
) -> None:
    if store.n_probes != dataset.n_probes or (
        store.detector_px != dataset.spec.detector_px
    ):
        if owned:
            store.close()
        raise ValueError(
            f"store {where} holds {store.n_probes} x "
            f"{store.detector_px}px frames but the dataset expects "
            f"{dataset.n_probes} x {dataset.spec.detector_px}px"
        )


def write_store(
    path: Union[str, Path],
    dataset: "PtychoDataset",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    fmt: Optional[str] = None,
) -> Path:
    """Write-once export of a dataset's measurements to an on-disk store.

    ``fmt`` is ``"npz"`` or ``"hdf5"``; ``None`` infers from the path
    extension (``.h5``/``.hdf5`` → HDF5, else chunked zip).  An
    explicit ``fmt`` contradicting the extension is rejected —
    :func:`open_store` dispatches by extension, so a mismatched file
    could be written but never read back.
    """
    extension_fmt = (
        "hdf5" if Path(path).suffix.lower() in _HDF5_SUFFIXES else "npz"
    )
    if fmt is None:
        fmt = extension_fmt
    elif fmt in ("npz", "hdf5") and fmt != extension_fmt:
        raise ValueError(
            f"format {fmt!r} contradicts the {Path(path).suffix!r} "
            f"extension of {path} — open_store dispatches by "
            f"extension, so this store could never be read back; "
            f"rename the file or drop the explicit format"
        )
    if fmt == "hdf5":
        return Hdf5Store.write(path, dataset.amplitudes, chunk_size)
    if fmt == "npz":
        return ChunkedNpzStore.write(path, dataset.amplitudes, chunk_size)
    raise ValueError(f"unknown store format {fmt!r}; choose npz or hdf5")

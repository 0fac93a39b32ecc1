"""Streaming & batched measurement pipeline (see ``store`` module doc).

Public surface:

* stores — :class:`DiffractionStore` protocol, the in-memory reference,
  the chunked on-disk implementations, and :func:`open_store` /
  :func:`write_store` resolution;
* batching — the ``REPRO_BATCH_SIZE`` and ``positions`` resolution
  helpers;
* streaming — the dynamic-acquisition layer: :class:`StreamingStore`
  (appendable store with WAIT/END_OF_SCAN semantics), the
  :class:`WaveSchedule` in which a dataset's own frames arrive (built
  from a config's ``scan_source`` by :func:`build_scan_source`), the
  :class:`StreamFeeder` that pumps its waves into a store, and the
  :class:`StreamPolicy` run knobs.
"""

from repro.data.batching import (
    ENV_BATCH_SIZE,
    default_batch_size,
    resolve_batch_size,
    resolve_positions,
)
from repro.data.store import (
    ChunkedNpzStore,
    DiffractionStore,
    Hdf5Store,
    InMemoryStore,
    StoreFormatError,
    StoreUnavailableError,
    open_store,
    write_store,
)
from repro.data.streaming import (
    ScanWave,
    StreamError,
    StreamFeeder,
    StreamingStore,
    StreamPolicy,
    StreamStatus,
    StreamTimeout,
    WaveSchedule,
    build_scan_source,
)

__all__ = [
    "ChunkedNpzStore",
    "DiffractionStore",
    "ENV_BATCH_SIZE",
    "Hdf5Store",
    "InMemoryStore",
    "ScanWave",
    "StoreFormatError",
    "StoreUnavailableError",
    "StreamError",
    "StreamFeeder",
    "StreamPolicy",
    "StreamStatus",
    "StreamTimeout",
    "StreamingStore",
    "WaveSchedule",
    "build_scan_source",
    "default_batch_size",
    "open_store",
    "resolve_batch_size",
    "resolve_positions",
    "write_store",
]

"""Streaming/batched parity suite.

The acceptance contract of the data pipeline: **no configuration of it
changes numerics**.  Batched execution vs per-position, on-disk store vs
in-memory, serial executor vs process executor — every combination must
be fingerprint-identical (volumes, cost history, message/byte counts) to
the per-position in-memory reference that predates the subsystem.

Fast tier covers each axis once; the ``slow`` marker holds the full
cross-product sweep (run in CI with ``-m slow``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baseline.halo_exchange import HaloExchangeReconstructor
from repro.baseline.serial import SerialReconstructor
from repro.core.reconstructor import GradientDecompositionReconstructor
from repro.data import ENV_BATCH_SIZE, write_store
from tests.helpers import assert_results_identical
from tests.reference.serial import SerialReference

LR = 0.02
ITERS = 3


@pytest.fixture(scope="module")
def store_path(tmp_path_factory, tiny_dataset):
    """A chunked on-disk copy of tiny_dataset's measurements, with a
    chunk size that forces multi-chunk reads and a ragged tail."""
    path = tmp_path_factory.mktemp("parity") / "meas.npz"
    write_store(path, tiny_dataset, chunk_size=4)
    return str(path)


def gd(mode="synchronous", **kw):
    kw.setdefault("n_ranks", 4)
    kw.setdefault("iterations", ITERS)
    kw.setdefault("lr", LR)
    return GradientDecompositionReconstructor(mode=mode, **kw)


@pytest.fixture(scope="module")
def gd_sync_reference(tiny_dataset):
    """Per-position, in-memory, serial — the pre-subsystem behaviour."""
    return gd().reconstruct(tiny_dataset)


class TestBatchedVsPerPosition:
    @pytest.mark.parametrize("batch_size", [2, 3, 64])
    def test_gd_synchronous(
        self, tiny_dataset, gd_sync_reference, batch_size
    ):
        # 2/3 exercise ragged final batches (ranks own 2-3 probes of
        # the 3x3 scan); 64 exceeds every rank's probe count.
        batched = gd(batch_size=batch_size).reconstruct(tiny_dataset)
        assert_results_identical(gd_sync_reference, batched)

    def test_gd_alg1_batching_is_inert(self, tiny_dataset):
        # Alg. 1's local updates are order-dependent; batch_size must
        # leave them untouched rather than change the algorithm.
        reference = gd(mode="alg1").reconstruct(tiny_dataset)
        batched = gd(mode="alg1", batch_size=8).reconstruct(tiny_dataset)
        assert_results_identical(reference, batched)

    def test_gd_refine_probe_batched(self, tiny_dataset):
        reference = gd(refine_probe=True).reconstruct(tiny_dataset)
        batched = gd(refine_probe=True, batch_size=3).reconstruct(
            tiny_dataset
        )
        assert_results_identical(reference, batched)
        np.testing.assert_array_equal(reference.probe, batched.probe)

    @pytest.mark.parametrize("batch_size", [2, 5, 64])
    def test_serial_batch_scheme(self, tiny_dataset, batch_size):
        reference = SerialReference(
            iterations=ITERS, lr=LR
        ).reconstruct(tiny_dataset)
        batched = SerialReconstructor(
            iterations=ITERS, lr=LR, batch_size=batch_size
        ).reconstruct(tiny_dataset)
        assert_results_identical(reference, batched)

    def test_serial_sgd_batching_is_inert(self, tiny_dataset):
        reference = SerialReference(
            iterations=ITERS, lr=LR, scheme="sgd"
        ).reconstruct(tiny_dataset)
        batched = SerialReconstructor(
            iterations=ITERS, lr=LR, scheme="sgd", batch_size=4
        ).reconstruct(tiny_dataset)
        assert_results_identical(reference, batched)

    def test_hve_batching_is_inert(self, tiny_dataset):
        reference = HaloExchangeReconstructor(
            n_ranks=4, iterations=ITERS, lr=LR
        ).reconstruct(tiny_dataset)
        batched = HaloExchangeReconstructor(
            n_ranks=4, iterations=ITERS, lr=LR, batch_size=4
        ).reconstruct(tiny_dataset)
        assert_results_identical(reference, batched)

    def test_env_batch_size_is_parity_safe(
        self, tiny_dataset, gd_sync_reference, monkeypatch
    ):
        # An ambient REPRO_BATCH_SIZE is allowed to change *speed* for
        # every run on the machine precisely because it can never
        # change results.
        monkeypatch.setenv(ENV_BATCH_SIZE, "3")
        ambient = gd().reconstruct(tiny_dataset)
        assert_results_identical(gd_sync_reference, ambient)

    def test_explicit_batch_size_beats_env(
        self, tiny_dataset, monkeypatch
    ):
        # The backend/executor precedence contract: explicit values are
        # never overridden by the environment.
        from repro.core.engine import NumericEngine

        monkeypatch.setenv(ENV_BATCH_SIZE, "7")
        decomp = gd().decompose(tiny_dataset)
        assert NumericEngine(
            tiny_dataset, decomp, lr=LR, batch_size=2
        ).batch_size == 2
        assert NumericEngine(
            tiny_dataset, decomp, lr=LR
        ).batch_size == 7


class TestOnDiskVsInMemory:
    def test_gd_synchronous(
        self, tiny_dataset, gd_sync_reference, store_path
    ):
        streamed = gd(
            data_source=store_path, batch_size=3, prefetch=True
        ).reconstruct(tiny_dataset)
        assert_results_identical(gd_sync_reference, streamed)

    def test_gd_alg1(self, tiny_dataset, store_path):
        reference = gd(mode="alg1").reconstruct(tiny_dataset)
        streamed = gd(mode="alg1", data_source=store_path).reconstruct(
            tiny_dataset
        )
        assert_results_identical(reference, streamed)

    def test_hve(self, tiny_dataset, store_path):
        reference = HaloExchangeReconstructor(
            n_ranks=4, iterations=ITERS, lr=LR
        ).reconstruct(tiny_dataset)
        streamed = HaloExchangeReconstructor(
            n_ranks=4, iterations=ITERS, lr=LR,
            data_source=store_path, prefetch=True,
        ).reconstruct(tiny_dataset)
        assert_results_identical(reference, streamed)

    def test_serial(self, tiny_dataset, store_path):
        reference = SerialReference(
            iterations=ITERS, lr=LR
        ).reconstruct(tiny_dataset)
        streamed = SerialReconstructor(
            iterations=ITERS, lr=LR,
            data_source=store_path, batch_size=4,
        ).reconstruct(tiny_dataset)
        assert_results_identical(reference, streamed)

    def test_streaming_shrinks_measured_memory(
        self, tiny_dataset, store_path
    ):
        # Same numerics (asserted elsewhere) but the measurement shard
        # no longer sits in the peak: the serial solver pins all 9
        # frames in-memory, while the chunked store is accounted at its
        # bounded cache (2 chunks x 4 frames < 9 frames).
        pinned = SerialReconstructor(
            iterations=1, lr=LR
        ).reconstruct(tiny_dataset)
        streamed = SerialReconstructor(
            iterations=1, lr=LR, data_source=store_path
        ).reconstruct(tiny_dataset)
        assert streamed.peak_memory_mean < pinned.peak_memory_mean


class TestProcessExecutorParity:
    def test_gd_batched_ondisk_under_process(
        self, tiny_dataset, gd_sync_reference, store_path
    ):
        streamed = gd(
            data_source=store_path,
            batch_size=3,
            executor="process",
            runtime_workers=2,
        ).reconstruct(tiny_dataset)
        assert_results_identical(gd_sync_reference, streamed)

    def test_store_instance_under_process_forks_safely(
        self, tiny_dataset, gd_sync_reference, store_path
    ):
        # A caller-supplied *instance* with an open handle: forked
        # workers must re-open their own (worker_copy), never share
        # the parent's file descriptor.
        from repro.data import ChunkedNpzStore

        store = ChunkedNpzStore(store_path)
        store.read(0)  # open the parent-side handle
        try:
            streamed = gd(
                data_source=store,
                batch_size=2,
                executor="process",
                runtime_workers=2,
            ).reconstruct(tiny_dataset)
        finally:
            store.close()
        assert_results_identical(gd_sync_reference, streamed)

    @pytest.mark.slow
    @pytest.mark.parametrize("batch_size", [1, 2, 64])
    @pytest.mark.parametrize("data_source", ["memory", "store"])
    def test_gd_sweep_under_process(
        self,
        tiny_dataset,
        gd_sync_reference,
        store_path,
        batch_size,
        data_source,
    ):
        streamed = gd(
            data_source=(
                store_path if data_source == "store" else None
            ),
            batch_size=batch_size,
            executor="process",
            runtime_workers=2,
        ).reconstruct(tiny_dataset)
        assert_results_identical(gd_sync_reference, streamed)

    @pytest.mark.slow
    def test_hve_ondisk_under_process(self, tiny_dataset, store_path):
        reference = HaloExchangeReconstructor(
            n_ranks=4, iterations=ITERS, lr=LR
        ).reconstruct(tiny_dataset)
        streamed = HaloExchangeReconstructor(
            n_ranks=4, iterations=ITERS, lr=LR,
            data_source=store_path,
            executor="process", runtime_workers=2,
        ).reconstruct(tiny_dataset)
        assert_results_identical(reference, streamed)

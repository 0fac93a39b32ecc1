"""Unit tests for the diffraction stores (see tests/README.md)."""

from __future__ import annotations

import io
import pickle
import struct
import threading
import zipfile

import numpy as np
import pytest

from repro.data import (
    ChunkedNpzStore,
    Hdf5Store,
    InMemoryStore,
    StoreFormatError,
    StoreUnavailableError,
    open_store,
    write_store,
)


@pytest.fixture(scope="module")
def amplitudes(tiny_dataset):
    return np.asarray(tiny_dataset.amplitudes)


@pytest.fixture()
def store_path(tmp_path, amplitudes):
    path = tmp_path / "meas.npz"
    ChunkedNpzStore.write(path, amplitudes, chunk_size=4)
    return path


class TestInMemoryStore:
    def test_reads_are_views(self, amplitudes):
        store = InMemoryStore(amplitudes)
        assert store.n_probes == amplitudes.shape[0]
        assert store.detector_px == amplitudes.shape[1]
        assert store.dtype == amplitudes.dtype
        frame = store.read(3)
        assert frame.base is not None  # a view, not a copy
        np.testing.assert_array_equal(frame, amplitudes[3])

    def test_read_batch_gathers(self, amplitudes):
        store = InMemoryStore(amplitudes)
        batch = store.read_batch([4, 0, 2])
        np.testing.assert_array_equal(batch, amplitudes[[4, 0, 2]])

    def test_shard_nbytes_matches_pinned_stack(self, amplitudes):
        store = InMemoryStore(amplitudes)
        n = amplitudes.shape[0]
        assert store.shard_nbytes(range(n)) == amplitudes.nbytes

    def test_rejects_non_stack(self):
        with pytest.raises(ValueError, match=r"\(N, det, det\)"):
            InMemoryStore(np.zeros((4, 8, 9), dtype=np.float16))
        with pytest.raises(ValueError, match=r"\(N, det, det\)"):
            InMemoryStore(np.zeros((8, 8), dtype=np.float16))


class TestChunkedNpzStore:
    def test_roundtrip_every_frame(self, store_path, amplitudes):
        with ChunkedNpzStore(store_path) as store:
            assert store.n_probes == amplitudes.shape[0]
            assert store.dtype == amplitudes.dtype
            assert store.chunk_size == 4
            for i in range(store.n_probes):
                np.testing.assert_array_equal(
                    store.read(i), amplitudes[i]
                )

    def test_ragged_final_chunk(self, tmp_path, amplitudes):
        # 9 probes in chunks of 4 -> chunks of 4, 4, 1.
        assert amplitudes.shape[0] == 9
        path = tmp_path / "ragged.npz"
        ChunkedNpzStore.write(path, amplitudes, chunk_size=4)
        with ChunkedNpzStore(path) as store:
            assert store.n_chunks == 3
            np.testing.assert_array_equal(store.read(8), amplitudes[8])

    def test_read_batch_matches_stack(self, store_path, amplitudes):
        with ChunkedNpzStore(store_path) as store:
            batch = store.read_batch([7, 1, 5])
            np.testing.assert_array_equal(batch, amplitudes[[7, 1, 5]])

    def test_out_of_range(self, store_path):
        with ChunkedNpzStore(store_path) as store:
            with pytest.raises(IndexError):
                store.read(store.n_probes)
            with pytest.raises(IndexError):
                store.read(-1)

    def test_shard_nbytes_is_cache_bounded(self, store_path, amplitudes):
        with ChunkedNpzStore(store_path) as store:
            full = amplitudes.nbytes
            resident = store.shard_nbytes(range(store.n_probes))
            assert resident == 2 * store.chunk_nbytes
            assert resident < full
            # A shard smaller than the cache is reported at its size.
            assert store.shard_nbytes([0]) == store.frame_nbytes

    def test_prefetch_serves_identical_frames(self, store_path, amplitudes):
        threads = threading.active_count()
        with ChunkedNpzStore(store_path, prefetch=True) as store:
            for i in range(store.n_probes):
                np.testing.assert_array_equal(
                    store.read(i), amplitudes[i]
                )
            # Prefetch is a page-cache hint on the mapping, not a thread.
            assert threading.active_count() == threads

    def test_reads_are_copies(self, store_path, amplitudes):
        # Nothing a read returns may pin the mapping, or close() could
        # not unmap it.
        store = ChunkedNpzStore(store_path)
        frame = store.read(2)
        batch = store.read_batch([3, 0])
        store.close()
        np.testing.assert_array_equal(frame, amplitudes[2])
        np.testing.assert_array_equal(batch, amplitudes[[3, 0]])
        assert frame.flags.writeable and batch.flags.writeable

    def test_worker_copy_opens_fresh_handle(self, store_path, amplitudes):
        # Fork inherits the parent's mapping; a worker's copy maps the
        # file itself.
        parent = ChunkedNpzStore(store_path)
        parent.read(0)
        child = parent.worker_copy()
        try:
            assert child is not parent
            assert child._map is None  # no mapping until its first read
            np.testing.assert_array_equal(child.read(6), amplitudes[6])
            np.testing.assert_array_equal(parent.read(6), amplitudes[6])
        finally:
            child.close()
            parent.close()

    def test_pickles_by_path(self, store_path, amplitudes):
        store = ChunkedNpzStore(store_path)
        store.read(0)  # map the file before pickling
        clone = pickle.loads(pickle.dumps(store))
        try:
            np.testing.assert_array_equal(clone.read(5), amplitudes[5])
        finally:
            clone.close()
            store.close()

    def test_close_is_idempotent(self, store_path):
        store = ChunkedNpzStore(store_path, prefetch=True)
        store.read(0)
        store.close()
        store.close()

    def test_close_unmaps_and_releases_fd(self, store_path):
        from tests.service.test_leaks import mapped_regions_for, open_fds_for

        store = ChunkedNpzStore(store_path)
        assert mapped_regions_for(store_path) == []  # mapped lazily
        store.read(0)
        assert mapped_regions_for(store_path) != []
        store.close()
        assert mapped_regions_for(store_path) == []
        assert open_fds_for(store_path) == []

    def test_rejects_non_store_files(self, tmp_path, amplitudes):
        bogus = tmp_path / "bogus.npz"
        np.savez(bogus, amplitudes=amplitudes)
        with pytest.raises(StoreFormatError):
            ChunkedNpzStore(bogus)
        not_zip = tmp_path / "not_zip.npz"
        not_zip.write_bytes(b"definitely not a zip")
        with pytest.raises(StoreFormatError):
            ChunkedNpzStore(not_zip)

    def test_rejects_future_version(self, tmp_path, store_path):
        # Rewrite the header with a version from the future.
        import json

        future = tmp_path / "future.npz"
        with zipfile.ZipFile(store_path) as src, zipfile.ZipFile(
            future, "w"
        ) as dst:
            for name in src.namelist():
                payload = src.read(name)
                if name == "store_meta.json":
                    meta = json.loads(payload)
                    meta["version"] = 99
                    payload = json.dumps(meta).encode()
                dst.writestr(name, payload)
        with pytest.raises(StoreFormatError, match="v99"):
            ChunkedNpzStore(future)

    def test_write_validates(self, tmp_path, amplitudes):
        with pytest.raises(ValueError, match="chunk_size"):
            ChunkedNpzStore.write(tmp_path / "x.npz", amplitudes, 0)
        with pytest.raises(ValueError, match=r"\(N, det, det\)"):
            ChunkedNpzStore.write(
                tmp_path / "x.npz", amplitudes[:, :, :4], 4
            )


def _rewrite(src, dst, member, payload=None, compression=zipfile.ZIP_STORED):
    """Copy the store at ``src`` to ``dst``, writing ``member`` with
    ``payload`` (an array saved as ``.npy``; ``None`` keeps its bytes)
    and ``compression``."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for name in zin.namelist():
            data = zin.read(name)
            if name != member:
                zout.writestr(name, data)
                continue
            if payload is not None:
                buf = io.BytesIO()
                np.lib.format.write_array(buf, payload, allow_pickle=False)
                data = buf.getvalue()
            zout.writestr(name, data, compress_type=compression)
    return dst


def _member_end(path, member):
    """File offset just past ``member``'s stored bytes."""
    raw = path.read_bytes()
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(member)
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    return info.header_offset + 30 + name_len + extra_len + info.file_size


class TestIntegrity:
    """Corrupt or foreign stores fail with a typed, pointed
    ``StoreFormatError`` naming the member — at open for header
    problems, on the first read touching the chunk for a bad CRC."""

    def test_crc_mismatch_raises_on_first_touch(self, store_path, amplitudes):
        end = _member_end(store_path, "chunk_00001.npy")
        raw = bytearray(store_path.read_bytes())
        raw[end - 1] ^= 0xFF  # last byte of frame 7
        store_path.write_bytes(bytes(raw))
        store = ChunkedNpzStore(store_path)  # no O(file) check at open
        try:
            np.testing.assert_array_equal(store.read(0), amplitudes[0])
            with pytest.raises(StoreFormatError, match="chunk_00001.npy"):
                store.read_batch([1, 5])
            np.testing.assert_array_equal(store.read(8), amplitudes[8])
        finally:
            store.close()  # never BufferError after a failed read

    def test_compressed_member_points_to_rewrite(self, store_path, tmp_path):
        bad = _rewrite(
            store_path, tmp_path / "deflated.npz", "chunk_00001.npy",
            compression=zipfile.ZIP_DEFLATED,
        )
        with pytest.raises(StoreFormatError, match="repro store") as info:
            ChunkedNpzStore(bad)
        assert "chunk_00001.npy" in str(info.value)

    def test_bad_local_header_signature(self, store_path):
        with zipfile.ZipFile(store_path) as zf:
            offset = zf.getinfo("chunk_00002.npy").header_offset
        raw = bytearray(store_path.read_bytes())
        raw[offset:offset + 4] = b"XXXX"
        store_path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError, match="signature") as info:
            ChunkedNpzStore(store_path)
        assert "chunk_00002.npy" in str(info.value)

    @pytest.mark.parametrize("change", ["fortran", "dtype", "shape"])
    def test_npy_header_disagrees_with_store_header(
        self, store_path, tmp_path, amplitudes, change
    ):
        chunk = amplitudes[4:8]
        payload = {
            "fortran": np.asfortranarray(chunk),
            "dtype": chunk.astype(np.float32),
            "shape": chunk[:3],
        }[change]
        bad = _rewrite(
            store_path, tmp_path / f"{change}.npz", "chunk_00001.npy", payload
        )
        with pytest.raises(StoreFormatError, match="chunk_00001.npy"):
            ChunkedNpzStore(bad)


class TestOpenStore:
    def test_memory_spellings(self, tiny_dataset):
        for spec in (None, "memory"):
            store, owned = open_store(spec, dataset=tiny_dataset)
            assert isinstance(store, InMemoryStore)
            assert owned

    def test_memory_needs_dataset(self):
        with pytest.raises(ValueError, match="needs a dataset"):
            open_store("memory")

    def test_path_dispatch(self, store_path, tiny_dataset):
        store, owned = open_store(str(store_path), dataset=tiny_dataset)
        try:
            assert isinstance(store, ChunkedNpzStore)
            assert owned
        finally:
            store.close()

    def test_instance_passthrough_keeps_ownership(self, tiny_dataset):
        mine = InMemoryStore(tiny_dataset.amplitudes)
        store, owned = open_store(mine)
        assert store is mine
        assert not owned

    def test_instance_is_geometry_checked_too(self, tiny_dataset):
        wrong = InMemoryStore(np.zeros((3, 8, 8), dtype=np.float16))
        with pytest.raises(ValueError, match="expects"):
            open_store(wrong, dataset=tiny_dataset)
        # A caller-owned instance must NOT be closed by the failed
        # resolution — it still belongs to whoever built it.
        assert wrong.read(0).shape == (8, 8)

    def test_memory_worker_copy_is_identity(self, tiny_dataset):
        store = InMemoryStore(tiny_dataset.amplitudes)
        assert store.worker_copy() is store

    def test_geometry_mismatch_rejected(self, tmp_path, tiny_dataset):
        wrong = tmp_path / "wrong.npz"
        ChunkedNpzStore.write(
            wrong,
            np.zeros((3, 8, 8), dtype=np.float16),
            chunk_size=2,
        )
        with pytest.raises(ValueError, match="expects"):
            open_store(str(wrong), dataset=tiny_dataset)

    def test_write_store_infers_format(self, tmp_path, tiny_dataset):
        path = write_store(tmp_path / "w.npz", tiny_dataset, chunk_size=4)
        with ChunkedNpzStore(path) as store:
            assert store.n_probes == tiny_dataset.n_probes
        with pytest.raises(ValueError, match="unknown store format"):
            write_store(tmp_path / "w2.npz", tiny_dataset, fmt="exotic")

    def test_write_store_rejects_format_extension_mismatch(
        self, tmp_path, tiny_dataset
    ):
        # A mismatched file could be written but never read back —
        # open_store dispatches by extension.
        with pytest.raises(ValueError, match="contradicts"):
            write_store(tmp_path / "w.npz", tiny_dataset, fmt="hdf5")
        with pytest.raises(ValueError, match="contradicts"):
            write_store(tmp_path / "w.h5", tiny_dataset, fmt="npz")


class TestHdf5Store:
    def test_unavailable_raises_pointed_error(self):
        if Hdf5Store.available():
            pytest.skip("h5py installed; unavailability path not reachable")
        with pytest.raises(StoreUnavailableError, match="h5py"):
            Hdf5Store("whatever.h5")

    def test_roundtrip(self, tmp_path, tiny_dataset):
        if not Hdf5Store.available():
            pytest.skip("h5py not installed")
        amplitudes = np.asarray(tiny_dataset.amplitudes)
        path = write_store(
            tmp_path / "meas.h5", tiny_dataset, chunk_size=4
        )
        with Hdf5Store(path) as store:
            assert store.n_probes == amplitudes.shape[0]
            for i in (0, 3, 8):
                np.testing.assert_array_equal(
                    store.read(i), amplitudes[i]
                )
            np.testing.assert_array_equal(
                store.read_batch([5, 0, 2]), amplitudes[[5, 0, 2]]
            )


class TestCloseRace:
    """Regression: close() racing an in-flight read used to let the lazy
    reopen run *after* close — leaking the file descriptor and leaving
    readers on a dead handle.  With the mapped store the same race must
    also never unmap under a reader (``BufferError``)."""

    def test_read_after_close_is_pointed(self, store_path):
        store = ChunkedNpzStore(store_path)
        store.read(0)
        store.close()
        with pytest.raises(ValueError, match="closed"):
            store.read(5)

    def test_concurrent_reads_and_close_leak_no_fds(
        self, store_path, amplitudes
    ):
        from tests.service.test_leaks import open_fds_for

        n = amplitudes.shape[0]
        for _ in range(5):
            store = ChunkedNpzStore(store_path)
            errors = []

            def reader():
                try:
                    for i in range(200):
                        frame = store.read(i % n)
                        assert frame.shape == amplitudes[0].shape
                except ValueError as exc:
                    # The only acceptable failure mode: a read landing
                    # after close fails pointedly.
                    assert "closed" in str(exc)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            thread = threading.Thread(target=reader)
            thread.start()
            store.close()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert errors == []
            assert open_fds_for(store_path) == []

    def test_close_racing_read_batch_never_unmaps_under_a_reader(
        self, store_path, amplitudes
    ):
        import sys

        from tests.service.test_leaks import mapped_regions_for, open_fds_for

        n = amplitudes.shape[0]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                store = ChunkedNpzStore(store_path)
                reading = threading.Semaphore(0)
                failures = []

                def reader(offset):
                    try:
                        for i in range(100_000):
                            batch = store.read_batch(
                                [(offset + i + k) % n for k in range(5)]
                            )
                            assert batch.shape == (5,) + amplitudes[0].shape
                            if i == 0:
                                reading.release()
                    except ValueError as exc:
                        if "closed" not in str(exc):
                            failures.append(exc)
                    except Exception as exc:  # BufferError included
                        failures.append(exc)

                threads = [
                    threading.Thread(target=reader, args=(k,), daemon=True)
                    for k in range(3)
                ]
                for thread in threads:
                    thread.start()
                # Close while every reader is inside its read loop; a
                # close that unmapped under a reader raises BufferError
                # here.
                for _ in threads:
                    assert reading.acquire(timeout=10.0)
                store.close()
                for thread in threads:
                    thread.join(timeout=10.0)
                    assert not thread.is_alive()
                assert failures == []
                assert open_fds_for(store_path) == []
                assert mapped_regions_for(store_path) == []
        finally:
            sys.setswitchinterval(interval)

    def test_prefetching_store_closes_without_leaking(
        self, store_path, amplitudes
    ):
        from tests.service.test_leaks import open_fds_for

        for _ in range(5):
            store = ChunkedNpzStore(store_path, prefetch=True)
            # Read from two chunks, then close immediately: the mapping
            # and its descriptor must both go.
            store.read(0)
            store.read(4)
            store.close()
            assert open_fds_for(store_path) == []

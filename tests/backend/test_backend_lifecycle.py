"""Backend registry lifecycle: an overwritten or removed registration
drops its cached instance, and the shared cached instance transforms
safely from many threads — backends hold no state to release."""

import threading

import numpy as np
import pytest

from repro.backend import (
    NumpyBackend,
    UnknownBackendError,
    get_backend,
    register_backend,
    unregister_backend,
)


class TestRegistryLifecycle:
    def test_unregister_drops_cached_instance(self):
        @register_backend("lifecycle-test")
        class Tracked(NumpyBackend):
            pass

        first = get_backend("lifecycle-test")
        unregister_backend("lifecycle-test")
        with pytest.raises(UnknownBackendError):
            get_backend("lifecycle-test")
        register_backend("lifecycle-test")(Tracked)
        try:
            assert get_backend("lifecycle-test") is not first
        finally:
            unregister_backend("lifecycle-test")

    def test_overwrite_registration_serves_new_class(self):
        @register_backend("lifecycle-test")
        class Old(NumpyBackend):
            pass

        try:
            assert type(get_backend("lifecycle-test")) is Old

            @register_backend("lifecycle-test", overwrite=True)
            class New(NumpyBackend):
                pass

            assert type(get_backend("lifecycle-test")) is New
        finally:
            unregister_backend("lifecycle-test")


class TestConcurrency:
    def test_threads_sharing_cached_instance_match_serial(self):
        backend = get_backend("threaded")
        rng = np.random.default_rng(7)
        # Below and above the pool cutoff (32768 elements).
        inputs = [
            rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for shape in [(n, n) for n in range(2, 12)] + [(2, 16, 32, 32)]
        ]
        expected = [backend.fft2(x) for x in inputs]
        results = {}
        errors = []
        barrier = threading.Barrier(4)

        def worker(tid):
            barrier.wait()
            try:
                results[tid] = [backend.fft2(x) for x in inputs]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert sorted(results) == [0, 1, 2, 3]
        for outputs in results.values():
            for got, want in zip(outputs, expected):
                assert np.array_equal(got, want)

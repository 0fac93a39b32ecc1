"""Backend lifecycle: explicit shutdown, bounded plan cache, registry
eviction — the long-lived-service guarantees."""

import threading

import numpy as np
import pytest

from repro.backend import (
    NumpyBackend,
    ThreadedFFTBackend,
    get_backend,
    register_backend,
    release_backend,
    shutdown_backends,
    unregister_backend,
)


class TestClose:
    def test_close_refuses_further_transforms(self):
        backend = ThreadedFFTBackend(workers=1)
        backend.fft2(np.ones((4, 4), dtype=np.complex128))
        backend.close()
        assert backend.closed
        with pytest.raises(RuntimeError, match="closed"):
            backend.fft2(np.ones((4, 4), dtype=np.complex128))
        with pytest.raises(RuntimeError, match="closed"):
            backend.ifft2(np.ones((4, 4), dtype=np.complex128))

    def test_close_is_idempotent_and_drops_plans(self):
        backend = ThreadedFFTBackend(workers=1)
        backend.fft2(np.ones((4, 4), dtype=np.complex128))
        assert backend.plan_stats()["plans"] == 1
        backend.close()
        backend.close()
        assert backend.plan_stats()["plans"] == 0

    def test_context_manager_closes(self):
        with ThreadedFFTBackend(workers=1) as backend:
            backend.fft2(np.ones((4, 4), dtype=np.complex128))
        assert backend.closed

    def test_base_close_is_noop(self):
        backend = NumpyBackend()
        with backend:
            pass
        # Planless backends keep working; close is a harmless no-op.
        backend.fft2(np.ones((2, 2), dtype=np.complex128))


class TestBoundedPlanCache:
    def test_lru_eviction_beyond_bound(self):
        backend = ThreadedFFTBackend(workers=1, max_plans=2)
        for n in (2, 3, 4, 5):
            backend.fft2(np.ones((n, n), dtype=np.complex128))
        stats = backend.plan_stats()
        assert stats["plans"] == 2
        assert stats["evictions"] == 2

    def test_lru_order_refreshed_on_hit(self):
        backend = ThreadedFFTBackend(workers=1, max_plans=2)
        a = np.ones((2, 2), dtype=np.complex128)
        b = np.ones((3, 3), dtype=np.complex128)
        backend.fft2(a)
        backend.fft2(b)
        backend.fft2(a)  # refresh a; b is now LRU
        backend.fft2(np.ones((4, 4), dtype=np.complex128))  # evicts b
        backend.fft2(a)
        stats = backend.plan_stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 2  # both re-uses of a's plan

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError, match="max_plans"):
            ThreadedFFTBackend(max_plans=0)


class TestRegistryLifecycle:
    def test_release_closes_cached_instance(self):
        closed = []

        @register_backend("lifecycle-test")
        class Tracked(NumpyBackend):
            def close(self):
                closed.append(self)

        try:
            first = get_backend("lifecycle-test")
            release_backend("lifecycle-test")
            assert closed == [first]
            # Registration survives; the next lookup is a fresh instance.
            second = get_backend("lifecycle-test")
            assert second is not first
        finally:
            unregister_backend("lifecycle-test")
        assert second in closed  # unregister closed it too

    def test_unregister_closes_cached_instance(self):
        closed = []

        @register_backend("lifecycle-test")
        class Tracked(NumpyBackend):
            def close(self):
                closed.append(self)

        instance = get_backend("lifecycle-test")
        unregister_backend("lifecycle-test")
        assert closed == [instance]

    def test_overwrite_registration_closes_old_instance(self):
        closed = []

        @register_backend("lifecycle-test")
        class Old(NumpyBackend):
            def close(self):
                closed.append("old")

        try:
            get_backend("lifecycle-test")

            @register_backend("lifecycle-test", overwrite=True)
            class New(NumpyBackend):
                pass

            assert closed == ["old"]
        finally:
            unregister_backend("lifecycle-test")

    def test_shutdown_backends_sweeps_cache(self):
        closed = []

        @register_backend("lifecycle-test")
        class Tracked(NumpyBackend):
            def close(self):
                closed.append(self)

        try:
            get_backend("lifecycle-test")
            shutdown_backends()
            assert len(closed) == 1
            # Cache rebuilt on demand afterwards.
            assert get_backend("lifecycle-test") is not closed[0]
        finally:
            unregister_backend("lifecycle-test")

    def test_release_closes_threaded_instance(self):
        backend = get_backend("threaded")
        backend.fft2(np.ones((4, 4), dtype=np.complex128))
        release_backend("threaded")
        assert backend.closed

    def test_release_unknown_backend_errors(self):
        from repro.backend import UnknownBackendError

        with pytest.raises(UnknownBackendError):
            release_backend("does-not-exist")

    def test_user_closed_cached_instance_is_rebuilt(self):
        """Closing the registry's cached instance must not poison later
        resolutions of the name — get_backend rebuilds a live one."""
        first = get_backend("threaded")
        first.close()
        second = get_backend("threaded")
        assert second is not first
        assert not second.closed
        second.fft2(np.ones((4, 4), dtype=np.complex128))


class TestConcurrency:
    def test_concurrent_plan_cache_access_is_safe(self):
        # Many threads sharing one cached instance stress the plan
        # cache's internal lock (lookup/create/evict under contention).
        backend = get_backend("threaded")
        errors = []
        barrier = threading.Barrier(4)

        def worker(tid):
            barrier.wait()
            try:
                for n in range(2, 12):
                    data = np.ones((n, n), dtype=np.complex128)
                    backend.fft2(data)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        release_backend("threaded")
        assert errors == []
        assert backend.closed

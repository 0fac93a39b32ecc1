"""Resource hygiene: after the pool drains, no backend leases, no leg
processes, no pipe ends and no store file handles or mappings remain —
the leak class per-job store ownership and per-leg processes must not
reintroduce."""

import multiprocessing
import os
from dataclasses import replace
from pathlib import Path

from repro import reconstruct
from repro.data import write_store
from repro.service import JobState

from tests.helpers import result_fingerprint
from tests.service.service_configs import gd_config, held_worker, hve_config

WAIT = 120.0


def fd_count():
    """How many file descriptors this process has open."""
    return len(os.listdir("/proc/self/fd"))


def assert_nothing_held(service, fds_before):
    """A settled, closed service leaves no leg process and no
    descriptor behind (its pipes and its root lock included)."""
    assert multiprocessing.active_children() == []
    service.close()
    assert fd_count() == fds_before


def open_fds_for(path):
    """File descriptors of this process pointing at ``path``."""
    path = str(Path(path).resolve())
    fds = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}") == path:
                fds.append(fd)
        except OSError:
            continue
    return fds


def mapped_regions_for(path):
    """Lines of ``/proc/self/maps`` for mappings of ``path``."""
    path = str(Path(path).resolve())
    with open("/proc/self/maps") as maps:
        return [
            line for line in maps
            if line.rstrip("\n").split(maxsplit=5)[5:] == [path]
        ]


class TestBackendLeases:
    def test_no_leases_after_drain(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        fds_before = fd_count()
        service = service_factory(workers=2)
        handles = [
            service.submit(tiny_dataset, gd_config(tiny_lr, iterations=3)),
            service.submit(tiny_dataset, hve_config(tiny_lr, iterations=3)),
            service.submit(tiny_dataset, gd_config(tiny_lr, iterations=3)),
        ]
        for handle in handles:
            assert handle.wait(timeout=WAIT) == JobState.DONE
        assert service.drain(timeout=WAIT)
        assert_nothing_held(service, fds_before)

    def test_no_leases_after_cancel(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        # An interrupted leg unwinds through the same exit as a finished
        # one, so it must not strand its process or pipe either.
        fds_before = fd_count()
        service = service_factory(workers=1)
        with held_worker(service, tiny_dataset, tiny_lr):
            handle = service.submit(
                tiny_dataset, gd_config(tiny_lr, iterations=6)
            )
            handle.cancel(at_iteration=2)
        assert handle.wait(timeout=WAIT) == JobState.CANCELLED
        assert service.drain(timeout=WAIT)
        assert_nothing_held(service, fds_before)

    def test_no_processes_after_failed_leg(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        fds_before = fd_count()
        service = service_factory(workers=1)
        config = replace(
            gd_config(tiny_lr, iterations=3),
            data_source="/nonexistent/meas.npz",
        )
        handle = service.submit(tiny_dataset, config)
        assert handle.wait(timeout=WAIT) == JobState.FAILED
        assert "meas.npz" in handle.record().error
        assert service.drain(timeout=WAIT)
        assert_nothing_held(service, fds_before)

    def test_threaded_backend_jobs_in_processes(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        # Each leg process builds its own threaded backend (and plan
        # cache); overlapping jobs still each equal a direct run.
        configs = [
            replace(
                gd_config(tiny_lr, iterations=4),
                backend="threaded",
                dtype="complex128",
            )
            for _ in range(3)
        ]
        service = service_factory(workers=2)
        handles = [service.submit(tiny_dataset, c) for c in configs]
        for handle in handles:
            state = handle.wait(timeout=WAIT)
            assert state == JobState.DONE, handle.record().error
        assert service.drain(timeout=WAIT)
        direct = result_fingerprint(reconstruct(tiny_dataset, configs[0]))
        for handle in handles:
            assert result_fingerprint(handle.result()) == direct


class TestStoreHandles:
    def test_chunked_store_fds_released_after_drain(
        self, tiny_dataset, tiny_lr, service_factory, tmp_path
    ):
        store_path = write_store(
            tmp_path / "meas.npz", tiny_dataset, chunk_size=4
        )
        config = replace(
            gd_config(tiny_lr, iterations=3),
            data_source=str(store_path),
            batch_size=2,
        )
        service = service_factory(workers=2)
        handles = [service.submit(tiny_dataset, config) for _ in range(3)]
        for handle in handles:
            assert handle.wait(timeout=WAIT) == JobState.DONE
        assert service.drain(timeout=WAIT)
        assert open_fds_for(store_path) == []
        assert mapped_regions_for(store_path) == []

    def test_chunked_store_released_after_process_run(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        store_path = write_store(
            tmp_path / "meas.npz", tiny_dataset, chunk_size=4
        )
        config = replace(
            gd_config(tiny_lr, iterations=2),
            executor="process",
            runtime_workers=2,
            data_source=str(store_path),
            batch_size=2,
        )
        result = reconstruct(tiny_dataset, config)
        assert len(result.history) == 2
        assert open_fds_for(store_path) == []
        assert mapped_regions_for(store_path) == []

"""Resource hygiene: after the pool drains, no backend leases and no
store file handles or mappings remain — the leak class the refcounted
backend registry (and per-job store ownership) exists to prevent."""

import os
from pathlib import Path

from repro import reconstruct
from repro.backend import backend_refcount
from repro.data import write_store
from repro.service import JobState

from tests.service.service_configs import gd_config, held_worker, hve_config

WAIT = 120.0


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
        service = service_factory(workers=2)
        handles = [
            service.submit(tiny_dataset, gd_config(tiny_lr, iterations=3)),
            service.submit(tiny_dataset, hve_config(tiny_lr, iterations=3)),
            service.submit(tiny_dataset, gd_config(tiny_lr, iterations=3)),
        ]
        for handle in handles:
            assert handle.wait(timeout=WAIT) == JobState.DONE
        assert service.drain(timeout=WAIT)
        assert backend_refcount() == {}

    def test_no_leases_after_cancel(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        # The release runs in the leg's finally block, so an interrupted
        # job must not strand its lease either.
        service = service_factory(workers=1)
        with held_worker(service, tiny_dataset, tiny_lr):
            handle = service.submit(
                tiny_dataset, gd_config(tiny_lr, iterations=6)
            )
            handle.cancel(at_iteration=2)
        assert handle.wait(timeout=WAIT) == JobState.CANCELLED
        assert service.drain(timeout=WAIT)
        assert backend_refcount() == {}

    def test_threaded_backend_shared_across_concurrent_jobs(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        # Two jobs on the threaded backend overlap on one worker pair;
        # the shared plan cache must survive the first job's completion
        # (the satellite fix) and the lease table must end empty.
        configs = [
            gd_config(tiny_lr, iterations=4).with_compute(
                backend="threaded", dtype="complex128"
            )
            for _ in range(3)
        ]
        service = service_factory(workers=2)
        handles = [service.submit(tiny_dataset, c) for c in configs]
        for handle in handles:
            state = handle.wait(timeout=WAIT)
            assert state == JobState.DONE, handle.record().error
        assert service.drain(timeout=WAIT)
        assert backend_refcount() == {}


class TestStoreHandles:
    def test_chunked_store_fds_released_after_drain(
        self, tiny_dataset, tiny_lr, service_factory, tmp_path
    ):
        store_path = write_store(
            tmp_path / "meas.npz", tiny_dataset, chunk_size=4
        )
        config = gd_config(tiny_lr, iterations=3).with_data(
            data_source=str(store_path), batch_size=2
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
        config = (
            gd_config(tiny_lr, iterations=2)
            .with_runtime(executor="process", runtime_workers=2)
            .with_data(data_source=str(store_path), batch_size=2)
        )
        result = reconstruct(tiny_dataset, config)
        assert len(result.history) == 2
        assert open_fds_for(store_path) == []
        assert mapped_regions_for(store_path) == []

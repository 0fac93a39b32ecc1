"""Service-side observability: every settled job directory carries a
``telemetry.json``, written before waiters wake, and the progress
mirror reports the pinned compute and the live phase."""

from __future__ import annotations

import json

from repro.service import JobState
from repro.service import jobs as jobstore
from repro.service.progress import ProgressUpdate, read_progress

from tests.service.service_configs import gd_config

WAIT = 120.0


def _telemetry_payload(service, handle):
    path = jobstore.job_dir(service.root, handle.job_id) / "telemetry.json"
    assert path.is_file(), (
        "telemetry.json must exist by the time wait() returns"
    )
    return json.loads(path.read_text())


class TestJobTelemetryFile:
    def test_traced_job_writes_summary(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        service = service_factory(workers=1)
        handle = service.submit(
            tiny_dataset, gd_config(tiny_lr).with_telemetry()
        )
        assert handle.wait(timeout=WAIT) == JobState.DONE
        payload = _telemetry_payload(service, handle)
        assert payload["schema"] == "repro-job-telemetry/1"
        assert payload["job_id"] == handle.job_id
        assert payload["state"] == JobState.DONE
        assert payload["queue"]["wait_s"] >= 0.0
        assert payload["queue"]["run_s"] >= 0.0
        summary = payload["summary"]
        assert summary["phases"]
        assert summary["counters"]["queue.wait.seconds"] >= 0.0

    def test_untraced_job_writes_null_summary(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        service = service_factory(workers=1)
        handle = service.submit(tiny_dataset, gd_config(tiny_lr))
        assert handle.wait(timeout=WAIT) == JobState.DONE
        payload = _telemetry_payload(service, handle)
        assert payload["summary"] is None
        assert payload["queue"]["wait_s"] >= 0.0

    def test_failed_job_still_settles_with_telemetry(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        config = gd_config(tiny_lr).with_data(
            data_source="/nonexistent/meas.npz"
        ).with_telemetry()
        service = service_factory(workers=1)
        handle = service.submit(tiny_dataset, config)
        assert handle.wait(timeout=WAIT) == JobState.FAILED
        payload = _telemetry_payload(service, handle)
        assert payload["state"] == JobState.FAILED

    def test_archive_carries_telemetry_for_stats(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        from repro.obs.export import load_stats

        service = service_factory(workers=1)
        handle = service.submit(
            tiny_dataset, gd_config(tiny_lr).with_telemetry()
        )
        assert handle.wait(timeout=WAIT) == JobState.DONE
        # Both read-out paths resolve: the job dir and the result archive.
        job_summary = load_stats(jobstore.job_dir(service.root, handle.job_id))
        assert job_summary["counters"]["job.queue_wait_s"] >= 0.0
        assert handle.result().telemetry is not None


class TestProgressMirror:
    def test_updates_carry_pinned_compute_and_phase(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        service = service_factory(workers=1)
        # Pin the compute the assertions expect: an unpinned config runs
        # on REPRO_BACKEND or the in-process default (ambient pinning is
        # test_service.py's test_ambient_compute_is_pinned_at_run_time).
        handle = service.submit(
            tiny_dataset,
            gd_config(tiny_lr)
            .with_compute(backend="numpy", dtype="complex128")
            .with_telemetry(),
        )
        assert handle.wait(timeout=WAIT) == JobState.DONE
        update = read_progress(
            jobstore.job_dir(service.root, handle.job_id) / "progress.json"
        )
        assert update is not None
        assert update.backend == "numpy"
        assert update.dtype == "complex128"
        # Traced job: the mirror labels the span that was open at
        # flush time (always the per-iteration span here).
        assert update.phase is not None

    def test_untraced_updates_have_null_phase(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        service = service_factory(workers=1)
        handle = service.submit(
            tiny_dataset, gd_config(tiny_lr).with_compute(backend="numpy")
        )
        assert handle.wait(timeout=WAIT) == JobState.DONE
        update = read_progress(
            jobstore.job_dir(service.root, handle.job_id) / "progress.json"
        )
        assert update.phase is None
        assert update.backend == "numpy"

    def test_pre_observability_mirrors_still_parse(self):
        # progress.json written before these fields existed must load.
        update = ProgressUpdate(
            job_id="j-old", iteration=3, total=6, cost=1.0,
            elapsed_s=0.5, iter_per_s=6.0, eta_s=0.5,
        )
        assert update.backend is None
        assert update.dtype is None
        assert update.phase is None

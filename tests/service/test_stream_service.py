"""Streamed jobs through the service layer: live coverage reporting,
mid-stream cancel→resume with a deterministically rebuilt frame
journal, and the same no-leak guarantees as static jobs."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro import reconstruct
from repro.service import JobState, read_progress
from repro.service import jobs as jobstore

from tests.helpers import result_fingerprint
from tests.service.service_configs import gd_config, held_worker

WAIT = 120.0

STREAM = {"kind": "replay", "waves": 3}


def streamed_config(lr, iterations=6, **extra):
    return replace(
        gd_config(lr, iterations=iterations, **extra), scan_source=STREAM
    )


class TestStreamedJob:
    def test_runs_to_done_and_reports_coverage(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        config = streamed_config(tiny_lr)
        service = service_factory(workers=1)
        handle = service.submit(tiny_dataset, config)
        assert handle.wait(timeout=WAIT) == JobState.DONE, \
            handle.record().error
        updates = handle.progress().history()
        coverages = [u.coverage for u in updates]
        # Every update of a streamed run carries the coverage fraction;
        # it is monotone and ends full.
        assert all(c is not None for c in coverages)
        assert coverages == sorted(coverages)
        assert coverages[-1] == 1.0
        # The cross-process mirror carries it too.
        mirrored = read_progress(
            jobstore.job_dir(service.root, handle.job_id) / "progress.json"
        )
        assert mirrored is not None and mirrored.coverage == 1.0
        # And the archive equals a direct streamed run.
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(handle.result()) == \
            result_fingerprint(direct)

    def test_static_jobs_report_no_coverage(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        service = service_factory(workers=1)
        handle = service.submit(tiny_dataset, gd_config(tiny_lr, iterations=3))
        assert handle.wait(timeout=WAIT) == JobState.DONE
        assert all(
            u.coverage is None for u in handle.progress().history()
        )


class TestMidStreamCancelResume:
    def test_resume_is_fingerprint_identical(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        # Cancel at iteration 2 — coverage is still partial (wave 3 of
        # the replay schedule lands after sweep 2), so the resumed leg
        # must rebuild the frame journal by fast-forwarding before
        # finishing the remaining epochs.
        config = streamed_config(tiny_lr, iterations=6)
        service = service_factory(workers=1)
        with held_worker(service, tiny_dataset, tiny_lr):
            handle = service.submit(tiny_dataset, config)
            handle.cancel(at_iteration=2)
        assert handle.wait(timeout=WAIT) == JobState.CANCELLED, \
            handle.record().error
        assert handle.record().iterations_done == 2
        handle.resume()
        assert handle.wait(timeout=WAIT) == JobState.DONE, \
            handle.record().error
        assert handle.record().resumes == 1
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(handle.result()) == \
            result_fingerprint(direct)

    def test_resumed_leg_preserves_journal_accounting(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        # Traffic counters stay additive across the interrupted legs —
        # the resumed leg accounts only its own epochs' sweeps, over the
        # journal rebuilt at its stream offset.
        config = streamed_config(tiny_lr, iterations=6)
        service = service_factory(workers=1)
        with held_worker(service, tiny_dataset, tiny_lr):
            handle = service.submit(tiny_dataset, config)
            handle.cancel(at_iteration=3)
        assert handle.wait(timeout=WAIT) == JobState.CANCELLED
        handle.resume()
        assert handle.wait(timeout=WAIT) == JobState.DONE
        direct = reconstruct(tiny_dataset, config)
        archive = handle.result()
        assert archive.messages == direct.messages
        assert archive.message_bytes == direct.message_bytes
        assert archive.n_iterations == direct.n_iterations
        assert np.array_equal(archive.volume, direct.volume)

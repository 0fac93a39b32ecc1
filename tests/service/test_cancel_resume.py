"""Cancel/pause/resume: interrupted jobs leave resumable checkpoints,
and for the exactly-resumable solvers (gd ``mode="synchronous"``, hve)
the resumed job's final archive is fingerprint-identical to an
uninterrupted run — the acceptance gate of the service layer.

gd ``mode="alg1"`` is deliberately absent from the bit-exact cases: its
per-rank halo copies diverge from the stitched volume after local
updates, so resuming from a stitched checkpoint is a warm start, not a
bit-exact continuation (documented in repro.service.jobs).
"""

import pytest

from repro import reconstruct
from repro.service import JobError, JobState, load_record, prepare_resume
from repro.service import jobs as jobstore

from tests.helpers import deflate_archive, result_fingerprint
from tests.service.service_configs import gd_config, held_worker, hve_config

WAIT = 120.0


def submit_cancel_resume(service, dataset, config, stop_at):
    """Run the interrupted path: cancel once ``stop_at`` iterations are
    banked, then resume to completion; returns the final archive."""
    lr = config.solver_params["lr"]
    with held_worker(service, dataset, lr):
        handle = service.submit(dataset, config)
        handle.cancel(at_iteration=stop_at)
    assert handle.wait(timeout=WAIT) == JobState.CANCELLED, \
        handle.record().error
    assert handle.record().iterations_done == stop_at
    handle.resume()
    assert handle.wait(timeout=WAIT) == JobState.DONE, handle.record().error
    return handle


class TestBitExactResume:
    def test_gd_synchronous(self, tiny_dataset, tiny_lr, service_factory):
        config = gd_config(tiny_lr, iterations=8)
        service = service_factory(workers=1)
        handle = submit_cancel_resume(service, tiny_dataset, config, 3)
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(handle.result()) == \
            result_fingerprint(direct)

    def test_hve(self, tiny_dataset, tiny_lr, service_factory):
        config = hve_config(tiny_lr, iterations=8)
        service = service_factory(workers=1)
        handle = submit_cancel_resume(service, tiny_dataset, config, 3)
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(handle.result()) == \
            result_fingerprint(direct)

    def test_gd_with_probe_refinement(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        # refine_probe makes the probe part of the iterated state; the
        # checkpoint carries it and the resume forwards it, so the
        # interrupted run still matches bit for bit (probe included in
        # the fingerprint).
        config = gd_config(tiny_lr, iterations=8, refine_probe=True)
        service = service_factory(workers=1)
        handle = submit_cancel_resume(service, tiny_dataset, config, 4)
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(handle.result()) == \
            result_fingerprint(direct)

    def test_gd_mixed_state(self, tiny_dataset, tiny_lr, service_factory):
        # The checkpoint archive carries the full (M, w, w) mode stack,
        # so a cancelled mixed-state job resumes bit for bit — the mode
        # axis survives the service round trip.
        config = gd_config(
            tiny_lr, iterations=8, refine_probe=True
        ).with_probe(probe_modes=2)
        service = service_factory(workers=1)
        handle = submit_cancel_resume(service, tiny_dataset, config, 4)
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(handle.result()) == \
            result_fingerprint(direct)
        assert handle.result().probe.shape[0] == 2

    def test_traffic_counters_are_additive(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        config = gd_config(tiny_lr, iterations=8)
        service = service_factory(workers=1)
        handle = submit_cancel_resume(service, tiny_dataset, config, 3)
        direct = reconstruct(tiny_dataset, config)
        archive = handle.result()
        assert archive.messages == direct.messages
        assert archive.message_bytes == direct.message_bytes

    def test_alg1_resume_is_warm_start(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        # alg1 resumes run and converge, but are not bit-exact; pin the
        # weaker contract so a silent regression in either direction
        # (resume breaking, or alg1 becoming exact) is noticed.
        config = gd_config(tiny_lr, iterations=8, mode="alg1")
        service = service_factory(workers=1)
        handle = submit_cancel_resume(service, tiny_dataset, config, 3)
        archive = handle.result()
        assert archive.n_iterations == 8
        assert archive.history[-1] < archive.history[0]


class TestPause:
    def test_pause_then_resume(self, tiny_dataset, tiny_lr, service_factory):
        config = gd_config(tiny_lr, iterations=8)
        service = service_factory(workers=1)
        with held_worker(service, tiny_dataset, tiny_lr):
            handle = service.submit(tiny_dataset, config)
            handle.pause(at_iteration=3)
        assert handle.wait(timeout=WAIT) == JobState.PAUSED
        assert handle.record().iterations_done == 3
        handle.resume()
        assert handle.wait(timeout=WAIT) == JobState.DONE
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(handle.result()) == \
            result_fingerprint(direct)

    def test_progress_counts_globally_across_legs(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        service = service_factory(workers=1)
        with held_worker(service, tiny_dataset, tiny_lr):
            handle = service.submit(
                tiny_dataset, gd_config(tiny_lr, iterations=6)
            )
            handle.pause(at_iteration=2)
        assert handle.wait(timeout=WAIT) == JobState.PAUSED
        handle.resume()
        assert handle.wait(timeout=WAIT) == JobState.DONE
        # The resume leg's stream starts at the banked offset, so a
        # watcher sees 3..6, not 1..4.
        updates = handle.progress().history()
        assert [u.iteration for u in updates] == [3, 4, 5, 6]


class TestCancelSemantics:
    def test_cancel_queued_job_never_runs(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        service = service_factory(workers=1)
        blocker = service.submit(
            tiny_dataset, gd_config(tiny_lr, iterations=6)
        )
        victim = service.submit(
            tiny_dataset, gd_config(tiny_lr, iterations=6)
        )
        victim.cancel()  # immediate — no at_iteration
        assert victim.wait(timeout=WAIT) == JobState.CANCELLED
        assert blocker.wait(timeout=WAIT) == JobState.DONE
        assert victim.record().iterations_done == 0

    def test_cancelled_job_checkpoint_survives_restart(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        # Cancel under one service, resume under a *different* one: the
        # consolidated checkpoint is durable state, not process state.
        from repro.service import ReconstructionService

        root = tmp_path / "jobs"
        config = gd_config(tiny_lr, iterations=8)
        with ReconstructionService(root, workers=1) as first:
            with held_worker(first, tiny_dataset, tiny_lr):
                handle = first.submit(tiny_dataset, config)
                handle.cancel(at_iteration=3)
            assert handle.wait(timeout=WAIT) == JobState.CANCELLED
            job_id = handle.job_id
        prepare_resume(root, job_id)
        with ReconstructionService(root, workers=1) as second:
            assert second.wait(job_id, timeout=WAIT) == JobState.DONE
            archive = second.result(job_id)
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(archive) == result_fingerprint(direct)

    def test_job_root_with_deflated_archives_resumes(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        # Job roots written before archives were stored hold deflated
        # dataset.npz / seed.npz files; such a cancelled job must still
        # resume to the uninterrupted run's exact result.
        from repro.service import ReconstructionService

        root = tmp_path / "jobs"
        config = gd_config(tiny_lr, iterations=8)
        with ReconstructionService(root, workers=1) as first:
            with held_worker(first, tiny_dataset, tiny_lr):
                handle = first.submit(tiny_dataset, config)
                handle.cancel(at_iteration=3)
            assert handle.wait(timeout=WAIT) == JobState.CANCELLED
            job_id = handle.job_id
        directory = jobstore.job_dir(root, job_id)
        for name in ("dataset.npz", "seed.npz"):
            deflate_archive(directory / name)
        prepare_resume(root, job_id)
        with ReconstructionService(root, workers=1) as second:
            assert second.wait(job_id, timeout=WAIT) == JobState.DONE, \
                load_record(root, job_id).error
            archive = second.result(job_id)
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(archive) == result_fingerprint(direct)

    def test_cancel_done_job_raises(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        service = service_factory(workers=1)
        handle = service.submit(tiny_dataset, gd_config(tiny_lr, iterations=2))
        assert handle.wait(timeout=WAIT) == JobState.DONE
        with pytest.raises(JobError, match="DONE"):
            handle.cancel()

    def test_resume_done_job_raises(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        service = service_factory(workers=1)
        handle = service.submit(tiny_dataset, gd_config(tiny_lr, iterations=2))
        assert handle.wait(timeout=WAIT) == JobState.DONE
        with pytest.raises(JobError):
            handle.resume()

    def test_resume_unknown_job_raises(self, service_factory):
        service = service_factory(workers=1)
        with pytest.raises((JobError, FileNotFoundError)):
            service.resume("no-such-job")

    def test_interrupt_checkpoint_is_consolidated(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        # After a cancel settles, the job directory holds one seed
        # archive (carrying the banked iterations) and no loose
        # checkpoints — the layout prepare_resume builds on.
        service = service_factory(workers=1)
        with held_worker(service, tiny_dataset, tiny_lr):
            handle = service.submit(
                tiny_dataset, gd_config(tiny_lr, iterations=6)
            )
            handle.cancel(at_iteration=2)
        assert handle.wait(timeout=WAIT) == JobState.CANCELLED
        record = load_record(service.root, handle.job_id)
        directory = jobstore.job_dir(service.root, handle.job_id)
        assert record.seed == "seed.npz"
        assert (directory / "seed.npz").exists()
        assert not jobstore.checkpoints_dir(
            service.root, handle.job_id
        ).exists()
        assert record.carry_history and len(record.carry_history) == 2

"""Cancel/pause/resume: interrupted jobs leave resumable checkpoints,
and for the exactly-resumable solvers (gd ``mode="synchronous"``, hve)
the resumed job's final archive is fingerprint-identical to an
uninterrupted run — the acceptance gate of the service layer.

gd ``mode="alg1"`` is deliberately absent from the bit-exact cases: its
per-rank halo copies diverge from the stitched volume after local
updates, so resuming from a stitched checkpoint is a warm start, not a
bit-exact continuation (documented in repro.service.jobs).
"""

import json
from dataclasses import replace

import pytest

from repro import reconstruct
from repro.io import load_result, save_result
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
        config = replace(
            gd_config(tiny_lr, iterations=8, refine_probe=True), probe_modes=2
        )
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

    def test_two_resumes_publish_the_run(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        # Cancelled at 2 and at 4, resumed twice: the three legs'
        # updates read as one run's, 1..6 of 6.
        service = service_factory(workers=1)
        updates = []
        with held_worker(service, tiny_dataset, tiny_lr):
            handle = service.submit(
                tiny_dataset, gd_config(tiny_lr, iterations=6)
            )
            handle.cancel(at_iteration=2)
        assert handle.wait(timeout=WAIT) == JobState.CANCELLED
        updates += handle.progress().history()
        with held_worker(service, tiny_dataset, tiny_lr):
            handle.resume()
            handle.cancel(at_iteration=4)
        assert handle.wait(timeout=WAIT) == JobState.CANCELLED
        updates += handle.progress().history()
        handle.resume()
        assert handle.wait(timeout=WAIT) == JobState.DONE, \
            handle.record().error
        updates += handle.progress().history()
        assert [(u.iteration, u.total) for u in updates] == [
            (i, 6) for i in range(1, 7)
        ]

    def test_checkpoint_cadence_follows_run_iterations(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        # Paused at 3: the resumed leg runs iterations 4..6 and
        # checkpoints every second *run* iteration, not every second
        # iteration of its own.
        config = gd_config(tiny_lr, iterations=6)
        service = service_factory(workers=1, checkpoint_every=2)
        with held_worker(service, tiny_dataset, tiny_lr):
            handle = service.submit(tiny_dataset, config)
            handle.pause(at_iteration=3)
        assert handle.wait(timeout=WAIT) == JobState.PAUSED
        handle.resume()
        assert handle.wait(timeout=WAIT) == JobState.DONE, \
            handle.record().error
        checkpoints = jobstore.checkpoints_dir(service.root, handle.job_id)
        assert sorted(p.name for p in checkpoints.glob("*.npz")) == [
            "checkpoint_iter0004.npz",
            "checkpoint_iter0006.npz",
        ]
        direct = reconstruct(tiny_dataset, config)
        at4 = load_result(checkpoints / "checkpoint_iter0004.npz")
        assert at4.history == direct.history[:4]


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
        assert record.iterations_done == 2
        assert len(load_result(directory / "seed.npz").history) == 2


def leg_local(total, before):
    """``total`` with ``before``'s ledger taken out: the leg-local
    ledger archives held while job records banked earlier legs."""
    return replace(
        total,
        history=total.history[len(before.history):],
        messages=total.messages - before.messages,
        message_bytes=total.message_bytes - before.message_bytes,
    )


def write_legacy_record(root, job_id, carry, **changes):
    """Rewrite ``job.json`` as records were written while they banked
    the completed legs' ledger in ``carry_*`` fields."""
    path = jobstore.job_dir(root, job_id) / "job.json"
    payload = json.loads(path.read_text())
    del payload["iterations_done"]
    payload.update(
        changes,
        carry_history=carry.history,
        carry_messages=carry.messages,
        carry_message_bytes=carry.message_bytes,
        carry_peaks=carry.peak_memory_per_rank,
    )
    path.write_text(json.dumps(payload))


class TestLegacyCarryRoot:
    """Job roots written while ``job.json`` carried the ledger of the
    completed legs (``carry_*``) and every archive a leg-local one."""

    def cancelled_twice(self, root, dataset, lr, config):
        """A 6-iteration job cancelled at 2, resumed and cancelled at 4;
        returns its id and its seed archives at 2 and at 4."""
        from repro.service import ReconstructionService

        with ReconstructionService(root, workers=1) as service:
            with held_worker(service, dataset, lr):
                handle = service.submit(dataset, config)
                handle.cancel(at_iteration=2)
            assert handle.wait(timeout=WAIT) == JobState.CANCELLED
            seed = jobstore.job_dir(root, handle.job_id) / "seed.npz"
            at2 = load_result(seed)
            with held_worker(service, dataset, lr):
                handle.resume()
                handle.cancel(at_iteration=4)
            assert handle.wait(timeout=WAIT) == JobState.CANCELLED
        at4 = load_result(seed)
        assert (len(at2.history), len(at4.history)) == (2, 4)
        return handle.job_id, at2, at4

    def finish(self, root, job_id):
        """Finish the job under a new service: a RUNNING job through its
        recovery scan, a settled one through ``resume``."""
        from repro.service import ReconstructionService

        record = jobstore.job_dir(root, job_id) / "job.json"
        state = json.loads(record.read_text())["state"]
        with ReconstructionService(root, workers=1) as service:
            if state != JobState.RUNNING:
                service.resume(job_id)
            assert service.wait(job_id, timeout=WAIT) == JobState.DONE, \
                load_record(root, job_id).error
            return service.result(job_id)

    def test_cancelled_root_resumes_exactly(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        root = tmp_path / "jobs"
        config = gd_config(tiny_lr, iterations=6)
        job_id, at2, at4 = self.cancelled_twice(
            root, tiny_dataset, tiny_lr, config
        )
        seed = jobstore.job_dir(root, job_id) / "seed.npz"
        save_result(seed, leg_local(at4, at2), config=at4.config)
        write_legacy_record(root, job_id, carry=at4)

        record = load_record(root, job_id)
        assert record.iterations_done == 4
        assert "carry_history" not in (
            jobstore.job_dir(root, job_id) / "job.json"
        ).read_text()
        assert load_result(seed).history == at4.history
        archive = self.finish(root, job_id)
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(archive) == result_fingerprint(direct)
        assert archive.peak_memory_per_rank == direct.peak_memory_per_rank

    def test_running_root_with_leg_local_checkpoint_recovers(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        # A service died while the job's second leg ran: the seed holds
        # the first leg, the newest periodic checkpoint the second leg's
        # iterations 3-4, leg-local, and the record banks iterations 1-2.
        root = tmp_path / "jobs"
        config = gd_config(tiny_lr, iterations=6)
        job_id, at2, at4 = self.cancelled_twice(
            root, tiny_dataset, tiny_lr, config
        )
        directory = jobstore.job_dir(root, job_id)
        checkpoints = jobstore.checkpoints_dir(root, job_id)
        checkpoints.mkdir()
        save_result(
            checkpoints / "checkpoint_iter0002.npz",
            leg_local(at4, at2),
            config=at4.config,
        )
        save_result(directory / "seed.npz", at2, config=at2.config)
        write_legacy_record(
            root, job_id, carry=at2, state=JobState.RUNNING
        )

        archive = self.finish(root, job_id)
        assert load_record(root, job_id).iterations_done == 4
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(archive) == result_fingerprint(direct)

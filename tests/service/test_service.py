"""ReconstructionService lifecycle: concurrent jobs are
fingerprint-identical to serial ``repro.reconstruct()`` runs, state
transitions are durable, and a restarted service picks up where its
predecessor stopped."""

import pytest

from repro import DivergenceError, reconstruct
from repro.api import ReconstructionConfig
from repro.data import write_store
from repro.io import save_result
from repro.physics.dataset import suggest_lr
from repro.service import (
    JobError,
    JobState,
    ReconstructionService,
    create_job,
    load_record,
)
from repro.service import jobs as jobstore

from tests.helpers import result_fingerprint
from tests.service.service_configs import gd_config, held_worker, hve_config

WAIT = 120.0  # generous settle bound for CI machines


class TestSubmitRun:
    def test_job_matches_direct_reconstruction(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        config = gd_config(tiny_lr)
        service = service_factory(workers=1)
        handle = service.submit(tiny_dataset, config)
        assert handle.wait(timeout=WAIT) == JobState.DONE
        archive = handle.result()
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(archive) == result_fingerprint(direct)

    def test_concurrent_jobs_match_serial_runs(
        self, tiny_dataset, tiny_lr, service_factory, tmp_path
    ):
        # The acceptance gate: more jobs than workers, mixed solvers and
        # modes, mixed data sources — every archive fingerprint-identical
        # to its own serial run.
        store_path = write_store(
            tmp_path / "meas.npz", tiny_dataset, chunk_size=4
        )
        configs = [
            gd_config(tiny_lr, mode="synchronous"),
            gd_config(tiny_lr, mode="alg1"),
            hve_config(tiny_lr),
            gd_config(tiny_lr, mode="synchronous").with_data(
                data_source=str(store_path), batch_size=3
            ),
        ]
        service = service_factory(workers=2)
        handles = [service.submit(tiny_dataset, c) for c in configs]
        for handle in handles:
            state = handle.wait(timeout=WAIT)
            assert state == JobState.DONE, handle.record().error
        for handle, config in zip(handles, configs):
            direct = reconstruct(tiny_dataset, config)
            assert result_fingerprint(handle.result()) == \
                result_fingerprint(direct), config.solver
        assert service.stats()["done"] == 4

    def test_concurrent_process_executor_jobs(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        # Regression: forking rank workers from a service worker thread
        # while a sibling thread holds multiprocessing's resource-tracker
        # lock used to deadlock the child on its first shm attach.  Three
        # process-executor jobs over two threads exercise exactly that
        # overlap.
        configs = [
            gd_config(tiny_lr, iterations=3).with_runtime(executor="process")
            for _ in range(3)
        ]
        service = service_factory(workers=2)
        handles = [service.submit(tiny_dataset, c) for c in configs]
        for handle in handles:
            state = handle.wait(timeout=WAIT)
            assert state == JobState.DONE, handle.record().error
        direct = reconstruct(tiny_dataset, configs[0])
        for handle in handles:
            assert result_fingerprint(handle.result()) == \
                result_fingerprint(direct)

    def test_dataset_by_path_is_referenced_in_place(
        self, tiny_dataset, tiny_lr, service_factory, tmp_path
    ):
        from repro.io import save_dataset

        path = save_dataset(tmp_path / "ds.npz", tiny_dataset)
        service = service_factory(workers=1)
        handle = service.submit(path, gd_config(tiny_lr, iterations=2))
        assert handle.wait(timeout=WAIT) == JobState.DONE
        # No dataset copy in the job directory for path submissions.
        job_dir = jobstore.job_dir(service.root, handle.job_id)
        assert not (job_dir / "dataset.npz").exists()

    def test_progress_stream_covers_every_iteration(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        service = service_factory(workers=1)
        handle = service.submit(tiny_dataset, gd_config(tiny_lr))
        assert handle.wait(timeout=WAIT) == JobState.DONE
        updates = handle.progress().history()
        assert [u.iteration for u in updates] == list(range(1, 7))
        assert updates[-1].fraction == 1.0
        assert handle.progress().closed

    def test_priority_orders_queued_jobs(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        # One worker, three jobs: the high-priority submission runs
        # before the earlier low-priority one.
        service = service_factory(workers=1)
        slow = service.submit(tiny_dataset, gd_config(tiny_lr, iterations=4))
        low = service.submit(tiny_dataset, gd_config(tiny_lr, iterations=2))
        high = service.submit(
            tiny_dataset, gd_config(tiny_lr, iterations=2), priority=5
        )
        for handle in (slow, low, high):
            assert handle.wait(timeout=WAIT) == JobState.DONE
        assert high.record().started_at <= low.record().started_at


class TestValidation:
    def test_submit_requires_iterations(self, tiny_dataset, service_factory):
        service = service_factory(workers=1)
        config = ReconstructionConfig(
            solver="gd", solver_params={"n_ranks": 4, "lr": 0.01}
        )
        with pytest.raises(JobError, match="iterations"):
            service.submit(tiny_dataset, config)

    def test_submit_rejects_resume_run_param(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        service = service_factory(workers=1)
        config = gd_config(tiny_lr).with_run_params(resume="somewhere.npz")
        with pytest.raises(JobError, match="resume"):
            service.submit(tiny_dataset, config)

    def test_submit_after_close_raises(self, tiny_dataset, tiny_lr, tmp_path):
        service = ReconstructionService(tmp_path / "svc", workers=1)
        service.close()
        with pytest.raises(JobError, match="closed"):
            service.submit(tiny_dataset, gd_config(tiny_lr))

    def test_resume_after_close_raises(self, tiny_dataset, tiny_lr, tmp_path):
        service = ReconstructionService(tmp_path / "svc", workers=1)
        service.close()
        record = create_job(service.root, tiny_dataset, gd_config(tiny_lr))
        record.state = JobState.PAUSED
        jobstore.save_record(service.root, record)
        with pytest.raises(JobError, match="closed"):
            service.resume(record.job_id)
        after = load_record(service.root, record.job_id)
        assert (after.state, after.resumes) == (JobState.PAUSED, 0)

    def test_result_of_unfinished_job_raises(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        service = service_factory(workers=1)
        # Created directly in the root, never enqueued: stays QUEUED.
        create_job(
            service.root, tiny_dataset, gd_config(tiny_lr), job_id="inert"
        )
        with pytest.raises(JobError, match="not DONE"):
            service.result("inert")

    def test_failed_job_reports_error_and_is_resumable(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        # Deterministic failure: the job's dataset file vanishes before
        # any service runs it.
        root = tmp_path / "jobs"
        record = create_job(
            root, tiny_dataset, gd_config(tiny_lr), job_id="doomed"
        )
        jobstore.dataset_path_of(root, record).unlink()
        with ReconstructionService(root, workers=1) as service:
            assert service.wait("doomed", timeout=WAIT) == JobState.FAILED
        record = load_record(root, "doomed")
        assert record.error and "dataset" in record.error.lower()
        assert record.state in JobState.RESUMABLE

    def test_bad_worker_counts_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ReconstructionService(tmp_path / "svc", workers=0)
        with pytest.raises(ValueError):
            ReconstructionService(tmp_path / "svc", checkpoint_every=0)


class TestRecovery:
    def test_restart_picks_up_queued_jobs(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        root = tmp_path / "jobs"
        config = gd_config(tiny_lr)
        record = create_job(root, tiny_dataset, config, job_id="offline")
        assert record.state == JobState.QUEUED
        with ReconstructionService(root, workers=1) as service:
            assert service.stats()["recovered"] == 1
            assert service.wait("offline", timeout=WAIT) == JobState.DONE
            archive = service.result("offline")
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(archive) == result_fingerprint(direct)

    def test_crashed_running_job_resumes_from_checkpoint(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        # Simulate a service that died mid-job: record left RUNNING,
        # a periodic checkpoint on disk.  The next service over the
        # root must consolidate the checkpoint and finish the job —
        # fingerprint-identical to an uninterrupted run.
        root = tmp_path / "jobs"
        config = gd_config(tiny_lr, iterations=6)
        record = create_job(root, tiny_dataset, config, job_id="crashed")
        partial = reconstruct(
            tiny_dataset, config.with_solver_params(iterations=3)
        )
        ckpt_dir = jobstore.checkpoints_dir(root, "crashed")
        ckpt_dir.mkdir(parents=True)
        save_result(
            ckpt_dir / "checkpoint_iter0003.npz", partial, config=config
        )
        record.state = JobState.RUNNING
        jobstore.save_record(root, record)

        with ReconstructionService(root, workers=1) as service:
            assert service.wait("crashed", timeout=WAIT) == JobState.DONE
            archive = service.result("crashed")
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(archive) == result_fingerprint(direct)
        assert load_record(root, "crashed").resumes == 1

    def test_list_jobs_is_submission_ordered(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        service = service_factory(workers=1)
        first = service.submit(tiny_dataset, gd_config(tiny_lr, iterations=2))
        second = service.submit(tiny_dataset, gd_config(tiny_lr, iterations=2))
        for handle in (first, second):
            assert handle.wait(timeout=WAIT) == JobState.DONE
        listed = [r.job_id for r in service.list_jobs()]
        assert listed == [first.job_id, second.job_id]


class TestRootLock:
    def test_one_service_per_root(self, tmp_path):
        # A second live service over the same root would re-queue (and
        # double-run) the first one's RUNNING jobs at its recovery scan.
        root = tmp_path / "jobs"
        with ReconstructionService(root, workers=1):
            with pytest.raises(JobError, match="already serving"):
                ReconstructionService(root, workers=1)
        # The lock dies with the holder: a successor takes the root over.
        ReconstructionService(root, workers=1).close()

    def test_distinct_roots_coexist(self, service_factory):
        service_factory(workers=1)
        service_factory(workers=1)  # different root — no contention


class TestWorkerResilience:
    def test_unknown_backend_fails_job_not_worker(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        # Submissions arrive cross-process with raw registry names; a
        # bad one must settle FAILED — not escape _run_job and kill the
        # worker thread with the record stuck RUNNING.
        service = service_factory(workers=1)
        bad_config = gd_config(tiny_lr, iterations=2).with_compute(
            backend="no-such-backend"
        )
        bad = service.submit(tiny_dataset, bad_config)
        assert bad.wait(timeout=WAIT) == JobState.FAILED
        assert "no-such-backend" in bad.record().error
        # The worker survived: the next job on the same thread completes.
        good = service.submit(tiny_dataset, gd_config(tiny_lr, iterations=2))
        assert good.wait(timeout=WAIT) == JobState.DONE

    def test_diverged_job_settles_failed(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        # At this step the cost is non-finite within 5 iterations
        # (tests/core/test_divergence.py): the leg raises
        # DivergenceError, and the job settles FAILED with no result.
        service = service_factory(workers=1, checkpoint_every=1)
        lr = suggest_lr(tiny_dataset, alpha=1e4)
        bad = service.submit(tiny_dataset, gd_config(lr, iterations=5))
        assert bad.wait(timeout=WAIT) == JobState.FAILED
        assert "DivergenceError" in bad.record().error
        directory = jobstore.job_dir(service.root, bad.job_id)
        assert not (directory / "result.npz").exists()
        good = service.submit(tiny_dataset, gd_config(tiny_lr, iterations=2))
        assert good.wait(timeout=WAIT) == JobState.DONE

    def test_resumed_leg_reports_run_global_divergence(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        # A 2+2 chain that diverges at run iteration 3, in its second
        # leg: the error names the run's iteration and last finite cost,
        # as the uninterrupted run's does.
        lr = suggest_lr(tiny_dataset, alpha=1e8)
        config = gd_config(lr, iterations=4)
        with pytest.raises(DivergenceError) as straight:
            reconstruct(tiny_dataset, config)
        assert straight.value.iteration == 3
        service = service_factory(workers=1)
        with held_worker(service, tiny_dataset, tiny_lr):
            handle = service.submit(tiny_dataset, config)
            handle.cancel(at_iteration=2)
        assert handle.wait(timeout=WAIT) == JobState.CANCELLED
        assert handle.record().iterations_done == 2
        handle.resume()
        assert handle.wait(timeout=WAIT) == JobState.FAILED
        assert str(straight.value) in handle.record().error


class TestComputePinning:
    def test_ambient_compute_is_pinned_at_run_time(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        # A config submitted with backend=dtype=None must not float
        # with the process default forever: the first leg stamps the
        # resolved names into the record and every archive it writes,
        # so later resumes are fingerprint-checked against what ran.
        from repro.backend.base import default_backend_name, default_dtype_name

        expected_backend = default_backend_name()
        expected_dtype = default_dtype_name()
        service = service_factory(workers=1)
        handle = service.submit(tiny_dataset, gd_config(tiny_lr, iterations=2))
        assert handle.wait(timeout=WAIT) == JobState.DONE
        record = handle.record()
        assert record.config["backend"] == expected_backend
        assert record.config["dtype"] == expected_dtype
        archive = handle.result()
        assert archive.config.backend == expected_backend
        assert archive.config.dtype == expected_dtype


class TestProgressEviction:
    def test_settled_streams_evicted_past_cap(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        service = service_factory(workers=1, progress_cap=2)
        handles = [
            service.submit(tiny_dataset, gd_config(tiny_lr, iterations=2))
            for _ in range(3)
        ]
        for handle in handles:
            assert handle.wait(timeout=WAIT) == JobState.DONE
        # One worker settles in submission order: the oldest settled
        # job's stream is gone, the newest two survive, and the durable
        # mirror remains for the evicted one.
        assert handles[0].progress() is None
        assert handles[1].progress() is not None
        assert handles[2].progress() is not None
        from repro.service import read_progress

        mirror = jobstore.job_dir(
            service.root, handles[0].job_id
        ) / "progress.json"
        assert read_progress(mirror).iteration == 2

"""Leg-process faults: a leg killed mid-run, a service closed with a leg
still running, and a service that dies under its legs.  Each ends with
no orphaned process, and the job finishes from its newest periodic
checkpoint, fingerprint-identical to an uninterrupted run.  A leg reaped
by another thread's fork settles as if its own supervisor reaped it."""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import replace
from multiprocessing import popen_fork
from pathlib import Path

from repro import reconstruct
from repro.backend.base import default_backend_name, default_dtype_name
from repro.io import save_dataset
from repro.runtime import process as runtime_process
from repro.service import JobState, ReconstructionService, load_record
from repro.service import jobs as jobstore

from tests.helpers import result_fingerprint
from tests.service.service_configs import gd_config

WAIT = 120.0
REPO = Path(__file__).resolve().parents[2]
# Long enough (a few ms per iteration) that the leg is still running
# when the fault lands a few iterations in.
ITERATIONS = 300


def wait_for_iteration(handle, iteration, timeout=WAIT):
    """Block until the job's stream has reported ``iteration``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stream = handle.progress()
        update = stream.poll() if stream is not None else None
        if update is not None and update.iteration >= iteration:
            return
        time.sleep(0.002)
    raise AssertionError(f"job never reached iteration {iteration}")


def checkpoint_iteration(root, job_id):
    """Global iteration of the job's newest periodic checkpoint."""
    newest = jobstore.latest_checkpoint(root, job_id)
    assert newest is not None and newest.name.startswith("checkpoint_")
    return int(newest.stem.split("iter")[1])


def proc_stat(pid):
    """State and parent pid of ``pid`` (``None`` once it is reaped)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def gone(pid):
    """True once ``pid`` has exited (a zombie counts: it runs no more)."""
    stat = proc_stat(pid)
    return stat is None or stat[0] in ("Z", "X")


def children_of(pid):
    """Pids of the live processes whose parent is ``pid``."""
    return [
        int(entry) for entry in os.listdir("/proc")
        if entry.isdigit() and not gone(int(entry))
        and (proc_stat(int(entry)) or ("X", 0))[1] == pid
    ]


def wait_gone(pids, timeout=10.0):
    deadline = time.monotonic() + timeout
    while any(not gone(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.01)
    return [pid for pid in pids if not gone(pid)]


class TestKilledLeg:
    def test_sigkill_fails_job_and_resume_finishes_it(
        self, tiny_dataset, tiny_lr, service_factory
    ):
        config = gd_config(tiny_lr, iterations=ITERATIONS)
        service = service_factory(workers=1, checkpoint_every=2)
        handle = service.submit(tiny_dataset, config)
        wait_for_iteration(handle, 3)
        (leg,) = multiprocessing.active_children()
        # Rank workers, when the ambient executor is ``process``.
        workers = children_of(leg.pid)
        os.kill(leg.pid, signal.SIGKILL)

        assert handle.wait(timeout=10.0) == JobState.FAILED
        assert "SIGKILL" in handle.record().error
        assert multiprocessing.active_children() == []
        assert wait_gone(workers) == []
        banked = checkpoint_iteration(service.root, handle.job_id)

        handle.resume()
        assert handle.wait(timeout=WAIT) == JobState.DONE, \
            handle.record().error
        # The resumed leg started right after the checkpoint.
        assert handle.progress().history()[0].iteration == banked + 1
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(handle.result()) == \
            result_fingerprint(direct)


class TestLegReapedElsewhere:
    def test_leg_reaped_by_another_fork_settles_done(
        self, tiny_dataset, tiny_lr, service_factory, monkeypatch
    ):
        # Every fork runs multiprocessing's _cleanup, which reaps finished
        # children, under the fork lock.  When that reaps a leg while the
        # leg's supervisor waits in join(), join() returns before the exit
        # code is recorded.  Replay that interleaving on the leg's join.
        original_wait = popen_fork.Popen.wait
        service_pid = os.getpid()
        others = []

        def wait_reaped_elsewhere(popen, timeout=None):
            # Only the service's first join: not a leg's own joins of
            # its rank workers (the fork copies the patch into the leg).
            if others or os.getpid() != service_pid:
                return original_wait(popen, timeout)
            reaped = threading.Event()

            def other_fork():
                with runtime_process._TRACKER_LOCK:
                    _, status = os.waitpid(popen.pid, 0)
                    reaped.set()
                    time.sleep(0.2)
                    popen.returncode = os.waitstatus_to_exitcode(status)

            others.append(threading.Thread(target=other_fork))
            others[0].start()
            reaped.wait()
            return original_wait(popen, timeout)  # ECHILD: None

        monkeypatch.setattr(popen_fork.Popen, "wait", wait_reaped_elsewhere)
        service = service_factory(workers=1)
        handle = service.submit(tiny_dataset, gd_config(tiny_lr, iterations=2))
        state = handle.wait(timeout=WAIT)
        (other,) = others
        other.join()
        assert state == JobState.DONE, handle.record().error
        assert multiprocessing.active_children() == []


class TestBoundedShutdown:
    def test_close_timeout_reaps_leg_and_next_service_recovers(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        root = tmp_path / "jobs"
        config = gd_config(tiny_lr, iterations=ITERATIONS)
        service = ReconstructionService(root, workers=1, checkpoint_every=2)
        handle = service.submit(tiny_dataset, config)
        wait_for_iteration(handle, 3)
        service.close(timeout=0.05)

        assert multiprocessing.active_children() == []
        record = load_record(root, handle.job_id)
        assert record.state == JobState.RUNNING
        assert record.iterations_done == 0
        banked = checkpoint_iteration(root, handle.job_id)

        with ReconstructionService(root, workers=1) as successor:
            assert successor.stats()["recovered"] == 1
            assert successor.wait(handle.job_id, timeout=WAIT) == \
                JobState.DONE
            first = successor.progress(handle.job_id).history()[0]
            archive = successor.result(handle.job_id)
        assert first.iteration == banked + 1
        assert load_record(root, handle.job_id).resumes == 1
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(archive) == result_fingerprint(direct)


class TestUnsettledLeg:
    def test_finished_leg_of_dead_service_settles_done(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        # The leg archived its result and banked its carry, then the
        # service died before it settled the job: the successor settles
        # it instead of running it again.
        root = tmp_path / "jobs"
        config = gd_config(tiny_lr, iterations=4)
        with ReconstructionService(root, workers=1) as service:
            handle = service.submit(tiny_dataset, config)
            assert handle.wait(timeout=WAIT) == JobState.DONE
        record = load_record(root, handle.job_id)
        record.state = JobState.RUNNING
        jobstore.save_record(root, record)

        with ReconstructionService(root, workers=1) as successor:
            assert successor.status(handle.job_id) == JobState.DONE
            assert successor.stats()["done"] == 1
            archive = successor.result(handle.job_id)
        assert load_record(root, handle.job_id).resumes == 0
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(archive) == result_fingerprint(direct)


SERVICE_SCRIPT = textwrap.dedent("""
    import multiprocessing, sys, time
    from pathlib import Path
    from repro.api import ReconstructionConfig
    from repro.service import ReconstructionService

    root, dataset, config = sys.argv[1:]
    service = ReconstructionService(root, workers=1, checkpoint_every=2)
    handle = service.submit(
        dataset,
        ReconstructionConfig.from_json(Path(config).read_text()),
        job_id="orphan",
    )
    while True:
        stream = handle.progress()
        update = stream.poll() if stream is not None else None
        if update is not None and update.iteration >= 3:
            break
        time.sleep(0.002)
    (leg,) = multiprocessing.active_children()
    print(leg.pid, flush=True)
    time.sleep(600)
""")


class TestServiceDeath:
    def test_leg_stops_when_its_service_dies(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        root = tmp_path / "jobs"
        dataset = save_dataset(tmp_path / "ds.npz", tiny_dataset)
        # Compute pinned here, so the service process and the direct
        # run below agree whatever this process's ambient default is.
        config = replace(
            gd_config(tiny_lr, iterations=ITERATIONS),
            backend=default_backend_name(),
            dtype=default_dtype_name(),
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(config.to_json())
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src"), env.get("PYTHONPATH", "")]
        )
        server = subprocess.Popen(
            [sys.executable, "-c", SERVICE_SCRIPT, str(root), str(dataset),
             str(config_path)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            leg_pid = int(server.stdout.readline())
        finally:
            server.kill()
            server.wait()
            server.stdout.close()

        assert wait_gone([leg_pid]) == []
        # Stopped at an iteration boundary, not run to the end.
        assert not (jobstore.job_dir(root, "orphan") / "result.npz").exists()
        assert load_record(root, "orphan").state == JobState.RUNNING

        with ReconstructionService(root, workers=1) as successor:
            assert successor.wait("orphan", timeout=WAIT) == JobState.DONE
            archive = successor.result("orphan")
        direct = reconstruct(tiny_dataset, config)
        assert result_fingerprint(archive) == result_fingerprint(direct)

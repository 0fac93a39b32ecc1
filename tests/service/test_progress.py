"""ProgressStream: global iteration counting, polling, subscription,
and the cross-process JSON mirror."""

import threading

from repro.core.observers import IterationEvent
from repro.service import ProgressStream, read_progress


def event(iteration, cost=1.0, elapsed=1.0, n_iterations=10):
    return IterationEvent(
        solver="gd",
        iteration=iteration,
        n_iterations=n_iterations,
        cost=cost,
        elapsed_s=elapsed,
        messages=0,
        message_bytes=0,
        peak_memory_per_rank=[0],
        snapshot=lambda: None,
    )


class TestUpdates:
    def test_counts_iterations_globally(self):
        stream = ProgressStream("job")
        stream(event(4))  # run iteration 4 of 10: 4 banked by earlier legs
        update = stream.poll()
        assert update.iteration == 5
        assert update.total == 10
        assert update.fraction == 0.5
        assert update.iter_per_s == 1.0  # the one iteration it saw, in 1 s

    def test_poll_before_first_iteration_is_none(self):
        assert ProgressStream("job").poll() is None

    def test_rate_and_eta(self):
        stream = ProgressStream("job")
        stream(event(0, elapsed=2.0))
        stream(event(1, elapsed=4.0))  # 2 leg iterations in 4s
        update = stream.poll()
        assert update.iter_per_s == 0.5
        assert update.eta_s == 8 / 0.5

    def test_eta_inf_when_no_elapsed(self):
        stream = ProgressStream("job")
        stream(event(0, elapsed=0.0, n_iterations=3))
        assert stream.poll().eta_s == float("inf")

    def test_total_follows_each_event(self):
        # A streamed or resumed run reports its total on every event;
        # the stream takes it from there, whatever it read before.
        stream = ProgressStream("job")
        stream(event(1, n_iterations=2))
        stream(event(2, n_iterations=6))
        assert [(u.iteration, u.total) for u in stream.history()] == [
            (2, 2), (3, 6),
        ]

    def test_resumed_leg_eta_counts_the_run_remainder(self):
        stream = ProgressStream("job")
        stream(event(2, elapsed=1.0, n_iterations=6))  # joined at run it 2
        stream(event(3, elapsed=2.0, n_iterations=6))
        update = stream.poll()
        assert update.iter_per_s == 1.0  # 2 iterations seen in 2 s
        assert update.eta_s == 2.0  # run iterations 5 and 6 remain

    def test_last_run_iteration_is_complete(self):
        stream = ProgressStream("job")
        stream(event(5, elapsed=3.0, n_iterations=6))
        update = stream.poll()
        assert (update.iteration, update.total) == (6, 6)
        assert update.fraction == 1.0
        assert update.eta_s == 0.0

    def test_history_accumulates(self):
        stream = ProgressStream("job")
        for it in range(3):
            stream(event(it, cost=float(it), n_iterations=3))
        costs = [u.cost for u in stream.history()]
        assert costs == [0.0, 1.0, 2.0]


class TestSubscribe:
    def test_subscriber_sees_every_update_then_ends_on_close(self):
        stream = ProgressStream("job")
        seen = []

        def client():
            for update in stream.subscribe():
                seen.append(update.iteration)

        thread = threading.Thread(target=client)
        thread.start()
        for it in range(3):
            stream(event(it, n_iterations=3))
        stream.close()
        thread.join(timeout=5.0)
        assert seen == [1, 2, 3]

    def test_subscriber_timeout_ends_stalled_stream(self):
        stream = ProgressStream("job")
        stream(event(0, n_iterations=3))
        seen = [u.iteration for u in stream.subscribe(timeout=0.01)]
        assert seen == [1]  # drained the buffer, then timed out


class TestMirror:
    def test_mirror_roundtrips_through_read_progress(self, tmp_path):
        path = tmp_path / "progress.json"
        stream = ProgressStream("job7", mirror_path=path)
        stream(event(1, cost=0.25, elapsed=2.0, n_iterations=4))
        update = read_progress(path)
        assert update.job_id == "job7"
        assert update.iteration == 2
        assert update.cost == 0.25

    def test_mirror_spells_inf_eta_as_null(self, tmp_path):
        path = tmp_path / "progress.json"
        stream = ProgressStream("job", mirror_path=path)
        stream(event(0, elapsed=0.0, n_iterations=4))
        assert "Infinity" not in path.read_text()
        assert read_progress(path).eta_s == float("inf")

    def test_read_progress_missing_file_is_none(self, tmp_path):
        assert read_progress(tmp_path / "nope.json") is None

    def test_read_progress_torn_file_is_none(self, tmp_path):
        path = tmp_path / "progress.json"
        path.write_text("{not json")
        assert read_progress(path) is None

"""Acceptance bar of the runtime subsystem: the ``process`` executor is
fingerprint-identical to ``serial`` on the numpy backend.

"Fingerprint" means bit-for-bit: stitched volumes compare with
``assert_array_equal`` (no tolerance), cost histories compare with
``==``, and the measured message/byte/memory accounting matches the
``VirtualComm`` numbers exactly — for every gd mesh configuration the
serial-equivalence suite exercises, for every planner, for reduced
worker pools, for probe refinement, and for the halo-exchange baseline.
"""

import numpy as np
import pytest

from repro.baseline.halo_exchange import HaloExchangeReconstructor
from repro.core.reconstructor import GradientDecompositionReconstructor
from repro.runtime import ProcessExecutor


def _pair(ds, serial_kwargs, executor="process", **process_extra):
    """Run the same configuration under both executors."""
    r_serial = GradientDecompositionReconstructor(
        executor="serial", backend="numpy", **serial_kwargs
    ).reconstruct(ds)
    r_process = GradientDecompositionReconstructor(
        executor=executor, backend="numpy", **serial_kwargs,
        **process_extra,
    ).reconstruct(ds)
    return r_serial, r_process


def _assert_fingerprint(a, b):
    np.testing.assert_array_equal(a.volume, b.volume)
    assert a.history == b.history
    assert a.messages == b.messages
    assert a.message_bytes == b.message_bytes
    assert a.peak_memory_per_rank == b.peak_memory_per_rank


class TestMeshConfigurations:
    """Every rank count of the serial-equivalence suite, both modes."""

    @pytest.mark.parametrize("n_ranks", [1, 2, 4, 6, 9])
    def test_synchronous_bit_identical(self, small_dataset, small_lr, n_ranks):
        a, b = _pair(small_dataset, dict(
            n_ranks=n_ranks, iterations=2, lr=small_lr,
            mode="synchronous", halo="exact",
        ))
        _assert_fingerprint(a, b)

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_alg1_bit_identical(self, tiny_dataset, tiny_lr, n_ranks):
        a, b = _pair(tiny_dataset, dict(
            n_ranks=n_ranks, iterations=2, lr=tiny_lr * 0.5, mode="alg1",
        ))
        _assert_fingerprint(a, b)


class TestPlanners:
    @pytest.mark.parametrize(
        "planner", ["appp", "barrier", "allreduce", "neighbor"]
    )
    def test_every_planner_bit_identical(
        self, tiny_dataset, tiny_lr, planner
    ):
        a, b = _pair(tiny_dataset, dict(
            n_ranks=4, iterations=2, lr=tiny_lr,
            mode="synchronous", planner=planner,
        ))
        _assert_fingerprint(a, b)

    def test_fixed_halo_truncation_bit_identical(self, tiny_dataset, tiny_lr):
        """Gradient truncation (vacuum reads + discarded contributions)
        is rank-local and must survive process placement unchanged."""
        a, b = _pair(tiny_dataset, dict(
            n_ranks=4, iterations=2, lr=tiny_lr, halo=3,
        ))
        _assert_fingerprint(a, b)

    def test_sub_iteration_rounds_bit_identical(self, tiny_dataset, tiny_lr):
        a, b = _pair(tiny_dataset, dict(
            n_ranks=4, iterations=2, lr=tiny_lr, sync_period="half",
        ))
        _assert_fingerprint(a, b)


class TestWorkerPools:
    """runtime_workers < n_ranks co-hosts rank blocks in one process:
    messages inside a block stay in the worker's mailbox, the rest cross
    a queue, and collectives are booked by worker 0 alone — at every
    pool width the totals must still be the serial run's."""

    @pytest.mark.parametrize("planner", ["appp", "allreduce"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_reduced_pool_bit_identical(
        self, tiny_dataset, tiny_lr, workers, planner
    ):
        kwargs = dict(n_ranks=4, iterations=2, lr=tiny_lr, planner=planner)
        if planner == "allreduce":
            kwargs["mode"] = "synchronous"
        a, b = _pair(tiny_dataset, kwargs, runtime_workers=workers)
        _assert_fingerprint(a, b)

    def test_spawned_workers_bit_identical(self, tiny_dataset, tiny_lr):
        """``EnginePlan`` promises to ship under ``spawn`` too."""
        a, b = _pair(
            tiny_dataset,
            dict(n_ranks=4, iterations=2, lr=tiny_lr),
            executor=ProcessExecutor(workers=2, start_method="spawn"),
        )
        _assert_fingerprint(a, b)


class TestProbeRefinement:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_probe_allreduce_bit_identical(
        self, tiny_dataset, tiny_lr, workers
    ):
        a, b = _pair(tiny_dataset, dict(
            n_ranks=4, iterations=2, lr=tiny_lr, refine_probe=True,
        ), runtime_workers=workers)
        _assert_fingerprint(a, b)
        np.testing.assert_array_equal(a.probe, b.probe)


class TestWarmStart:
    def test_initial_volume_bit_identical(self, tiny_dataset, tiny_lr):
        warm = GradientDecompositionReconstructor(
            n_ranks=4, iterations=1, lr=tiny_lr
        ).reconstruct(tiny_dataset).volume
        r_s = GradientDecompositionReconstructor(
            n_ranks=4, iterations=1, lr=tiny_lr, executor="serial"
        ).reconstruct(tiny_dataset, initial_volume=warm)
        r_p = GradientDecompositionReconstructor(
            n_ranks=4, iterations=1, lr=tiny_lr, executor="process"
        ).reconstruct(tiny_dataset, initial_volume=warm)
        _assert_fingerprint(r_s, r_p)


class TestHaloExchangeBaseline:
    def test_hve_bit_identical(self, tiny_dataset, tiny_lr):
        kwargs = dict(n_ranks=4, iterations=2, lr=tiny_lr)
        a = HaloExchangeReconstructor(
            executor="serial", **kwargs
        ).reconstruct(tiny_dataset)
        b = HaloExchangeReconstructor(
            executor="process", **kwargs
        ).reconstruct(tiny_dataset)
        _assert_fingerprint(a, b)


class TestSessionBehaviour:
    def test_observers_see_live_state(self, tiny_dataset, tiny_lr):
        """Observer events and snapshots work across the process
        boundary: volumes are read out of shared memory between steps."""
        events = []
        snapshots = []

        def observer(ev):
            events.append((ev.iteration, ev.cost, ev.messages))
            snapshots.append(ev.snapshot().volume.copy())

        result = GradientDecompositionReconstructor(
            n_ranks=4, iterations=2, lr=tiny_lr, executor="process"
        ).reconstruct(tiny_dataset, observers=[observer])
        assert [e[0] for e in events] == [0, 1]
        assert [e[1] for e in events] == result.history
        assert events[-1][2] == result.messages
        np.testing.assert_array_equal(snapshots[-1], result.volume)

    def test_worker_failure_surfaces_traceback(self, tiny_dataset):
        """A worker crash must raise in the parent with the worker's
        traceback, not hang."""
        from repro.runtime import ProcessExecutor, RunOptions
        from repro.runtime.executor import EnginePlan

        recon = GradientDecompositionReconstructor(
            n_ranks=2, iterations=1, lr=0.1
        )
        decomp = recon.decompose(tiny_dataset)
        schedule = recon.build_iteration_schedule(decomp)
        plan = EnginePlan(
            dataset=tiny_dataset, decomp=decomp, schedule=schedule,
            lr=0.1, options=RunOptions(dtype="complex64"),
        )
        # Poison the plan so worker engine construction fails.
        plan.initial_volume = np.zeros((1, 2, 2), dtype=np.complex64)
        executor = ProcessExecutor(timeout=30.0)
        with pytest.raises(RuntimeError, match="initial volume shape"):
            executor.launch(plan)

    def test_closed_session_refuses_access(self, tiny_dataset, tiny_lr):
        from repro.runtime import ProcessExecutor, RunOptions
        from repro.runtime.executor import EnginePlan

        recon = GradientDecompositionReconstructor(
            n_ranks=2, iterations=1, lr=tiny_lr
        )
        decomp = recon.decompose(tiny_dataset)
        plan = EnginePlan(
            dataset=tiny_dataset, decomp=decomp,
            schedule=recon.build_iteration_schedule(decomp), lr=tiny_lr,
        )
        session = ProcessExecutor(workers=1).launch(plan)
        session.step()
        session.close()
        session.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            session.step()
        with pytest.raises(RuntimeError, match="closed"):
            session.volumes()

"""The serial solver: a one-rank schedule on the engine, checked against
the hand-written reference sweep."""

from dataclasses import replace

import numpy as np
import pytest

from repro.backend.base import default_dtype_name
from repro.baseline.halo_exchange import HaloExchangeReconstructor
from repro.baseline.serial import SerialReconstructor
from repro.core.reconstructor import GradientDecompositionReconstructor
from repro.data import write_store
from repro.physics.dataset import (
    scaled_pbtio3_spec,
    simulate_dataset,
    suggest_lr,
)
from tests.helpers import assert_results_identical
from tests.reference.serial import SerialReference


class TestBatch:
    def test_cost_decreases(self, small_dataset, small_lr):
        result = SerialReconstructor(
            iterations=5, lr=small_lr, scheme="batch"
        ).reconstruct(small_dataset)
        assert result.history[-1] < result.history[0]
        # Monotone for full-batch descent at a stable step size.
        assert all(
            b <= a * (1 + 1e-9)
            for a, b in zip(result.history, result.history[1:])
        )

    def test_volume_shape(self, tiny_dataset, tiny_lr):
        result = SerialReconstructor(iterations=1, lr=tiny_lr).reconstruct(
            tiny_dataset
        )
        assert result.volume.shape == (
            tiny_dataset.n_slices,
            *tiny_dataset.object_shape,
        )

    def test_improves_towards_ground_truth_datafit(
        self, small_dataset, small_lr
    ):
        recon = SerialReconstructor(iterations=8, lr=small_lr)
        result = recon.reconstruct(small_dataset)
        final = recon.evaluate_cost(small_dataset, result.volume)
        initial = recon.evaluate_cost(
            small_dataset, small_dataset.initial_object()
        )
        assert final < 0.2 * initial


class TestSgd:
    def test_cost_decreases(self, small_dataset, small_lr):
        result = SerialReconstructor(
            iterations=4, lr=small_lr * 0.5, scheme="sgd"
        ).reconstruct(small_dataset)
        assert result.history[-1] < result.history[0]

    def test_sgd_differs_from_batch(self, tiny_dataset, tiny_lr):
        batch = SerialReconstructor(
            iterations=2, lr=tiny_lr * 0.5, scheme="batch"
        ).reconstruct(tiny_dataset)
        sgd = SerialReconstructor(
            iterations=2, lr=tiny_lr * 0.5, scheme="sgd"
        ).reconstruct(tiny_dataset)
        assert not np.allclose(batch.volume, sgd.volume)


class TestInterface:
    def test_validation(self):
        with pytest.raises(ValueError):
            SerialReconstructor(iterations=0)
        with pytest.raises(ValueError):
            SerialReconstructor(scheme="quantum")

    def test_callback(self, tiny_dataset, tiny_lr):
        seen = []
        SerialReconstructor(iterations=2, lr=tiny_lr).reconstruct(
            tiny_dataset,
            observers=[lambda ev: seen.append((ev.iteration, ev.cost))],
        )
        assert [s[0] for s in seen] == [0, 1]

    def test_result_has_single_rank_decomposition(
        self, tiny_dataset, tiny_lr
    ):
        result = SerialReconstructor(iterations=1, lr=tiny_lr).reconstruct(
            tiny_dataset
        )
        assert result.decomposition.n_ranks == 1
        assert result.messages == 0

    def test_evaluate_cost_zero_at_truth(self, tiny_dataset):
        recon = SerialReconstructor(iterations=1)
        cost = recon.evaluate_cost(tiny_dataset, tiny_dataset.ground_truth)
        assert cost < 1e-4  # float16 measurement storage rounding


@pytest.fixture(scope="module")
def odd_dataset():
    """5x4 probes, 15px (odd) detector, 2 slices."""
    spec = scaled_pbtio3_spec(
        scan_grid=(5, 4), detector_px=15, n_slices=2, overlap_ratio=0.7
    )
    return simulate_dataset(spec, seed=404)


class TestEngineTwin:
    """One solver path, checked against an independent one.  The serial
    solver compiles a one-rank schedule onto the engine —
    ``scheme="batch"`` is gd ``mode="synchronous"`` on one rank,
    ``scheme="sgd"`` is hve's ``LocalSolve`` on the whole field — and
    :class:`~tests.reference.serial.SerialReference`, the hand-written
    per-position sweep, is the oracle: all three agree **bit for bit**
    in volume, history and probe, with no messages, under every knob the
    serial solver accepts (probe refinement included: ``sgd`` +
    ``refine_probe`` is hve accumulating probe gradients in its local
    sweep).

    The one difference is the memory ledger: the engine charges each
    rank its probe copy (and, when refining, the probe-gradient
    buffer), and pins every frame of its tile even when ``positions``
    sweeps fewer; the oracle charges neither.
    """

    ITERATIONS = 4

    KNOBS = {
        "plain": {},
        "refine": {"refine_probe": True},
        "modes2": {"probe_modes": 2},
        "modes2-refine": {"probe_modes": 2, "refine_probe": True},
        "batch4": {"batch_size": 4},
        "complex64": {"dtype": "complex64"},
        "positions-refine": {
            "positions": (7, 0, 3, 5, 8, 1), "refine_probe": True,
        },
        "store-refine": {"data_source": "store", "refine_probe": True},
    }

    @classmethod
    def _knobs(cls, name, dataset, tmp_path):
        knobs = dict(cls.KNOBS[name])
        if knobs.get("data_source") == "store":
            path = tmp_path / "meas.npz"
            write_store(path, dataset, chunk_size=4)
            knobs["data_source"] = str(path)
        return knobs

    @staticmethod
    def _assert_twins(oracle, solver, engine, dataset, knobs):
        assert_results_identical(solver, engine)
        assert solver.peak_memory_per_rank == engine.peak_memory_per_rank
        assert np.array_equal(oracle.volume, engine.volume)
        assert oracle.history == engine.history
        refine = knobs.get("refine_probe", False)
        if refine:
            assert np.array_equal(oracle.probe, engine.probe)
            assert np.array_equal(solver.probe, engine.probe)
        else:
            assert oracle.probe is None and engine.probe is None
        assert (oracle.messages, engine.messages) == (0, 0)
        assert (oracle.message_bytes, engine.message_bytes) == (0, 0)
        assert engine.decomposition.n_ranks == 1
        if "positions" in knobs:
            return  # the engine pins the unswept frames too
        # The engine's probe: M modes at the run's complex width.
        itemsize = np.dtype(knobs.get("dtype") or default_dtype_name()).itemsize
        probe_nbytes = (
            dataset.probe.array.size * itemsize * knobs.get("probe_modes", 1)
        )
        (oracle_peak,) = oracle.peak_memory_per_rank
        (engine_peak,) = engine.peak_memory_per_rank
        assert engine_peak - oracle_peak == probe_nbytes * (2 if refine else 1)

    @pytest.mark.parametrize("knob", sorted(KNOBS))
    @pytest.mark.parametrize("case", ["tiny", "small", "odd"])
    def test_batch_is_one_rank_synchronous_gd(
        self, request, tmp_path, case, knob
    ):
        dataset = request.getfixturevalue(f"{case}_dataset")
        knobs = self._knobs(knob, dataset, tmp_path)
        lr = suggest_lr(dataset, alpha=0.4)
        kw = dict(iterations=self.ITERATIONS, lr=lr, **knobs)
        oracle = SerialReference(scheme="batch", **kw).reconstruct(dataset)
        solver = SerialReconstructor(scheme="batch", **kw).reconstruct(dataset)
        engine = GradientDecompositionReconstructor(
            n_ranks=1, mode="synchronous", executor="serial", **kw
        ).reconstruct(dataset)
        self._assert_twins(oracle, solver, engine, dataset, knobs)

    @pytest.mark.parametrize("knob", sorted(KNOBS))
    @pytest.mark.parametrize("case", ["tiny", "small", "odd"])
    def test_sgd_is_one_rank_halo_exchange(
        self, request, tmp_path, case, knob
    ):
        dataset = request.getfixturevalue(f"{case}_dataset")
        knobs = self._knobs(knob, dataset, tmp_path)
        lr = 0.5 * suggest_lr(dataset, alpha=0.4)
        kw = dict(iterations=self.ITERATIONS, lr=lr, **knobs)
        oracle = SerialReference(scheme="sgd", **kw).reconstruct(dataset)
        solver = SerialReconstructor(scheme="sgd", **kw).reconstruct(dataset)
        engine = HaloExchangeReconstructor(
            n_ranks=1, executor="serial", **kw
        ).reconstruct(dataset)
        self._assert_twins(oracle, solver, engine, dataset, knobs)

    def test_pinned_ledger_bytes(self, tiny_dataset, tiny_lr):
        """The concrete numbers at 16 px / complex128: one 4096-byte
        probe separates the oracle's ledger from the engine's, which the
        serial solver now reports."""
        kw = dict(iterations=1, lr=tiny_lr, dtype="complex128")
        oracle = SerialReference(**kw).reconstruct(tiny_dataset)
        serial = SerialReconstructor(**kw).reconstruct(tiny_dataset)
        engine = GradientDecompositionReconstructor(
            n_ranks=1, mode="synchronous", executor="serial", **kw
        ).reconstruct(tiny_dataset)
        assert oracle.peak_memory_per_rank == [78592]
        assert serial.peak_memory_per_rank == [82688]
        assert engine.peak_memory_per_rank == [82688]


class TestOneRankSchedule:
    """What the serial solver compiles, and what it refuses."""

    @pytest.mark.parametrize(
        "scheme, solver_type",
        [
            ("batch", GradientDecompositionReconstructor),
            ("sgd", HaloExchangeReconstructor),
        ],
    )
    def test_compiles_a_one_rank_in_process_schedule(
        self, tiny_dataset, scheme, solver_type
    ):
        serial = SerialReconstructor(
            iterations=2, scheme=scheme, refine_probe=True, probe_modes=2
        )
        assert isinstance(serial.solver, solver_type)
        plan = serial.solver.plan(tiny_dataset)
        assert plan.decomp.n_ranks == 1
        assert plan.options.executor == "serial"
        assert plan.refine_probe
        counts = plan.schedule.counts()
        assert counts["ProbeSync"] == 1
        assert counts["ApplyProbeUpdate"] == 1
        assert counts["OrthogonalizeProbe"] == 1

    def test_observers_see_the_serial_name(self, tiny_dataset, tiny_lr):
        seen = []
        SerialReconstructor(iterations=1, lr=tiny_lr, scheme="sgd").reconstruct(
            tiny_dataset, observers=[lambda ev: seen.append(ev.solver)]
        )
        assert seen == ["serial"]

    def test_swapped_options_reach_the_engine(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        """The streaming driver plants each epoch's store by replacing
        ``options`` on an already-built solver: the run must read it.
        The store here holds another seed's frames on the same
        geometry, so reading the dataset instead would show."""
        other = simulate_dataset(
            scaled_pbtio3_spec(
                scan_grid=(3, 3), detector_px=16, n_slices=2,
                overlap_ratio=0.7,
            ),
            seed=102,
        )
        path = str(tmp_path / "other.npz")
        write_store(path, other, chunk_size=4)
        kw = dict(iterations=2, lr=tiny_lr, scheme="sgd")
        recon = SerialReconstructor(**kw)
        recon.options = replace(recon.options, data_source=path)
        swapped = recon.reconstruct(tiny_dataset)
        oracle = SerialReference(data_source=path, **kw).reconstruct(
            tiny_dataset
        )
        plain = SerialReconstructor(**kw).reconstruct(tiny_dataset)
        assert_results_identical(oracle, swapped)
        assert not np.array_equal(plain.volume, swapped.volume)

    def test_placement_is_refused(self):
        with pytest.raises(TypeError, match="runs in process"):
            SerialReconstructor(executor="process")


class TestHaloExchangeProbeRefinement:
    """hve's local sweeps accumulate probe gradients when refining (the
    path serial ``sgd`` runs on); across ranks one all-reduce after the
    voxel exchange keeps every rank's probe identical."""

    def test_schedule_appends_probe_update_after_pastes(self, tiny_dataset):
        recon = HaloExchangeReconstructor(
            n_ranks=4, iterations=1, refine_probe=True
        )
        ops = list(recon.build_iteration_schedule(recon.decompose(tiny_dataset)))
        kinds = [type(op).__name__ for op in ops]
        assert kinds.index("ProbeSync") > max(
            i for i, k in enumerate(kinds) if k == "VoxelPaste"
        )
        assert kinds.count("ApplyProbeUpdate") == 4
        assert "OrthogonalizeProbe" not in kinds

    def test_multi_rank_refinement_moves_the_probe(self, tiny_dataset, tiny_lr):
        plain = HaloExchangeReconstructor(
            n_ranks=4, iterations=2, lr=0.5 * tiny_lr
        ).reconstruct(tiny_dataset)
        refined = HaloExchangeReconstructor(
            n_ranks=4, iterations=2, lr=0.5 * tiny_lr, refine_probe=True
        ).reconstruct(tiny_dataset)
        assert plain.probe is None
        assert refined.probe.shape == tiny_dataset.probe.array.shape
        assert np.isfinite(refined.probe).all()
        assert not np.array_equal(refined.probe, tiny_dataset.probe.array)
        assert refined.messages > plain.messages  # the probe all-reduce

    def test_process_executor_matches_serial_executor(
        self, tiny_dataset, tiny_lr
    ):
        kw = dict(n_ranks=4, iterations=2, lr=0.5 * tiny_lr,
                  refine_probe=True, probe_modes=2)
        in_process = HaloExchangeReconstructor(
            executor="serial", **kw
        ).reconstruct(tiny_dataset)
        workers = HaloExchangeReconstructor(
            executor="process", runtime_workers=2, **kw
        ).reconstruct(tiny_dataset)
        assert_results_identical(in_process, workers)
        np.testing.assert_array_equal(in_process.probe, workers.probe)

    def test_probe_lr_validation(self):
        with pytest.raises(ValueError, match="probe_lr"):
            HaloExchangeReconstructor(refine_probe=True, probe_lr=0.0)

"""Serial reference reconstructor."""

import numpy as np
import pytest

from repro.backend.base import default_dtype_name
from repro.baseline.halo_exchange import HaloExchangeReconstructor
from repro.baseline.serial import SerialReconstructor
from repro.core.reconstructor import GradientDecompositionReconstructor
from repro.physics.dataset import (
    scaled_pbtio3_spec,
    simulate_dataset,
    suggest_lr,
)


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
    """ROADMAP 2(b)'s question, answered: the serial solver equals a
    one-rank, zero-halo engine run **bit for bit** — ``scheme="batch"``
    is gd ``mode="synchronous"`` on one rank, ``scheme="sgd"`` is hve's
    ``LocalSolve`` on the whole field — in volume, history and probe,
    with no messages on either side.  The one difference is the memory
    ledger: the engine charges each rank its probe copy (and, when
    refining, the probe-gradient buffer); the serial solver charges
    neither.

    It stays a separate implementation anyway: ``sgd`` +
    ``refine_probe`` has no engine twin (``LocalSolve`` never computes
    probe gradients), and an independent per-position sweep on the
    scalar kernel entry point is what ``TestSerialEquivalence`` and the
    parity suites compare the engine *against*.
    """

    ITERATIONS = 4

    @staticmethod
    def _assert_twins(serial, engine, dataset, knobs):
        assert np.array_equal(serial.volume, engine.volume)
        assert serial.history == engine.history
        refine = knobs.get("refine_probe", False)
        if refine:
            assert np.array_equal(serial.probe, engine.probe)
        else:
            assert serial.probe is None and engine.probe is None
        assert (serial.messages, engine.messages) == (0, 0)
        assert (serial.message_bytes, engine.message_bytes) == (0, 0)
        assert engine.decomposition.n_ranks == 1
        # The engine's probe: M modes at the run's complex width.
        itemsize = np.dtype(knobs.get("dtype") or default_dtype_name()).itemsize
        probe_nbytes = (
            dataset.probe.array.size * itemsize * knobs.get("probe_modes", 1)
        )
        (serial_peak,) = serial.peak_memory_per_rank
        (engine_peak,) = engine.peak_memory_per_rank
        assert engine_peak - serial_peak == probe_nbytes * (2 if refine else 1)

    @pytest.mark.parametrize(
        "knobs",
        [
            {},
            {"refine_probe": True},
            {"probe_modes": 2, "refine_probe": True},
            {"batch_size": 4},
            {"dtype": "complex64"},
        ],
        ids=["plain", "refine", "modes2-refine", "batch4", "complex64"],
    )
    @pytest.mark.parametrize("case", ["tiny", "small", "odd"])
    def test_batch_is_one_rank_synchronous_gd(self, request, case, knobs):
        dataset = request.getfixturevalue(f"{case}_dataset")
        lr = suggest_lr(dataset, alpha=0.4)
        serial = SerialReconstructor(
            iterations=self.ITERATIONS, lr=lr, scheme="batch", **knobs
        ).reconstruct(dataset)
        engine = GradientDecompositionReconstructor(
            n_ranks=1,
            iterations=self.ITERATIONS,
            lr=lr,
            mode="synchronous",
            executor="serial",
            **knobs,
        ).reconstruct(dataset)
        self._assert_twins(serial, engine, dataset, knobs)

    @pytest.mark.parametrize(
        "knobs",
        [{}, {"probe_modes": 2}, {"dtype": "complex64"}],
        ids=["plain", "modes2", "complex64"],
    )
    @pytest.mark.parametrize("case", ["tiny", "small", "odd"])
    def test_sgd_is_one_rank_halo_exchange(self, request, case, knobs):
        dataset = request.getfixturevalue(f"{case}_dataset")
        lr = 0.5 * suggest_lr(dataset, alpha=0.4)
        serial = SerialReconstructor(
            iterations=self.ITERATIONS, lr=lr, scheme="sgd", **knobs
        ).reconstruct(dataset)
        engine = HaloExchangeReconstructor(
            n_ranks=1,
            iterations=self.ITERATIONS,
            lr=lr,
            executor="serial",
            **knobs,
        ).reconstruct(dataset)
        self._assert_twins(serial, engine, dataset, knobs)

    def test_pinned_ledger_bytes(self, tiny_dataset, tiny_lr):
        """The concrete numbers at 16 px / complex128: one 4096-byte
        probe separates the two ledgers."""
        kw = dict(iterations=1, lr=tiny_lr, dtype="complex128")
        serial = SerialReconstructor(**kw).reconstruct(tiny_dataset)
        engine = GradientDecompositionReconstructor(
            n_ranks=1, mode="synchronous", executor="serial", **kw
        ).reconstruct(tiny_dataset)
        assert serial.peak_memory_per_rank == [78592]
        assert engine.peak_memory_per_rank == [82688]

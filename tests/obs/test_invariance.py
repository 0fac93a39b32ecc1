"""Telemetry must never change the numbers.

Tracing is a read-out, not a participant: a traced run must produce
bit-identical results to an untraced one, and the ``telemetry`` config
knob must be invisible to ``fingerprint()`` so cached goldens and
checkpoint resume keys keep matching.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.api import ReconstructionConfig, reconstruct
from repro.obs.telemetry import ENV_TRACE, Telemetry, activate
from repro.physics.multislice import MultisliceModel

from tests.helpers import result_fingerprint
from tests.reference.kernel import cost_and_gradient


def _config(**overrides):
    base = dict(
        solver="gd",
        solver_params={"iterations": 3, "lr": 0.02},
        backend="numpy",
        dtype="complex128",
    )
    base.update(overrides)
    return ReconstructionConfig(**base)


class TestRunInvariance:
    def test_traced_run_matches_untraced(self, tiny_dataset):
        plain = reconstruct(tiny_dataset, config=_config())
        traced = reconstruct(tiny_dataset, config=_config(telemetry=True))
        assert result_fingerprint(traced) == result_fingerprint(plain)
        assert traced.telemetry is not None
        assert plain.telemetry is None

    def test_env_driven_tracing_matches_untraced(self, tiny_dataset, monkeypatch):
        monkeypatch.delenv(ENV_TRACE, raising=False)
        plain = reconstruct(tiny_dataset, config=_config())
        monkeypatch.setenv(ENV_TRACE, "1")
        traced = reconstruct(tiny_dataset, config=_config())
        assert result_fingerprint(traced) == result_fingerprint(plain)
        assert traced.telemetry is not None

    def test_ambient_recorder_matches_untraced(self, tiny_dataset):
        plain = reconstruct(tiny_dataset, config=_config())
        tel = Telemetry()
        with activate(tel):
            traced = reconstruct(tiny_dataset, config=_config())
        assert result_fingerprint(traced) == result_fingerprint(plain)
        # The ambient recorder's view is attached to the result too.
        assert traced.telemetry["phases"]

    def test_traced_summary_covers_engine_phases(self, tiny_dataset):
        result = reconstruct(tiny_dataset, config=_config(telemetry=True))
        summary = result.telemetry
        assert "engine.compute" in summary["phases"]
        assert summary["breakdown"]["gradient"] > 0.0
        assert summary["counters"].get("fft.calls", 0) > 0


class TestConfigNeutrality:
    def test_fingerprint_ignores_telemetry(self):
        assert _config().fingerprint() == _config(telemetry=True).fingerprint()
        assert _config().fingerprint() == _config(telemetry=False).fingerprint()

    def test_round_trips_through_dict(self):
        config = _config(telemetry=True)
        clone = ReconstructionConfig.from_dict(config.to_dict())
        assert clone.telemetry is True
        assert clone.fingerprint() == config.fingerprint()

    def test_default_is_none_meaning_env_decides(self):
        assert _config().telemetry is None

    def test_with_telemetry_helper(self):
        config = replace(_config(), telemetry=True)
        assert config.telemetry is True
        assert replace(config, telemetry=False).telemetry is False

    def test_non_bool_rejected(self):
        with pytest.raises(ValueError, match="telemetry"):
            _config(telemetry="yes")


def _fft_counts(counters):
    """The ``fft.*`` counters that are counts (timings excluded)."""
    return {
        key: value
        for key, value in counters.items()
        if key.startswith("fft.") and not key.endswith("seconds")
    }


class TestFftCounterContinuity:
    """The multislice kernel transforms in the FFT-native layout through
    ``fft2u``/``ifft2u``; what it reports must read exactly as when every
    transform went through ``fft2c``/``ifft2c``: ``4S - 2`` transforms
    per evaluation, all leading axes counted as batch."""

    SLICES, WINDOW = 3, 12

    def _evaluate(self, modes, batch):
        rng = np.random.default_rng(5)
        w, s = self.WINDOW, self.SLICES

        def cplx(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        model = MultisliceModel(
            w, s, 10.0, 2.508, 125.0, backend="numpy", dtype="complex128"
        )
        probe = cplx(w, w) if modes is None else cplx(modes, w, w)
        patches, measured = cplx(batch, s, w, w), np.abs(cplx(batch, w, w))
        tel = Telemetry()
        with activate(tel):
            if batch == 1:
                cost_and_gradient(model, probe, patches[0], measured[0])
            else:
                model.cost_and_gradient_batch(probe, patches, measured)
        return _fft_counts(tel.counters_snapshot())

    @pytest.mark.parametrize(
        "modes, batch, planes",
        [(None, 1, 1), (1, 1, 1), (None, 3, 3), (2, 1, 2), (2, 3, 6)],
    )
    def test_one_evaluation_counts_4s_minus_2(self, modes, batch, planes):
        transforms = 4 * self.SLICES - 2
        assert self._evaluate(modes, batch) == {
            "fft.calls": transforms,
            "fft.fft2.calls": transforms // 2,
            "fft.ifft2.calls": transforms // 2,
            "fft.numpy.calls": transforms,
            f"fft.batch[{planes}x{self.WINDOW}x{self.WINDOW}].calls": transforms,
        }

    # The *planes* (batch x calls) were recorded at the last commit whose
    # kernel used the centred transforms (PR 13), for these exact runs
    # on ``tiny_dataset`` (9 probes, 16 px, 2 slices; 2 ranks, 2
    # iterations): 9 x 2 evaluations x (4S - 2) = 108 per probe mode.
    # How they group into calls is the engine's lockstep sweep on the
    # serial executor: the two tiles hold 6 and 3 probes, so each
    # iteration makes 3 calls at B = 2 and 3 ragged-tail calls at B = 1.
    PLANES_PER_MODE = 108
    PER_POSITION = {
        "fft.calls": 72.0,
        "fft.fft2.calls": 36.0,
        "fft.ifft2.calls": 36.0,
        "fft.numpy.calls": 72.0,
        "fft.batch[1x16x16].calls": 36.0,
        "fft.batch[2x16x16].calls": 36.0,
    }
    BATCHED_MIXED = {
        "fft.calls": 36.0,
        "fft.fft2.calls": 18.0,
        "fft.ifft2.calls": 18.0,
        "fft.numpy.calls": 36.0,
        "fft.batch[4x16x16].calls": 12.0,
        "fft.batch[6x16x16].calls": 12.0,
        "fft.batch[8x16x16].calls": 12.0,
    }

    @pytest.mark.parametrize(
        "mode, extra, expected",
        [
            ("alg1", {}, PER_POSITION),
            ("synchronous", {"probe_modes": 2, "batch_size": 4}, BATCHED_MIXED),
        ],
    )
    def test_traced_gd_run_reads_as_before(
        self, tiny_dataset, mode, extra, expected
    ):
        config = _config(
            solver_params={
                "iterations": 2, "lr": 0.02, "n_ranks": 2, "mode": mode
            },
            telemetry=True,
            # Call widths depend on how many ranks one engine hosts.
            executor="serial",
            **extra,
        )
        result = reconstruct(tiny_dataset, config=config)
        counts = _fft_counts(result.telemetry["counters"])
        assert counts == expected
        # What the call table stands for, however the calls are grouped:
        # every evaluation puts 4S - 2 planes per mode through the FFT.
        planes = sum(
            int(key[len("fft.batch["):].split("x")[0]) * calls
            for key, calls in counts.items()
            if key.startswith("fft.batch[")
        )
        assert planes == self.PLANES_PER_MODE * extra.get("probe_modes", 1)

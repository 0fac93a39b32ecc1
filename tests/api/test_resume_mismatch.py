"""Resume validation: an archive only seeds a run whose numerics match
the one that produced it.  ``ReconstructionConfig.fingerprint()`` hashes
the numerics-determining fields (solver, solver params, backend, dtype)
and ignores the neutral ones (iterations, executor, store, batching), so
legitimate replays pass and silent warm-start-from-the-wrong-run fails
loudly with :class:`ResumeMismatchError`."""

from dataclasses import replace

import numpy as np
import pytest

from repro import reconstruct
from repro.api import ReconstructionConfig, ResumeMismatchError
from repro.backend.base import default_dtype_name, resolve_backend
from repro.io import save_result



def gd(lr, **over):
    params = {"n_ranks": 4, "iterations": 4, "lr": lr, "mode": "synchronous"}
    params.update(over)
    return ReconstructionConfig(solver="gd", solver_params=params)


@pytest.fixture()
def archive_path(tmp_path, tiny_dataset, tiny_lr):
    config = gd(tiny_lr)
    result = reconstruct(tiny_dataset, config)
    path = tmp_path / "seed.npz"
    save_result(path, result, config=config)
    return path


class TestFingerprint:
    def test_identical_configs_match(self, tiny_lr):
        assert gd(tiny_lr).fingerprint() == gd(tiny_lr).fingerprint()

    def test_numerics_fields_change_fingerprint(self, tiny_lr):
        base = gd(tiny_lr).fingerprint()
        assert gd(tiny_lr * 2).fingerprint() != base
        assert gd(tiny_lr, mode="alg1").fingerprint() != base
        assert gd(tiny_lr, n_ranks=9).fingerprint() != base
        assert ReconstructionConfig(
            solver="hve",
            solver_params={"n_ranks": 4, "iterations": 4, "lr": tiny_lr},
        ).fingerprint() != base
        # "A different dtype" relative to whatever REPRO_DTYPE resolves.
        other = (
            "complex64" if default_dtype_name() == "complex128"
            else "complex128"
        )
        assert replace(gd(tiny_lr), dtype=other).fingerprint() != base

    def test_neutral_fields_do_not_change_fingerprint(self, tiny_lr):
        base = gd(tiny_lr).fingerprint()
        assert gd(tiny_lr, iterations=99).fingerprint() == base
        assert replace(
            gd(tiny_lr), executor="process", runtime_workers=2
        ).fingerprint() == base
        assert replace(gd(tiny_lr), batch_size=4).fingerprint() == base

    def test_ambient_none_matches_explicit_default(self, tiny_lr):
        # backend=None resolves to the ambient default at fingerprint
        # time, so an archive that recorded it explicitly still seeds a
        # config that left the field ambient.  "The ambient default" is
        # whatever this environment resolves (REPRO_BACKEND/REPRO_DTYPE,
        # else numpy/complex128) — not a hard-wired pair.
        ambient = gd(tiny_lr)
        explicit = replace(
            ambient,
            backend=resolve_backend(None).name,
            dtype=default_dtype_name(),
        )
        assert ambient.fingerprint() == explicit.fingerprint()


class TestResumeCheck:
    def test_matching_resume_runs(
        self, tiny_dataset, tiny_lr, archive_path
    ):
        # reconstruct() continues the archive's ledger: volume and
        # history match the uninterrupted run bit for bit.
        resumed = reconstruct(
            tiny_dataset,
            gd(tiny_lr).with_run_params(resume=str(archive_path)),
        )
        full = reconstruct(tiny_dataset, gd(tiny_lr, iterations=8))
        np.testing.assert_array_equal(full.volume, resumed.volume)
        assert resumed.history == full.history

    def test_mismatched_lr_raises(
        self, tiny_dataset, tiny_lr, archive_path
    ):
        config = gd(tiny_lr * 2).with_run_params(resume=str(archive_path))
        with pytest.raises(ResumeMismatchError, match="fingerprint"):
            reconstruct(tiny_dataset, config)

    def test_mismatched_solver_raises(
        self, tiny_dataset, tiny_lr, archive_path
    ):
        config = ReconstructionConfig(
            solver="hve",
            solver_params={"n_ranks": 4, "iterations": 4, "lr": tiny_lr},
            run_params={"resume": str(archive_path)},
        )
        with pytest.raises(ResumeMismatchError):
            reconstruct(tiny_dataset, config)

    def test_resume_unchecked_bypasses(
        self, tiny_dataset, tiny_lr, archive_path
    ):
        config = gd(tiny_lr * 2).with_run_params(
            resume=str(archive_path), resume_unchecked=True
        )
        result = reconstruct(tiny_dataset, config)  # warm start, no raise
        assert result.n_iterations == 8

    def test_configless_archive_skips_check(
        self, tmp_path, tiny_dataset, tiny_lr
    ):
        # Archives written without an embedded config predate the
        # check; they resume as before (nothing to compare against).
        result = reconstruct(tiny_dataset, gd(tiny_lr))
        path = tmp_path / "bare.npz"
        save_result(path, result)  # no config=
        resumed = reconstruct(
            tiny_dataset,
            gd(tiny_lr * 2).with_run_params(resume=str(path)),
        )
        assert resumed.n_iterations == 8

    def test_neutral_knob_changes_resume_fine(
        self, tiny_dataset, tiny_lr, archive_path
    ):
        # Resuming on a different executor/batching is a legitimate
        # replay (bit-identical machinery) and must not trip the check.
        config = replace(gd(tiny_lr), batch_size=3).with_run_params(
            resume=str(archive_path)
        )
        resumed = reconstruct(tiny_dataset, config)
        full = reconstruct(tiny_dataset, gd(tiny_lr, iterations=8))
        np.testing.assert_array_equal(full.volume, resumed.volume)
        assert resumed.history == full.history

    def test_error_message_names_both_fingerprints(
        self, tiny_dataset, tiny_lr, archive_path
    ):
        config = gd(tiny_lr * 2).with_run_params(resume=str(archive_path))
        with pytest.raises(ResumeMismatchError) as err:
            reconstruct(tiny_dataset, config)
        message = str(err.value)
        assert gd(tiny_lr * 2).fingerprint()[:12] in message
        assert "resume_unchecked" in message


class TestProbeForwarding:
    def test_probe_refining_resume_is_bit_exact(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        # The archive carries the refined probe; resume forwards it as
        # initial_probe, so split runs match uninterrupted ones probe
        # and all.
        config = gd(tiny_lr, refine_probe=True)
        first = reconstruct(tiny_dataset, config)
        path = tmp_path / "probe_seed.npz"
        save_result(path, first, config=config)
        resumed = reconstruct(
            tiny_dataset, config.with_run_params(resume=str(path))
        )
        full = reconstruct(
            tiny_dataset, gd(tiny_lr, refine_probe=True, iterations=8)
        )
        np.testing.assert_array_equal(full.volume, resumed.volume)
        np.testing.assert_array_equal(full.probe, resumed.probe)
        assert resumed.history == full.history

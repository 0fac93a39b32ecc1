"""A resume archive carries the whole run: ``reconstruct(resume=...)``
folds the archive's ledger (cost history, traffic, per-rank memory
peaks) into its result and into every event snapshot, so a chain of
warm-started legs ends with the uninterrupted run's archive, and a
checkpoint written mid-chain holds the run so far."""

import pytest

from repro import reconstruct
from repro.api import CheckpointPolicy, ReconstructionConfig
from repro.io import load_result, save_result

from tests.helpers import result_fingerprint

STREAM = {"kind": "replay", "waves": 3}


def config_for(kind, lr, iterations):
    if kind == "serial":
        return ReconstructionConfig(
            "serial", {"iterations": iterations, "lr": lr}
        )
    params = {"n_ranks": 4, "iterations": iterations, "lr": lr}
    if kind == "hve":
        return ReconstructionConfig("hve", params)
    config = ReconstructionConfig("gd", {**params, "mode": "synchronous"})
    if kind == "streamed":
        config = config.with_stream(scan_source=STREAM)
    return config


KINDS = ["gd", "hve", "serial", "streamed"]


@pytest.mark.parametrize("kind", KINDS)
def test_three_leg_chain_equals_uninterrupted_run(
    kind, tiny_dataset, tiny_lr, tmp_path
):
    leg = config_for(kind, tiny_lr, iterations=2)
    seed = None
    checkpoints = CheckpointPolicy(tmp_path / "leg2", every=1, config=leg)
    for index in range(3):
        config = leg if seed is None else leg.with_run_params(resume=seed)
        observers = [checkpoints] if index == 1 else []
        result = reconstruct(tiny_dataset, config, observers=observers)
        seed = str(save_result(tmp_path / f"leg{index}.npz", result, leg))

    full = reconstruct(tiny_dataset, config_for(kind, tiny_lr, 6))
    assert result_fingerprint(result) == result_fingerprint(full)
    assert result.peak_memory_per_rank == full.peak_memory_per_rank
    assert result_fingerprint(load_result(seed)) == result_fingerprint(full)

    # Written during leg 2 (after the run's iterations 3 and 4).
    first, second = (load_result(p) for p in checkpoints.saved_paths)
    assert first.history == full.history[:3]
    assert second.history == full.history[:4]

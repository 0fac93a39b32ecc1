"""A resume archive carries the whole run: ``reconstruct(resume=...)``
folds the archive's ledger (cost history, traffic, per-rank memory
peaks) into its result and into every event, so a chain of
warm-started legs ends with the uninterrupted run's archive, emits the
uninterrupted run's events, and a checkpoint written mid-chain holds
the run so far under the run iteration's name."""

from dataclasses import replace

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
        config = replace(config, scan_source=STREAM)
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
    assert [p.name for p in checkpoints.saved_paths] == [
        "checkpoint_iter0003.npz",
        "checkpoint_iter0004.npz",
    ]
    first, second = (load_result(p) for p in checkpoints.saved_paths)
    assert first.history == full.history[:3]
    assert second.history == full.history[:4]


@pytest.mark.parametrize("kind", KINDS)
def test_resumed_leg_checkpoints_on_run_cadence(
    kind, tiny_dataset, tiny_lr, tmp_path
):
    # 3 iterations, then 3 more resumed: every=2 counts run iterations,
    # so the second leg writes after run iterations 4 and 6.
    leg = config_for(kind, tiny_lr, iterations=3)
    first = reconstruct(tiny_dataset, leg)
    seed = str(save_result(tmp_path / "leg0.npz", first, leg))
    checkpoints = CheckpointPolicy(tmp_path / "leg1", every=2, config=leg)
    reconstruct(
        tiny_dataset,
        leg.with_run_params(resume=seed),
        observers=[checkpoints],
    )
    assert [p.name for p in checkpoints.saved_paths] == [
        "checkpoint_iter0004.npz",
        "checkpoint_iter0006.npz",
    ]
    full = reconstruct(tiny_dataset, config_for(kind, tiny_lr, 6))
    at4, at6 = (load_result(p) for p in checkpoints.saved_paths)
    assert at4.history == full.history[:4]
    assert at6.history == full.history


def scalars(events):
    return [(e.iteration, e.cost, e.messages, e.message_bytes) for e in events]


@pytest.mark.parametrize("kind", KINDS)
def test_three_leg_chain_emits_the_uninterrupted_events(
    kind, tiny_dataset, tiny_lr, tmp_path
):
    leg = config_for(kind, tiny_lr, iterations=2)
    seed = None
    chained, totals = [], []
    for index in range(3):
        config = leg if seed is None else leg.with_run_params(resume=seed)
        events = []
        result = reconstruct(tiny_dataset, config, observers=[events.append])
        seed = str(save_result(tmp_path / f"leg{index}.npz", result, leg))
        chained += events
        totals.append([e.n_iterations for e in events])

    full = []
    reconstruct(
        tiny_dataset, config_for(kind, tiny_lr, 6), observers=[full.append]
    )
    assert scalars(chained) == scalars(full)
    # A leg knows the run so far plus itself, not the legs after it.
    assert totals == [[2, 2], [4, 4], [6, 6]]
    assert [e.is_last for e in chained] == [False, True] * 3

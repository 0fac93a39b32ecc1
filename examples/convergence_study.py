#!/usr/bin/env python3
"""Convergence vs communication frequency (paper Fig. 9).

Runs the Gradient Decomposition with the three delayed-accumulation
settings of the paper's Fig. 9 and prints the cost curves as ASCII plots.

Observing a run
---------------
Any callable receiving a :class:`repro.api.IterationEvent` can be passed
to ``repro.reconstruct(dataset, config, observers=[...])`` or to any
reconstructor's ``reconstruct(..., observers=[...])``::

    repro.reconstruct(dataset, config,
                      observers=[lambda ev: log(ev.iteration, ev.cost)])

Events also carry wall-clock time, message/memory counters, and a lazy
``snapshot()`` producing a full ReconstructionResult — which is how
:class:`repro.api.CheckpointPolicy` writes restartable checkpoints every
N iterations (demonstrated below).

Run:
    python examples/convergence_study.py
"""

import tempfile
from pathlib import Path

import repro
from repro import CheckpointPolicy, ReconstructionConfig
from repro.experiments.fig9 import run_fig9


def ascii_curve(history, width=50):
    top = max(history)
    lines = []
    for it, cost in enumerate(history):
        bar = "#" * max(1, int(width * cost / top))
        lines.append(f"    iter {it:2d}  {cost:10.4e}  {bar}")
    return "\n".join(lines)


def observer_demo() -> None:
    """A small run watched live and checkpointed every 2 iterations."""
    spec = repro.scaled_pbtio3_spec(
        scan_grid=(4, 4), detector_px=16, n_slices=2, overlap_ratio=0.72
    )
    dataset = repro.simulate_dataset(spec, seed=5)
    config = ReconstructionConfig(
        solver="gd",
        solver_params={
            "n_ranks": 4,
            "iterations": 6,
            "lr": float(repro.suggest_lr(dataset, alpha=0.35)),
        },
    )
    with tempfile.TemporaryDirectory() as tmp:
        checkpoints = CheckpointPolicy(Path(tmp), every=2, config=config)
        ticker = lambda ev: print(
            f"  iter {ev.iteration + 1}/{ev.n_iterations}  cost {ev.cost:.4e}"
        )
        repro.reconstruct(dataset, config, observers=[ticker, checkpoints])
        print(f"  checkpoints written: {[p.name for p in checkpoints.saved_paths]}")


def main() -> None:
    print("observer demo (live ticker + CheckpointPolicy every 2 iterations):")
    observer_demo()
    print()

    print("running Fig. 9 convergence study (3 x 10 iterations, 42 ranks)...")
    result = run_fig9(iterations=10)
    print()
    print(result.format())
    print()
    for label, history in result.histories.items():
        print(f"  {label} ({result.message_counts[label]} messages):")
        print(ascii_curve(history))
        print()

    if result.reduced_frequency_wins():
        print(
            "paper claim REPRODUCED: passes once/twice per iteration "
            "converge at least as fast as per-probe passes, with "
            f"{result.communication_savings():.0f}x fewer messages."
        )
    else:
        print("paper claim NOT reproduced at this configuration.")


if __name__ == "__main__":
    main()

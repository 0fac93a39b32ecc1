"""``fold_leg``: the one ledger arithmetic for chained legs — history and
traffic add, per-rank memory peaks take the element-wise max, and every
other field describes the latest leg."""

import numpy as np

from repro.core.reconstructor import ReconstructionResult, fold_leg
from repro.io.storage import ResultArchive


def leg(history, messages, message_bytes, peaks, *, fill=0.0, probe=None):
    return ReconstructionResult(
        volume=np.full((1, 2, 2), fill, dtype=np.complex128),
        history=list(history),
        messages=messages,
        message_bytes=message_bytes,
        peak_memory_per_rank=list(peaks),
        decomposition=None,
        probe=probe,
        telemetry={"fill": fill},
    )


def archive_of(result):
    return ResultArchive(
        volume=result.volume,
        history=list(result.history),
        messages=np.int64(result.messages),
        message_bytes=np.int64(result.message_bytes),
        peak_memory_per_rank=[np.int64(p) for p in result.peak_memory_per_rank],
        n_ranks=len(result.peak_memory_per_rank),
    )


def ledger(result):
    return (
        result.history,
        result.messages,
        result.message_bytes,
        result.peak_memory_per_rank,
    )


FIRST = leg([5.0, 4.0], 10, 800, [100, 300], fill=1.0)
SECOND = leg([3.0], 6, 400, [200, 250], fill=2.0)
THIRD = leg([2.5, 2.0], 4, 100, [50, 400], fill=3.0)


def test_no_prior_returns_leg_itself():
    assert fold_leg(SECOND, None) is SECOND


def test_history_continues_in_run_order():
    assert fold_leg(SECOND, FIRST).history == [5.0, 4.0, 3.0]
    assert fold_leg(SECOND, FIRST).n_iterations == 3


def test_traffic_adds():
    folded = fold_leg(SECOND, FIRST)
    assert folded.messages == 16
    assert folded.message_bytes == 1200


def test_memory_peaks_take_elementwise_max():
    assert fold_leg(SECOND, FIRST).peak_memory_per_rank == [200, 300]


def test_ragged_peaks_pad_with_zero():
    shorter = leg([1.0], 0, 0, [500])
    assert fold_leg(shorter, FIRST).peak_memory_per_rank == [500, 300]
    assert fold_leg(FIRST, shorter).peak_memory_per_rank == [500, 300]


def test_state_fields_come_from_leg():
    probe = np.ones((2, 2), dtype=np.complex128)
    latest = leg([1.0], 1, 8, [1, 1], fill=7.0, probe=probe)
    folded = fold_leg(latest, FIRST)
    assert folded.volume is latest.volume
    assert folded.probe is probe
    assert folded.telemetry == {"fill": 7.0}
    assert folded.decomposition is latest.decomposition
    # The inputs are not touched.
    assert ledger(FIRST) == ([5.0, 4.0], 10, 800, [100, 300])
    assert ledger(latest) == ([1.0], 1, 8, [1, 1])


def test_archive_prior_folds_like_result():
    from_archive = fold_leg(SECOND, archive_of(FIRST))
    assert ledger(from_archive) == ledger(fold_leg(SECOND, FIRST))
    # Archive scalars load as numpy integers; the fold hands back ints.
    assert type(from_archive.messages) is int
    assert type(from_archive.message_bytes) is int
    assert all(type(p) is int for p in from_archive.peak_memory_per_rank)


def test_archive_leg_keeps_its_type():
    folded = fold_leg(archive_of(SECOND), FIRST)
    assert isinstance(folded, ResultArchive)
    assert folded.n_ranks == 2
    assert ledger(folded) == ledger(fold_leg(SECOND, FIRST))


def test_chaining_is_associative():
    """Folding leg by leg (the service's chain) and folding a pre-folded
    prior give the same whole-run ledger."""
    step_by_step = fold_leg(THIRD, fold_leg(SECOND, FIRST))
    tail_first = fold_leg(fold_leg(THIRD, SECOND), FIRST)
    assert ledger(step_by_step) == ledger(tail_first)
    assert ledger(step_by_step) == (
        [5.0, 4.0, 3.0, 2.5, 2.0],
        20,
        1300,
        [200, 400],
    )

"""``relay_leg``: the event-side twin of ``fold_leg`` — a leg's events are
re-emitted as the uninterrupted run's: iterations and the run total
continue the prior ledger's, traffic adds, memory peaks take the prior's
high-water, snapshots fold the prior in, and only ``elapsed_s`` stays
counted from the call."""

import numpy as np

from repro.core.observers import IterationEvent
from repro.core.reconstructor import ReconstructionResult, fold_leg, relay_leg
from repro.io.storage import ResultArchive


def leg(history, messages, message_bytes, peaks):
    return ReconstructionResult(
        volume=np.zeros((1, 2, 2), dtype=np.complex128),
        history=list(history),
        messages=messages,
        message_bytes=message_bytes,
        peak_memory_per_rank=list(peaks),
        decomposition=None,
    )


PRIOR = leg([5.0, 4.0, 3.0], 12, 960, [100, 300])
NOW = leg([2.0], 4, 320, [200, 250])


def event(iteration, n_iterations=2, *, snapshot=lambda: NOW, **fields):
    values = dict(
        solver="gd",
        cost=2.0,
        elapsed_s=0.5,
        messages=4,
        message_bytes=320,
        peak_memory_per_rank=[200, 250],
    )
    values.update(fields)
    return IterationEvent(
        iteration=iteration,
        n_iterations=n_iterations,
        snapshot=snapshot,
        **values,
    )


def relayed(prior, *events, **options):
    seen = []
    relay = relay_leg([seen.append], prior, **options)
    for each in events:
        relay(each)
    return seen


def test_no_prior_relays_the_event_as_it_is():
    (out,) = relayed(None, event(1))
    assert (out.iteration, out.n_iterations) == (1, 2)
    assert (out.messages, out.message_bytes) == (4, 320)
    assert out.elapsed_s == 0.5
    assert out.coverage is None
    assert out.snapshot() is NOW


def test_iteration_continues_the_prior_history():
    assert [e.iteration for e in relayed(PRIOR, event(0), event(1))] == [3, 4]


def test_total_is_the_prior_iterations_plus_the_leg():
    (out,) = relayed(PRIOR, event(0, n_iterations=2))
    assert out.n_iterations == 5


def test_explicit_total_replaces_the_leg_total():
    # A streaming epoch reports the run's total, not its own.
    (out,) = relayed(PRIOR, event(0, n_iterations=2), n_iterations=9)
    assert out.n_iterations == 9
    assert not out.is_last


def test_traffic_adds_the_prior_totals():
    (out,) = relayed(PRIOR, event(0))
    assert out.messages == 16
    assert out.message_bytes == 1280


def test_archive_prior_relays_plain_ints():
    archive = ResultArchive(
        volume=PRIOR.volume,
        history=list(PRIOR.history),
        messages=np.int64(PRIOR.messages),
        message_bytes=np.int64(PRIOR.message_bytes),
        peak_memory_per_rank=[np.int64(p) for p in PRIOR.peak_memory_per_rank],
        n_ranks=2,
    )
    (out,) = relayed(archive, event(0))
    assert (out.iteration, out.messages, out.message_bytes) == (3, 16, 1280)
    assert type(out.messages) is int
    assert type(out.message_bytes) is int


def test_elapsed_stays_per_call():
    # Archives carry no elapsed time: a prior shifts nothing here, and
    # only earlier epochs of the same call offset it.
    assert relayed(PRIOR, event(0, elapsed_s=0.5))[0].elapsed_s == 0.5
    (out,) = relayed(PRIOR, event(0, elapsed_s=0.5), elapsed_s=2.0)
    assert out.elapsed_s == 2.5


def test_coverage_is_stamped():
    (out,) = relayed(None, event(0), coverage=0.75)
    assert out.coverage == 0.75


def test_unchanged_fields_pass_through():
    (out,) = relayed(PRIOR, event(0, cost=1.25))
    assert out.solver == "gd"
    assert out.cost == 1.25


def test_folds_the_priors_per_rank_peaks():
    # The run's high-water, as the folded snapshot holds it; the mean is
    # derived from it.
    (out,) = relayed(PRIOR, event(0))
    assert out.peak_memory_per_rank == [200, 300]
    assert out.peak_memory_per_rank == out.snapshot().peak_memory_per_rank
    assert out.peak_memory_bytes == 250.0
    (alone,) = relayed(None, event(0))
    assert alone.peak_memory_per_rank == [200, 250]


def test_snapshot_folds_the_prior():
    (out,) = relayed(PRIOR, event(0))
    folded = out.snapshot()
    expected = fold_leg(NOW, PRIOR)
    assert folded.history == expected.history == [5.0, 4.0, 3.0, 2.0]
    assert folded.messages == expected.messages
    assert folded.message_bytes == expected.message_bytes
    assert folded.peak_memory_per_rank == [200, 300]


def test_snapshot_stays_lazy():
    calls = []

    def snapshot():
        calls.append(1)
        return NOW

    (out,) = relayed(PRIOR, event(0, snapshot=snapshot))
    assert calls == []
    out.snapshot()
    assert calls == [1]


def test_every_observer_sees_the_event_in_order():
    order = []
    relay = relay_leg(
        [lambda e: order.append(("a", e.iteration)),
         lambda e: order.append(("b", e.iteration))],
        PRIOR,
    )
    relay(event(0))
    relay(event(1))
    assert order == [("a", 3), ("b", 3), ("a", 4), ("b", 4)]


def test_last_leg_event_is_the_runs_last():
    out = relayed(PRIOR, event(0), event(1))
    assert [e.is_last for e in out] == [False, True]


def test_relayed_legs_read_as_one_run():
    """Three legs, each relayed onto the fold of the legs before it,
    emit one continuous run: iterations 0..4 of a growing total and
    cumulative traffic."""
    legs = [
        leg([5.0, 4.0], 10, 800, [1, 1]),
        leg([3.0], 6, 400, [1, 1]),
        leg([2.5, 2.0], 4, 100, [1, 1]),
    ]
    prior, seen = None, []
    for part in legs:
        relay = relay_leg([seen.append], prior)
        n = len(part.history)
        for it in range(n):
            # A leg's own counters are cumulative within the leg.
            relay(event(
                it, n, messages=part.messages * (it + 1) // n,
                message_bytes=part.message_bytes * (it + 1) // n,
            ))
        prior = fold_leg(part, prior)
    assert [(e.iteration, e.n_iterations) for e in seen] == [
        (0, 2), (1, 2), (2, 3), (3, 5), (4, 5),
    ]
    assert [(e.messages, e.message_bytes) for e in seen] == [
        (5, 400), (10, 800), (16, 1200), (18, 1250), (20, 1300),
    ]

"""Seeded property-based tests: StreamingStore journal/coverage
invariants and the growing-set BatchPlanner contract.

Like ``test_property_invariants.py``, examples are derandomized so runs
are reproducible without a shrink database.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.data import StreamingStore, StreamTimeout  # noqa: E402
from tests.reference.batching import BatchPlanner  # noqa: E402

COMMON = settings(max_examples=40, deadline=None, derandomize=True)

DET = 4
N = 25


def _frame(index):
    return np.full((DET, DET), float(index))


@st.composite
def arrival_orders(draw):
    """A scrambled subset of the scan, as an arrival sequence."""
    size = draw(st.integers(min_value=1, max_value=N))
    return draw(
        st.permutations(list(range(N)))
    )[:size]


# ----------------------------------------------------------------------
# Journal / coverage invariants
# ----------------------------------------------------------------------
@COMMON
@given(order=arrival_orders())
def test_journal_preserves_arrival_order_no_drop_no_dup(order):
    store = StreamingStore(N, DET, np.float64)
    for step, index in enumerate(order):
        store.append(index, _frame(index))
        journal = store.journal()
        # No drop, no duplication, no reorder: the journal IS the
        # arrival sequence so far.
        assert list(journal) == list(order[: step + 1])
        assert len(set(journal)) == len(journal)
    # Every journaled frame reads back as what was appended.
    for index in order:
        assert store.read(index)[0, 0] == float(index)


@COMMON
@given(order=arrival_orders())
def test_coverage_is_monotone_and_sorted(order):
    store = StreamingStore(N, DET, np.float64)
    previous = frozenset()
    for index in order:
        store.append(index, _frame(index))
        covered = store.coverage()
        assert list(covered) == sorted(covered)
        current = frozenset(covered)
        # Monotone: arrival only ever grows coverage, by exactly the
        # arrived index.
        assert previous < current
        assert current - previous == {index}
        previous = current
    assert store.poll().arrived == len(order)


@COMMON
@given(order=arrival_orders(), n=st.integers(min_value=0, max_value=N))
def test_wait_for_contract(order, n):
    store = StreamingStore(N, DET, np.float64)
    for index in order:
        store.append(index, _frame(index))
    if n <= len(order):
        # Already satisfied: returns immediately, no timeout involved.
        status = store.wait_for(n, timeout=0.0)
        assert status.arrived >= n
    else:
        # Unsatisfiable without new arrivals: a tiny timeout raises.
        with pytest.raises(StreamTimeout):
            store.wait_for(n, timeout=0.001)
        # ... but end-of-scan settles the wait even short of n frames.
        store.mark_end_of_scan()
        status = store.wait_for(n, timeout=0.0)
        assert status.end_of_scan and status.complete
        assert status.arrived == len(order)


# ----------------------------------------------------------------------
# BatchPlanner over a growing position set
# ----------------------------------------------------------------------
@COMMON
@given(
    indices=st.lists(
        st.integers(min_value=0, max_value=500), max_size=80, unique=True
    ),
    covered=st.sets(st.integers(min_value=0, max_value=500), max_size=80),
    batch_size=st.integers(min_value=1, max_value=16),
)
def test_plan_covered_partitions_exactly_the_covered_positions(
    indices, covered, batch_size
):
    planner = BatchPlanner(batch_size)
    batches = planner.plan_covered(indices, covered)
    flattened = [i for batch in batches for i in batch]
    # Exactly the covered subset, in the sweep's order — growing
    # coverage only ever appends work, never reshuffles it.
    assert flattened == [i for i in indices if i in covered]
    assert all(batches)
    assert all(len(b) <= batch_size for b in batches)
    assert all(len(b) == batch_size for b in batches[:-1])

"""Every array over a shared-memory segment pins it.

Rank-worker and parent arrays are ``np.frombuffer`` views, which hold an
export of the segment's buffer, so closing a segment under a live array
raises :class:`~repro.runtime.process.SegmentInUseError` instead of
unmapping memory the array still reads.  A normal run drops every view
first and closes cleanly (the parity and leak suites); these tests keep
one alive on purpose.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.engine import NumericEngine
from repro.core.reconstructor import GradientDecompositionReconstructor
from repro.runtime import ProcessExecutor
from repro.runtime.process import SegmentInUseError, _release, _view


def _plan(dataset):
    return GradientDecompositionReconstructor(
        n_ranks=2, iterations=1, lr=0.1, executor="process"
    ).plan(dataset)


def _shm_segments():
    return set(os.listdir("/dev/shm"))


def test_a_live_view_pins_its_segment():
    seg = shared_memory.SharedMemory(create=True, size=64)
    try:
        view = _view(seg, (2, 2), np.complex128)[1:]
        view[...] = 1.0
        with pytest.raises(SegmentInUseError, match="1 shared-memory"):
            _release([seg], unlink=True)
        # Still mapped: the view reads what it wrote, not unmapped memory.
        assert np.all(view == 1.0)
        assert seg.name.lstrip("/") not in _shm_segments()
        del view
        seg.close()
    finally:
        if seg.name.lstrip("/") in _shm_segments():  # pragma: no cover
            seg.unlink()


def test_session_close_refuses_a_volume_view_still_held(tiny_dataset):
    before = _shm_segments()
    session = ProcessExecutor(workers=2).launch(_plan(tiny_dataset))
    session.step()
    segments = list(session._segments)
    held = session.volumes()
    with pytest.raises(SegmentInUseError, match="2 shared-memory"):
        session.close()
    # Every segment is unlinked anyway, and the held views stay readable.
    assert _shm_segments() - before == set()
    assert all(np.isfinite(v).all() for v in held)
    # Once the views go, the pinned segments close.
    del held
    for seg in segments:
        seg.close()


def test_worker_teardown_refuses_an_engine_kept_alive(
    tiny_dataset, monkeypatch, capfd
):
    # Forked workers inherit the patch: each worker's engine outlives
    # its teardown, and with it the engine's arrays over the segments.
    kept = []
    monkeypatch.setattr(
        NumericEngine, "close", lambda self: kept.append(self)
    )
    session = ProcessExecutor(workers=2, start_method="fork").launch(
        _plan(tiny_dataset)
    )
    session.step()
    workers = list(session._procs)
    with pytest.raises(RuntimeError, match="exit status 1"):
        session.close()
    assert [w.exitcode for w in workers] == [1, 1]
    assert "SegmentInUseError" in capfd.readouterr().err


def test_a_clean_run_closes_without_error(tiny_dataset):
    session = ProcessExecutor(workers=2).launch(_plan(tiny_dataset))
    session.step()
    workers = list(session._procs)
    session.close()
    assert [w.exitcode for w in workers] == [0, 0]

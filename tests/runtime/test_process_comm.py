"""ProcessComm — protocol contract, mirroring the VirtualComm suite.

These tests drive worker-side comms *in one process* over real
multiprocessing queues (the transport does not care where the endpoints
live), so protocol violations — unmatched receive, double wait, bad
ranks, foreign-rank sends — are exercised deterministically and fast.
The barrier/shared-memory collectives are covered end-to-end by the
parity suite.

``ProcessComm`` *is* a ``VirtualComm`` with a transport added, so the
accounting classes below pin the invariant the whole reproduction rests
on — every placement books exactly what the serial communicator books,
to the integer — on the communicators themselves.
"""

import multiprocessing as mp
import queue
import threading
import time

import numpy as np
import pytest

from repro.parallel.comm import CommError, VirtualComm
from repro.runtime.process_comm import CommChannels, ProcessComm

#: Keep unmatched-receive tests fast: nothing ever arrives.
SHORT_TIMEOUT = 0.2


def make_channels(n_ranks: int, n_workers: int) -> CommChannels:
    ctx = mp.get_context()
    return CommChannels(
        inboxes=[ctx.Queue() for _ in range(n_ranks)],
        gather=ctx.Queue(),
        bcast=[ctx.Queue() for _ in range(n_workers)],
        barrier=ctx.Barrier(n_workers),
        n_workers=n_workers,
    )


@pytest.fixture()
def pair():
    """Two single-rank worker comms sharing one transport."""
    channels = make_channels(2, 2)
    a = ProcessComm(2, [0], 0, channels, timeout=SHORT_TIMEOUT)
    b = ProcessComm(2, [1], 1, channels, timeout=SHORT_TIMEOUT)
    return a, b


class TestBasics:
    def test_size(self, pair):
        a, _ = pair
        assert a.Get_size() == 2
        assert a.n_ranks == 2
        assert a.hosted_ranks == (0,)

    def test_validation(self):
        channels = make_channels(1, 1)
        with pytest.raises(ValueError):
            ProcessComm(0, [0], 0, channels)
        with pytest.raises(ValueError):
            ProcessComm(2, [], 0, channels)
        with pytest.raises(CommError):
            ProcessComm(2, [5], 0, channels)


class TestPointToPoint:
    def test_send_recv_roundtrip(self, pair, rng):
        a, b = pair
        payload = rng.normal(size=(5, 5))
        a.send(payload, src=0, dst=1, tag=7)
        np.testing.assert_array_equal(
            b.recv(dst=1, src=0, tag=7), payload
        )

    def test_payload_snapshot_isolation(self, pair):
        a, b = pair
        payload = np.zeros(3)
        a.send(payload, 0, 1)
        payload[:] = 99.0
        np.testing.assert_array_equal(b.recv(1, 0), np.zeros(3))

    def test_fifo_order_per_edge(self, pair):
        a, b = pair
        a.send(np.array([1]), 0, 1, tag=0)
        a.send(np.array([2]), 0, 1, tag=0)
        assert b.recv(1, 0, tag=0)[0] == 1
        assert b.recv(1, 0, tag=0)[0] == 2

    def test_tags_are_independent_streams(self, pair):
        a, b = pair
        a.send(np.array([1]), 0, 1, tag=5)
        a.send(np.array([2]), 0, 1, tag=6)
        assert b.recv(1, 0, tag=6)[0] == 2
        assert b.recv(1, 0, tag=5)[0] == 1

    def test_unmatched_recv_raises_after_timeout(self, pair):
        _, b = pair
        with pytest.raises(CommError, match="no matching message"):
            b.recv(1, 0, tag=3)

    def test_self_send_rejected(self, pair):
        a, _ = pair
        with pytest.raises(CommError, match="self-send"):
            a.send(np.zeros(1), 0, 0)

    def test_rank_bounds(self, pair):
        a, _ = pair
        with pytest.raises(CommError):
            a.send(np.zeros(1), 0, 4)
        with pytest.raises(CommError):
            a.send(np.zeros(1), -1, 1)

    def test_foreign_rank_send_rejected(self, pair):
        """A worker cannot impersonate a rank it does not host."""
        a, _ = pair
        with pytest.raises(CommError, match="not hosted"):
            a.send(np.zeros(1), 1, 0)

    def test_foreign_rank_recv_rejected(self, pair):
        a, _ = pair
        with pytest.raises(CommError, match="not hosted"):
            a.recv(1, 0)


class TestNonBlocking:
    def test_isend_completes_immediately(self, pair):
        a, _ = pair
        req = a.isend(np.ones(2), 0, 1)
        ready, _ = req.test()
        assert ready
        assert req.wait() is None

    def test_irecv_wait_returns_payload(self, pair):
        a, b = pair
        a.send(np.arange(3), 0, 1, tag=1)
        req = b.irecv(dst=1, src=0, tag=1)
        np.testing.assert_array_equal(req.wait(), np.arange(3))

    def test_irecv_test_before_send(self, pair):
        a, b = pair
        req = b.irecv(dst=1, src=0, tag=1)
        ready, _ = req.test()
        assert not ready
        a.send(np.arange(3), 0, 1, tag=1)
        # Queue delivery is asynchronous; poll until visible.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            ready, _ = req.test()
            if ready:
                break
            time.sleep(0.01)
        assert ready

    def test_double_wait_raises(self, pair):
        a, b = pair
        a.send(np.ones(1), 0, 1)
        req = b.irecv(1, 0)
        req.wait()
        with pytest.raises(CommError, match="already completed"):
            req.wait()


class TestAccounting:
    def test_bytes_and_messages_counted_like_virtualcomm(self, pair):
        a, b = pair
        reference = VirtualComm(2)
        payload = np.zeros(100, dtype=np.float64)
        a.send(payload, 0, 1)
        reference.send(payload, 0, 1)
        assert a.sent_messages == reference.sent_messages == 1
        assert a.sent_bytes == reference.sent_bytes == 800
        assert a.per_rank_sent_bytes[0] == 800
        b.recv(1, 0)

    def test_pending_messages_visible_after_drain(self, pair):
        a, b = pair
        a.send(np.zeros(1), 0, 1, tag=1)
        a.send(np.zeros(1), 0, 1, tag=2)
        b.recv(1, 0, tag=2)  # drains tag=1 into the mailbox en route
        assert b.pending_messages() == 1
        b.recv(1, 0, tag=1)
        assert b.pending_messages() == 0

    def test_allreduce_contribution_count_checked(self, pair):
        a, _ = pair
        with pytest.raises(CommError, match="contributions"):
            a.allreduce_sum([np.zeros(2), np.zeros(2)])

    def test_tile_allreduce_requires_registration(self, pair):
        a, _ = pair
        with pytest.raises(CommError, match="register_tile_buffers"):
            a.accbuf_allreduce((1, 4, 4))

    def test_tile_registration_must_cover_all_ranks(self, pair):
        a, _ = pair
        with pytest.raises(ValueError, match="every rank"):
            a.register_tile_buffers(
                {0: np.zeros((1, 2, 2))},
                {0: (slice(0, 2), slice(0, 2))},
            )


#: A 10 000-byte global frame (complex128) and four overlapping tiles.
FRAME = (1, 25, 25)
TILE_SLICES = {
    0: (slice(0, 15), slice(0, 15)),
    1: (slice(0, 15), slice(10, 25)),
    2: (slice(10, 25), slice(0, 15)),
    3: (slice(10, 25), slice(10, 25)),
}


def tile_buffers(seed: int = 0):
    rng = np.random.default_rng(seed)
    return {
        r: rng.normal(size=(1, 15, 15)) + 1j * rng.normal(size=(1, 15, 15))
        for r in TILE_SLICES
    }


def counters(comm):
    return (
        comm.sent_messages,
        int(comm.sent_bytes),
        comm.per_rank_sent_bytes.tolist(),
        comm.allreduce_calls,
    )


def hosting_all(n_ranks: int) -> ProcessComm:
    return ProcessComm(
        n_ranks, range(n_ranks), 0, make_channels(n_ranks, 1),
        timeout=SHORT_TIMEOUT,
    )


class TestPlacementInvariantAccounting:
    """Every placement books what ``VirtualComm`` books (see module doc)."""

    def test_p2p_counters_sum_exactly(self, pair):
        a, b = pair
        payload = np.zeros(100, dtype=np.uint8)
        for _ in range(3):
            a.send(payload, 0, 1)
        for _ in range(2):
            b.send(payload, 1, 0)
        assert a.sent_messages + b.sent_messages == 5
        assert a.sent_bytes + b.sent_bytes == 500
        per_rank = a.per_rank_sent_bytes + b.per_rank_sent_bytes
        assert per_rank.tolist() == [300, 200]
        assert a.allreduce_calls + b.allreduce_calls == 0

    @pytest.mark.parametrize("make", [VirtualComm, hosting_all])
    def test_tile_allreduce_books_the_ring_volume(self, make):
        p, nbytes = 4, 10_000
        comm = make(p)
        buffers = tile_buffers()
        expected = np.zeros(FRAME, dtype=complex)
        for r in range(p):
            expected[(slice(None), *TILE_SLICES[r])] += buffers[r]
        assert expected.nbytes == nbytes
        comm.register_tile_buffers(buffers, TILE_SLICES)
        comm.accbuf_allreduce(FRAME)
        for r in range(p):
            np.testing.assert_array_equal(
                buffers[r], expected[(slice(None), *TILE_SLICES[r])]
            )
        share = int(2 * (p - 1) / p * nbytes)
        assert comm.sent_bytes == share * p
        assert comm.sent_messages == 2 * (p - 1) * p == 24
        assert (comm.per_rank_sent_bytes == share).all()
        assert comm.allreduce_calls == 1

    @pytest.mark.parametrize("make", [VirtualComm, hosting_all])
    def test_tile_allreduce_books_nothing_on_one_rank(self, make):
        comm = make(1)
        comm.register_tile_buffers(
            {0: np.ones(FRAME, dtype=complex)},
            {0: (slice(0, 25), slice(0, 25))},
        )
        comm.accbuf_allreduce(FRAME)
        assert counters(comm) == (0, 0, [0], 0)

    def test_probe_allreduce_books_like_virtualcomm(self):
        p, calls = 4, 3
        reference, comm = VirtualComm(p), hosting_all(p)
        for _ in range(calls):
            reference.allreduce_sum([np.zeros(100) for _ in range(p)])
            comm.allreduce_sum([np.zeros(100) for _ in range(p)])
        assert counters(comm) == counters(reference)
        assert reference.allreduce_calls == calls

    def test_only_worker_zero_books_collectives(self, rng):
        """Two workers, two ranks each, driven from two threads: the
        run's totals are the plain sum over workers."""
        p = 4
        channels = make_channels(p, 2)
        workers = [
            ProcessComm(p, [0, 1], 0, channels, timeout=5.0),
            ProcessComm(p, [2, 3], 1, channels, timeout=5.0),
        ]
        reference = VirtualComm(p)
        grads = [rng.normal(size=100) for _ in range(p)]
        shared, serial = tile_buffers(1), tile_buffers(1)
        reference.register_tile_buffers(serial, TILE_SLICES)
        expected = reference.allreduce_sum(grads)
        reference.accbuf_allreduce(FRAME)

        totals = {}

        def run(comm):
            comm.register_tile_buffers(shared, TILE_SLICES)
            totals[comm.hosted_ranks] = comm.allreduce_sum(
                [grads[r] for r in comm.hosted_ranks]
            )
            comm.accbuf_allreduce(FRAME)

        threads = [threading.Thread(target=run, args=(w,)) for w in workers]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert sorted(totals) == [(0, 1), (2, 3)]
        for total in totals.values():
            np.testing.assert_array_equal(total, expected)
        for r in range(p):
            np.testing.assert_array_equal(shared[r], serial[r])
        assert counters(workers[1]) == (0, 0, [0] * p, 0)
        assert counters(workers[0]) == counters(reference)


class _LocalOnlyInbox:
    """An inbox nothing may be posted to (and that holds nothing)."""

    def put(self, msg):
        raise AssertionError(f"co-hosted message left the process: {msg}")

    def get(self, block=True, timeout=None):
        raise queue.Empty

    def empty(self):
        return True


class TestCoHostedPairsStayInProcess:
    """Holds by construction: a hosted destination is the inherited
    mailbox, so its inbox queue is never touched."""

    @pytest.fixture()
    def comms(self):
        channels = make_channels(3, 2)
        channels.inboxes[0] = _LocalOnlyInbox()
        channels.inboxes[1] = _LocalOnlyInbox()
        return (
            ProcessComm(3, [0, 1], 0, channels, timeout=SHORT_TIMEOUT),
            ProcessComm(3, [2], 1, channels, timeout=5.0),
            VirtualComm(3),
        )

    def test_local_delivery_matches_virtualcomm(self, comms, rng):
        local, _, reference = comms
        payload = rng.normal(size=(5, 5))
        for comm in (local, reference):
            comm.send(payload, 0, 1, tag=7)
            np.testing.assert_array_equal(comm.recv(1, 0, tag=7), payload)
            # Snapshot isolation.
            scratch = np.zeros(3)
            comm.send(scratch, 0, 1)
            scratch[:] = 99.0
            np.testing.assert_array_equal(comm.recv(1, 0), np.zeros(3))
            # FIFO per edge, independent tags.
            comm.send(np.array([1]), 1, 0, tag=5)
            comm.send(np.array([2]), 1, 0, tag=5)
            comm.send(np.array([3]), 1, 0, tag=6)
            assert comm.pending_messages() == 3
            assert comm.recv(0, 1, tag=6)[0] == 3
            assert comm.recv(0, 1, tag=5)[0] == 1
            assert comm.irecv(0, 1, tag=5).wait()[0] == 2
            assert comm.pending_messages() == 0
        assert counters(local) == counters(reference)

    def test_unmatched_local_probe_finds_nothing(self, comms):
        local, _, _ = comms
        ready, _ = local.irecv(1, 0, tag=9).test()
        assert not ready

    def test_remote_destination_crosses_the_queue(self, comms):
        local, remote, reference = comms
        payload = np.arange(4.0)
        local.send(payload, 0, 2, tag=1)
        reference.send(payload, 0, 2, tag=1)
        assert local.pending_messages() == 0  # it left this process
        np.testing.assert_array_equal(remote.recv(2, 0, tag=1), payload)
        assert counters(local) == counters(reference)
        assert counters(remote) == (0, 0, [0, 0, 0], 0)


class TestOneCommunicator:
    """The structure the accounting invariant and ``bench/spans.py``
    (which patches ``vars(cls)[name]``) both lean on."""

    def test_processcomm_adds_only_a_transport(self):
        assert issubclass(ProcessComm, VirtualComm)
        inherited = {
            "send", "isend", "recv", "irecv", "allreduce_sum",
            "accbuf_allreduce", "register_tile_buffers",
            "pending_messages", "Get_size",
        }
        assert inherited.isdisjoint(vars(ProcessComm))

    def test_traced_methods_live_on_the_base(self):
        traced = {
            "send", "isend", "recv", "irecv", "allreduce_sum", "barrier",
        }
        assert traced <= set(vars(VirtualComm))

    def test_replay_accounting_is_gone(self):
        import repro.runtime

        deleted = {
            "CounterSnapshot", "AggregatedCounters", "aggregate_counters",
        }
        assert deleted.isdisjoint(repro.runtime.__all__)

"""VirtualComm — the mpi4py-shaped message layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.comm import CommError, VirtualComm


@pytest.fixture()
def comm():
    return VirtualComm(4)


class TestBasics:
    def test_size(self, comm):
        assert comm.Get_size() == 4
        assert comm.n_ranks == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            VirtualComm(0)


class TestPointToPoint:
    def test_send_recv_roundtrip(self, comm, rng):
        payload = rng.normal(size=(5, 5))
        comm.send(payload, src=0, dst=1, tag=7)
        received = comm.recv(dst=1, src=0, tag=7)
        np.testing.assert_array_equal(received, payload)

    def test_payload_snapshot_isolation(self, comm):
        """Mutating the source array after send must not leak."""
        payload = np.zeros(3)
        comm.send(payload, 0, 1)
        payload[:] = 99.0
        received = comm.recv(1, 0)
        np.testing.assert_array_equal(received, np.zeros(3))

    def test_fifo_order_per_edge(self, comm):
        comm.send(np.array([1]), 0, 1, tag=0)
        comm.send(np.array([2]), 0, 1, tag=0)
        assert comm.recv(1, 0, tag=0)[0] == 1
        assert comm.recv(1, 0, tag=0)[0] == 2

    def test_tags_are_independent_streams(self, comm):
        comm.send(np.array([1]), 0, 1, tag=5)
        comm.send(np.array([2]), 0, 1, tag=6)
        assert comm.recv(1, 0, tag=6)[0] == 2
        assert comm.recv(1, 0, tag=5)[0] == 1

    def test_unmatched_recv_raises(self, comm):
        with pytest.raises(CommError, match="no matching message"):
            comm.recv(1, 0, tag=3)

    def test_self_send_rejected(self, comm):
        with pytest.raises(CommError):
            comm.send(np.zeros(1), 2, 2)

    def test_rank_bounds(self, comm):
        with pytest.raises(CommError):
            comm.send(np.zeros(1), 0, 4)
        with pytest.raises(CommError):
            comm.send(np.zeros(1), -1, 1)
        with pytest.raises(CommError, match="out of range"):
            comm.recv(9, 0)


class TestNonBlocking:
    def test_isend_completes_immediately(self, comm):
        req = comm.isend(np.ones(2), 0, 1)
        ready, _ = req.test()
        assert ready
        assert req.wait() is None

    def test_irecv_wait_returns_payload(self, comm):
        comm.send(np.arange(3), 0, 2, tag=1)
        req = comm.irecv(dst=2, src=0, tag=1)
        np.testing.assert_array_equal(req.wait(), np.arange(3))

    def test_irecv_test_before_send(self, comm):
        req = comm.irecv(dst=2, src=0, tag=1)
        ready, _ = req.test()
        assert not ready
        comm.send(np.arange(3), 0, 2, tag=1)
        ready, _ = req.test()
        assert ready

    def test_double_wait_raises(self, comm):
        comm.send(np.ones(1), 0, 1)
        req = comm.irecv(1, 0)
        req.wait()
        with pytest.raises(CommError):
            req.wait()


class TestAccounting:
    def test_bytes_and_messages_counted(self, comm):
        payload = np.zeros(100, dtype=np.float64)
        comm.send(payload, 0, 1)
        comm.send(payload, 1, 2)
        assert comm.sent_messages == 2
        assert comm.sent_bytes == 2 * 800
        assert comm.per_rank_sent_bytes[0] == 800
        assert comm.per_rank_sent_bytes[1] == 800

    def test_pending_messages(self, comm):
        comm.send(np.zeros(1), 0, 1)
        assert comm.pending_messages() == 1
        comm.recv(1, 0)
        assert comm.pending_messages() == 0


class TestAllreduce:
    def test_sum_correct(self, comm, rng):
        contributions = [rng.normal(size=(3, 3)) for _ in range(4)]
        total = comm.allreduce_sum(contributions)
        np.testing.assert_allclose(total, np.sum(contributions, axis=0))

    def test_counts_contributions(self, comm):
        with pytest.raises(CommError):
            comm.allreduce_sum([np.zeros(2)] * 3)

    def test_shape_mismatch(self, comm):
        with pytest.raises(CommError):
            comm.allreduce_sum(
                [np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2)]
            )

    def test_traffic_accounted(self, comm):
        comm.allreduce_sum([np.zeros(100) for _ in range(4)])
        assert comm.allreduce_calls == 1
        assert comm.sent_bytes > 0

    def test_books_the_ring_volume(self):
        """2(P-1) messages and 2(P-1)/P of the buffer per rank — the
        volume the network model's all-reduce formula is built on."""
        p = 5
        comm = VirtualComm(p)
        comm.allreduce_sum([np.zeros(10) for _ in range(p)])
        assert comm.sent_messages == 2 * (p - 1)
        share = int(2.0 * (p - 1) / p * 80)
        np.testing.assert_array_equal(comm.per_rank_sent_bytes, [share] * p)
        assert comm.sent_bytes == int(2.0 * (p - 1) / p * 80 * p)
        assert comm.pending_messages() == 0

    @pytest.mark.parametrize("p", [3, 9])
    def test_ring_volume_is_booked_in_whole_bytes(self, p):
        """Both collectives book the ring's ``2(P-1)`` x the payload to
        the byte.  A 56-byte payload at 3 or 9 ranks makes the per-rank
        share ``2(P-1)/P`` x 56 fractional; rounding it (or the float
        product) once booked a few bytes short."""
        nbytes = 56
        probe = VirtualComm(p)
        probe.allreduce_sum([np.zeros(nbytes // 8) for _ in range(p)])
        tiles = VirtualComm(p)
        whole = (slice(0, nbytes // 8), slice(0, 1))
        tiles.register_tile_buffers(
            {r: np.ones((1, nbytes // 8, 1)) for r in range(p)},
            {r: whole for r in range(p)},
        )
        tiles.accbuf_allreduce((1, nbytes // 8, 1))
        for comm in (probe, tiles):
            assert comm.sent_bytes == 2 * (p - 1) * nbytes
            assert comm.per_rank_sent_bytes.tolist() == [
                2 * (p - 1) * nbytes // p
            ] * p

    @pytest.mark.parametrize("p", [4, 16])
    def test_ring_volume_unchanged_where_the_share_is_whole(self, p):
        """At 4 and 16 ranks an 80-byte payload's per-rank share is whole,
        so the integer booking equals the float formula it replaced:
        the traffic these rank counts report does not move."""
        comm = VirtualComm(p)
        comm.allreduce_sum([np.zeros(10) for _ in range(p)])
        assert comm.sent_bytes == int(2.0 * (p - 1) / p * 80 * p)
        assert comm.per_rank_sent_bytes.tolist() == [
            int(2.0 * (p - 1) / p * 80)
        ] * p

    def test_single_rank_gets_a_copy_and_books_nothing(self, rng):
        comm = VirtualComm(1)
        buf = rng.normal(size=4)
        total = comm.allreduce_sum([buf])
        np.testing.assert_array_equal(total, buf)
        assert total is not buf
        assert (comm.sent_messages, comm.sent_bytes) == (0, 0)

    def test_inputs_not_mutated(self, comm, rng):
        contributions = [rng.normal(size=7) for _ in range(4)]
        copies = [c.copy() for c in contributions]
        comm.allreduce_sum(contributions)
        for c, before in zip(contributions, copies):
            np.testing.assert_array_equal(c, before)

    def test_complex_dtype(self, comm, rng):
        contributions = [
            rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
            for _ in range(4)
        ]
        total = comm.allreduce_sum(contributions)
        assert total.dtype == np.complex128
        np.testing.assert_allclose(total, np.sum(contributions, axis=0))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 40), st.integers(0, 2**31 - 1))
    def test_property_sum_is_in_rank_order(self, p, n, seed):
        """Any rank count and size: the result is the ascending-rank
        sum, bit for bit (what keeps every placement identical)."""
        rng = np.random.default_rng(seed)
        contributions = [rng.normal(size=n) for _ in range(p)]
        expected = np.zeros(n)
        for c in contributions:
            expected += c
        total = VirtualComm(p).allreduce_sum(contributions)
        np.testing.assert_array_equal(total, expected)

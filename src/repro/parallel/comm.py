"""``VirtualComm`` — the mpi4py-shaped message layer, in-process by default.

The numeric engine moves *every* inter-tile array through this layer:
``isend``/``irecv`` mirror ``mpi4py.MPI.Comm`` semantics (tags, Requests
with ``wait()``), and the comm records message counts and byte volumes so
experiment reports use measured traffic, not estimates.

Because the numeric engine executes a schedule in topological order, a
matching send always precedes its receive; a receive that finds no matching
message therefore indicates a schedule bug and raises :class:`CommError`
immediately (the in-process analogue of an MPI deadlock).

The class is also the base of every cross-host communicator
(:class:`~repro.runtime.process_comm.ProcessComm`): matching and traffic
accounting are written once here, a subclass supplies only a transport.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Message", "Request", "VirtualComm", "CommError"]


class CommError(RuntimeError):
    """Raised on messaging protocol violations (unmatched receive, bad
    rank, double-completed request)."""


@dataclass
class Message:
    """An in-flight message."""

    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: int


@dataclass
class Request:
    """Handle returned by the non-blocking operations.

    ``wait()`` completes the operation: for an isend it is a no-op (the
    payload was buffered eagerly); for an irecv it dequeues and returns the
    payload.
    """

    comm: "VirtualComm" = field(repr=False)
    kind: str = "send"
    src: int = -1
    dst: int = -1
    tag: int = 0
    _done: bool = False
    _payload: Any = None

    def wait(self) -> Any:
        """Complete the operation; returns the payload for receives."""
        if self._done:
            raise CommError("request already completed")
        self._done = True
        if self.kind == "recv":
            self._payload = self.comm._pop_message(self.src, self.dst, self.tag)
            return self._payload
        return None

    def test(self) -> Tuple[bool, Any]:
        """Non-destructively check for completion readiness.

        Sends are always ready; receives are ready when a matching message
        is queued.  Mirrors ``mpi4py.MPI.Request.test``.
        """
        if self._done:
            return True, self._payload
        if self.kind == "send":
            return True, None
        ready = self.comm._has_message(self.src, self.dst, self.tag)
        return ready, None


def _payload_nbytes(payload: Any) -> int:
    """Best-effort byte size of a payload (ndarray or pickled-ish object)."""
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    return 64  # small python object envelope


def _sum_in_rank_order(
    pairs: List[Tuple[int, np.ndarray]], n_ranks: int
) -> np.ndarray:
    """Sum one array per rank in ascending rank order — the one summation
    order every placement uses, which is what keeps them bit-identical."""
    if len(pairs) != n_ranks:
        raise CommError(
            f"allreduce needs {n_ranks} contributions, got {len(pairs)}"
        )
    pairs = sorted(pairs, key=lambda rc: rc[0])
    total = np.zeros_like(pairs[0][1])
    for _, arr in pairs:
        if arr.shape != total.shape:
            raise CommError("allreduce contributions must share a shape")
        total += arr
    return total


class VirtualComm:
    """Mailbox-based communicator over ``n_ranks`` ranks.

    ``hosted`` names the ranks this instance executes (default: all of
    them, the in-process reference).  Matching, snapshot copies and
    traffic counters live here and nowhere else; a subclass that hosts a
    subset adds only a *transport*, by overriding three hooks and
    :meth:`barrier`:

    * :meth:`_post` — deliver a message to a rank hosted elsewhere;
    * :meth:`_fetch` — move remotely posted messages into the mailbox,
      optionally waiting for one key;
    * :meth:`_sum_across` — complete a rank-ordered sum across hosts.

    In-process nothing is remote: ``_post`` is unreachable and ``_fetch``
    finds nothing, so an unmatched receive is still the immediate
    :class:`CommError` the module docstring promises.  A
    ``(src, dst, tag)`` key is local or remote for the life of a comm,
    never both, so FIFO order per key holds on either path.

    Collective traffic is booked by exactly one instance per run —
    this one in-process, worker 0's across workers — so run totals are
    plain sums over instances.
    """

    def __init__(
        self, n_ranks: int, hosted: Optional[Sequence[int]] = None
    ) -> None:
        if n_ranks <= 0:
            raise ValueError("n_ranks must be positive")
        self._n_ranks = n_ranks
        self._hosted = tuple(
            range(n_ranks) if hosted is None else sorted(hosted)
        )
        if not self._hosted:
            raise ValueError("a communicator must host at least one rank")
        for r in self._hosted:
            self._check_rank(r, "hosted")
        self._hosted_set = frozenset(self._hosted)
        self._queues: Dict[Tuple[int, int, int], Deque[Message]] = defaultdict(
            deque
        )
        self.sent_messages = 0
        self.sent_bytes = 0
        self.per_rank_sent_bytes = np.zeros(n_ranks, dtype=np.int64)
        self.allreduce_calls = 0
        #: Whether this instance charges collective traffic (see class doc).
        self._books_collectives = True
        #: rank -> (gradient buffer, its row/col slices in the frame).
        self._tiles: Optional[
            Dict[int, Tuple[np.ndarray, Tuple[slice, slice]]]
        ] = None

    # ------------------------------------------------------------------
    def Get_size(self) -> int:
        """Communicator size (mpi4py spelling)."""
        return self._n_ranks

    @property
    def n_ranks(self) -> int:
        """Communicator size."""
        return self._n_ranks

    @property
    def hosted_ranks(self) -> Tuple[int, ...]:
        """Ranks this instance executes, ascending."""
        return self._hosted

    def _check_rank(self, rank: int, name: str) -> None:
        if not (0 <= rank < self._n_ranks):
            raise CommError(f"{name} rank {rank} out of range [0,{self._n_ranks})")

    def _check_endpoints(self, src: int, dst: int, local: int, role: str) -> None:
        """Both ranks in range, and the acting one (``local``) hosted."""
        self._check_rank(src, "source")
        self._check_rank(dst, "destination")
        if local not in self._hosted_set:
            raise CommError(
                f"{role} rank {local} is not hosted by this communicator "
                f"(hosted: {list(self._hosted)})"
            )

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, payload: Any, src: int, dst: int, tag: int = 0) -> None:
        """Blocking-style send (buffered: completes immediately).

        Arrays are snapshot-copied so later in-place mutation at the sender
        cannot leak into the receiver — the engine must not cheat the
        message-passing semantics.  A hosted ``dst`` is served from the
        local mailbox; only other destinations reach the transport.
        """
        self._check_endpoints(src, dst, src, "sending")
        if src == dst:
            raise CommError("self-send: src == dst")
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        msg = Message(src, dst, tag, payload, _payload_nbytes(payload))
        if dst in self._hosted_set:
            self._queues[(src, dst, tag)].append(msg)
        else:
            self._post(msg)
        self.sent_messages += 1
        self.sent_bytes += msg.nbytes
        self.per_rank_sent_bytes[src] += msg.nbytes

    def isend(self, payload: Any, src: int, dst: int, tag: int = 0) -> Request:
        """Non-blocking send; the returned request's ``wait`` is a no-op."""
        self.send(payload, src, dst, tag)
        return Request(comm=self, kind="send", src=src, dst=dst, tag=tag)

    def recv(self, dst: int, src: int, tag: int = 0) -> Any:
        """Blocking receive of the oldest matching message."""
        self._check_endpoints(src, dst, dst, "receiving")
        return self._pop_message(src, dst, tag)

    def irecv(self, dst: int, src: int, tag: int = 0) -> Request:
        """Non-blocking receive; completes on ``wait()``."""
        self._check_endpoints(src, dst, dst, "receiving")
        return Request(comm=self, kind="recv", src=src, dst=dst, tag=tag)

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Global synchronization — a no-op in-process, where rank
        programs are already sequentialized.  (The cross-process
        :class:`~repro.runtime.process_comm.ProcessComm` implements the
        real thing behind the same name.)"""
        return

    def allreduce_sum(self, contributions: List[np.ndarray]) -> np.ndarray:
        """Rank-ordered sum of one array per *hosted* rank, returned to
        every rank (the probe-gradient collective).

        Byte accounting charges the ring-allreduce volume
        ``2*(P-1) * nbytes`` in total, ``1/P`` of it per rank, whatever
        moved the data.
        """
        if len(contributions) != len(self._hosted):
            raise CommError(
                f"allreduce needs {len(self._hosted)} hosted contributions, "
                f"got {len(contributions)}"
            )
        total = self._sum_across(list(zip(self._hosted, contributions)))
        if self._books_collectives:
            p = self._n_ranks
            moved = 2 * (p - 1) * total.nbytes
            self.sent_bytes += moved
            self.sent_messages += 2 * (p - 1)
            self.per_rank_sent_bytes += moved // p
            self.allreduce_calls += 1
        return total

    def register_tile_buffers(
        self,
        buffers: Dict[int, np.ndarray],
        slices: Dict[int, Tuple[slice, slice]],
    ) -> None:
        """Register every rank's gradient buffer and its placement
        (row/col slices) in the global frame — the substrate
        :meth:`accbuf_allreduce` reduces over.  Buffers of ranks hosted
        elsewhere must be views of memory their hosts write (shared
        memory)."""
        if set(buffers) != set(range(self._n_ranks)):
            raise ValueError("tile buffers must cover every rank")
        self._tiles = {r: (buffers[r], slices[r]) for r in buffers}

    def accbuf_allreduce(self, frame_shape: Tuple[int, ...]) -> None:
        """Global sum of all tile buffers scattered into ``frame_shape``;
        each hosted buffer is overwritten with its restriction.

        Summation runs in ascending rank order on every host, so every
        placement produces the same bits.  The barriers (no-ops
        in-process) fence the other hosts' writes and reads.
        """
        if self._tiles is None:
            raise CommError("accbuf_allreduce before register_tile_buffers")
        self.barrier()  # all ranks finished writing their buffers
        total = np.zeros(frame_shape, dtype=self._tiles[0][0].dtype)
        for rank in range(self._n_ranks):
            buf, sl = self._tiles[rank]
            total[(slice(None), *sl)] += buf
        self.barrier()  # all hosts finished reading
        for rank in self._hosted:
            buf, sl = self._tiles[rank]
            buf[...] = total[(slice(None), *sl)]
        # Ring all-reduce accounting: each rank moves 2*(P-1)/P of the
        # frame, in 2*(P-1) messages, so the ring moves 2*(P-1) frames
        # (booked in integers: the per-rank share need not be whole).
        p = self._n_ranks
        if p > 1 and self._books_collectives:
            moved = 2 * (p - 1) * total.nbytes
            self.sent_bytes += moved
            self.sent_messages += 2 * (p - 1) * p
            self.per_rank_sent_bytes += moved // p
            self.allreduce_calls += 1

    # ------------------------------------------------------------------
    # Transport hooks (see class doc)
    # ------------------------------------------------------------------
    def _post(self, msg: Message) -> None:
        raise CommError(
            f"no transport to rank {msg.dst}: an in-process communicator "
            "hosts every rank"
        )

    def _fetch(
        self, dst: int, wait_for: Optional[Tuple[int, int, int]] = None
    ) -> bool:
        """Returns whether anything (``wait_for``, when given) arrived."""
        return False

    def _sum_across(self, pairs: List[Tuple[int, np.ndarray]]) -> np.ndarray:
        return _sum_in_rank_order(pairs, self._n_ranks)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _has_message(self, src: int, dst: int, tag: int) -> bool:
        self._fetch(dst)
        return bool(self._queues.get((src, dst, tag)))

    def _pop_message(self, src: int, dst: int, tag: int) -> Any:
        key = (src, dst, tag)
        while not self._queues.get(key):
            if not self._fetch(dst, key):
                raise CommError(
                    f"receive with no matching message: src={src} dst={dst} "
                    f"tag={tag} (schedule ordering bug?)"
                )
        return self._queues[key].popleft().payload

    def pending_messages(self) -> int:
        """Messages buffered here but not yet received (should be zero at
        the end of a well-formed schedule — asserted in tests)."""
        return sum(len(q) for q in self._queues.values())

"""``ProcessComm`` — ``VirtualComm`` plus a cross-worker transport.

One instance lives in each worker process and carries that worker's
hosted ranks.  Matching, snapshot copies, rank checks and every traffic
counter are inherited from :class:`~repro.parallel.comm.VirtualComm`;
this module only moves what has to leave the process.

Transport
---------
* **Point-to-point** — a message whose destination is hosted here goes
  into the inherited mailbox and never touches a queue.  Any other
  destination gets it on its rank's *inbox* (one multiprocessing queue
  per rank); a receive drains the inbox into the mailbox and pops FIFO
  per ``(src, dst, tag)``, so order is deterministic per key regardless
  of arrival interleaving.  A receive that sees no matching message
  within ``timeout`` raises :class:`~repro.parallel.comm.CommError` (the
  cross-process analogue of the immediate unmatched-receive error).
* **Tile-buffer all-reduce** — inherited; the registered buffers are
  shared-memory views and :meth:`ProcessComm.barrier` is a real one.
* **Probe all-reduce** — small global arrays go through an *uncounted*
  gather-to-root/broadcast channel; root sums in rank order.

Accounting
----------
Inherited.  Point-to-point sends are counted by the sending worker,
collectives by worker 0 alone, so the parent's run totals are plain sums
over workers and equal the serial run's to the integer.
"""

from __future__ import annotations

import queue as queue_mod
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.comm import (
    CommError,
    Message,
    VirtualComm,
    _sum_in_rank_order,
)

__all__ = ["CommChannels", "ProcessComm"]


@dataclass
class CommChannels:
    """The shared transport a parent builds once per launch.

    ``inboxes[rank]`` is the p2p queue drained by the worker hosting
    ``rank``; ``gather``/``bcast`` form the uncounted collective channel
    rooted at worker 0; ``barrier`` has one party per worker.
    """

    inboxes: List[Any]
    gather: Any
    bcast: List[Any]
    barrier: Any
    n_workers: int


class ProcessComm(VirtualComm):
    """Worker-side communicator over ``n_ranks`` ranks split across
    processes (see module docstring).

    Parameters
    ----------
    n_ranks:
        Communicator size (all ranks, across every worker).
    hosted:
        The ranks this worker executes.
    worker_index:
        This worker's index; worker 0 roots the collective channel and
        books collective traffic.
    channels:
        The shared transport (queues + barrier) built by the parent.
    timeout:
        Seconds a receive/collective/barrier waits before declaring the
        schedule deadlocked and raising :class:`CommError`.
    """

    def __init__(
        self,
        n_ranks: int,
        hosted: Sequence[int],
        worker_index: int,
        channels: CommChannels,
        timeout: float = 120.0,
    ) -> None:
        super().__init__(n_ranks, hosted)
        self._worker_index = worker_index
        self._channels = channels
        self._timeout = float(timeout)
        self._books_collectives = worker_index == 0

    def _post(self, msg: Message) -> None:
        self._channels.inboxes[msg.dst].put(msg)

    def _fetch(
        self, dst: int, wait_for: Optional[Tuple[int, int, int]] = None
    ) -> bool:
        """Move ``dst``'s queued inbox messages into the mailbox.

        With ``wait_for`` set, waits up to the timeout for a message
        with that key; otherwise takes whatever is immediately there.
        """
        inbox = self._channels.inboxes[dst]
        while True:
            try:
                msg = inbox.get(
                    block=wait_for is not None, timeout=self._timeout
                )
            except queue_mod.Empty:
                if wait_for is None:
                    return False
                src, _, tag = wait_for
                raise CommError(
                    f"receive with no matching message after "
                    f"{self._timeout:g}s: src={src} dst={dst} tag={tag} "
                    f"(schedule ordering bug or dead peer?)"
                ) from None
            key = (msg.src, msg.dst, msg.tag)
            self._queues[key].append(msg)
            if key == wait_for or (wait_for is None and inbox.empty()):
                return True

    def barrier(self) -> None:
        """Block until every worker arrives."""
        try:
            self._channels.barrier.wait(self._timeout)
        except Exception as exc:  # BrokenBarrierError and friends
            raise CommError(f"barrier failed: {exc!r}") from exc

    def _sum_across(self, pairs: List[Tuple[int, np.ndarray]]) -> np.ndarray:
        ch = self._channels
        if self._worker_index == 0:
            for _ in range(ch.n_workers - 1):
                try:
                    pairs.extend(ch.gather.get(timeout=self._timeout))
                except queue_mod.Empty:
                    raise CommError(
                        "allreduce gather timed out (dead worker?)"
                    ) from None
            total = _sum_in_rank_order(pairs, self._n_ranks)
            for w in range(1, ch.n_workers):
                ch.bcast[w].put(total)
            return total
        ch.gather.put([(r, np.asarray(a).copy()) for r, a in pairs])
        try:
            return ch.bcast[self._worker_index].get(timeout=self._timeout)
        except queue_mod.Empty:
            raise CommError(
                "allreduce broadcast timed out (dead root?)"
            ) from None

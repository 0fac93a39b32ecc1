"""Virtual GPU cluster substrate.

Stands in for the Summit supercomputer of the paper's evaluation:

* :mod:`repro.parallel.topology` — node/GPU layout (6 GPUs per node) and
  the logical 2-D tile mesh.
* :mod:`repro.parallel.network` — link model: NVLink within a node,
  InfiniBand between nodes, latency + bandwidth per message.
* :mod:`repro.parallel.comm` — ``VirtualComm``: an mpi4py-like in-process
  message layer (send/recv/isend/irecv/allreduce, tags, Requests) that the
  numeric engine moves *all* inter-tile data through, so message counts and
  byte volumes are measured, not estimated.
* :mod:`repro.parallel.memory` — per-rank peak-memory tracker.
* :mod:`repro.parallel.event_sim` — discrete-event timing interpreter for
  schedules (produces runtime, waiting and communication breakdowns).
"""

from repro.parallel.topology import ClusterTopology, MeshLayout
from repro.parallel.network import LinkSpec, NetworkModel
from repro.parallel.comm import Message, Request, VirtualComm, CommError
from repro.parallel.memory import MemoryTracker
from repro.parallel.event_sim import (EventSimulator, RankTimeline, SimReport, TraceEvent)

__all__ = [
    "ClusterTopology",
    "MeshLayout",
    "LinkSpec",
    "NetworkModel",
    "VirtualComm",
    "Message",
    "Request",
    "CommError",
    "MemoryTracker",
    "EventSimulator",
    "RankTimeline",
    "SimReport",
    "TraceEvent",
]

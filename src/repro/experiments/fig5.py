"""Fig. 5 — the APPP pipeline timeline (3x3 mesh).

The paper's Fig. 5 is a Gantt chart of the 9-GPU example: gradient
computation, then vertical forward/backward and horizontal
forward/backward passes, with **cross-direction pipelining** — a
bottom-row GPU starts the horizontal passes while upper rows are still
finishing the vertical backward pass, because nothing but message
availability synchronizes the ranks.

We regenerate it by running the APPP schedule through the event simulator
with trace recording, rendering an ASCII Gantt chart, and *asserting* the
pipelining property the figure illustrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.api.config import ReconstructionConfig
from repro.api.registry import solver_from_config
from repro.core.decomposition import decompose_gradient
from repro.core.passes import TAG_HORIZONTAL, TAG_VERTICAL, build_appp_passes
from repro.parallel.event_sim import EventSimulator, TraceEvent
from repro.parallel.network import NetworkModel
from repro.parallel.topology import ClusterTopology, MeshLayout
from repro.schedule.ops import BufferExchange, Schedule
from repro.physics.dataset import scaled_pbtio3_spec
from repro.physics.scan import RasterScan

from repro.experiments.registry import register_experiment

__all__ = ["Fig5Result", "run_fig5"]


class _UnitCosts:
    """Costs shaped like the figure: long compute, visible transfers."""

    def __init__(self, decomp, jitter=0.25):
        self.decomp = decomp
        self.jitter = jitter

    def gradient_seconds(self, rank, n_probes):
        # Deterministic heterogeneity so ranks finish staggered like the
        # figure's uneven green arrows.
        return n_probes * (1.0 + self.jitter * ((rank * 37 % 9) / 9.0 - 0.5))

    def exchange_bytes(self, region_area):
        return float(region_area)

    def apply_seconds(self, region_area):
        return 0.05

    def update_seconds(self, rank):
        return 0.2

    def allreduce_bytes(self):
        return 1.0


@dataclass
class Fig5Result:
    """Trace + direction classification of every exchange."""

    trace: List[TraceEvent]
    direction_of: Dict[int, str]
    makespan_s: float
    mesh: MeshLayout

    # ------------------------------------------------------------------
    def cross_direction_pipelining(self) -> bool:
        """True when some rank starts a horizontal-pass op before another
        rank finishes the vertical backward pass — the defining overlap of
        the paper's Fig. 5."""
        horizontal_starts = [
            e.start_s
            for e in self.trace
            if self.direction_of.get(e.uid) == "horizontal"
        ]
        vertical_ends = [
            e.end_s
            for e in self.trace
            if self.direction_of.get(e.uid) == "vertical"
        ]
        if not horizontal_starts or not vertical_ends:
            return False
        return min(horizontal_starts) < max(vertical_ends)

    def format(self, width: int = 72) -> str:
        """ASCII Gantt chart: one row per rank, time left to right.

        ``c`` = gradient compute, ``v``/``h`` = vertical/horizontal pass
        activity, ``u`` = tile update.
        """
        n = self.mesh.n_ranks
        span = self.makespan_s
        grid = [[" "] * width for _ in range(n)]

        def paint(event: TraceEvent, char: str) -> None:
            a = int(event.start_s / span * (width - 1))
            b = max(a + 1, int(event.end_s / span * (width - 1)))
            for x in range(a, min(b, width)):
                grid[event.rank][x] = char

        for e in self.trace:
            if e.kind == "compute":
                paint(e, "c")
            elif e.kind in ("send", "recv"):
                d = self.direction_of.get(e.uid)
                paint(e, "v" if d == "vertical" else "h")
            elif e.kind == "update":
                paint(e, "u")
        lines = [
            "Fig. 5 — APPP pipeline timeline (c=compute, v=vertical pass, "
            "h=horizontal pass, u=update)"
        ]
        for rank in range(n):
            lines.append(f"GPU {rank + 1}: |" + "".join(grid[rank]) + "|")
        return "\n".join(lines)


@register_experiment("fig5")
def run_fig5(mesh: Optional[MeshLayout] = None) -> Fig5Result:
    """Regenerate the Fig. 5 timeline on the paper's 3x3 example mesh."""
    mesh = mesh if mesh is not None else MeshLayout(3, 3)
    spec = scaled_pbtio3_spec(
        scan_grid=(9, 9), detector_px=16, n_slices=2, overlap_ratio=0.75
    )
    scan = RasterScan(spec.scan_spec(), probe_window_px=spec.detector_px)
    decomp = decompose_gradient(scan, spec.object_shape, mesh=mesh)
    # Built through the solver registry, as a config names it.
    solver = solver_from_config(
        ReconstructionConfig(
            solver="gd",
            solver_params={"mesh": [mesh.rows, mesh.cols], "iterations": 1},
        )
    )
    schedule = solver.build_iteration_schedule(decomp)

    direction_of: Dict[int, str] = {}
    for op in schedule:
        if isinstance(op, BufferExchange):
            if op.tag in (TAG_VERTICAL, TAG_VERTICAL + 1):
                direction_of[op.uid] = "vertical"
            elif op.tag in (TAG_HORIZONTAL, TAG_HORIZONTAL + 1):
                direction_of[op.uid] = "horizontal"

    sim = EventSimulator(
        NetworkModel(ClusterTopology(mesh.n_ranks)), _UnitCosts(decomp)
    )
    report = sim.run(schedule, record_trace=True)
    return Fig5Result(
        trace=report.trace or [],
        direction_of=direction_of,
        makespan_s=report.makespan_s,
        mesh=mesh,
    )

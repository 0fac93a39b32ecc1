"""Per-layer metrics from one traced repetition's spans.

Names and meanings are fixed by BENCHMARK.json and README.md.  Times
are seconds per repetition unless the name says ``_ms``; a metric that
does not apply to a workload reads 0.  Every time here is a *self*
time (children subtracted) unless stated, so the layers of one
operation add up to its root span.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Sequence

from repro.perfmodel.memory_model import MemoryModel

from bench.spans import ROOT_NAME, Span, self_times
from bench.workloads import Run, percentile

#: Layers that run inside the process executor's workers, where the
#: tracer cannot follow: for such a workload these metrics come from the
#: traced *reference pass* (the same problem on the serial executor).
IN_WORKER_PREFIXES = ("physics.", "fftutils.", "backend.", "data.")
IN_WORKER_NAMES = (
    "core.engine_self_s", "parallel.comm_s", "parallel.allreduce_calls",
)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def span_metrics(spans: List[Span]) -> Dict[str, float]:
    """The metrics that are sums, counts and percentiles over the spans
    that belong to an operation."""
    spans = [s for s in spans if s.op is not None]
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    amount: Dict[str, int] = defaultdict(int)
    for s in spans:
        self_s[s.name] += own[s.id]
        total_s[s.name] += s.duration
        calls[s.name] += 1
        amount[s.name] += s.amount

    def layer(prefix: str, table: Dict[str, float]) -> float:
        return sum(v for name, v in table.items() if name.startswith(prefix))

    def parent_name(s: Span) -> str:
        parent = by_id.get(s.parent)
        return parent.name if parent is not None else ""

    def inside_reconstruct(s: Span) -> bool:
        while s.parent is not None and s.parent in by_id:
            s = by_id[s.parent]
            if s.name == "api.reconstruct":
                return True
        return False

    roots_s = total_s[ROOT_NAME]
    # A store's read_batch may call its own read: count the engine's
    # calls, not the store's internal ones.
    reads = [
        s for s in spans
        if s.name.startswith("data.read")
        and not parent_name(s).startswith("data.read")
    ]
    # save_result inside reconstruct is a checkpoint, outside it the archive.
    checkpoints, archives = [], []
    for s in spans:
        if s.name == "io.save_result":
            (checkpoints if inside_reconstruct(s) else archives).append(s)
    steps = [s for s in spans if s.name == "runtime.step"]
    first_steps: Dict[int, Span] = {}
    for s in steps:
        first_steps.setdefault(s.parent, s)
    step_ms = [s.duration * 1e3 for s in steps]

    # Service jobs: a root's children are the submit call on the
    # submitting thread, then the worker thread's calls.
    roots = {s.id: s for s in spans if s.name == ROOT_NAME}
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent in roots:
            children[s.parent].append(s)
    queue_wait, run_s = [], []
    for root_id, kids in children.items():
        submit = [s for s in kids if s.name == "service.submit"]
        worker = [s for s in kids if s.tid != roots[root_id].tid]
        if submit and worker:
            started = min(s.start for s in worker)
            queue_wait.append(started - submit[0].end)
            run_s.append(max(s.end for s in worker) - started)

    kernel_total = total_s["physics.kernel"]
    return {
        "physics.kernel_calls": calls["physics.kernel"],
        "physics.kernel_self_s": self_s["physics.kernel"],
        "physics.kernel_share": kernel_total / roots_s if roots_s else 0.0,
        "fftutils.calls": calls["fftutils.fft2c"] + calls["fftutils.ifft2c"],
        "fftutils.shift_self_s": layer("fftutils.", self_s),
        "backend.fft_calls": calls["backend.fft2"] + calls["backend.ifft2"],
        "backend.fft_s": layer("backend.", total_s),
        "backend.fft_bytes_computed": amount["backend.fft2"] + amount["backend.ifft2"],
        "core.engine_self_s": self_s["core.execute"],
        "core.decompose_s": total_s["core.decompose"],
        "core.schedule_s": total_s["core.schedule"],
        "core.schedule_ops": amount["core.schedule"],
        "core.stitch_s": total_s["core.stitch"],
        "parallel.comm_s": layer("parallel.", self_s),
        "parallel.allreduce_calls": calls["parallel.allreduce"],
        "runtime.launch_s": self_s["runtime.launch"],
        "runtime.first_step_ms": _median(
            [s.duration * 1e3 for s in first_steps.values()]
        ),
        "runtime.step_ms_p50": percentile(step_ms, 50) if step_ms else 0.0,
        "runtime.step_ms_p90": percentile(step_ms, 90) if step_ms else 0.0,
        "runtime.collect_s": total_s["runtime.volumes"],
        "runtime.close_s": self_s["runtime.close"],
        "data.reads": len(reads),
        "data.read_s": sum(s.duration for s in reads),
        "data.read_bytes": sum(s.amount for s in reads),
        "io.save_result_s": sum(s.duration for s in archives),
        "io.save_result_bytes": sum(s.amount for s in archives),
        "io.checkpoints": len(checkpoints),
        "io.checkpoint_s": sum(s.duration for s in checkpoints),
        "io.save_dataset_s": total_s["io.save_dataset"],
        "service.submit_ms_p50": _median(
            [s.duration * 1e3 for s in spans if s.name == "service.submit"]
        ),
        "service.queue_wait_s_p50": _median(queue_wait),
        "service.run_s_p50": _median(run_s),
        "api.reconstruct_self_s": self_s["api.reconstruct"],
        "bench.root_self_frac": self_s[ROOT_NAME] / roots_s if roots_s else 0.0,
    }


def per_layer_values(run: Run) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json for a traced run."""
    ctx = run.ctx
    values = span_metrics(run.repetition_spans)
    reference = span_metrics(run.reference_spans)
    if ctx.workload.workers > 1:
        for name in values:
            if name.startswith(IN_WORKER_PREFIXES) or name in IN_WORKER_NAMES:
                values[name] = reference[name]

    untraced = statistics.median(run.walls)
    quartiles = statistics.quantiles(run.walls, n=4) if len(run.walls) > 1 else [0, 0, 0]
    direct_s = sum(ctx.references[r].seconds for r in ctx.ref_of)
    iterations = sum(c.solver_params["iterations"] for c in ctx.configs)
    step_s = values["runtime.step_ms_p50"] / 1e3
    values.update({
        "parallel.messages": sum(o.messages for o in run.traced_outcomes),
        "parallel.message_bytes": sum(o.message_bytes for o in run.traced_outcomes),
        # Untraced reference pass, seconds per iteration, over (workers
        # x this workload's step): 1 is perfect scaling; below 1 on a
        # serial workload is time lost to the store, batching or
        # threads sharing the GIL.
        "runtime.parallel_efficiency": (
            direct_s / iterations / (ctx.workload.workers * step_s)
            if step_s else 0.0
        ),
        "data.write_store_s": ctx.write_store_s,
        "service.direct_ratio": (
            untraced / direct_s if ctx.workload.service else 0.0
        ),
        "perfmodel.mem_gap_frac": memory_gap_frac(run),
        "bench.trace_overhead_frac": run.traced_wall / untraced - 1.0,
        "bench.rep_spread": (quartiles[2] - quartiles[0]) / untraced,
    })
    return values


def memory_gap_frac(run: Run) -> float:
    """``(measured - predicted) / predicted`` worst-rank bytes of the gd
    jobs, with the model at the run's own precision and mode count and
    no framework overhead (the engine has none)."""
    ctx = run.ctx
    for outcome, config, ref in zip(run.outcomes[0], ctx.configs, ctx.ref_of):
        decomposition = ctx.references[ref].decomposition
        if decomposition is None:
            continue
        predicted = MemoryModel(
            ctx.dataset.spec,
            precision=config.dtype,
            measurement_itemsize=ctx.dataset.amplitudes.dtype.itemsize,
            include_fixed=False,
            probe_modes=config.probe_modes,
        ).max_bytes(decomposition)
        return (outcome.peak_rank_bytes - predicted) / predicted
    return 0.0

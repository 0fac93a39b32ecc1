"""The four benchmark workloads and the code that runs one of them.

Everything here drives the program through its public functions
(``repro.reconstruct``, ``repro.io.storage.save_result``,
``repro.ReconstructionService`` ...), looked up on their modules at call
time so that an installed :class:`bench.spans.Tracer` sees the calls.
The seed feeds ``simulate_dataset`` only.

Vocabulary (see README.md): an *operation* is one job taken to an
archived result; a *repetition* is a workload's whole set of operations
from a cold solver or service object in a fresh directory; a *set-up*
synthesises the dataset, prepares the store and runs the *reference
pass* — the plainest path (serial executor, in-memory store, batch 1,
same backend and dtype) for the same problem, whose ``(history,
SHA-256(volume))`` every timed operation must reproduce.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
import repro.data
import repro.io.storage
from repro.service.jobs import JobState

from bench.spans import NO_TRACER, Span, Tracer

clock = time.perf_counter

#: A run's last job may still be settling when this many seconds have
#: passed since the burst was submitted; it then counts as failed.
SETTLE_TIMEOUT_S = 120.0
SERVICE_POLL_S = 0.005

_NUMPY128 = {"backend": "numpy", "dtype": "complex128", "batch_size": 1}


@dataclass(frozen=True)
class Job:
    """One operation of a repetition: a solver and how it is run."""

    solver: str
    solver_params: Dict[str, Any]
    iterations: int
    fields: Dict[str, Any]


@dataclass(frozen=True)
class Workload:
    """Sizes and jobs of one workload (BENCHMARK.json says why it exists)."""

    name: str
    scan_grid: Tuple[int, int]
    detector_px: int
    n_slices: int
    #: ``suggest_lr`` step factor.  0.35 diverges at 64 px / 6 slices
    #: (cost 0.14 -> 4.8), so the deep workload uses 0.15.
    alpha: float
    jobs: Tuple[Job, ...]
    #: Incoherent modes the acquisition is simulated with.
    sim_probe_modes: Optional[int] = None
    #: Write the measurements to a ChunkedNpzStore with this chunk size
    #: and make every timed job read through it.
    store_chunk: Optional[int] = None
    #: ``ReconstructionService`` arguments; the jobs then run as one
    #: closed burst submitted back to back.
    service: Optional[Dict[str, Any]] = None
    #: Sizes for ``--smoke`` (same code paths, about a second): 16 px,
    #: 2 slices, this scan, this many iterations, the first few jobs.
    smoke_scan_grid: Tuple[int, int] = (4, 4)
    smoke_iterations: int = 8
    smoke_jobs: int = 1

    @property
    def workers(self) -> int:
        return max(j.fields.get("runtime_workers") or 1 for j in self.jobs)


def _service_jobs(n: int, iterations: int) -> Tuple[Job, ...]:
    fields = {**_NUMPY128, "executor": "serial"}
    gd = Job("gd", {"n_ranks": 4, "mode": "synchronous"}, iterations, fields)
    hve = Job("hve", {"n_ranks": 4}, iterations, fields)
    return tuple(gd if k % 2 == 0 else hve for k in range(n))


# BENCHMARK.json records why each workload exists; the comments here say
# only what the sizes are for.
WORKLOADS: Tuple[Workload, ...] = (
    # Large windows, deep volume, few ranks, everything in process: the
    # multislice kernel does almost all the work.
    Workload(
        name="gd-kernel",
        scan_grid=(8, 8), detector_px=64, n_slices=6, alpha=0.15,
        jobs=(
            Job("gd", {"n_ranks": 4}, 14,
                {**_NUMPY128, "executor": "serial"}),
        ),
    ),
    # 16 tiny tiles over 2 worker processes: per-step engine, dispatch
    # and comm overheads are as large as the kernel.
    Workload(
        name="gd-process-tiles",
        scan_grid=(16, 16), detector_px=16, n_slices=2, alpha=0.35,
        jobs=(
            Job("gd", {"n_ranks": 16}, 34,
                {**_NUMPY128, "executor": "process", "runtime_workers": 2}),
        ),
        smoke_scan_grid=(6, 6),
    ),
    # 144 frames in chunks of 8 = 18 chunks against the store's 2-chunk
    # LRU, so every sweep re-reads the file.
    Workload(
        name="gd-batched-mixed-store",
        scan_grid=(12, 12), detector_px=32, n_slices=3, alpha=0.35,
        jobs=(
            Job("gd",
                {"n_ranks": 4, "mode": "synchronous", "refine_probe": True},
                40,
                # Batch 8, not 16: (2, 16, 32, 32) reaches the threaded
                # backend's pool cutoff, and on a 2-vCPU VM each pooled
                # transform is two cross-vCPU wake-ups -- repetitions
                # took 1.4 s or 30 s depending on the host (README.md).
                {"backend": "threaded", "dtype": "complex64",
                 "executor": "serial", "probe_modes": 2,
                 "batch_size": 8, "prefetch": True}),
        ),
        sim_probe_modes=2,
        store_chunk=8,
        smoke_scan_grid=(6, 6),
    ),
    # 8 jobs of ~0.1-0.2 s direct compute each: the service's own work
    # per job outweighs the reconstruction.
    Workload(
        name="service-burst",
        scan_grid=(8, 8), detector_px=24, n_slices=2, alpha=0.5,
        jobs=_service_jobs(8, 5),
        service={"workers": 2, "checkpoint_every": 2},
        smoke_iterations=6,
        smoke_jobs=2,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


# ----------------------------------------------------------------------
# Set-up: dataset, store, reference pass
# ----------------------------------------------------------------------
@dataclass
class Reference:
    """What the reference pass produced for one distinct job."""

    history: Tuple[float, ...]
    digest: str
    seconds: float
    #: The gd decomposition, for the memory-model comparison (None for
    #: hve, which the model's gradient-buffer term does not describe).
    decomposition: Any = field(default=None, repr=False)


@dataclass
class Context:
    """Everything a repetition needs, made by one set-up."""

    workload: Workload
    dataset: Any
    configs: List[Any]
    #: ``configs[k]`` must reproduce ``references[ref_of[k]]``.
    ref_of: List[int]
    references: List[Reference]
    write_store_s: float = 0.0
    sizes: Dict[str, Any] = field(default_factory=dict)


def volume_digest(volume: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(volume).tobytes()).hexdigest()


def reference_config(config):
    """The plainest path for ``config``'s problem (see module doc)."""
    return repro.ReconstructionConfig(
        config.solver,
        dict(config.solver_params),
        backend=config.backend,
        dtype=config.dtype,
        executor="serial",
        batch_size=1,
        probe_modes=config.probe_modes,
    )


def set_up(
    workload: Workload,
    seed: int,
    directory: Path,
    smoke: bool,
    tracer=NO_TRACER,
) -> Context:
    directory.mkdir(parents=True)
    grid = workload.smoke_scan_grid if smoke else workload.scan_grid
    detector_px = 16 if smoke else workload.detector_px
    n_slices = 2 if smoke else workload.n_slices
    jobs = workload.jobs[:workload.smoke_jobs] if smoke else workload.jobs
    dataset = repro.simulate_dataset(
        repro.scaled_pbtio3_spec(
            scan_grid=grid, detector_px=detector_px, n_slices=n_slices
        ),
        seed=seed,
        probe_modes=workload.sim_probe_modes,
    )
    lr = repro.suggest_lr(dataset, alpha=workload.alpha)

    extra: Dict[str, Any] = {}
    write_store_s = 0.0
    if workload.store_chunk is not None:
        t0 = clock()
        store = repro.data.write_store(
            directory / "store.npz", dataset, chunk_size=workload.store_chunk
        )
        write_store_s = clock() - t0
        extra["data_source"] = str(store)

    configs, ref_of, references = [], [], []
    seen: Dict[str, int] = {}
    for job in jobs:
        iterations = workload.smoke_iterations if smoke else job.iterations
        config = repro.ReconstructionConfig(
            job.solver,
            {**job.solver_params, "iterations": iterations, "lr": lr},
            **job.fields,
            **extra,
        )
        configs.append(config)
        key = reference_config(config).to_json()
        if key not in seen:
            seen[key] = len(references)
            references.append(
                _reference_pass(dataset, config, len(references), tracer)
            )
        ref_of.append(seen[key])
    return Context(
        workload=workload,
        dataset=dataset,
        configs=configs,
        ref_of=ref_of,
        references=references,
        write_store_s=write_store_s,
        sizes={
            "scan_grid": list(grid),
            "detector_px": detector_px,
            "n_slices": n_slices,
            "iterations": [c.solver_params["iterations"] for c in configs],
            "operations_per_repetition": len(configs),
        },
    )


def _reference_pass(dataset, config, index: int, tracer) -> Reference:
    op = f"ref-{index}"
    tracer.begin(op)
    t0 = clock()
    result = repro.reconstruct(dataset, reference_config(config))
    seconds = clock() - t0
    tracer.end(op)
    return Reference(
        history=tuple(result.history),
        digest=volume_digest(result.volume),
        seconds=seconds,
        decomposition=result.decomposition if config.solver == "gd" else None,
    )


# ----------------------------------------------------------------------
# Operations and their verdict
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one operation produced, as the benchmark saw it."""

    op: str
    latency_s: float
    state: str = JobState.DONE
    error: Optional[str] = None
    history: Tuple[float, ...] = ()
    digest: str = ""
    finite: bool = False
    message_bytes: int = 0
    messages: int = 0
    peak_rank_bytes: int = 0

    def take(self, result) -> None:
        """Fill in from a ``ReconstructionResult`` or ``ResultArchive``."""
        self.history = tuple(float(c) for c in result.history)
        self.digest = volume_digest(result.volume)
        self.finite = bool(
            np.all(np.isfinite(result.volume)) and np.all(np.isfinite(self.history))
        )
        self.message_bytes = int(result.message_bytes)
        self.messages = int(result.messages)
        self.peak_rank_bytes = int(max(result.peak_memory_per_rank))


def failure_reason(outcome: Outcome, reference: Reference) -> Optional[str]:
    """Why ``outcome`` counts as a failed operation (``None``: it passed)."""
    if outcome.error is not None:
        return "raised: " + outcome.error.strip().splitlines()[-1]
    if outcome.state != JobState.DONE:
        return f"settled {outcome.state}"
    if not outcome.history or not outcome.finite:
        return "non-finite result"
    if outcome.history[-1] >= 0.25 * outcome.history[0]:
        return "did not converge (final cost >= 0.25 x first)"
    if (outcome.history, outcome.digest) != (reference.history, reference.digest):
        return "differs from the reference pass"
    return None


def _single_operation(ctx: Context, directory: Path, rep: str, tracer):
    """One ``reconstruct`` + ``save_result``; returns ``(wall, outcomes)``."""
    config = ctx.configs[0]
    outcome = Outcome(op=f"{rep}-op0", latency_s=0.0)
    result = None
    tracer.begin(outcome.op)
    t0 = clock()
    try:
        result = repro.reconstruct(ctx.dataset, config)
        repro.io.storage.save_result(directory / "result.npz", result, config)
    except Exception:
        outcome.error = traceback.format_exc()
    outcome.latency_s = clock() - t0
    tracer.end(outcome.op)
    if result is not None:
        outcome.take(result)
    return outcome.latency_s, [outcome]


def _service_burst(ctx: Context, directory: Path, rep: str, tracer):
    """Submit every job back to back at priority 0, then watch until
    the last one settles.  One thread generates the load: it polls the
    service's in-memory settle counters and reads job states only when
    a counter moved."""
    service = repro.ReconstructionService(
        directory / "root", **ctx.workload.service
    )
    outcomes = [
        Outcome(op=f"{rep}-j{k}", latency_s=0.0) for k in range(len(ctx.configs))
    ]
    try:
        submitted: Dict[str, float] = {}
        t0 = clock()
        for outcome, config in zip(outcomes, ctx.configs):
            tracer.begin(outcome.op)
            submitted[outcome.op] = clock()
            try:
                service.submit(
                    ctx.dataset, config, priority=0, job_id=outcome.op
                )
            except Exception:
                outcome.error = traceback.format_exc()
        pending = {o.op: o for o in outcomes}
        settled_seen = -1
        while pending:
            now = clock()
            if now - t0 > SETTLE_TIMEOUT_S:
                for outcome in pending.values():
                    outcome.state = "TIMEOUT"
                    outcome.latency_s = now - submitted[outcome.op]
                    tracer.end(outcome.op, now)
                break
            stats = service.stats()
            settled = sum(
                stats[k] for k in ("done", "failed", "cancelled", "paused")
            )
            if settled == settled_seen:
                time.sleep(SERVICE_POLL_S)
                continue
            settled_seen = settled
            for outcome in list(pending.values()):
                state = (
                    JobState.FAILED if outcome.error is not None
                    else service.status(outcome.op)
                )
                if state in JobState.SETTLED:
                    now = clock()
                    outcome.state = state
                    outcome.latency_s = now - submitted[outcome.op]
                    tracer.end(outcome.op, now)
                    del pending[outcome.op]
        wall = max(submitted[o.op] + o.latency_s for o in outcomes) - t0
        for outcome in outcomes:
            if outcome.state == JobState.DONE and outcome.error is None:
                outcome.take(service.result(outcome.op))
    finally:
        service.close()
    return wall, outcomes


def repetition(ctx: Context, directory: Path, rep: str, tracer=NO_TRACER):
    """Run the workload's operations once in ``directory`` (made here,
    removed here, both outside the clock)."""
    directory.mkdir(parents=True)
    try:
        run = _service_burst if ctx.workload.service else _single_operation
        return run(ctx, directory, rep, tracer)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


# ----------------------------------------------------------------------
# A whole run of one workload
# ----------------------------------------------------------------------
@dataclass
class Run:
    """Raw measurements of one run, before they become metrics."""

    ctx: Context
    setup_seconds: List[float]
    walls: List[float]
    outcomes: List[List[Outcome]]
    failures: List[Tuple[str, str]]
    #: Traced extras (``None`` without ``--trace``).
    traced_wall: Optional[float] = None
    traced_outcomes: Optional[List[Outcome]] = None
    repetition_spans: Optional[List[Span]] = None
    reference_spans: Optional[List[Span]] = None

    @property
    def attempted(self) -> int:
        """Operations run and checked, the traced repetition's included."""
        return sum(len(ops) for ops in self.outcomes) + len(self.traced_outcomes or ())

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    scratch: Path,
) -> Run:
    """Set-ups, then timed repetitions for ``seconds``, then (with
    ``trace``) one more repetition under the tracer."""
    # setup_s is the median of three full set-ups; a traced or smoke
    # run reports no setup_s and makes do with one.  A traced run sets
    # up once more under the tracer, for the serial split of the
    # reference pass; its timings are not used.
    n_setups = 1 if (trace or smoke) else 3
    min_reps = 2 if smoke else 3
    tracer = Tracer() if trace else None

    setup_seconds: List[float] = []
    ctx = None
    for k in range(n_setups):
        if k:
            shutil.rmtree(scratch / f"setup{k - 1}")
        t0 = clock()
        ctx = set_up(workload, seed, scratch / f"setup{k}", smoke)
        setup_seconds.append(clock() - t0)
    reference_spans = None
    if tracer is not None:
        with tracer:
            set_up(workload, seed, scratch / "setup-traced", smoke, tracer)
        reference_spans = tracer.drain()
        shutil.rmtree(scratch / "setup-traced")

    walls: List[float] = []
    outcomes: List[List[Outcome]] = []
    started = clock()
    while True:
        rep = f"r{len(walls)}"
        wall, ops = repetition(ctx, scratch / rep, rep)
        walls.append(wall)
        outcomes.append(ops)
        typical = statistics.median(walls)
        # Stop at the repetition count nearest to the budget; a traced
        # run keeps one repetition's worth of the budget for the tracer.
        budget = seconds - (typical if trace else 0.0)
        if len(walls) >= min_reps and clock() - started + typical / 2 >= budget:
            break

    run = Run(ctx, setup_seconds, walls, outcomes, [], reference_spans=reference_spans)
    if tracer is not None:
        with tracer:
            run.traced_wall, run.traced_outcomes = repetition(
                ctx, scratch / "traced", "t0", tracer
            )
        run.repetition_spans = tracer.drain()
    checked = outcomes + ([run.traced_outcomes] if trace else [])
    for ops in checked:
        for outcome, ref in zip(ops, ctx.ref_of):
            reason = failure_reason(outcome, ctx.references[ref])
            if reason is not None:
                run.failures.append((outcome.op, reason))
    return run


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end_values(run: Run, peak_rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of BENCHMARK.json, from the untraced
    repetitions (the byte and cost metrics repeat exactly, so the first
    repetition gives them)."""
    latencies = [o.latency_s for ops in run.outcomes for o in ops]
    first = run.outcomes[0]
    reductions_db = [
        10.0 * math.log10(o.history[0] / o.history[-1])
        for o in first if o.history and o.history[-1] > 0
    ]
    return {
        "setup_s": statistics.median(run.setup_seconds),
        "wall_s": statistics.median(run.walls),
        "job_latency_p50_s": percentile(latencies, 50),
        "job_latency_p80_s": percentile(latencies, 80),
        "peak_rss_mb": peak_rss_mb,
        "peak_rank_bytes": max(o.peak_rank_bytes for o in first),
        "message_bytes": sum(o.message_bytes for o in first),
        # The final cost itself differs 10-20 % from seed to seed (another
        # specimen), too much for a bounded metric; in decibels of
        # reduction from the first sweep it differs 3-5 %.
        "cost_reduction_db": statistics.fmean(reductions_db) if reductions_db else 0.0,
    }


def final_costs(run: Run) -> List[float]:
    """Final data-fit cost of each operation of a repetition: exact at a
    fixed seed, so a change quotes it per seed, as a count."""
    return [o.history[-1] for o in run.outcomes[0] if o.history]

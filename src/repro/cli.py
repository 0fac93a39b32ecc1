"""Command-line interface.

Four subcommands cover the simulate -> reconstruct -> analyze workflow:

.. code-block:: bash

    repro-ptycho simulate  --grid 8x8 --detector 24 --slices 2 --out ds.npz
    repro-ptycho store     --dataset ds.npz --chunk-size 32 --out ds_meas.npz
    repro-ptycho reconstruct --dataset ds.npz --ranks 9 --iterations 10 \
        --out rec.npz
    repro-ptycho reconstruct --dataset ds.npz --data-store ds_meas.npz \
        --batch-size 8 --out rec.npz
    repro-ptycho reconstruct --dataset ds.npz --config run.json --out rec.npz
    repro-ptycho predict   --dataset large --algorithm gd --gpus 6,54,462
    repro-ptycho experiment --name table1

Three more drive the async job layer (:mod:`repro.service`) against a
filesystem job root that survives restarts:

.. code-block:: bash

    repro-ptycho submit --root jobs/ --dataset ds.npz --config run.json
    repro-ptycho serve  --root jobs/ --workers 2 --drain
    repro-ptycho jobs   --root jobs/                  # list + live progress
    repro-ptycho jobs   --root jobs/ --watch          # poll until settled
    repro-ptycho jobs   --root jobs/ --cancel JOBID --at-iteration 5
    repro-ptycho jobs   --root jobs/ --resume JOBID   # requeue from checkpoint

Observability: ``reconstruct --trace out.json`` records tracing spans
and writes a Chrome trace (chrome://tracing / Perfetto), ``stats``
prints the aggregated phase breakdown of a traced archive or job
directory, and the top-level ``-v``/``--log-level`` flags opt into the
library's structured logs:

.. code-block:: bash

    repro-ptycho reconstruct --dataset ds.npz --trace trace.json --out rec.npz
    repro-ptycho stats rec.npz
    repro-ptycho stats jobs/jobs/<JOBID>      # service job directory
    repro-ptycho -v serve --root jobs/ --drain

``submit`` and ``jobs`` only touch the job directory, so they work with
or without a running server: submissions queue up for the next ``serve``,
cancel requests are honoured by a live server at the next iteration
boundary, and ``--resume`` requeues a settled job from its consolidated
checkpoint.

Reconstruction dispatches through the :mod:`repro.api` solver registry:
``--algorithm`` choices are whatever is registered (third-party solvers
included), ``--config`` runs a serialized
:class:`~repro.api.ReconstructionConfig` verbatim, and the resolved
config is embedded in the saved result archive — ``load_result(out).config``
replays the run exactly.

(Also runnable as ``python -m repro.cli ...``.)
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.api import solver_names
from repro.backend import backend_names, default_backend_name, default_dtype_name
from repro.data import default_batch_size
from repro.experiments import experiment_names
from repro.runtime import default_executor_name, executor_names

__all__ = ["main", "build_parser"]

#: One row per reconstruct solver flag: (config key, CLI flag, default).
#: The single source shared by build_parser, the config builder, and the
#: --config clash check.  A flag left at its default is simply omitted
#: from the config when the chosen solver does not accept it; an
#: explicitly-set flag the solver cannot honour is an error (never
#: silently dropped).  --lr's None default means "auto-resolve".
_REC_FLAG_SPECS = (
    ("n_ranks", "--ranks", 4),
    ("iterations", "--iterations", 10),
    ("lr", "--lr", None),
    ("mode", "--mode", "alg1"),
    ("planner", "--planner", "appp"),
    ("sync_period", "--sync-period", "iteration"),
    ("refine_probe", "--refine-probe", False),
)
_REC_DEFAULTS: Dict[str, object] = {
    key: default for key, _, default in _REC_FLAG_SPECS
}


def _solver_flag_values(args) -> List[tuple]:
    """``(key, flag, value, explicit)`` per solver flag; ``explicit``
    means the user moved the flag off its default."""
    out = []
    for key, flag, default in _REC_FLAG_SPECS:
        value = getattr(args, flag[2:].replace("-", "_"))  # argparse's dest
        out.append((key, flag, value, value != default))
    return out


class _RunFlag(NamedTuple):
    """One run-setting flag of ``reconstruct``."""

    #: The ``ReconstructionConfig`` field it sets (also its argparse dest).
    field: str
    flag: str
    #: What the flag path records when the flag is omitted (``None``:
    #: record ``None``, the ambient default resolved at run time).
    ambient: Optional[Callable[[], Any]]
    #: Recorded for every solver, not only those that accept the field:
    #: the archive names the compute stack that ran.
    every_solver: bool
    #: ``add_argument`` keywords; a callable ``choices`` is a registry's
    #: ``*_names`` function, read when the parser is built.
    argument: Dict[str, Any]


#: The run-setting flags: the one place a user-facing run option maps to
#: its CLI flag.  The flag path records each (flag, else ambient) in the
#: config it builds; the ``--config`` path overrides the file's value
#: with every flag that is given (``None`` keeps the file's value, so
#: ``--no-prefetch`` still switches an archived ``prefetch=true`` off).
_RUN_FLAGS = (
    _RunFlag("backend", "--backend", default_backend_name, True, dict(
        choices=backend_names,
        help="compute backend (default: REPRO_BACKEND env or numpy); with "
             "--config, overrides the config's backend for replay on "
             "different hardware")),
    _RunFlag("dtype", "--dtype", default_dtype_name, True, dict(
        choices=["complex64", "complex128"],
        help="compute precision (default: REPRO_DTYPE env or complex128); "
             "complex64 halves memory")),
    _RunFlag("executor", "--executor", default_executor_name, False, dict(
        choices=executor_names,
        help="rank-program placement (default: REPRO_EXECUTOR env or "
             "serial); 'process' runs each rank block in its own worker "
             "process; with --config, overrides the config's executor for "
             "replay")),
    _RunFlag("runtime_workers", "--runtime-workers", None, False, dict(
        type=int,
        help="worker-pool bound for --executor process (default: one per "
             "rank, capped at CPU count)")),
    _RunFlag("data_source", "--data-store", None, False, dict(
        help="measurement source: 'memory' (default) or the path of an "
             "on-disk store written by the store subcommand; with "
             "--config, overrides the config's data_source for replay")),
    _RunFlag("batch_size", "--batch-size", default_batch_size, False, dict(
        type=int,
        help="probes per batched multislice sweep (default: "
             "REPRO_BATCH_SIZE env or 1 = per-position); bit-identical at "
             "every setting")),
    _RunFlag("prefetch", "--prefetch", None, False, dict(
        action=argparse.BooleanOptionalAction,
        help="page-cache read-ahead hint for a .npz --data-store (a no-op "
             "for HDF5); --no-prefetch overrides a config that pinned it "
             "on")),
    _RunFlag("probe_modes", "--probe-modes", None, False, dict(
        type=int,
        help="incoherent probe modes for mixed-state reconstruction "
             "(default 1 = scalar probe, bit-identical to the historical "
             "path); with --config, overrides the config's probe_modes")),
)


def _parse_grid(text: str) -> tuple:
    try:
        rows, cols = text.lower().split("x")
        return (int(rows), int(cols))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must look like 8x8, got {text!r}"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ptycho",
        description=(
            "Gradient-decomposed parallel ptychographic reconstruction "
            "(SC22 reproduction)"
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="library log verbosity: -v = INFO, -vv = DEBUG (default: "
             "REPRO_LOG env or warnings only)")
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="explicit logging level name or number (overrides -v and "
             "REPRO_LOG)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a PbTiO3 acquisition")
    sim.add_argument("--grid", type=_parse_grid, default=(8, 8))
    sim.add_argument("--detector", type=int, default=24)
    sim.add_argument("--slices", type=int, default=2)
    sim.add_argument("--overlap", type=float, default=0.72)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--dose", type=float, default=None,
                     help="Poisson dose (electrons/position); noiseless if omitted")
    sim.add_argument("--out", required=True)

    rec = sub.add_parser("reconstruct", help="reconstruct an acquisition")
    rec.add_argument("--dataset", required=True)
    rec.add_argument("--config", default=None,
                     help="JSON ReconstructionConfig file; replaces the "
                          "algorithm/solver flags below")
    rec.add_argument("--ranks", type=int, default=_REC_DEFAULTS["n_ranks"])
    rec.add_argument("--iterations", type=int,
                     default=_REC_DEFAULTS["iterations"])
    rec.add_argument("--lr", type=float, default=None,
                     help="step size (auto-preconditioned if omitted)")
    rec.add_argument("--mode", choices=["alg1", "synchronous"],
                     default=_REC_DEFAULTS["mode"])
    rec.add_argument(
        "--planner",
        choices=["appp", "barrier", "allreduce", "neighbor"],
        default=_REC_DEFAULTS["planner"],
    )
    rec.add_argument("--sync-period", default=_REC_DEFAULTS["sync_period"])
    rec.add_argument("--algorithm", choices=solver_names(), default="gd")
    rec.add_argument("--refine-probe", action="store_true")
    for row in _RUN_FLAGS:
        argument = dict(row.argument)
        if callable(argument.get("choices")):
            argument["choices"] = argument["choices"]()
        rec.add_argument(row.flag, dest=row.field, default=None, **argument)
    rec.add_argument("--resume", default=None,
                     help="warm-start from a saved result archive and "
                          "continue its run (--iterations counts the "
                          "iterations still to run)")
    rec.add_argument("--stream", action="store_true",
                     help="replay the dataset as a live acquisition "
                          "(frames arrive in waves while the solver runs; "
                          "default schedule: 4 contiguous waves)")
    rec.add_argument("--stream-schedule", metavar="JSON", default=None,
                     help="scan-source spec for --stream: inline JSON or a "
                          "path to a JSON file (implies --stream); see "
                          "repro.data.build_scan_source for the schema")
    rec.add_argument("--trace", metavar="PATH", default=None,
                     help="record telemetry and write a Chrome trace-event "
                          "JSON here (open in chrome://tracing or Perfetto); "
                          "also attaches the aggregated stats to --out")
    rec.add_argument("--out", required=True)

    sto = sub.add_parser(
        "store",
        help="export a dataset's measurements to a chunked on-disk store",
    )
    sto.add_argument("--dataset", required=True)
    sto.add_argument("--chunk-size", type=int, default=64,
                     help="probes per on-disk chunk (default 64)")
    sto.add_argument("--format", choices=["npz", "hdf5"], default=None,
                     help="store format (default: inferred from --out "
                          "extension; .h5/.hdf5 -> hdf5, else npz)")
    sto.add_argument("--out", required=True)

    pred = sub.add_parser(
        "predict", help="full-scale performance prediction (Tables II/III)"
    )
    pred.add_argument("--dataset", choices=["small", "large"], default="large")
    # Deliberately narrower than solver_names(): the paper's performance
    # model is calibrated for gd/hve only, so third-party solver
    # registrations have no prediction tables to draw from.
    pred.add_argument(
        "--algorithm", default="gd",
        choices=["gd", "hve"],  # repro-lint: allow[registry-reachable]
    )
    pred.add_argument("--gpus", default="6,54,198,462",
                      help="comma-separated GPU counts")
    pred.add_argument(
        "--planner", choices=["appp", "barrier", "allreduce"], default="appp"
    )

    exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    exp.add_argument("--name", required=True, choices=experiment_names())

    srv = sub.add_parser(
        "serve", help="run a reconstruction service over a job directory"
    )
    srv.add_argument("--root", required=True,
                     help="job directory (created if missing; durable "
                          "across restarts)")
    srv.add_argument("--workers", type=int, default=2,
                     help="concurrent jobs (default 2)")
    srv.add_argument("--checkpoint-every", type=int, default=None,
                     help="periodic checkpoint cadence in iterations "
                          "(crash recovery resumes from these)")
    srv.add_argument("--drain", action="store_true",
                     help="exit once every queued job has settled "
                          "instead of serving forever")

    smt = sub.add_parser(
        "submit", help="queue a reconstruction job in a job directory"
    )
    smt.add_argument("--root", required=True)
    smt.add_argument("--dataset", required=True,
                     help="dataset archive (referenced in place)")
    smt.add_argument("--config", required=True,
                     help="JSON ReconstructionConfig file")
    smt.add_argument("--priority", type=int, default=0,
                     help="higher dequeues first (default 0)")
    smt.add_argument("--job-id", default=None,
                     help="explicit job id (default: generated)")

    job = sub.add_parser(
        "jobs", help="list or control jobs in a job directory"
    )
    job.add_argument("--root", required=True)
    job.add_argument("--cancel", metavar="JOBID", default=None,
                     help="request cancellation (takes effect at the "
                          "next iteration boundary of a live server)")
    job.add_argument("--pause", metavar="JOBID", default=None,
                     help="like --cancel but the job lands in PAUSED")
    job.add_argument("--at-iteration", type=int, default=None,
                     help="with --cancel/--pause: defer until this many "
                          "global iterations are banked")
    job.add_argument("--resume", metavar="JOBID", default=None,
                     help="requeue a settled job from its checkpoint")
    job.add_argument("--watch", action="store_true",
                     help="re-render the listing every --interval seconds "
                          "until every job settles")
    job.add_argument("--interval", type=float, default=2.0,
                     help="polling period for --watch (default 2s)")
    job.add_argument("--watch-count", type=int, default=None,
                     help=argparse.SUPPRESS)  # bounded --watch, for tests/CI

    sts = sub.add_parser(
        "stats", help="show a traced run's phase breakdown and counters"
    )
    sts.add_argument("path",
                     help="a result archive (.npz with telemetry attached) "
                          "or a service job directory (telemetry.json)")
    sts.add_argument("--json", action="store_true",
                     help="print the raw summary JSON instead of the table")

    lnt = sub.add_parser(
        "lint",
        help="check the tree against the repo's correctness contracts "
             "(repro-lint; see `repro lint --list-rules`)",
        add_help=False,
    )
    lnt.add_argument("lint_args", nargs=argparse.REMAINDER,
                     help="arguments forwarded to repro.analysis "
                          "(--format, --rules, --baseline, paths, ...)")
    return parser


# ----------------------------------------------------------------------
def _cmd_simulate(args) -> int:
    from repro.io import save_dataset
    from repro.physics.dataset import scaled_pbtio3_spec, simulate_dataset

    spec = scaled_pbtio3_spec(
        scan_grid=args.grid,
        detector_px=args.detector,
        n_slices=args.slices,
        overlap_ratio=args.overlap,
    )
    dataset = simulate_dataset(spec, seed=args.seed, poisson_dose=args.dose)
    path = save_dataset(args.out, dataset)
    print(
        f"wrote {path} ({dataset.n_probes} probes, "
        f"object {spec.object_shape[0]}x{spec.object_shape[1]}x{spec.n_slices})"
    )
    return 0


def _config_from_flags(args, dataset) -> "ReconstructionConfig":
    """Translate reconstruct flags into a config for the chosen solver.

    Flags the solver accepts go into ``solver_params``; a flag left at
    its default is dropped silently, but an *explicitly set* flag the
    solver cannot honour is a hard error (the historical CLI silently
    dropped ``--refine-probe``/``--resume`` for ``hve``).
    """
    from repro.api import ReconstructionConfig, get_solver
    from repro.api.registry import SolverCapabilityError
    from repro.physics.dataset import suggest_lr

    accepted = get_solver(args.algorithm).accepted_params
    params = {}
    for key, flag, value, explicit in _solver_flag_values(args):
        if key == "lr":
            value = float(
                value if value is not None
                else suggest_lr(dataset, alpha=0.35)
            )
        elif key == "sync_period" and isinstance(value, str) and value.isdigit():
            value = int(value)
        if key in accepted:
            params[key] = value
        elif explicit:
            raise SolverCapabilityError(
                f"{flag} is not supported by solver "
                f"{args.algorithm!r} (accepted parameters: "
                f"{', '.join(sorted(accepted))})"
            )
    run_params = {"resume": args.resume} if args.resume is not None else {}
    # Record the *resolved* configuration (flag, else ambient default)
    # so the embedded config replays on what actually ran.  A run
    # setting is recorded only for solvers that accept it (backend and
    # dtype for every solver); an explicit flag on any other solver is a
    # hard error (the first offending flag, in table order, is named).
    options = {}
    for row in _RUN_FLAGS:
        value = getattr(args, row.field)
        if row.every_solver or row.field in accepted:
            if value is None and row.ambient is not None:
                value = row.ambient()
            options[row.field] = value
        elif value is not None:
            raise SolverCapabilityError(
                f"{row.flag} is not supported by solver {args.algorithm!r} "
                f"(accepted parameters: {', '.join(sorted(accepted))})"
            )
    return ReconstructionConfig(
        solver=args.algorithm,
        solver_params=params,
        run_params=run_params,
        **options,
    )


def _config_from_file(args) -> "ReconstructionConfig":
    """The ``--config`` file's config, overridden by every run-setting
    flag that is given and by ``--resume`` (replay an archived run on
    other hardware, under another runtime, against another store)."""
    from pathlib import Path

    from repro.api import ReconstructionConfig

    clashing = _explicit_solver_flags(args)
    if clashing:
        raise ValueError(
            f"--config replaces the solver flags; remove "
            f"{', '.join(clashing)} or drop --config"
        )
    try:
        config_text = Path(args.config).read_text()
    except OSError as exc:
        raise ValueError(
            f"cannot read --config {args.config}: {exc}"
        ) from exc
    config = ReconstructionConfig.from_json(config_text)
    if args.resume is not None:
        config = config.with_run_params(resume=args.resume)
    return replace(config, **{
        row.field: getattr(args, row.field)
        for row in _RUN_FLAGS
        if getattr(args, row.field) is not None
    })


def _explicit_solver_flags(args) -> List[str]:
    """Solver flags the user set away from their defaults (so a run
    driven by ``--config`` can reject them instead of silently ignoring
    them)."""
    flags = ["--algorithm"] if args.algorithm != "gd" else []
    flags.extend(
        flag for _, flag, _, explicit in _solver_flag_values(args) if explicit
    )
    return flags


def _stream_spec(args):
    """The scan-source spec selected by --stream/--stream-schedule.

    ``--stream-schedule`` takes inline JSON or a path to a JSON file and
    implies ``--stream``; bare ``--stream`` replays the dataset in the
    default 4 contiguous waves.  Returns ``None`` when neither is set.
    """
    import json
    from pathlib import Path

    if args.stream_schedule is not None:
        text = args.stream_schedule
        candidate = Path(text)
        if candidate.is_file():
            text = candidate.read_text()
        spec = json.loads(text)
        if not isinstance(spec, dict):
            raise ValueError(
                "--stream-schedule must be a JSON object "
                '(e.g. {"kind": "replay", "waves": 4})'
            )
        return spec
    if args.stream:
        return {"kind": "replay", "waves": 4}
    return None


def _cmd_reconstruct(args) -> int:
    from repro.api import reconstruct
    from repro.api.registry import SolverCapabilityError, UnknownSolverError
    from repro.backend import BackendUnavailableError
    from repro.core import DivergenceError
    from repro.data import StoreUnavailableError, StreamError
    from repro.io import load_dataset, save_result

    dataset = load_dataset(args.dataset)
    try:
        if args.config is not None:
            config = _config_from_file(args)
        else:
            config = _config_from_flags(args, dataset)
        stream_spec = _stream_spec(args)
        if stream_spec is not None:
            # Like --resume, streaming *overrides* a config: the same
            # archived run can be replayed as a live acquisition.
            config = replace(config, scan_source=stream_spec)
        resume = config.run_params.get("resume")
        if resume is not None:
            print(f"resuming from {resume}")
        if args.trace is not None:
            from repro.obs import Telemetry, activate

            # One recorder for the whole command, activated before the
            # run so the solver, its engines and any worker processes
            # all record onto the timeline --trace exports.
            config = replace(config, telemetry=True)
            tel = Telemetry()
            with activate(tel):
                result = reconstruct(dataset, config)
        else:
            tel = None
            result = reconstruct(dataset, config)
    except (UnknownSolverError, SolverCapabilityError,
            BackendUnavailableError, StoreUnavailableError, StreamError,
            DivergenceError, ValueError, TypeError) as exc:
        print(f"reconstruct: error: {exc}", file=sys.stderr)
        return 2

    path = save_result(args.out, result, config=config)
    print(f"solver: {config.solver}")
    print(f"backend: {config.backend} ({config.dtype})")
    if config.probe_modes is not None and config.probe_modes > 1:
        print(f"probe modes: {config.probe_modes} (mixed-state)")
    if config.scan_source is not None:
        print(f"stream: {config.scan_source.get('kind', '?')} source")
    if config.data_source is not None or (
        config.batch_size is not None and config.batch_size > 1
    ):
        source = config.data_source or "memory"
        batch = config.batch_size if config.batch_size is not None else 1
        flags = ", prefetch" if config.prefetch else ""
        print(f"data: {source} (batch={batch}{flags})")
    if config.executor is not None:
        workers = (
            f", workers={config.runtime_workers}"
            if config.runtime_workers is not None
            else ""
        )
        print(f"executor: {config.executor}{workers}")
    print(f"cost: {result.history[0]:.4e} -> {result.history[-1]:.4e} "
          f"over {len(result.history)} iterations")
    print(f"messages: {result.messages}, "
          f"peak memory/rank: {result.peak_memory_mean / 1e6:.2f} MB")
    print(f"wrote {path} (config embedded for replay)")
    if tel is not None:
        from repro.obs import format_stats_table, write_chrome_trace

        trace_path = write_chrome_trace(args.trace, tel)
        print(f"wrote {trace_path} "
              f"(chrome://tracing / https://ui.perfetto.dev)")
        print()
        print(format_stats_table(result.telemetry or tel.summary()))
    return 0


def _cmd_store(args) -> int:
    from repro.data import StoreUnavailableError, write_store
    from repro.io import load_dataset

    dataset = load_dataset(args.dataset)
    try:
        path = write_store(
            args.out, dataset, chunk_size=args.chunk_size, fmt=args.format
        )
    except (StoreUnavailableError, ValueError) as exc:
        print(f"store: error: {exc}", file=sys.stderr)
        return 2
    n_chunks = -(-dataset.n_probes // args.chunk_size)
    print(
        f"wrote {path} ({dataset.n_probes} probes in {n_chunks} "
        f"chunks of {args.chunk_size})"
    )
    return 0


def _cmd_predict(args) -> int:
    from repro.experiments.report import format_table
    from repro.perfmodel import PerformancePredictor
    from repro.physics.dataset import large_pbtio3_spec, small_pbtio3_spec

    spec = large_pbtio3_spec() if args.dataset == "large" else small_pbtio3_spec()
    gpus = [int(g) for g in args.gpus.split(",")]
    predictor = PerformancePredictor(spec)
    rows = predictor.sweep(gpus, args.algorithm, planner=args.planner)
    table = format_table(
        ["nodes", "GPUs", "mem GB", "time min", "eff %"],
        [
            [r.nodes, r.gpus, r.memory_gb, r.runtime_min, r.efficiency_pct]
            for r in rows
        ],
        title=f"{spec.name} — {args.algorithm} — 100 iterations",
    )
    print(table)
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments import get_experiment

    result = get_experiment(args.name)()
    print(result.format())
    return 0


def _cmd_serve(args) -> int:
    from repro.service import JobError, ReconstructionService

    try:
        service = ReconstructionService(
            args.root,
            workers=args.workers,
            checkpoint_every=args.checkpoint_every,
        )
    except (ValueError, JobError) as exc:
        # JobError here means another service holds <root>/serve.lock.
        print(f"serve: error: {exc}", file=sys.stderr)
        return 2
    stats = service.stats()
    print(f"serving {args.root} with {args.workers} worker(s)"
          f" ({stats['recovered']} job(s) recovered)")
    try:
        if args.drain:
            service.drain()
        else:  # pragma: no cover - interactive mode
            import time as _time

            while True:
                _time.sleep(1.0)
    except KeyboardInterrupt:  # pragma: no cover - interactive mode
        print("interrupted; finishing running jobs")
    finally:
        service.close()
    stats = service.stats()
    print(f"settled: {stats['done']} done, {stats['failed']} failed, "
          f"{stats['cancelled']} cancelled, {stats['paused']} paused")
    return 1 if stats["failed"] else 0


def _cmd_submit(args) -> int:
    from pathlib import Path

    from repro.api import ReconstructionConfig
    from repro.service import JobError, create_job

    try:
        config_text = Path(args.config).read_text()
    except OSError as exc:
        print(f"submit: error: cannot read --config {args.config}: {exc}",
              file=sys.stderr)
        return 2
    try:
        config = ReconstructionConfig.from_json(config_text)
        record = create_job(
            args.root,
            args.dataset,
            config,
            priority=args.priority,
            job_id=args.job_id,
        )
    except (JobError, ValueError, OSError) as exc:
        print(f"submit: error: {exc}", file=sys.stderr)
        return 2
    print(f"submitted {record.job_id} ({config.solver}, "
          f"{record.iterations_total} iterations, "
          f"priority {record.priority})")
    return 0


def _cmd_jobs(args) -> int:
    from repro.service import (
        JobError,
        jobs as jobstore,
        prepare_resume,
        read_progress,
        request_control,
    )

    actions = [
        a for a in (args.cancel, args.pause, args.resume) if a is not None
    ]
    if len(actions) > 1:
        print("jobs: error: give at most one of --cancel/--pause/--resume",
              file=sys.stderr)
        return 2
    if args.at_iteration is not None and not (args.cancel or args.pause):
        print("jobs: error: --at-iteration needs --cancel or --pause",
              file=sys.stderr)
        return 2
    try:
        if args.cancel or args.pause:
            job_id = args.cancel or args.pause
            action = "cancel" if args.cancel else "pause"
            jobstore.load_record(args.root, job_id)  # existence check
            request_control(args.root, job_id, action, args.at_iteration)
            when = (
                f"once {args.at_iteration} iterations are banked"
                if args.at_iteration is not None
                else "at the next iteration boundary"
            )
            print(f"{action} requested for {job_id} ({when})")
            return 0
        if args.resume:
            record = prepare_resume(args.root, args.resume)
            print(f"requeued {record.job_id} from iteration "
                  f"{record.iterations_done} (resume #{record.resumes})")
            return 0
    except (JobError, FileNotFoundError) as exc:
        print(f"jobs: error: {exc}", file=sys.stderr)
        return 2

    def render() -> bool:
        """Print the listing; True while any job is still live."""
        from repro.service.jobs import JobState

        job_ids = jobstore.list_job_ids(args.root)
        if not job_ids:
            print(f"no jobs under {args.root}")
            return False
        active = False
        print(f"{'JOB':14} {'STATE':10} {'PRI':>3} {'ITER':>9} "
              f"{'RESUMES':>7}  DETAIL")
        for job_id in job_ids:
            record = jobstore.load_record(args.root, job_id)
            detail = ""
            if record.state == "RUNNING":
                update = read_progress(
                    jobstore.job_dir(args.root, job_id) / "progress.json"
                )
                if update is not None:
                    detail = (f"cost {update.cost:.3e}, "
                              f"{update.iter_per_s:.2f} it/s")
                    if update.backend is not None:
                        detail += f" on {update.backend}/{update.dtype}"
                    if update.coverage is not None:
                        detail += f", cov {update.coverage:.0%}"
                    if update.phase is not None:
                        detail += f" [{update.phase}]"
            elif record.state == "FAILED" and record.error:
                detail = record.error.strip().splitlines()[-1]
            done = (
                record.iterations_done if record.state != "DONE"
                else record.iterations_total
            )
            active = active or record.state not in JobState.SETTLED
            print(f"{record.job_id:14} {record.state:10} "
                  f"{record.priority:>3} "
                  f"{done:>4}/{record.iterations_total:<4} "
                  f"{record.resumes:>7}  {detail}")
        return active

    if not args.watch:
        render()
        return 0
    import time as _time

    polls = 0
    while True:
        active = render()
        polls += 1
        bounded = args.watch_count is not None and polls >= args.watch_count
        if not active or bounded:
            return 0
        _time.sleep(args.interval)
        print()


def _cmd_stats(args) -> int:
    import json

    from repro.obs import format_stats_table, load_stats

    try:
        summary = load_stats(args.path)
    except (OSError, ValueError) as exc:
        print(f"stats: error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(format_stats_table(summary))
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import main as lint_main

    return lint_main(args.lint_args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    # `lint` forwards its whole tail to repro.analysis' own parser
    # (argparse REMAINDER alone refuses option-like first tokens, so
    # collect strays from parse_known_args too); every other command
    # keeps strict parsing.
    args, extra = parser.parse_known_args(argv)
    if extra and args.command != "lint":
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.command == "lint":
        args.lint_args = list(extra) + list(args.lint_args)
    from repro.obs import configure_logging

    # Explicit --log-level beats -v beats REPRO_LOG beats warnings-only;
    # the handler touches only the "repro" logger, never the root.
    configure_logging(explicit=args.log_level, verbosity=args.verbose)
    handlers = {
        "simulate": _cmd_simulate,
        "store": _cmd_store,
        "reconstruct": _cmd_reconstruct,
        "predict": _cmd_predict,
        "experiment": _cmd_experiment,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "stats": _cmd_stats,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

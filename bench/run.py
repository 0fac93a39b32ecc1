"""Run the repository benchmark.

    python bench/run.py [--workload W] [--seed S] [--seconds N]
                        [--trace [0|1]] [--smoke] [--json OUT]

(or ``python -m bench.run``).  Each workload runs in a fresh child
interpreter with single-threaded BLAS and a fixed hash seed.  The child
prints every metric by name with its unit and sample count, checks
every operation against the reference pass, writes the result envelope
(``bench/out/result-<workload>.json`` unless ``--json`` says otherwise)
and prints, as its last line, the one-line JSON object the driver
contract in BENCHMARK.json asks for: the end-to-end metrics, or with
``--trace 1`` the per-layer metrics.  Without ``--workload`` all four
run in turn.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT = ROOT / "bench" / "out"
#: A child is killed (with the workers it started) after this long; the
#: driver allows a run 180 s.
CHILD_TIMEOUT_S = 170
_CHILD_MARK = "BENCH_CHILD"


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="length of the timed region (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add one traced repetition and report the per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, two repetitions: exercises every code path in seconds",
    )
    parser.add_argument("--json", type=Path, help="where to write the envelope")
    return parser.parse_args(argv), names


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads(SPEC_PATH.read_text())
    args, names = parse_args(argv, spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get(_CHILD_MARK):
        return run_child(args, spec)

    OUT.mkdir(exist_ok=True)
    workloads = [args.workload] if args.workload else names
    envelopes = {}
    for name in workloads:
        # --json names one workload's envelope, or the combined file.
        path = args.json if args.workload and args.json else OUT / f"result-{name}.json"
        code = spawn_child(argv, name, path)
        if code != 0:
            return code
        envelopes[name] = json.loads(path.read_text())
    if args.workload is None:
        combined = args.json or OUT / "result.json"
        combined.write_text(json.dumps(envelopes, indent=2) + "\n")
        print(json.dumps({
            "correct": all(e["correct"] for e in envelopes.values()),
            "attempted": sum(e["attempted"] for e in envelopes.values()),
            "failed": sum(e["failed"] for e in envelopes.values()),
            "envelope": str(combined),
        }))
    return 0


def spawn_child(argv, workload: str, envelope: Path) -> int:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0", **{_CHILD_MARK: "1"},
    )
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv,
         "--workload", workload, "--json", str(envelope)],
        env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        return child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"bench: {workload} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3


# ----------------------------------------------------------------------
# Child: one workload, measured in this interpreter
# ----------------------------------------------------------------------
def run_child(args, spec) -> int:
    import multiprocessing
    import platform
    import resource
    import shutil
    import tempfile

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy
    import scipy

    from bench import layers, spans, workloads

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    shm_before = _shm_segments()
    try:
        run = workloads.run_workload(
            workloads.BY_NAME[args.workload],
            seed=args.seed,
            seconds=0.0 if args.smoke else args.seconds,
            trace=bool(args.trace),
            smoke=args.smoke,
            scratch=scratch,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    end_to_end = with_units(
        workloads.end_to_end_values(run, kb / 1024.0), spec["end_to_end"]
    )
    per_layer = trace_file = None
    if args.trace:
        per_layer = with_units(layers.per_layer_values(run), spec["per_layer"])
        trace_file = OUT / f"trace-{args.workload}.json"
        spans.write_chrome_trace(
            trace_file, run.reference_spans + run.repetition_spans
        )

    attempted, failed = run.attempted, run.failed
    envelope = {
        "schema": "repro-bench/1",
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "sizes": run.ctx.sizes,
        "setups": len(run.setup_seconds),
        "repetitions": len(run.walls),
        "repetition_walls_s": run.walls,
        "latency_samples": sum(len(ops) for ops in run.outcomes),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [{"operation": op, "reason": why} for op, why in run.failures],
        "final_costs": workloads.final_costs(run),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
        "hygiene": {
            "leaked_processes": len(multiprocessing.active_children()),
            "leaked_shm_segments": sorted(_shm_segments() - shm_before),
        },
    }
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(envelope, indent=2) + "\n")

    print_report(envelope)
    print(json.dumps({
        "correct": envelope["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer if args.trace else end_to_end,
    }))
    return 0


def with_units(values, declared):
    """``{name: {"value", "unit"}}`` for exactly the metrics BENCHMARK.json
    declares (a missing or extra name is a bug in the benchmark)."""
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise SystemExit(
            f"bench: metrics {sorted(set(names) ^ set(values))} are not on "
            "both sides of BENCHMARK.json"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def print_report(envelope) -> None:
    sizes = envelope["sizes"]
    print(
        f"== {envelope['workload']}  seed {envelope['seed']}  "
        f"scan {sizes['scan_grid']}  {sizes['detector_px']} px  "
        f"{sizes['n_slices']} slices  iterations {sizes['iterations'][0]}  "
        f"{sizes['operations_per_repetition']} operation(s)/repetition"
    )
    print(
        f"   {envelope['setups']} set-up(s), {envelope['repetitions']} timed "
        f"repetitions, {envelope['latency_samples']} latency samples; "
        f"failed {envelope['failed']}/{envelope['attempted']} "
        f"(failed_frac {envelope['failed_frac']:.4f})"
    )
    for failure in envelope["failures"]:
        print(f"   FAILED {failure['operation']}: {failure['reason']}")
    for section in ("end_to_end", "per_layer"):
        if envelope[section] is None:
            continue
        print(f"   -- {section}")
        for name, metric in envelope[section].items():
            value = metric["value"]
            text = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
            print(f"   {name:32s} {text:>14s} {metric['unit']}")
        if section == "end_to_end":
            # Not BENCHMARK.json metrics: the driver reads failed/attempted,
            # and the final cost is too seed-dependent to carry a bound.
            print(f"   {'failed_frac':32s} {envelope['failed_frac']:>14.6g} ratio")
            costs = " ".join(f"{c:.6g}" for c in sorted(set(envelope["final_costs"])))
            print(f"   {'final_cost':32s} {costs} cost")
    if envelope["trace_file"]:
        print(f"   trace: {envelope['trace_file']}")


def _shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Benchmark harness: backend x precision, and serial-vs-process runtime.

``--suite backends`` (default) -> ``BENCH_backends.json``.  Three
benches for every available backend x dtype scenario:

* ``batched_fft`` — the batched probe-window transform micro-kernel
  (the ``(n_slices, window, window)`` fft2c/ifft2c round trip that
  dominates the multislice sweep);
* ``multislice_gradient`` — one full cost+gradient evaluation (forward
  sweep + adjoint recursion);
* ``small_recon`` — an end-to-end serial reconstruction on a scaled
  PbTiO3 acquisition.

``--suite runtime`` -> ``BENCH_runtime.json``.  The gd solver end to
end under the ``serial`` executor vs the ``process`` executor (each
rank in a worker process, tile state in shared memory), reporting the
multi-worker speedup.  On a single-CPU machine the expected speedup is
~1x (the harness records ``cpu_count`` so readers can judge).  Each
scenario also runs one *traced* pass (outside the timing loop — the
telemetry guard is not free at full instrumentation) and records the
phase breakdown (fft/gradient/halo/collective/store/queue seconds), so
the serial-vs-process gap decomposes into compute vs
dispatch/collect overhead instead of staying one opaque number.

``--suite data`` -> ``BENCH_data.json``.  The streaming/batching
pipeline (:mod:`repro.data`): the gd solver (synchronous mode, the
batchable configuration) per-position vs batched on the threaded
backend — every batch size is bit-identical to batch 1, so the speedup
is free — plus the same run streaming from a chunked on-disk store
(with and without prefetch), a raw store-read sweep (in-memory vs
chunked), and a mixed-state mode sweep (``probe_modes`` 1/2/4 with
probe refinement) showing how the per-sweep cost scales with the
number of incoherent probe modes.

``--suite service`` -> ``BENCH_service.json``.  The async job layer
(:mod:`repro.service`): a batch of identical gd reconstructions
submitted to a :class:`~repro.service.ReconstructionService` at worker
pool widths 1/2/4, reporting batch makespan, throughput (jobs/s) and
queue latency (submit -> start, mean and max).  Jobs run in worker
threads, so the concurrency speedup tracks how well the FFT kernels
release the GIL on this machine (``cpu_count`` recorded alongside).

``--suite all`` runs all four.

Wall times are best-of-``--repeats`` (min is the standard low-noise
estimator for micro-benchmarks); speedups are reported against the
suite baseline (``numpy``/``complex128``, resp. ``serial``).
``--smoke`` shrinks sizes and repeats so CI can exercise the harness in
seconds.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # full
    PYTHONPATH=src python benchmarks/run_benchmarks.py --smoke
    PYTHONPATH=src python benchmarks/run_benchmarks.py \
        --backends numpy,threaded --dtypes complex64 --out bench.json
    PYTHONPATH=src python benchmarks/run_benchmarks.py \
        --suite runtime --runtime-out BENCH_runtime.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.backend import (
    available_backend_names,
    get_backend,
    resolve_precision,
)
from repro.baseline.serial import SerialReconstructor
from repro.experiments.report import format_table
from repro.physics.dataset import (
    scaled_pbtio3_spec,
    simulate_dataset,
    suggest_lr,
)
from repro.utils.fftutils import fft2c, ifft2c

BASELINE = {"backend": "numpy", "dtype": "complex128"}

#: (batch, window) of the micro-kernel; (window, slices) of the gradient
#: kernel; (grid, detector, slices, iterations) of the small recon.
FULL_SIZES = {
    "batched_fft": (32, 128, 20),          # batch, n, inner reps
    "multislice_gradient": (64, 8, 5),     # window, slices, inner reps
    "small_recon": ((4, 4), 24, 2, 2),     # grid, detector, slices, iters
}
SMOKE_SIZES = {
    "batched_fft": (8, 32, 5),
    "multislice_gradient": (24, 2, 2),
    "small_recon": ((3, 3), 16, 2, 1),
}


def _best_of(fn: Callable[[], None], repeats: int) -> float:
    fn()  # warm-up: plan caches, twiddle tables, allocator
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_batched_fft(backend_name, dtype_name, sizes, repeats) -> float:
    batch, n, inner = sizes
    backend = get_backend(backend_name)
    cdtype = resolve_precision(dtype_name).complex_dtype
    rng = np.random.default_rng(0)
    stack = (
        rng.normal(size=(batch, n, n)) + 1j * rng.normal(size=(batch, n, n))
    ).astype(cdtype)

    def run():
        for _ in range(inner):
            ifft2c(fft2c(stack, backend), backend)

    return _best_of(run, repeats) / inner


def bench_multislice_gradient(backend_name, dtype_name, sizes, repeats) -> float:
    from repro.physics.multislice import MultisliceModel
    from repro.physics.probe import ProbeSpec, make_probe

    window, slices, inner = sizes
    model = MultisliceModel(
        window, slices, 10.0, 2.508, 125.0,
        backend=backend_name, dtype=dtype_name,
    )
    probe = make_probe(
        ProbeSpec(window=window, defocus_pm=5000.0, pixel_size_pm=10.0)
    ).array
    rng = np.random.default_rng(1)
    obj = np.exp(1j * 0.1 * rng.normal(size=(slices, window, window)))
    truth = np.exp(1j * 0.1 * rng.normal(size=(slices, window, window)))
    measured = model.forward_amplitude(probe, truth)

    def run():
        for _ in range(inner):
            model.cost_and_gradient_batch(probe, obj[None], measured[None])

    return _best_of(run, repeats) / inner


def bench_small_recon(backend_name, dtype_name, sizes, repeats, dataset_cache={}) -> float:
    grid, detector, slices, iters = sizes
    key = (grid, detector, slices)
    if key not in dataset_cache:
        spec = scaled_pbtio3_spec(
            scan_grid=grid, detector_px=detector, n_slices=slices,
            overlap_ratio=0.7,
        )
        dataset_cache[key] = simulate_dataset(spec, seed=3)
    dataset = dataset_cache[key]
    lr = suggest_lr(dataset, alpha=0.35)
    solver = SerialReconstructor(
        iterations=iters, lr=lr, backend=backend_name, dtype=dtype_name
    )

    def run():
        solver.reconstruct(dataset)

    return _best_of(run, repeats)


BENCHES = {
    "batched_fft": bench_batched_fft,
    "multislice_gradient": bench_multislice_gradient,
    "small_recon": bench_small_recon,
}

# ----------------------------------------------------------------------
# Runtime suite: serial vs process executor on the gd solver
# ----------------------------------------------------------------------
#: (grid, detector, slices, n_ranks, iterations) of the gd runtime bench.
#: Sized so per-iteration compute dominates the worker launch overhead
#: (~60 ms) — the regime where a multi-core machine shows the speedup.
RUNTIME_FULL_SIZES = {"gd_recon": ((12, 12), 32, 3, 4, 5)}
RUNTIME_SMOKE_SIZES = {"gd_recon": ((4, 4), 16, 2, 4, 1)}
RUNTIME_BASELINE = "serial"


def bench_gd_runtime(executor, workers, sizes, repeats, dataset_cache={}):
    """End-to-end gd reconstruction wall time under one executor.

    The measurement includes executor launch (worker spawn + shared
    memory setup) — that overhead is part of what a user pays, so hiding
    it would overstate the speedup.
    """
    from repro.core.reconstructor import GradientDecompositionReconstructor

    grid, detector, slices, n_ranks, iters = sizes
    key = (grid, detector, slices)
    if key not in dataset_cache:
        spec = scaled_pbtio3_spec(
            scan_grid=grid, detector_px=detector, n_slices=slices,
            overlap_ratio=0.7,
        )
        dataset_cache[key] = simulate_dataset(spec, seed=7)
    dataset = dataset_cache[key]
    lr = suggest_lr(dataset, alpha=0.35)
    solver = GradientDecompositionReconstructor(
        n_ranks=n_ranks, iterations=iters, lr=lr, backend="numpy",
        executor=executor, runtime_workers=workers,
    )

    def run():
        solver.reconstruct(dataset)

    seconds = _best_of(run, repeats)

    # One traced pass, deliberately outside the timing loop: full
    # instrumentation is cheap but not free, and the phase *shares* are
    # what matters — where does the serial-vs-process gap come from
    # (compute? halo? the parent's dispatch/collect round-trip?).
    from repro.obs import Telemetry, activate

    tel = Telemetry()
    with activate(tel):
        solver.reconstruct(dataset)
    summary = tel.summary()
    phases = {
        "breakdown": summary["breakdown"],
        "collect_seconds": summary["counters"].get(
            "runtime.collect.seconds"
        ),
    }
    return seconds, phases


def run_runtime_suite(sizes, repeats, workers=None):
    results = []
    sz = sizes["gd_recon"]
    n_ranks = sz[3]
    workers = workers if workers is not None else min(
        n_ranks, os.cpu_count() or 1
    )
    scenarios = [("serial", None), ("process", workers)]
    for executor, w in scenarios:
        seconds, phases = bench_gd_runtime(executor, w, sz, repeats)
        results.append({
            "bench": "gd_recon",
            "executor": executor,
            "workers": w if w is not None else 1,
            "n_ranks": n_ranks,
            "iterations": sz[4],
            "seconds": seconds,
            "phases": phases,
        })
    base = {
        r["bench"]: r["seconds"]
        for r in results
        if r["executor"] == RUNTIME_BASELINE
    }
    for r in results:
        ref = base.get(r["bench"])
        r["speedup_vs_serial"] = ref / r["seconds"] if ref else None
    return results


# ----------------------------------------------------------------------
# Data suite: per-position vs batched, in-memory vs chunked store
# ----------------------------------------------------------------------
#: (grid, detector, slices, n_ranks, iterations) of the gd data bench
#: and the batch sizes swept.  Sized so per-probe Python/FFT dispatch
#: overhead is visible — the overhead batching exists to amortize.
DATA_FULL_SIZES = {
    "gd_batched_recon": ((10, 10), 32, 3, 4, 2),
    "batch_sizes": [1, 8, 16],
    "store_chunk": 16,
    "probe_mode_counts": [1, 2, 4],
}
DATA_SMOKE_SIZES = {
    "gd_batched_recon": ((4, 4), 16, 2, 4, 1),
    "batch_sizes": [1, 4],
    "store_chunk": 4,
    "probe_mode_counts": [1, 2],
}
#: The data-suite baseline scenario: per-position, in-memory.
DATA_BASELINE = {"batch_size": 1, "store": "memory"}


def _data_dataset(sizes, dataset_cache={}):
    grid, detector, slices, _, _ = sizes["gd_batched_recon"]
    key = (grid, detector, slices)
    if key not in dataset_cache:
        spec = scaled_pbtio3_spec(
            scan_grid=grid, detector_px=detector, n_slices=slices,
            overlap_ratio=0.7,
        )
        dataset_cache[key] = simulate_dataset(spec, seed=11)
    return dataset_cache[key]


def bench_gd_batched(dataset, batch_size, data_source, prefetch,
                     sizes, repeats) -> float:
    """End-to-end gd reconstruction (synchronous mode — the batchable
    configuration) under one data scenario, on the threaded backend at
    complex64 (the fast path batching is meant to feed)."""
    from repro.core.reconstructor import GradientDecompositionReconstructor

    _, _, _, n_ranks, iters = sizes["gd_batched_recon"]
    lr = suggest_lr(dataset, alpha=0.35)
    solver = GradientDecompositionReconstructor(
        n_ranks=n_ranks, iterations=iters, lr=lr, mode="synchronous",
        backend="threaded", dtype="complex64",
        data_source=data_source, batch_size=batch_size, prefetch=prefetch,
    )

    def run():
        solver.reconstruct(dataset)

    return _best_of(run, repeats)


def bench_gd_modes(dataset, probe_modes, sizes, repeats) -> float:
    """End-to-end mixed-state gd reconstruction (probe refinement on,
    so the full per-mode gradient + SVD re-orthogonalization path is
    on the clock); ``probe_modes=1`` is the scalar baseline."""
    from repro.core.reconstructor import GradientDecompositionReconstructor

    _, _, _, n_ranks, iters = sizes["gd_batched_recon"]
    lr = suggest_lr(dataset, alpha=0.35)
    solver = GradientDecompositionReconstructor(
        n_ranks=n_ranks, iterations=iters, lr=lr, mode="synchronous",
        backend="threaded", dtype="complex64",
        refine_probe=True, probe_modes=probe_modes,
        batch_size=sizes["batch_sizes"][-1],
    )

    def run():
        solver.reconstruct(dataset)

    return _best_of(run, repeats)


def bench_store_read(dataset, store_factory, repeats) -> float:
    """One sequential sweep over every measurement frame."""
    n = dataset.n_probes

    def run():
        store = store_factory()
        try:
            for i in range(n):
                store.read(i)
        finally:
            store.close()

    return _best_of(run, repeats)


def run_data_suite(sizes, repeats, store_dir) -> List[Dict]:
    from repro.data import ChunkedNpzStore, InMemoryStore, write_store

    dataset = _data_dataset(sizes)
    store_path = Path(store_dir) / "bench_store.npz"
    write_store(store_path, dataset, chunk_size=sizes["store_chunk"])

    results: List[Dict] = []
    grid, detector, slices, n_ranks, iters = sizes["gd_batched_recon"]
    scenarios = [
        (b, None, False) for b in sizes["batch_sizes"]
    ] + [
        (sizes["batch_sizes"][-1], str(store_path), False),
        (sizes["batch_sizes"][-1], str(store_path), True),
    ]
    for batch_size, data_source, prefetch in scenarios:
        seconds = bench_gd_batched(
            dataset, batch_size, data_source, prefetch, sizes, repeats
        )
        results.append({
            "bench": "gd_batched_recon",
            "batch_size": batch_size,
            "store": "chunked" if data_source else "memory",
            "prefetch": prefetch,
            "n_ranks": n_ranks,
            "iterations": iters,
            "seconds": seconds,
        })

    for store_name, pf, factory in (
        ("memory", False, lambda: InMemoryStore(dataset.amplitudes)),
        ("chunked", False, lambda: ChunkedNpzStore(store_path)),
        ("chunked", True, lambda: ChunkedNpzStore(
            store_path, prefetch=True
        )),
    ):
        seconds = bench_store_read(dataset, factory, repeats)
        results.append({
            "bench": "store_read",
            "batch_size": None,
            "store": store_name,
            "prefetch": pf,
            "n_probes": dataset.n_probes,
            "seconds": seconds,
        })

    for probe_modes in sizes["probe_mode_counts"]:
        seconds = bench_gd_modes(dataset, probe_modes, sizes, repeats)
        results.append({
            "bench": "gd_mixed_state_recon",
            "batch_size": sizes["batch_sizes"][-1],
            "store": "memory",
            "prefetch": False,
            "probe_modes": probe_modes,
            "n_ranks": n_ranks,
            "iterations": iters,
            "seconds": seconds,
        })

    base = {
        r["bench"]: r["seconds"]
        for r in results
        if r["store"] == "memory"
        and r["batch_size"] in (DATA_BASELINE["batch_size"], None)
    }
    # The mode sweep's baseline is its own scalar (M=1) run, not the
    # per-position scenario — the interesting number is the marginal
    # cost of each extra incoherent mode.
    base["gd_mixed_state_recon"] = next(
        r["seconds"] for r in results
        if r["bench"] == "gd_mixed_state_recon" and r["probe_modes"] == 1
    )
    for r in results:
        ref = base.get(r["bench"])
        r["speedup_vs_baseline"] = ref / r["seconds"] if ref else None
    return results


# ----------------------------------------------------------------------
# Service suite: job throughput and queue latency vs worker-pool width
# ----------------------------------------------------------------------
#: (grid, detector, slices, n_ranks, iterations) of each job, the number
#: of jobs per batch, and the pool widths swept.
SERVICE_FULL_SIZES = {
    "job": ((6, 6), 24, 2, 4, 3),
    "n_jobs": 8,
    "worker_counts": [1, 2, 4],
}
SERVICE_SMOKE_SIZES = {
    "job": ((3, 3), 16, 2, 4, 1),
    "n_jobs": 3,
    "worker_counts": [1, 2],
}
SERVICE_BASELINE_WORKERS = 1


def run_service_suite(sizes, repeats, root_dir) -> List[Dict]:
    import shutil

    from repro.api import ReconstructionConfig
    from repro.service import JobState, ReconstructionService

    grid, detector, slices, n_ranks, iters = sizes["job"]
    spec = scaled_pbtio3_spec(
        scan_grid=grid, detector_px=detector, n_slices=slices,
        overlap_ratio=0.7,
    )
    dataset = simulate_dataset(spec, seed=13)
    config = ReconstructionConfig(
        solver="gd",
        solver_params={
            "n_ranks": n_ranks, "iterations": iters,
            "lr": suggest_lr(dataset, alpha=0.35), "mode": "synchronous",
        },
    )

    results: List[Dict] = []
    for workers in sizes["worker_counts"]:
        best = None
        for rep in range(repeats):
            root = Path(root_dir) / f"w{workers}_r{rep}"
            with ReconstructionService(root, workers=workers) as service:
                t0 = time.perf_counter()
                handles = [
                    service.submit(dataset, config)
                    for _ in range(sizes["n_jobs"])
                ]
                for handle in handles:
                    state = handle.wait(timeout=600)
                    assert state == JobState.DONE, handle.record().error
                makespan = time.perf_counter() - t0
                latencies = [
                    h.record().started_at - h.record().submitted_at
                    for h in handles
                ]
            shutil.rmtree(root, ignore_errors=True)
            sample = {
                "makespan_s": makespan,
                "queue_latency_mean_s": sum(latencies) / len(latencies),
                "queue_latency_max_s": max(latencies),
            }
            if best is None or sample["makespan_s"] < best["makespan_s"]:
                best = sample
        results.append({
            "bench": "service_batch",
            "workers": workers,
            "n_jobs": sizes["n_jobs"],
            "iterations": iters,
            "seconds": best["makespan_s"],
            "throughput_jobs_per_s": sizes["n_jobs"] / best["makespan_s"],
            "queue_latency_mean_s": best["queue_latency_mean_s"],
            "queue_latency_max_s": best["queue_latency_max_s"],
        })

    base = next(
        (r["seconds"] for r in results
         if r["workers"] == SERVICE_BASELINE_WORKERS),
        None,
    )
    for r in results:
        r["speedup_vs_1worker"] = base / r["seconds"] if base else None
    return results


def run_suite(backends, dtypes, sizes, repeats) -> List[Dict]:
    results: List[Dict] = []
    for bench_name, bench_fn in BENCHES.items():
        for backend_name in backends:
            for dtype_name in dtypes:
                seconds = bench_fn(
                    backend_name, dtype_name, sizes[bench_name], repeats
                )
                results.append({
                    "bench": bench_name,
                    "backend": backend_name,
                    "dtype": dtype_name,
                    "seconds": seconds,
                })
    # Speedups against the numpy/complex128 entry of each bench (only
    # meaningful when the baseline scenario was part of the sweep).
    base = {
        r["bench"]: r["seconds"]
        for r in results
        if r["backend"] == BASELINE["backend"]
        and r["dtype"] == BASELINE["dtype"]
    }
    for r in results:
        ref = base.get(r["bench"])
        r["speedup_vs_baseline"] = (
            ref / r["seconds"] if ref else None
        )
    return results


def _machine_info():
    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def _run_backend_suite(args) -> Path:
    backends = (
        args.backends.split(",") if args.backends
        else available_backend_names()
    )
    dtypes = args.dtypes.split(",")
    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    repeats = args.repeats or (2 if args.smoke else 5)

    results = run_suite(backends, dtypes, sizes, repeats)

    payload = {
        "schema": "repro-bench-backends/1",
        "mode": "smoke" if args.smoke else "full",
        "baseline": BASELINE,
        "machine": _machine_info(),
        "sizes": {k: list(v) for k, v in sizes.items()},
        "repeats": repeats,
        "results": results,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        [
            r["bench"], r["backend"], r["dtype"],
            f"{r['seconds'] * 1e3:.3f}",
            f"{r['speedup_vs_baseline']:.2f}x"
            if r["speedup_vs_baseline"] else "n/a",
        ]
        for r in results
    ]
    print(format_table(
        ["bench", "backend", "dtype", "ms", "vs numpy/c128"],
        rows,
        title=f"backend benchmarks ({payload['mode']}) -> {out}",
    ))
    return out


def _run_runtime_suite(args) -> Path:
    sizes = RUNTIME_SMOKE_SIZES if args.smoke else RUNTIME_FULL_SIZES
    repeats = args.repeats or (1 if args.smoke else 3)

    results = run_runtime_suite(
        sizes, repeats, workers=args.runtime_workers
    )

    payload = {
        "schema": "repro-bench-runtime/1",
        "mode": "smoke" if args.smoke else "full",
        "baseline": {"executor": RUNTIME_BASELINE},
        "machine": _machine_info(),
        "sizes": {
            k: [list(x[0]), *x[1:]] for k, x in sizes.items()
        },
        "repeats": repeats,
        "results": results,
    }
    out = Path(args.runtime_out)
    out.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        [
            r["bench"], r["executor"], r["workers"], r["n_ranks"],
            f"{r['seconds'] * 1e3:.1f}",
            f"{r['speedup_vs_serial']:.2f}x"
            if r["speedup_vs_serial"] else "n/a",
        ]
        for r in results
    ]
    print(format_table(
        ["bench", "executor", "workers", "ranks", "ms", "vs serial"],
        rows,
        title=f"runtime benchmarks ({payload['mode']}) -> {out}",
    ))
    return out


def _run_data_suite(args) -> Path:
    import tempfile

    sizes = DATA_SMOKE_SIZES if args.smoke else DATA_FULL_SIZES
    repeats = args.repeats or (1 if args.smoke else 3)

    with tempfile.TemporaryDirectory() as store_dir:
        results = run_data_suite(sizes, repeats, store_dir)

    payload = {
        "schema": "repro-bench-data/1",
        "mode": "smoke" if args.smoke else "full",
        "baseline": DATA_BASELINE,
        "machine": _machine_info(),
        "sizes": {
            "gd_batched_recon": [
                list(sizes["gd_batched_recon"][0]),
                *sizes["gd_batched_recon"][1:],
            ],
            "batch_sizes": list(sizes["batch_sizes"]),
            "store_chunk": sizes["store_chunk"],
            "probe_mode_counts": list(sizes["probe_mode_counts"]),
        },
        "repeats": repeats,
        "results": results,
    }
    out = Path(args.data_out)
    out.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        [
            r["bench"]
            + (f" M={r['probe_modes']}" if "probe_modes" in r else ""),
            r["batch_size"] if r["batch_size"] is not None else "-",
            r["store"] + ("+pf" if r["prefetch"] is True else ""),
            f"{r['seconds'] * 1e3:.1f}",
            f"{r['speedup_vs_baseline']:.2f}x"
            if r["speedup_vs_baseline"] else "n/a",
        ]
        for r in results
    ]
    print(format_table(
        ["bench", "batch", "store", "ms", "vs baseline"],
        rows,
        title=f"data benchmarks ({payload['mode']}) -> {out}",
    ))
    return out


def _run_service_suite(args) -> Path:
    import tempfile

    sizes = SERVICE_SMOKE_SIZES if args.smoke else SERVICE_FULL_SIZES
    repeats = args.repeats or (1 if args.smoke else 3)

    with tempfile.TemporaryDirectory() as root_dir:
        results = run_service_suite(sizes, repeats, root_dir)

    payload = {
        "schema": "repro-bench-service/1",
        "mode": "smoke" if args.smoke else "full",
        "baseline": {"workers": SERVICE_BASELINE_WORKERS},
        "machine": _machine_info(),
        "sizes": {
            "job": [list(sizes["job"][0]), *sizes["job"][1:]],
            "n_jobs": sizes["n_jobs"],
            "worker_counts": list(sizes["worker_counts"]),
        },
        "repeats": repeats,
        "results": results,
    }
    out = Path(args.service_out)
    out.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        [
            r["bench"], r["workers"], r["n_jobs"],
            f"{r['seconds']:.2f}",
            f"{r['throughput_jobs_per_s']:.2f}",
            f"{r['queue_latency_mean_s'] * 1e3:.0f}",
            f"{r['speedup_vs_1worker']:.2f}x"
            if r["speedup_vs_1worker"] else "n/a",
        ]
        for r in results
    ]
    print(format_table(
        ["bench", "workers", "jobs", "s", "jobs/s", "q-lat ms",
         "vs 1 worker"],
        rows,
        title=f"service benchmarks ({payload['mode']}) -> {out}",
    ))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite",
                        choices=["backends", "runtime", "data", "service",
                                 "all"],
                        default="backends",
                        help="which benchmark family to run")
    parser.add_argument("--out", default="BENCH_backends.json",
                        help="output path of the backend suite")
    parser.add_argument("--runtime-out", default="BENCH_runtime.json",
                        help="output path of the runtime suite")
    parser.add_argument("--data-out", default="BENCH_data.json",
                        help="output path of the data suite")
    parser.add_argument("--service-out", default="BENCH_service.json",
                        help="output path of the service suite")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes + few repeats (CI harness check)")
    parser.add_argument("--backends", default=None,
                        help="comma-separated subset (default: all available)")
    parser.add_argument("--dtypes", default="complex128,complex64")
    parser.add_argument("--runtime-workers", type=int, default=None,
                        help="process-executor pool width for the runtime "
                             "suite (default: min(ranks, cpu_count))")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of repeats (default: 5 full, 2 smoke; "
                             "runtime suite: 3 full, 1 smoke)")
    args = parser.parse_args(argv)

    if args.suite in ("backends", "all"):
        _run_backend_suite(args)
    if args.suite in ("runtime", "all"):
        _run_runtime_suite(args)
    if args.suite in ("data", "all"):
        _run_data_suite(args)
    if args.suite in ("service", "all"):
        _run_service_suite(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

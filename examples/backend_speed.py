#!/usr/bin/env python3
"""Timed comparison of the compute backends and precision policies.

Times the batched probe-window transform (the multislice hot kernel) and
one full cost+gradient evaluation on every backend available on this
machine, at complex128 and complex64, and prints the speedups over the
numpy/complex128 reference.  The benchmark of record
(``bench/run.py``) does not run this sweep.

Run:
    PYTHONPATH=src python examples/backend_speed.py
"""

import time

import numpy as np

from repro.backend import available_backend_names, get_backend, resolve_precision
from repro.physics.multislice import MultisliceModel
from repro.physics.probe import ProbeSpec, make_probe
from repro.utils.fftutils import fft2c, ifft2c


def best_of(fn, repeats=5):
    fn()  # warm-up (plan caches, twiddle tables)
    return min(
        (lambda t0: (fn(), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(repeats)
    )


def main() -> None:
    backends = available_backend_names()
    print(f"available backends: {', '.join(backends)}")
    print("(cupy auto-registers too; it only lists here with a GPU)\n")

    # --- the batched probe-window FFT round trip ----------------------
    rng = np.random.default_rng(0)
    batch, n = 16, 96
    stack128 = rng.normal(size=(batch, n, n)) + 1j * rng.normal(size=(batch, n, n))
    print(f"batched fft2c/ifft2c round trip ({batch}x{n}x{n}):")
    # The reference scenario is timed first, explicitly — backend
    # iteration order must not pick the baseline.
    baseline = best_of(
        lambda: ifft2c(fft2c(stack128, "numpy"), "numpy")
    )
    for name in backends:
        backend = get_backend(name)
        for dtype in ("complex128", "complex64"):
            stack = stack128.astype(resolve_precision(dtype).complex_dtype)
            seconds = best_of(lambda: ifft2c(fft2c(stack, backend), backend))
            print(
                f"  {name:>10} {dtype:>10}: {seconds * 1e3:7.2f} ms"
                f"   ({baseline / seconds:4.2f}x vs numpy/complex128)"
            )

    # --- one multislice cost+gradient evaluation ----------------------
    window, slices = 64, 8
    probe = make_probe(
        ProbeSpec(window=window, defocus_pm=5000.0, pixel_size_pm=10.0)
    ).array
    obj = np.exp(1j * 0.1 * rng.normal(size=(slices, window, window)))
    truth = np.exp(1j * 0.1 * rng.normal(size=(slices, window, window)))
    ref_model = MultisliceModel(
        window, slices, 10.0, 2.508, 125.0,
        backend="numpy", dtype="complex128",
    )
    ref_measured = ref_model.forward_amplitude(probe, truth)
    # One location is the kernel's B = 1 stack.
    baseline = best_of(
        lambda: ref_model.cost_and_gradient_batch(
            probe, obj[None], ref_measured[None]
        )
    )
    print(f"\nmultislice cost+gradient ({slices} slices, {window}px window):")
    for name in backends:
        for dtype in ("complex128", "complex64"):
            model = MultisliceModel(
                window, slices, 10.0, 2.508, 125.0,
                backend=name, dtype=dtype,
            )
            measured = model.forward_amplitude(probe, truth)
            seconds = best_of(
                lambda: model.cost_and_gradient_batch(
                    probe, obj[None], measured[None]
                )
            )
            print(
                f"  {name:>10} {dtype:>10}: {seconds * 1e3:7.2f} ms"
                f"   ({baseline / seconds:4.2f}x vs numpy/complex128)"
            )

    print(
        "\ncomplex64 halves every buffer (the paper's Table I storage"
        " model);\nthe threaded backend adds planned, multi-worker"
        " scipy.fft on top."
    )


if __name__ == "__main__":
    main()

"""Micro-benchmarks of the computational kernels.

Not a paper artifact; methodology support — these are the building blocks
whose modeled costs the performance model calibrates.
"""

import numpy as np
import pytest

from repro.physics.multislice import MultisliceModel
from repro.physics.probe import ProbeSpec, make_probe
from repro.physics.propagation import FresnelPropagator
from repro.utils.fftutils import fft2c


@pytest.fixture(scope="module")
def kernel_setup():
    rng = np.random.default_rng(0)
    n, slices = 64, 8
    model = MultisliceModel(n, slices, 10.0, 2.508, 125.0)
    probe = make_probe(
        ProbeSpec(window=n, defocus_pm=5000.0, pixel_size_pm=10.0)
    ).array
    obj = np.exp(1j * 0.1 * rng.normal(size=(slices, n, n)))
    measured = model.forward_amplitude(probe, obj * np.exp(1j * 0.02))
    return model, probe, obj, measured


def test_multislice_forward(benchmark, kernel_setup):
    model, probe, obj, _ = kernel_setup
    out = benchmark(model.forward, probe, obj)
    assert out.shape == (64, 64)


def test_multislice_cost_and_gradient(benchmark, kernel_setup):
    model, probe, obj, measured = kernel_setup
    result = benchmark(
        model.cost_and_gradient_batch, probe, obj[None], measured[None]
    )
    assert result.object_grads.shape == (1, *obj.shape)


def test_fresnel_propagation(benchmark):
    prop = FresnelPropagator((128, 128), 10.0, 2.508, 125.0)
    rng = np.random.default_rng(1)
    field = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
    out = benchmark(prop.forward, field)
    assert out.shape == (128, 128)


def test_centered_fft(benchmark):
    rng = np.random.default_rng(2)
    field = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    benchmark(fft2c, field)


def test_probe_synthesis(benchmark):
    spec = ProbeSpec(window=128, defocus_pm=10_000.0, pixel_size_pm=10.0)
    probe = benchmark(make_probe, spec)
    assert probe.window == 128

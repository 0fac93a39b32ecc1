"""Regression tests: ``fft2c``/``ifft2c`` and the gradient accumulators
on non-contiguous and >2-D (batched) inputs, across every registered
backend that can run here.

The batched engine path feeds the transforms ``(B, window, window)``
stacks assembled from strided views (patch gathers, store reads), so
the contracts pinned here are load-bearing:

* arbitrary batch dimensions transform exactly like a Python loop of
  2-D transforms (per-item bit-identity — what makes batched execution
  fingerprint-identical to per-position);
* non-contiguous inputs produce the same values as their contiguous
  copies (no silent dependence on memory layout);
* the dtype-preservation contract holds regardless of layout or rank
  (no silent upcasts — ``complex64`` stays ``complex64``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.backend import available_backend_names, get_backend
from repro.utils.fftutils import fft2c, ifft2c


def _field(rng, shape, dtype):
    real = rng.normal(size=shape)
    if np.issubdtype(np.dtype(dtype), np.complexfloating):
        return (real + 1j * rng.normal(size=shape)).astype(dtype)
    return real.astype(dtype)


@pytest.fixture(params=available_backend_names())
def backend(request):
    return get_backend(request.param)


CDTYPES = [np.complex64, np.complex128]


class TestBatchedInputs:
    @pytest.mark.parametrize("cdtype", CDTYPES)
    @pytest.mark.parametrize(
        "shape",
        # The last three are the kernel's (M, B, w, w) / (1, 1, w, w)
        # views at odd and non-power-of-two windows.
        [(5, 12, 12), (3, 2, 8, 8), (2, 3, 7, 7), (1, 1, 33, 33), (2, 4, 24, 24)],
    )
    def test_batch_axes_match_per_item_loop(
        self, backend, rng, cdtype, shape
    ):
        stack = _field(rng, shape, cdtype)
        for fn in (fft2c, ifft2c):
            batched = fn(stack, backend)
            assert batched.shape == stack.shape
            assert batched.dtype == cdtype
            flat = stack.reshape(-1, *shape[-2:])
            looped = np.stack(
                [fn(item, backend) for item in flat]
            ).reshape(shape)
            np.testing.assert_array_equal(batched, looped)

    @pytest.mark.parametrize("cdtype", CDTYPES)
    def test_roundtrip_preserves_batch(self, backend, rng, cdtype):
        stack = _field(rng, (4, 16, 16), cdtype)
        out = ifft2c(fft2c(stack, backend), backend)
        assert out.dtype == cdtype
        rtol = 1e-5 if cdtype == np.complex64 else 1e-12
        np.testing.assert_allclose(out, stack, rtol=rtol, atol=1e-6)


class TestNonContiguousInputs:
    @pytest.mark.parametrize("cdtype", CDTYPES)
    def test_transposed_view(self, backend, rng, cdtype):
        base = _field(rng, (6, 10, 14), cdtype)
        view = base.transpose(0, 2, 1)  # (6, 14, 10), strided
        assert not view.flags.c_contiguous
        out = fft2c(view, backend)
        assert out.dtype == cdtype
        np.testing.assert_array_equal(
            out, fft2c(np.ascontiguousarray(view), backend)
        )

    @pytest.mark.parametrize("cdtype", CDTYPES)
    def test_strided_slice(self, backend, rng, cdtype):
        base = _field(rng, (9, 12, 12), cdtype)
        view = base[::2]
        assert not view.flags.c_contiguous or view.shape[0] == 1
        out = ifft2c(view, backend)
        assert out.dtype == cdtype
        np.testing.assert_array_equal(
            out, ifft2c(np.ascontiguousarray(view), backend)
        )

    def test_real_single_input_stays_single(self, backend, rng):
        # float32 (and the float16 measurement dtype) must come back
        # complex64, contiguous or not — the contract np.fft alone
        # breaks by silently upcasting.
        base = _field(rng, (4, 8, 8), np.float32).transpose(0, 2, 1)
        out = fft2c(base, backend)
        assert out.dtype == np.complex64


class TestGradientAccumulators:
    """The engine's scatter-accumulate must accept strided gradient
    stacks (batched results indexed per item are views)."""

    def test_sweep_scatters_noncontiguous_gradients_exactly(
        self, tiny_dataset
    ):
        """One sweep whose kernel hands back a transposed (strided)
        gradient stack must scatter exactly like its contiguous copy —
        into the buffers and, via the local update, the volume; padded
        rows (``halo=2``) included."""
        from repro.core.decomposition import MeshLayout, decompose_gradient
        from repro.core.engine import NumericEngine
        from repro.schedule.ops import ComputeGradients, Schedule

        decomp = decompose_gradient(
            tiny_dataset.scan, tiny_dataset.object_shape,
            mesh=MeshLayout(2, 2), halo=2,
        )
        schedule = Schedule(decomp.n_ranks)
        for tile in decomp.tiles:
            schedule.add(ComputeGradients(
                rank=tile.rank, probe_indices=tile.probes, local_update=True
            ))

        def run(layout):
            engine = NumericEngine(
                tiny_dataset, decomp, lr=0.01, compensate_local=True
            )
            engine.model = _RelaidGradients(engine.model, layout)
            engine.execute(schedule)
            return engine.states

        strided = run(lambda g: np.ascontiguousarray(
            g.swapaxes(-2, -1)).swapaxes(-2, -1))
        contiguous = run(np.ascontiguousarray)
        for a, b in zip(strided, contiguous):
            np.testing.assert_array_equal(a.accbuf, b.accbuf)
            np.testing.assert_array_equal(a.localbuf, b.localbuf)
            np.testing.assert_array_equal(a.volume, b.volume)

    def test_batched_model_accepts_strided_patches(self, tiny_dataset, rng):
        """A gathered-but-transposed patch stack must evaluate exactly
        like its contiguous copy."""
        model = tiny_dataset.multislice_model()
        probe = tiny_dataset.probe.array
        w = model.window
        base = _field(
            rng, (3, model.n_slices, w, w), np.complex128
        ).transpose(0, 1, 3, 2)
        assert not base.flags.c_contiguous
        measured = np.stack(
            [np.asarray(tiny_dataset.amplitudes[i], dtype=np.float64)
             for i in range(3)]
        )
        strided = model.cost_and_gradient_batch(probe, base, measured)
        contiguous = model.cost_and_gradient_batch(
            probe, np.ascontiguousarray(base), measured
        )
        np.testing.assert_array_equal(
            strided.object_grads, contiguous.object_grads
        )
        np.testing.assert_array_equal(strided.costs, contiguous.costs)


class _RelaidGradients:
    """Model stub: the real kernel, its object-gradient stack handed
    back re-laid-out by ``layout`` (values unchanged)."""

    def __init__(self, model, layout):
        self._model = model
        self._layout = layout

    def __getattr__(self, name):
        return getattr(self._model, name)

    def cost_and_gradient_batch(self, *args, **kwargs):
        result = self._model.cost_and_gradient_batch(*args, **kwargs)
        grads = self._layout(result.object_grads)
        assert grads.flags.c_contiguous == (
            self._layout is np.ascontiguousarray
        )
        return replace(result, object_grads=grads)

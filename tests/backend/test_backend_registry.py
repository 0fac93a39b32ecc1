"""Backend registry: names, caching, ambient resolution, cupy gating."""

import numpy as np
import pytest

from repro.backend import (
    ENV_BACKEND,
    ArrayBackend,
    BackendUnavailableError,
    CupyBackend,
    NumpyBackend,
    ThreadedFFTBackend,
    UnknownBackendError,
    available_backend_names,
    backend_names,
    get_backend,
    get_default_backend,
    register_backend,
    resolve_backend,
    set_default_backend,
    unregister_backend,
    use_backend,
)


class TestRegistry:
    def test_builtins_registered(self):
        names = backend_names()
        assert {"numpy", "threaded", "cupy"} <= set(names)

    def test_available_subset(self):
        avail = available_backend_names()
        assert "numpy" in avail
        assert "threaded" in avail  # scipy ships with the CI image
        assert set(avail) <= set(backend_names())

    def test_get_backend_caches_instances(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert isinstance(get_backend("numpy"), NumpyBackend)
        assert isinstance(get_backend("threaded"), ThreadedFFTBackend)

    def test_instance_passthrough(self):
        custom = ThreadedFFTBackend(workers=2)
        assert get_backend(custom) is custom
        assert resolve_backend(custom) is custom

    def test_unknown_name_lists_registered(self):
        with pytest.raises(UnknownBackendError, match="numpy"):
            get_backend("nope")

    def test_register_requires_transforms(self):
        with pytest.raises(TypeError, match="fft2"):

            @register_backend("broken-test")
            class Broken:
                pass

    def test_register_unregister_roundtrip(self):
        @register_backend("custom-test")
        class CustomBackend(NumpyBackend):
            pass

        try:
            assert "custom-test" in backend_names()
            assert CustomBackend.name == "custom-test"
            assert isinstance(get_backend("custom-test"), CustomBackend)
        finally:
            unregister_backend("custom-test")
        assert "custom-test" not in backend_names()
        with pytest.raises(UnknownBackendError):
            unregister_backend("custom-test")

    def test_duplicate_name_needs_overwrite(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_backend("numpy")
            class Shadow(NumpyBackend):
                pass

        # The escape hatch works and the original can be restored.
        @register_backend("numpy", overwrite=True)
        class Shadow2(NumpyBackend):
            pass

        try:
            assert isinstance(get_backend("numpy"), Shadow2)
        finally:
            register_backend("numpy", overwrite=True)(NumpyBackend)


class TestAmbientResolution:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert resolve_backend(None).name == "numpy"
        assert get_default_backend().name == "numpy"

    def test_env_var_steers_ambient(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "threaded")
        assert resolve_backend(None).name == "threaded"

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "threaded")
        assert resolve_backend("numpy").name == "numpy"

    def test_in_code_default_wins_over_env(self, monkeypatch):
        """A with-block is more specific than the environment: CI's
        REPRO_BACKEND must not silently defeat use_backend scopes."""
        monkeypatch.setenv(ENV_BACKEND, "threaded")
        with use_backend("numpy"):
            assert resolve_backend(None).name == "numpy"
        assert resolve_backend(None).name == "threaded"  # env again

    def test_use_backend_scopes_and_restores(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        with use_backend("threaded") as b:
            assert b.name == "threaded"
            assert resolve_backend(None).name == "threaded"
        assert resolve_backend(None).name == "numpy"

    def test_use_backend_honours_configured_instance(self, monkeypatch):
        """A caller-configured instance (its worker count)
        serves the scope itself — not the cached default instance of the
        same registry name."""
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        custom = ThreadedFFTBackend(workers=2)
        with use_backend(custom):
            assert resolve_backend(None) is custom
        assert resolve_backend(None).name == "numpy"

    def test_set_default_backend_honours_configured_instance(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        custom = ThreadedFFTBackend(workers=2)
        set_default_backend(custom)
        try:
            assert resolve_backend(None) is custom
        finally:
            set_default_backend("numpy")

    def test_use_backend_restores_on_error(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        with pytest.raises(RuntimeError, match="boom"):
            with use_backend("threaded"):
                raise RuntimeError("boom")
        assert resolve_backend(None).name == "numpy"

    def test_set_default_backend_validates(self):
        with pytest.raises(UnknownBackendError):
            set_default_backend("nope")

    def test_set_default_backend(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        set_default_backend("threaded")
        try:
            assert resolve_backend(None).name == "threaded"
        finally:
            set_default_backend("numpy")


class TestCupyGating:
    """The cupy backend is always *registered* (the name is recognized
    everywhere) but only *available* with a working GPU; everything else
    auto-skips."""

    def test_name_always_registered(self):
        assert "cupy" in backend_names()

    def test_unavailable_raises_pointed_error(self):
        if CupyBackend.available():  # pragma: no cover - GPU machines
            pytest.skip("cupy is available here; gating not exercised")
        with pytest.raises(BackendUnavailableError, match="cupy"):
            get_backend("cupy")
        assert "cupy" not in available_backend_names()

    def test_transform_roundtrip_on_gpu(self):
        if not CupyBackend.available():
            pytest.skip("cupy not available")
        b = get_backend("cupy")  # pragma: no cover - GPU machines
        rng = np.random.default_rng(0)
        x = (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        out = b.ifft2(b.fft2(x))
        assert isinstance(out, np.ndarray)  # host in -> host out
        np.testing.assert_allclose(out, x, atol=1e-10)


class TestProtocolHelpers:
    def test_complex_dtype_contract(self):
        f = ArrayBackend.complex_dtype_of
        assert f(np.zeros(2, np.complex64)) == np.complex64
        assert f(np.zeros(2, np.float32)) == np.complex64
        assert f(np.zeros(2, np.float16)) == np.complex64
        assert f(np.zeros(2, np.complex128)) == np.complex128
        assert f(np.zeros(2, np.float64)) == np.complex128
        assert f(np.zeros(2, np.int32)) == np.complex128

"""ReconstructionConfig: validation, immutability, lossless round-trips."""

import dataclasses
import json

import pytest

from repro.api import ReconstructionConfig
from repro.api.config import (
    _FINGERPRINT_NEUTRAL_FIELDS,
    _FINGERPRINT_NUMERIC_FIELDS,
)


class TestConstruction:
    def test_minimal(self):
        cfg = ReconstructionConfig("gd")
        assert cfg.solver == "gd"
        assert dict(cfg.solver_params) == {}
        assert dict(cfg.run_params) == {}

    def test_solver_must_be_nonempty_string(self):
        with pytest.raises(ValueError, match="non-empty"):
            ReconstructionConfig("")
        with pytest.raises(ValueError, match="non-empty"):
            ReconstructionConfig(None)

    def test_params_must_be_mapping(self):
        with pytest.raises(TypeError, match="mapping"):
            ReconstructionConfig("gd", solver_params=[("lr", 0.5)])

    def test_keys_must_be_strings(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            ReconstructionConfig("gd", solver_params={1: "x"})

    def test_non_json_value_rejected_with_location(self):
        with pytest.raises(TypeError, match=r"solver_params\['mesh'\]"):
            ReconstructionConfig("gd", solver_params={"mesh": object()})

    def test_nested_non_json_value_rejected(self):
        with pytest.raises(TypeError, match="not JSON-serializable"):
            ReconstructionConfig("gd", solver_params={"a": {"b": [set()]}})

    def test_frozen(self):
        cfg = ReconstructionConfig("gd")
        with pytest.raises(AttributeError):
            cfg.solver = "hve"
        with pytest.raises(TypeError):
            cfg.solver_params["lr"] = 1.0

    def test_mutating_source_dict_does_not_leak(self):
        params = {"lr": 0.5}
        cfg = ReconstructionConfig("gd", solver_params=params)
        params["lr"] = 99.0
        assert cfg.solver_params["lr"] == 0.5


class TestRoundTrip:
    CFG = ReconstructionConfig(
        "gd",
        solver_params={
            "n_ranks": 9,
            "lr": 0.125,
            "sync_period": "iteration",
            "compensate_local": True,
            "mesh": [3, 3],
        },
        run_params={"resume": "prev.npz"},
    )

    def test_dict_round_trip(self):
        assert ReconstructionConfig.from_dict(self.CFG.to_dict()) == self.CFG

    def test_json_round_trip(self):
        assert ReconstructionConfig.from_json(self.CFG.to_json()) == self.CFG

    def test_json_is_plain_json(self):
        payload = json.loads(self.CFG.to_json())
        assert payload["solver"] == "gd"
        assert payload["solver_params"]["mesh"] == [3, 3]
        assert payload["run_params"] == {"resume": "prev.npz"}

    def test_tuples_normalized_to_lists(self):
        cfg = ReconstructionConfig("gd", solver_params={"mesh": (3, 3)})
        assert cfg.solver_params["mesh"] == [3, 3]
        assert ReconstructionConfig.from_json(cfg.to_json()) == cfg

    def test_to_dict_is_a_copy(self):
        payload = self.CFG.to_dict()
        payload["solver_params"]["lr"] = -1
        assert self.CFG.solver_params["lr"] == 0.125

    def test_from_dict_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys.*'extra'"):
            ReconstructionConfig.from_dict({"solver": "gd", "extra": 1})

    def test_from_dict_missing_solver_rejected(self):
        with pytest.raises(ValueError, match="missing the 'solver' key"):
            ReconstructionConfig.from_dict({"solver_params": {}})


class TestProbeModes:
    def test_validation(self):
        with pytest.raises(ValueError, match="probe_modes"):
            ReconstructionConfig("gd", probe_modes=0)
        with pytest.raises(ValueError, match="probe_modes"):
            ReconstructionConfig("gd", probe_modes=-2)
        with pytest.raises((TypeError, ValueError), match="probe_modes"):
            ReconstructionConfig("gd", probe_modes=True)

    def test_round_trips(self):
        cfg = ReconstructionConfig("gd", {"lr": 0.5}, probe_modes=3)
        assert cfg.to_dict()["probe_modes"] == 3
        assert ReconstructionConfig.from_dict(cfg.to_dict()) == cfg
        assert ReconstructionConfig.from_json(cfg.to_json()) == cfg

    def test_with_probe_derives(self):
        base = ReconstructionConfig("gd", {"lr": 0.5})
        mixed = base.with_probe(probe_modes=2)
        assert mixed.probe_modes == 2
        assert base.probe_modes is None  # original untouched
        # None keeps the current value, like every other with_* helper;
        # probe_modes=1 is the explicit way back to the scalar path.
        assert mixed.with_probe().probe_modes == 2
        assert mixed.with_probe(probe_modes=1).probe_modes == 1

    def test_scalar_fingerprint_is_unchanged(self):
        # probe_modes=None and =1 both mean "the historical scalar
        # path" and must keep the pre-mixed-state fingerprint bytes:
        # every archived scalar run stays replay-identifiable.
        base = ReconstructionConfig("gd", {"lr": 0.5})
        explicit = base.with_probe(probe_modes=1)
        assert base.fingerprint() == explicit.fingerprint()

    def test_mixed_state_fingerprint_differs(self):
        base = ReconstructionConfig("gd", {"lr": 0.5})
        assert (
            base.with_probe(probe_modes=2).fingerprint()
            != base.fingerprint()
        )
        assert (
            base.with_probe(probe_modes=2).fingerprint()
            != base.with_probe(probe_modes=3).fingerprint()
        )


class TestDerivation:
    def test_with_solver_params_merges(self):
        cfg = ReconstructionConfig("gd", solver_params={"lr": 0.5, "n_ranks": 4})
        new = cfg.with_solver_params(lr=0.25, iterations=3)
        assert dict(new.solver_params) == {
            "lr": 0.25,
            "n_ranks": 4,
            "iterations": 3,
        }
        assert cfg.solver_params["lr"] == 0.5  # original untouched

    def test_with_run_params_merges(self):
        cfg = ReconstructionConfig("gd")
        new = cfg.with_run_params(resume="a.npz")
        assert dict(new.run_params) == {"resume": "a.npz"}
        assert dict(cfg.run_params) == {}

    def test_equality(self):
        a = ReconstructionConfig("gd", {"lr": 0.5})
        b = ReconstructionConfig("gd", {"lr": 0.5})
        c = ReconstructionConfig("gd", {"lr": 0.6})
        assert a == b
        assert a != c

    def test_hashable(self):
        a = ReconstructionConfig("gd", {"lr": 0.5})
        b = ReconstructionConfig("gd", {"lr": 0.5})
        c = ReconstructionConfig("gd", {"lr": 0.6})
        assert hash(a) == hash(b)
        assert {a, b, c} == {a, c}
        assert {a: "x"}[b] == "x"


class TestFingerprintDeclaration:
    def test_every_field_is_declared_exactly_once(self):
        # A field missing from both sets would neither perturb the
        # fingerprint resume validation trusts nor be shown not to need to.
        fields = {f.name for f in dataclasses.fields(ReconstructionConfig)}
        numeric, neutral = (
            _FINGERPRINT_NUMERIC_FIELDS, _FINGERPRINT_NEUTRAL_FIELDS
        )
        assert not numeric & neutral
        assert numeric | neutral == fields

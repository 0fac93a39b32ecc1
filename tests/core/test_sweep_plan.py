"""Sweep-plan tier: the padded gather/scatter path, pinned absolutely.

With a fixed integer halo a probe window can poke out of its extended
tile; the engine then reads the missing pixels as vacuum and discards
the gradient outside the tile.  No golden and no benchmark workload
reaches that path (``halo="exact"`` contains every window), so these
runs pin it: ``halo=2`` at an odd (15 px) and an even (16 px) window,
through Alg. 1 local updates, synchronous batched accumulation and the
halo-voxel-exchange local solve.  Each case must reproduce its committed
``(history, volume)`` digests on the numpy/complex128 reference stack,
under whichever executor the environment selects.

Regenerate (after a *deliberate* numerics change only) by running this
module as a script and pasting its output over ``EXPECTED``::

    PYTHONPATH=src python -m tests.core.test_sweep_plan
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Dict, Tuple

import pytest

import repro
from repro.api import ReconstructionConfig
from repro.backend import use_backend
from repro.backend.base import ENV_DTYPE
from repro.core.decomposition import decompose_gradient, decompose_halo_exchange
from repro.physics.dataset import scaled_pbtio3_spec, simulate_dataset
from tests.helpers import result_fingerprint

HALO = 2
WINDOWS = (15, 16)
_PINNED = {"backend": "numpy", "dtype": "complex128"}

#: case -> (solver, solver params, batch size).
CASES = {
    "gd_local_update": (
        "gd", {"n_ranks": 4, "iterations": 3, "lr": 0.02, "mode": "alg1"}, 1,
    ),
    "gd_synchronous_b4": (
        "gd",
        {"n_ranks": 4, "iterations": 3, "lr": 0.02, "mode": "synchronous"},
        4,
    ),
    "hve": ("hve", {"n_ranks": 4, "iterations": 3, "lr": 0.02}, 1),
}

#: (case, window) -> (history digest, volume digest).
EXPECTED: Dict[Tuple[str, int], Tuple[str, str]] = {
    ('gd_local_update', 15): ('dfd1d71a3b437245e93e1ea8895d02e9fc6404ae81bff63cda8fa380d6b04f9f', 'f0658818e24c7b070776ba1f9d9252a470399c5bb888a0ed78ca16e9e4905818'),
    ('gd_local_update', 16): ('4916cfb4f8220cc4678361575a4a089b661aa0b34a45fa4740e4a7446519bbb9', '49c29d219e2f3ca853152f1b50e3a1ea6ed07b55df21cfda4af3acfa463f6db3'),
    ('gd_synchronous_b4', 15): ('f3a7a05b6742500e8edf637b604b142daebd383150f2e54d86eab323962809bc', 'e23dcffc4c035fd49fdb44a351c9c8604ce84d9947a6af8dadc1041d2efda19c'),
    ('gd_synchronous_b4', 16): ('305e02d3b5aa2a5414dfad30f0b4e761d6f982a36aaa51f5ed01a392bd7e8d47', '3ce4d04c4e7cba3f7d8740129a14bde74c1b1774603d4e48b401ee55e1c479a1'),
    ('hve', 15): ('c34084f8472d9ed9c9525283d27251b4ceb8ca44db4ec0affebfe579a6edd6b3', 'aedf906943397fdf95f29407c27c8bd7e2131d4457f6a10744bc532bc7463c5a'),
    ('hve', 16): ('a4ff5e868b0301f873706556f7f621acd8e0b07a0aa1dc45549b019e6cbc8582', '6b57dfdf4039c240835d679e42583a315e9c3a7c6422265b344c16bc541966ad'),
}


@lru_cache(maxsize=None)
def _dataset(window: int):
    """A seeded 4x4-probe acquisition simulated on the reference stack
    (ambient backend/precision would move the measured amplitudes)."""
    spec = scaled_pbtio3_spec(
        scan_grid=(4, 4), detector_px=window, n_slices=2, overlap_ratio=0.7
    )
    ambient_dtype = os.environ.pop(ENV_DTYPE, None)
    try:
        with use_backend("numpy"):
            return simulate_dataset(spec, seed=29)
    finally:
        if ambient_dtype is not None:
            os.environ[ENV_DTYPE] = ambient_dtype


def _fingerprint(case: str, window: int) -> Tuple[str, str]:
    solver, params, batch_size = CASES[case]
    config = ReconstructionConfig(
        solver, {**params, "halo": HALO}, batch_size=batch_size, **_PINNED
    )
    fp = result_fingerprint(repro.reconstruct(_dataset(window), config))
    return fp["history_sha256"], fp["volume_sha256"]


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("decompose", [decompose_gradient, decompose_halo_exchange])
def test_cases_reach_the_padded_path(window, decompose):
    """Every pinned geometry has windows the extended tile cuts off —
    otherwise the digests below would not pin the padded path at all."""
    dataset = _dataset(window)
    decomp = decompose(
        dataset.scan, dataset.object_shape, n_ranks=4, halo=HALO
    )
    padded = [
        i
        for tile in decomp.tiles
        for i in tile.all_probes
        if not tile.ext.contains(dataset.scan.window_of(i))
    ]
    assert padded


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_padded_runs_match_committed_digests(case, window):
    assert _fingerprint(case, window) == EXPECTED[(case, window)]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for name in sorted(CASES):
        for w in WINDOWS:
            print(f"    ({name!r}, {w}): {_fingerprint(name, w)!r},")

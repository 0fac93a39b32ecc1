"""Lockstep tier: co-hosted ranks share one batched kernel call.

Between two communication ops the ranks an engine hosts are independent,
so ``NumericEngine`` runs a run of one-position-per-call gradient ops on
distinct ranks as one sweep: step ``k`` puts the ``k``-th position of
every member through a single ``(M, B, w, w)`` call.  The contract is
that *how many ranks share a call never changes a bit*: B = R (serial
executor), B = R/2 (two process workers) and B = 1 (a worker per rank)
must be fingerprint-identical, to each other and to the committed golden
digests.  The per-position reference also stays available in-process:
``unfused`` switches grouping off on the same engine.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.baseline.halo_exchange import HaloExchangeReconstructor
from repro.core.engine import NumericEngine
from repro.core.reconstructor import GradientDecompositionReconstructor
from repro.data import write_store
from repro.obs.telemetry import Telemetry, activate
from repro.physics.multislice import MultisliceModel
from repro.schedule.ops import ComputeGradients, LocalSolve, Schedule
from tests.golden import cases
from tests.golden.test_goldens import GOLDEN_PATH
from tests.helpers import assert_results_identical, result_fingerprint

N_RANKS = 4
LR = 0.02
ITERS = 3

#: (executor, runtime_workers): one engine hosts R, R, R/2 and 1 ranks.
HOSTING = [
    ("serial", None),
    ("process", 1),
    ("process", 2),
    ("process", N_RANKS),
]


_GOLDEN = cases.golden_configs()

#: case -> (config at ``batch_size=1``, golden digest it must reproduce
#: on the numpy/complex128 reference stack, if one is committed).
#: ``gd_synchronous_batched`` is committed at batch 3, which the data
#: parity suite pins bit-identical to batch 1.
PARITY_CASES = {
    "gd_alg1": (_GOLDEN["gd_alg1"], "gd_alg1"),
    "gd_synchronous": (
        replace(_GOLDEN["gd_synchronous_batched"], batch_size=1),
        "gd_synchronous_batched",
    ),
    "hve": (_GOLDEN["hve"], "hve"),
    "gd_mixed_refine": (_GOLDEN["gd_mixed_state"], "gd_mixed_state"),
    "gd_alg1_mixed_refine": (
        _GOLDEN["gd_mixed_state"].with_solver_params(mode="alg1"), None,
    ),
}


@pytest.fixture(scope="module")
def golden_dataset():
    return cases.golden_dataset()


@pytest.fixture(scope="module")
def golden_digests():
    return json.loads(GOLDEN_PATH.read_text())["cases"]


@pytest.fixture()
def unfused(monkeypatch):
    """Every gradient op a group of one: the per-position reference."""
    monkeypatch.setattr(
        NumericEngine, "_fuses", lambda self, group, op: False
    )


def gd(**kw):
    kw.setdefault("n_ranks", N_RANKS)
    kw.setdefault("iterations", ITERS)
    kw.setdefault("lr", LR)
    kw.setdefault("executor", "serial")
    kw.setdefault("batch_size", 1)
    return GradientDecompositionReconstructor(**kw)


def hve(**kw):
    kw.setdefault("n_ranks", N_RANKS)
    kw.setdefault("iterations", ITERS)
    kw.setdefault("lr", LR)
    kw.setdefault("executor", "serial")
    return HaloExchangeReconstructor(**kw)


@pytest.fixture()
def batch_widths(monkeypatch):
    """``B`` of every batched kernel call made while the fixture is
    live (the kernel's one gradient entry point)."""
    widths = []
    original = MultisliceModel.cost_and_gradient_batch

    def counting(self, probe, object_patches, *args, **kwargs):
        widths.append(len(object_patches))
        return original(self, probe, object_patches, *args, **kwargs)

    monkeypatch.setattr(MultisliceModel, "cost_and_gradient_batch", counting)
    return widths


# ----------------------------------------------------------------------
# (a) hosting width never changes a bit
# ----------------------------------------------------------------------
class TestHostingWidthParity:
    @pytest.mark.parametrize("dtype", ["complex128", "complex64"])
    @pytest.mark.parametrize("backend", ["numpy", "threaded"])
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_fingerprint_is_width_independent(
        self, golden_dataset, golden_digests, case, backend, dtype
    ):
        config, golden = PARITY_CASES[case]
        config = replace(config, backend=backend, dtype=dtype)
        prints = {
            hosting: result_fingerprint(
                repro.reconstruct(golden_dataset, replace(
                    config, executor=hosting[0], runtime_workers=hosting[1]
                ))
            )
            for hosting in HOSTING
        }
        per_position = prints[("process", N_RANKS)]  # B = 1
        for hosting, fingerprint in prints.items():
            assert fingerprint == per_position, hosting
        if golden is not None and (backend, dtype) == ("numpy", "complex128"):
            assert per_position == golden_digests[golden]


# ----------------------------------------------------------------------
# (b) ragged groups
# ----------------------------------------------------------------------
class TestRaggedGroups:
    """Members that run out of positions early, are missing, or repeat:
    fused serial (B = R) and two process workers (B = R/2) against the
    unfused per-position reference."""

    def _check(self, request, dataset, build):
        fused = build().reconstruct(dataset)
        halved = build(executor="process", runtime_workers=2).reconstruct(
            dataset
        )
        request.getfixturevalue("unfused")
        reference = build().reconstruct(dataset)
        assert_results_identical(reference, fused)
        assert_results_identical(reference, halved)

    def test_uneven_tiles(self, request, tiny_dataset):
        # 3x3 probes over 2x2 ranks: the tiles cannot hold equal shares.
        counts = [len(t.probes) for t in gd().decompose(tiny_dataset).tiles]
        assert len(set(counts)) > 1, counts
        self._check(request, tiny_dataset, lambda **kw: gd(mode="alg1", **kw))

    def test_positions_restriction_empties_a_tile(
        self, request, small_dataset
    ):
        decomp = gd().decompose(small_dataset)
        emptied = decomp.tiles[1].probes
        positions = [
            i for i in range(small_dataset.n_probes) if i not in emptied
        ]
        recon = gd(positions=positions)  # options are frozen: built after
        ranks = {
            op.rank
            for op in recon.build_iteration_schedule(decomp)
            if isinstance(op, ComputeGradients)
        }
        assert ranks == {0, 2, 3}
        self._check(
            request, small_dataset,
            lambda **kw: gd(mode="alg1", positions=positions, **kw),
        )

    @pytest.mark.parametrize("sync_period", ["probe", 2, "half"])
    def test_sync_periods(self, request, tiny_dataset, sync_period):
        self._check(
            request, tiny_dataset,
            lambda **kw: gd(mode="alg1", sync_period=sync_period, **kw),
        )

    def test_hve_inner_sweeps_split_the_group(
        self, request, tiny_dataset, batch_widths
    ):
        # A rank's second LocalSolve follows its first with nothing in
        # between: the group must split where the rank repeats.
        recon = hve(inner_sweeps=2, iterations=1)
        decomp = recon.decompose(tiny_dataset)
        recon.reconstruct(tiny_dataset)
        longest = max(len(t.all_probes) for t in decomp.tiles)
        assert len(batch_widths) == 2 * longest
        assert max(batch_widths) == N_RANKS
        self._check(
            request, tiny_dataset, lambda **kw: hve(inner_sweeps=2, **kw)
        )


# ----------------------------------------------------------------------
# (c) kernel calls: one per sweep step, not one per position
# ----------------------------------------------------------------------
class TestKernelCallCount:
    @pytest.mark.parametrize("mode", ["alg1", "synchronous"])
    def test_one_call_per_step_of_the_longest_member(
        self, tiny_dataset, batch_widths, mode
    ):
        recon = gd(mode=mode, iterations=2)
        tiles = recon.decompose(tiny_dataset).tiles
        recon.reconstruct(tiny_dataset)
        per_iteration = max(len(t.probes) for t in tiles)
        assert len(batch_widths) == 2 * per_iteration
        # Step k is as wide as the number of tiles with a k-th probe.
        assert batch_widths[:per_iteration] == [
            sum(len(t.probes) > k for t in tiles)
            for k in range(per_iteration)
        ]
        assert sum(batch_widths) == 2 * tiny_dataset.n_probes

    def test_rounds_sum_their_longest_chunks(
        self, tiny_dataset, batch_widths
    ):
        recon = gd(mode="alg1", sync_period=2, iterations=1)
        decomp = recon.decompose(tiny_dataset)
        groups, open_group = [], []
        for op in recon.build_iteration_schedule(decomp):
            if isinstance(op, ComputeGradients):
                open_group.append(len(op.probe_indices))
            elif open_group:
                groups.append(open_group)
                open_group = []
        assert len(groups) > 1
        recon.reconstruct(tiny_dataset)
        assert len(batch_widths) == sum(max(group) for group in groups)

    def test_wide_batches_stay_within_their_rank(
        self, small_dataset, batch_widths
    ):
        # batch_size keeps its meaning — positions per rank per call —
        # and an already-wide call is not multiplied by the rank count.
        recon = gd(mode="synchronous", batch_size=4, iterations=1)
        tiles = recon.decompose(small_dataset).tiles
        recon.reconstruct(small_dataset)
        expected = []
        for tile in tiles:
            full, tail = divmod(len(tile.probes), 4)
            expected += [4] * full + [tail] * bool(tail)
        assert batch_widths == expected

    @pytest.mark.parametrize("hosted", [[2], [1, 2], [0, 1, 2, 3]])
    def test_width_follows_the_hosted_ranks(
        self, tiny_dataset, batch_widths, hosted
    ):
        # One process-executor worker's view: only the ops of the ranks
        # it hosts fuse, so a worker per rank is per-position execution.
        decomp = gd().decompose(tiny_dataset)
        schedule = Schedule(decomp.n_ranks)
        for tile in decomp.tiles:
            schedule.add(
                ComputeGradients(rank=tile.rank, probe_indices=tile.probes)
            )
        with NumericEngine(
            tiny_dataset, decomp, lr=LR, ranks=hosted
        ) as engine:
            engine.execute(schedule)
        counts = [len(decomp.tiles[rank].probes) for rank in hosted]
        assert batch_widths == [
            sum(n > k for n in counts) for k in range(max(counts))
        ]

    @pytest.mark.parametrize("rates", [(LR, LR), (LR, LR / 2)])
    def test_local_solves_fuse_only_at_one_step_size(
        self, tiny_dataset, batch_widths, request, rates
    ):
        # A group takes one local step size: LocalSolve ops on distinct
        # ranks share calls only when their lr agree, and either way
        # the volumes are the per-position reference's.
        decomp = hve().decompose(tiny_dataset)
        schedule = Schedule(decomp.n_ranks)
        tiles = decomp.tiles[:2]
        for tile, lr in zip(tiles, rates):
            schedule.add(LocalSolve(
                rank=tile.rank, probe_indices=tile.probes, lr=lr
            ))

        def volumes():
            with NumericEngine(tiny_dataset, decomp, lr=LR) as engine:
                engine.execute(schedule)
                return [v.copy() for v in engine.volumes()]

        fused = volumes()
        counts = [len(tile.probes) for tile in tiles]
        if rates[0] == rates[1]:
            assert batch_widths == [
                sum(n > k for n in counts) for k in range(max(counts))
            ]
        else:
            assert batch_widths == [1] * sum(counts)
        request.getfixturevalue("unfused")
        for a, b in zip(fused, volumes()):
            np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# (d) the fact that lets a group share its first member's probe
# ----------------------------------------------------------------------
class TestSharedProbe:
    @pytest.mark.parametrize("probe_modes", [None, 2])
    @pytest.mark.parametrize("mode", ["alg1", "synchronous"])
    def test_every_rank_holds_rank0s_probe(
        self, tiny_dataset, mode, probe_modes
    ):
        recon = gd(mode=mode, refine_probe=True, probe_modes=probe_modes)
        decomp = recon.decompose(tiny_dataset)
        schedule = recon.build_iteration_schedule(decomp)
        with NumericEngine(
            tiny_dataset, decomp, lr=LR, refine_probe=True,
            probe_modes=probe_modes,
        ) as engine:
            start = engine.probe.copy()
            for _ in range(ITERS):
                engine.execute(schedule)
                first = engine.states[0].probe
                for state in engine.states[1:]:
                    assert np.array_equal(state.probe, first), state.rank
            assert not np.array_equal(first, start)


# ----------------------------------------------------------------------
# Telemetry: one span per fused sweep
# ----------------------------------------------------------------------
class TestSweepSpans:
    @pytest.mark.parametrize(
        "build, op_kind, phase",
        [
            (lambda: gd(mode="alg1"), ComputeGradients, "engine.compute"),
            (lambda: hve(), LocalSolve, "engine.local_solve"),
        ],
        ids=["gd", "hve"],
    )
    def test_one_span_on_the_lowest_rank_naming_its_members(
        self, tiny_dataset, build, op_kind, phase
    ):
        recon = build()
        decomp = recon.decompose(tiny_dataset)
        schedule = recon.build_iteration_schedule(decomp)
        assert sum(isinstance(op, op_kind) for op in schedule) == N_RANKS
        tel = Telemetry()
        with activate(tel):
            with NumericEngine(tiny_dataset, decomp, lr=LR) as engine:
                engine.execute(schedule)
        spans = [e for e in tel.events_snapshot() if e[0] == phase]
        assert [(rank, args) for _, rank, _, _, args in spans] == [
            (0, {"ranks": list(range(N_RANKS))})
        ]
        # Bucket sums count the sweep once.
        assert tel.summary()["phases"][phase]["calls"] == 1

    def test_traced_run_is_the_untraced_program(self, tiny_dataset):
        recon = gd(mode="alg1")
        decomp = recon.decompose(tiny_dataset)
        schedule = recon.build_iteration_schedule(decomp)
        with NumericEngine(tiny_dataset, decomp, lr=LR) as plain:
            plain.execute(schedule)
        with activate(Telemetry()):
            with NumericEngine(tiny_dataset, decomp, lr=LR) as traced:
                traced.execute(schedule)
        assert traced.iteration_costs() == plain.iteration_costs()
        for a, b in zip(plain.volumes(), traced.volumes()):
            np.testing.assert_array_equal(a, b)

    def test_store_reads_count_frames(self, tiny_dataset, tmp_path):
        path = tmp_path / "meas.npz"
        write_store(path, tiny_dataset, chunk_size=4)
        recon = gd(mode="alg1")
        decomp = recon.decompose(tiny_dataset)
        schedule = recon.build_iteration_schedule(decomp)
        tel = Telemetry()
        with activate(tel):
            with NumericEngine(
                tiny_dataset, decomp, lr=LR, data_source=str(path)
            ) as engine:
                engine.execute(schedule)
        counters = tel.counters_snapshot()
        assert counters["store.read.frames"] == tiny_dataset.n_probes
        assert counters["store.read.calls"] == max(
            len(t.probes) for t in decomp.tiles
        )

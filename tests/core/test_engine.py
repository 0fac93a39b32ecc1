"""Numeric engine: op handlers, message discipline, memory accounting."""

import gc
import weakref

import numpy as np
import pytest

import repro
from repro.core.decomposition import decompose_gradient
from repro.core.engine import NumericEngine
from repro.core.reconstructor import GradientDecompositionReconstructor
from repro.core.passes import build_appp_passes
from repro.parallel.topology import MeshLayout
from repro.runtime.executor import EnginePlan
from repro.schedule.ops import (
    ApplyBufferUpdate,
    BufferExchange,
    ComputeGradients,
    ResetBuffer,
    Schedule,
    VoxelPaste,
)


@pytest.fixture()
def engine(tiny_dataset, tiny_lr):
    decomp = decompose_gradient(
        tiny_dataset.scan, tiny_dataset.object_shape, mesh=MeshLayout(2, 2)
    )
    return NumericEngine(tiny_dataset, decomp, lr=tiny_lr)


class TestSetup:
    def test_rank_states_shapes(self, engine):
        for state, tile in zip(engine.states, engine.decomp.tiles):
            expected = (
                engine.n_slices,
                tile.ext.height,
                tile.ext.width,
            )
            assert state.volume.shape == expected
            assert state.accbuf.shape == expected

    def test_initial_volume_is_vacuum(self, engine):
        for state in engine.states:
            np.testing.assert_array_equal(
                state.volume, np.ones_like(state.volume)
            )

    def test_measurements_distributed(self, engine, tiny_dataset):
        held = sorted(
            i for s in engine.states for i in s.measurements.keys()
        )
        assert held == list(range(tiny_dataset.n_probes))

    def test_memory_registered(self, engine):
        for rank in range(engine.decomp.n_ranks):
            breakdown = engine.memory.breakdown(rank)
            assert {"volume", "accbuf", "measurements", "probe"} <= set(
                breakdown
            )
            assert breakdown["volume"] > 0


class TestComputeOp:
    def test_accumulates_gradient_and_cost(self, engine):
        state = engine.states[0]
        probes = engine.decomp.tiles[0].probes
        sched = Schedule(engine.decomp.n_ranks)
        sched.add(
            ComputeGradients(rank=0, probe_indices=probes, local_update=False)
        )
        engine.execute(sched)
        assert np.abs(state.accbuf).max() > 0
        assert engine.iteration_cost() > 0
        # Volume untouched without local updates.
        np.testing.assert_array_equal(
            state.volume, np.ones_like(state.volume)
        )

    def test_local_update_moves_volume(self, engine):
        probes = engine.decomp.tiles[0].probes
        sched = Schedule(engine.decomp.n_ranks)
        sched.add(
            ComputeGradients(rank=0, probe_indices=probes, local_update=True)
        )
        engine.execute(sched)
        state = engine.states[0]
        assert not np.allclose(state.volume, 1.0)

    def test_iteration_cost_resets(self, engine):
        probes = engine.decomp.tiles[0].probes
        sched = Schedule(engine.decomp.n_ranks)
        sched.add(
            ComputeGradients(rank=0, probe_indices=probes, local_update=False)
        )
        engine.execute(sched)
        assert engine.iteration_cost() > 0
        assert engine.iteration_cost() == 0.0


class TestExchangeOps:
    def test_exchange_moves_bytes_through_comm(self, engine):
        decomp = engine.decomp
        region = decomp.overlap(0, 1)
        assert region is not None
        sched = Schedule(decomp.n_ranks)
        sched.add(BufferExchange(src=0, dst=1, region=region, mode="add"))
        engine.states[0].accbuf[...] = 1.0
        engine.execute(sched)
        assert engine.comm.sent_messages == 1
        assert engine.comm.sent_bytes > 0
        assert engine.comm.pending_messages() == 0

    def test_add_and_replace_semantics(self, engine):
        decomp = engine.decomp
        region = decomp.overlap(0, 1)
        src_sl = region.slices_in(decomp.tiles[0].ext)
        dst_sl = region.slices_in(decomp.tiles[1].ext)
        engine.states[0].accbuf[:, src_sl[0], src_sl[1]] = 2.0
        engine.states[1].accbuf[:, dst_sl[0], dst_sl[1]] = 3.0

        sched = Schedule(decomp.n_ranks)
        sched.add(BufferExchange(src=0, dst=1, region=region, mode="add"))
        engine.execute(sched)
        np.testing.assert_allclose(
            engine.states[1].accbuf[:, dst_sl[0], dst_sl[1]], 5.0
        )

        sched2 = Schedule(decomp.n_ranks)
        sched2.add(
            BufferExchange(src=0, dst=1, region=region, mode="replace")
        )
        engine.execute(sched2)
        np.testing.assert_allclose(
            engine.states[1].accbuf[:, dst_sl[0], dst_sl[1]], 2.0
        )

    def test_voxel_paste_copies_volume(self, engine):
        decomp = engine.decomp
        src_tile, dst_tile = decomp.tiles[0], decomp.tiles[1]
        region = src_tile.core.intersect(dst_tile.ext)
        assert region is not None
        src_sl = region.slices_in(src_tile.ext)
        engine.states[0].volume[:, src_sl[0], src_sl[1]] = 7.0
        sched = Schedule(decomp.n_ranks)
        sched.add(VoxelPaste(src=0, dst=1, region=region))
        engine.execute(sched)
        dst_sl = region.slices_in(dst_tile.ext)
        np.testing.assert_allclose(
            engine.states[1].volume[:, dst_sl[0], dst_sl[1]], 7.0
        )


class TestUpdateOps:
    def test_apply_buffer_update(self, engine):
        engine.states[0].accbuf[...] = 1.0 + 0j
        sched = Schedule(engine.decomp.n_ranks)
        sched.add(ApplyBufferUpdate(rank=0, lr=0.5))
        engine.execute(sched)
        np.testing.assert_allclose(engine.states[0].volume, 0.5 + 0j)

    def test_reset_buffer(self, engine):
        engine.states[0].accbuf[...] = 9.0
        sched = Schedule(engine.decomp.n_ranks)
        sched.add(ResetBuffer(rank=0))
        engine.execute(sched)
        np.testing.assert_allclose(engine.states[0].accbuf, 0.0)


class TestGradientTruncation:
    def test_fixed_halo_reads_vacuum_outside(self, tiny_dataset, tiny_lr):
        """With a tight halo, windows poke outside the extended tile; the
        engine pads with vacuum and truncates gradients, without error."""
        decomp = decompose_gradient(
            tiny_dataset.scan,
            tiny_dataset.object_shape,
            mesh=MeshLayout(2, 2),
            halo=2,
        )
        engine = NumericEngine(tiny_dataset, decomp, lr=tiny_lr)
        sched = Schedule(decomp.n_ranks)
        for rank, tile in enumerate(decomp.tiles):
            if tile.probes:
                sched.add(
                    ComputeGradients(
                        rank=rank,
                        probe_indices=tile.probes,
                        local_update=True,
                    )
                )
        engine.execute(sched)
        for state in engine.states:
            assert np.isfinite(state.volume).all()

    def test_truncated_memory_smaller(self, tiny_dataset, tiny_lr):
        exact = NumericEngine(
            tiny_dataset,
            decompose_gradient(
                tiny_dataset.scan,
                tiny_dataset.object_shape,
                mesh=MeshLayout(2, 2),
                halo="exact",
            ),
            lr=tiny_lr,
        )
        tight = NumericEngine(
            tiny_dataset,
            decompose_gradient(
                tiny_dataset.scan,
                tiny_dataset.object_shape,
                mesh=MeshLayout(2, 2),
                halo=2,
            ),
            lr=tiny_lr,
        )
        assert (
            tight.memory.peak_bytes_mean() < exact.memory.peak_bytes_mean()
        )

    def test_halo_width_trades_memory_for_truncation(self):
        """Wider halos cost memory and truncate less; exact is serial, and
        ~ the probe radius (the paper's 600 pm) is within 5% of exact."""
        spec = repro.scaled_pbtio3_spec(
            scan_grid=(8, 8), detector_px=24, n_slices=2, circle_overlap=0.8
        )
        dataset = repro.simulate_dataset(spec, seed=42)
        lr = repro.suggest_lr(dataset, alpha=0.35)
        paper = int(np.ceil(dataset.probe.spec.nominal_radius_px)) + 2
        runs = {
            halo: GradientDecompositionReconstructor(
                mesh=MeshLayout(2, 2), iterations=6, lr=lr,
                mode="synchronous", halo=halo,
            ).reconstruct(dataset)
            for halo in (2, 6, 10, paper, "exact")
        }
        serial = repro.SerialReconstructor(iterations=6, lr=lr)
        ref = serial.reconstruct(dataset).volume
        mems = [runs[h].peak_memory_mean for h in (2, 6, 10)]
        assert mems == sorted(mems)
        err = {h: np.abs(r.volume - ref).max() for h, r in runs.items()}
        assert err["exact"] < 1e-10
        assert err[2] > err[10]
        assert err[paper] < 0.05 * np.abs(ref).max()


class TestCompensateLocal:
    def test_localbuf_allocated_and_used(self, tiny_dataset, tiny_lr):
        decomp = decompose_gradient(
            tiny_dataset.scan, tiny_dataset.object_shape, mesh=MeshLayout(1, 2)
        )
        engine = NumericEngine(
            tiny_dataset, decomp, lr=tiny_lr, compensate_local=True
        )
        assert all(s.localbuf is not None for s in engine.states)
        probes = decomp.tiles[0].probes
        sched = Schedule(decomp.n_ranks)
        sched.add(
            ComputeGradients(rank=0, probe_indices=probes, local_update=True)
        )
        sched.add(ApplyBufferUpdate(rank=0, lr=tiny_lr))
        engine.execute(sched)
        # With no passes, accbuf == localbuf, so the buffer update is a
        # no-op beyond the already-applied local updates.
        state = engine.states[0]
        np.testing.assert_allclose(state.accbuf, state.localbuf)


class TestRefcountLifetime:
    """An engine holds no reference cycle (its op handlers are a
    module-level table, not bound methods), so it dies by reference
    count the moment its last user lets go — not whenever the cyclic GC
    next runs, with every tile array still allocated."""

    @pytest.fixture()
    def no_gc(self):
        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "solver, params",
        [
            ("gd", {"n_ranks": 4}),
            ("hve", {"n_ranks": 4}),
            # One rank, in process by construction; refining, so the
            # probe ops run too.
            ("serial", {"scheme": "sgd", "refine_probe": True}),
        ],
        ids=["gd", "hve", "serial"],
    )
    def test_engines_die_when_reconstruct_returns(
        self, tiny_dataset, monkeypatch, no_gc, solver, params
    ):
        built = []
        init = NumericEngine.__init__

        def tracking_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(NumericEngine, "__init__", tracking_init)
        config = repro.ReconstructionConfig(
            solver, {**params, "iterations": 2, "lr": 0.02},
            executor=None if solver == "serial" else "serial",
        )
        repro.reconstruct(tiny_dataset, config)
        assert built
        assert [ref() for ref in built] == [None] * len(built)

    def test_engine_from_plan_dies_by_refcount(self, tiny_dataset, no_gc):
        recon = GradientDecompositionReconstructor(n_ranks=4, lr=0.02)
        decomp = recon.decompose(tiny_dataset)
        schedule = recon.build_iteration_schedule(decomp)
        engine = NumericEngine.from_plan(
            EnginePlan(tiny_dataset, decomp, schedule, lr=0.02)
        )
        engine.execute(schedule)  # compiles and caches its sweep plans
        ref = weakref.ref(engine)
        del engine
        assert ref() is None

"""Tile decomposition of the image, the halos, and probe assignment.

Both algorithms start the same way (paper Fig. 2(b) / Fig. 3(b)): the image
is split into a ``mesh.rows x mesh.cols`` grid of contiguous **core tiles**
(one per GPU), each probe location is owned by the tile containing its scan
center, and every tile is extended with a **halo** so it covers the probe
windows it must evaluate.

The two algorithms differ in what gets assigned beyond that:

* **Gradient Decomposition** assigns *only* the tile's own probes; the halo
  is just wide enough to cover their windows (or a fixed physical width, as
  in the paper's 600 pm setting).  Overlap-region consistency comes from
  gradient accumulation passes, not data duplication.
* **Halo Voxel Exchange** additionally assigns ``extra_rows`` rings of
  *neighbouring* probe locations (the paper uses two extra rows) and grows
  the halo to cover those too — the redundant measurements and augmented
  halos that cost it memory and scalability (paper Figs. 2(d)-(e)).

Why the directional passes are exact (paper Sec. III)
-----------------------------------------------------
The accumulation passes (:mod:`repro.core.passes`) must leave every rank
holding the *global* gradient ``G = sum_k g_k`` on its extended tile,
where ``g_k`` is rank ``k``'s local gradient, supported on ``ext(k)``.
Two properties of the extended tiles, built by ``_enforce_ordering`` and
checked by ``Decomposition._validate_ordering``, make four chains of
point-to-point messages enough:

1. **Product form** — ``ext(r, c) = I_r x J_c``: the row interval depends
   only on the mesh row, the column interval only on the mesh column.
   The tiles covering a pixel ``(y, x)`` are then the product
   ``{r : y in I_r} x {c : x in J_c}``, so the sum over them separates
   into a sum down each mesh column followed by a sum along each mesh
   row — the vertical and the horizontal passes.
2. **Ordered intervals** — both end points of ``I_0, I_1, ...`` (and of
   ``J_0, J_1, ...``) are non-decreasing.  For ordered intervals
   ``A <= B <= C`` this gives the transitivity lemma ``A ∩ C ⊆ B``: the
   mesh rows covering ``y`` form one contiguous run ``r_lo..r_hi``, and a
   contribution never has to skip a rank to reach another that needs it.

Along one chain the *forward* pass adds ``AccBuf_r`` into ``AccBuf_{r+1}``
on ``I_r ∩ I_{r+1}``.  By induction (the lemma keeps ``y`` inside every
intermediate overlap) rank ``r`` then holds, at ``y``, the sum over the
covering rows ``<= r``, so ``r_hi`` holds the whole chain's sum.  The
*backward* pass replaces instead of adding, over the same regions in
reverse, carrying that complete value back to ``r_lo``.  After the
vertical passes every buffer holds the column sum on its extended tile;
the horizontal passes sum those along each row, and by product form the
result is ``G`` restricted to ``ext(r, c)`` (tested property-based in
``tests/core/test_passes_invariant.py``).  Exchanging with direct
neighbours only is the special case ``I_r ∩ I_{r+2} = ∅`` — low probe
overlap — and is wrong beyond it (paper Fig. 3(c)-(d)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.parallel.topology import MeshLayout, choose_mesh
from repro.physics.scan import RasterScan
from repro.utils.geometry import Rect, union_rects

__all__ = [
    "RankTile",
    "Decomposition",
    "ScalabilityError",
    "decompose_gradient",
    "decompose_halo_exchange",
]


class ScalabilityError(RuntimeError):
    """Raised when a decomposition violates an algorithmic constraint —
    notably the Halo Voxel Exchange tile-size constraint that produces the
    "NA" entries of the paper's Table II(b)."""


@dataclass(frozen=True)
class RankTile:
    """One rank's share of the problem.

    Attributes
    ----------
    rank:
        Mesh rank (row-major).
    core:
        The owned tile; core tiles partition the image exactly.
    ext:
        The halo-extended tile actually allocated and updated.
    probes:
        Global indices of probe locations owned by this tile.
    extra_probes:
        Neighbour probes additionally assigned (Halo Voxel Exchange only;
        empty for Gradient Decomposition).
    """

    rank: int
    core: Rect
    ext: Rect
    probes: Tuple[int, ...]
    extra_probes: Tuple[int, ...] = ()

    @property
    def all_probes(self) -> Tuple[int, ...]:
        """Own + extra probes, the set this rank computes gradients for."""
        return self.probes + self.extra_probes

    @property
    def halo_pixels(self) -> int:
        """Pixels in the halo ring (ext minus core)."""
        return self.ext.area - self.core.area


def _split_points(total: int, parts: int) -> List[int]:
    """Balanced 1-D partition boundaries: ``parts+1`` cut points."""
    base, rem = divmod(total, parts)
    points = [0]
    for i in range(parts):
        points.append(points[-1] + base + (1 if i < rem else 0))
    return points


@dataclass
class Decomposition:
    """The full decomposition: mesh, tiles, and overlap geometry."""

    mesh: MeshLayout
    bounds: Rect
    tiles: List[RankTile]
    scan: RasterScan = field(repr=False)
    halo_mode: Union[str, int] = "exact"

    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        """Number of ranks/tiles."""
        return self.mesh.n_ranks

    def tile(self, rank: int) -> RankTile:
        """Tile of ``rank``."""
        return self.tiles[rank]

    def tile_at(self, row: int, col: int) -> RankTile:
        """Tile at mesh coordinate ``(row, col)``."""
        return self.tiles[self.mesh.rank_of(row, col)]

    def overlap(self, a: int, b: int) -> Optional[Rect]:
        """Extended-tile overlap region between ranks ``a`` and ``b``."""
        return self.tiles[a].ext.intersect(self.tiles[b].ext)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Assert every structural invariant; raises on violation."""
        self._validate_partition()
        self._validate_probe_cover()
        self._validate_ordering()

    def _validate_partition(self) -> None:
        total = sum(t.core.area for t in self.tiles)
        if total != self.bounds.area:
            raise ValueError(
                f"core tiles cover {total} px, image has {self.bounds.area}"
            )
        for t in self.tiles:
            if not self.bounds.contains(t.core):
                raise ValueError(f"core of rank {t.rank} escapes the image")
            if not self.bounds.contains(t.ext):
                raise ValueError(f"ext of rank {t.rank} escapes the image")
            if not t.ext.contains(t.core):
                raise ValueError(f"ext of rank {t.rank} does not contain core")

    def _validate_probe_cover(self) -> None:
        seen = np.zeros(self.scan.n_positions, dtype=np.int64)
        for t in self.tiles:
            for p in t.probes:
                seen[p] += 1
        missing = np.flatnonzero(seen == 0)
        dup = np.flatnonzero(seen > 1)
        if missing.size or dup.size:
            raise ValueError(
                f"probe ownership broken: missing={missing[:5].tolist()} "
                f"duplicated={dup[:5].tolist()}"
            )

    def _validate_ordering(self) -> None:
        """Ordered-interval property along both mesh axes (required for
        transitive chain accumulation — see the module docstring)."""
        for c in range(self.mesh.cols):
            tiles = [self.tile_at(r, c) for r in range(self.mesh.rows)]
            for a, b in zip(tiles, tiles[1:]):
                if a.ext.r0 > b.ext.r0 or a.ext.r1 > b.ext.r1:
                    raise ValueError(
                        f"row intervals unordered in column {c}: "
                        f"{a.ext} then {b.ext}"
                    )
        for r in range(self.mesh.rows):
            tiles = [self.tile_at(r, c) for c in range(self.mesh.cols)]
            for a, b in zip(tiles, tiles[1:]):
                if a.ext.c0 > b.ext.c0 or a.ext.c1 > b.ext.c1:
                    raise ValueError(
                        f"column intervals unordered in row {r}: "
                        f"{a.ext} then {b.ext}"
                    )

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def max_probes_per_rank(self) -> int:
        """Largest per-rank probe count (load-balance diagnostic)."""
        return max(len(t.all_probes) for t in self.tiles)

    def mean_halo_fraction(self) -> float:
        """Average halo-to-extended-area ratio (redundancy diagnostic).

        Degenerate geometry is reported, not crashed on: a zero-area
        extended tile contributes a zero fraction (it has no halo), and
        an empty tile list averages to 0.0.
        """
        if not self.tiles:
            return 0.0
        fractions = [
            (t.halo_pixels / t.ext.area) if t.ext.area > 0 else 0.0
            for t in self.tiles
        ]
        return float(np.mean(fractions))


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def _enforce_ordering(
    exts: List[Rect], mesh: MeshLayout, bounds: Rect
) -> List[Rect]:
    """Grow extended tiles into **product form** with ordered intervals.

    These are the two geometric properties the directional-pass proof
    needs (module docstring).  With a uniform raster scan both hold automatically; tiles owning few
    or no probes (tiny scans, extreme meshes) can break them.  Growing an
    extension is always safe — it only enlarges buffer coverage — so we
    repair by taking per-mesh-row / per-mesh-column interval unions and
    then enforcing monotonicity.
    """

    def idx(r: int, c: int) -> int:
        return mesh.rank_of(r, c)

    row_lo = [
        min(exts[idx(r, c)].r0 for c in range(mesh.cols))
        for r in range(mesh.rows)
    ]
    row_hi = [
        max(exts[idx(r, c)].r1 for c in range(mesh.cols))
        for r in range(mesh.rows)
    ]
    col_lo = [
        min(exts[idx(r, c)].c0 for r in range(mesh.rows))
        for c in range(mesh.cols)
    ]
    col_hi = [
        max(exts[idx(r, c)].c1 for r in range(mesh.rows))
        for c in range(mesh.cols)
    ]
    # Monotone repair: lower bounds non-decreasing (sweep backwards),
    # upper bounds non-decreasing (sweep forwards).
    for seq_lo, seq_hi in ((row_lo, row_hi), (col_lo, col_hi)):
        for i in range(len(seq_lo) - 2, -1, -1):
            seq_lo[i] = min(seq_lo[i], seq_lo[i + 1])
        for i in range(1, len(seq_hi)):
            seq_hi[i] = max(seq_hi[i], seq_hi[i - 1])

    out = []
    for r in range(mesh.rows):
        for c in range(mesh.cols):
            out.append(
                Rect(row_lo[r], row_hi[r], col_lo[c], col_hi[c]).clip(bounds)
            )
    return out


def _axis_splits(
    lo: int, hi: int, parts: int, center_lo: float, center_hi: float
) -> np.ndarray:
    """Split points along one axis, load-balanced over the scanned extent.

    Interior boundaries divide the probe-center bounding interval
    ``[center_lo, center_hi]`` evenly (so tiles own ~equal probe counts —
    each GPU gets "a tile and a probe location circle", paper Fig. 2(b));
    the first/last tiles absorb the un-scanned image border, which only
    probe-window tails touch.
    """
    if parts == 1:
        return np.asarray([lo, hi], dtype=np.int64)
    span = max(center_hi - center_lo, 1.0)
    interior = center_lo + span * np.arange(1, parts) / parts
    interior = np.clip(np.round(interior).astype(np.int64), lo + 1, hi - 1)
    # Enforce strict monotonicity for degenerate spans.
    for i in range(1, len(interior)):
        if interior[i] <= interior[i - 1]:
            interior[i] = interior[i - 1] + 1
    if interior[-1] >= hi:
        raise ValueError(
            f"cannot split axis [{lo},{hi}) into {parts} non-empty tiles"
        )
    return np.concatenate([[lo], interior, [hi]]).astype(np.int64)


def _core_tiles(
    bounds: Rect, mesh: MeshLayout, scan: RasterScan, partition: str = "scan"
) -> Tuple[List[Rect], np.ndarray, np.ndarray]:
    """Core tiles plus the row/col split points (for vectorized probe
    lookup).

    ``partition="scan"`` balances interior boundaries over the scanned
    region (equal probes per tile — the Gradient Decomposition layout);
    ``partition="uniform"`` splits the full image evenly (the voxel-centric
    layout of the original Halo Voxel Exchange implementations).
    """
    if partition == "uniform":
        rows = np.asarray(_split_points(bounds.height, mesh.rows)) + bounds.r0
        cols = np.asarray(_split_points(bounds.width, mesh.cols)) + bounds.c0
    elif partition == "scan":
        centers = scan.centers
        rows = _axis_splits(
            bounds.r0,
            bounds.r1,
            mesh.rows,
            float(centers[:, 0].min()),
            float(centers[:, 0].max()) + 1.0,
        )
        cols = _axis_splits(
            bounds.c0,
            bounds.c1,
            mesh.cols,
            float(centers[:, 1].min()),
            float(centers[:, 1].max()) + 1.0,
        )
    else:
        raise ValueError(f"unknown partition {partition!r}")
    tiles = []
    for r in range(mesh.rows):
        for c in range(mesh.cols):
            tiles.append(
                Rect(int(rows[r]), int(rows[r + 1]), int(cols[c]), int(cols[c + 1]))
            )
    return tiles, rows, cols


def _assign_probes(
    scan: RasterScan,
    mesh: MeshLayout,
    row_splits: np.ndarray,
    col_splits: np.ndarray,
    bounds: Rect,
) -> List[List[int]]:
    """Owner of each probe = tile containing its scan center (clamped to
    the image so edge probes always find an owner).

    Vectorized with ``searchsorted`` over the split points so full-scale
    geometries (16632 probes on a 63x66 mesh) decompose in milliseconds.
    """
    centers = scan.centers
    r = np.clip(centers[:, 0].astype(np.int64), bounds.r0, bounds.r1 - 1)
    c = np.clip(centers[:, 1].astype(np.int64), bounds.c0, bounds.c1 - 1)
    tile_r = np.searchsorted(row_splits, r, side="right") - 1
    tile_c = np.searchsorted(col_splits, c, side="right") - 1
    tile_r = np.clip(tile_r, 0, mesh.rows - 1)
    tile_c = np.clip(tile_c, 0, mesh.cols - 1)
    owner = tile_r * mesh.cols + tile_c
    owners: List[List[int]] = [[] for _ in range(mesh.n_ranks)]
    order = np.argsort(owner, kind="stable")
    for idx in order:
        owners[owner[idx]].append(int(idx))
    return owners


def _extended(
    core: Rect,
    probe_windows: Sequence[Rect],
    bounds: Rect,
    halo_mode: Union[str, int],
) -> Rect:
    if halo_mode == "exact":
        ext = core
        for w in probe_windows:
            ext = ext.union_bbox(w)
        return ext.clip(bounds)
    if isinstance(halo_mode, int):
        if halo_mode < 0:
            raise ValueError("fixed halo width must be non-negative")
        return core.expand(halo_mode).clip(bounds)
    raise ValueError(f"unknown halo mode {halo_mode!r}")


def decompose_gradient(
    scan: RasterScan,
    object_shape: Tuple[int, int],
    mesh: Optional[MeshLayout] = None,
    n_ranks: Optional[int] = None,
    halo: Union[str, int] = "exact",
    partition: str = "scan",
) -> Decomposition:
    """Gradient Decomposition tiling (paper Sec. III).

    Parameters
    ----------
    scan:
        The raster scan (probe windows drive halo sizing).
    object_shape:
        ``(rows, cols)`` of the reconstruction.
    mesh / n_ranks:
        Give the mesh explicitly or a rank count (mesh chosen to match the
        image aspect).  Exactly one must be provided.
    halo:
        ``"exact"`` extends each tile to cover its own probes' windows
        (exact gradients, used by correctness tests); an integer is a fixed
        halo width in pixels (the paper's 600 pm = 60 px mode — gradients
        outside the halo are truncated, which is the approximation the
        paper's memory numbers rest on).
    partition:
        Tile-boundary placement; see ``_core_tiles``.
    """
    mesh = _resolve_mesh(mesh, n_ranks, object_shape)
    bounds = Rect(0, object_shape[0], 0, object_shape[1])
    cores, row_splits, col_splits = _core_tiles(bounds, mesh, scan, partition)
    owners = _assign_probes(scan, mesh, row_splits, col_splits, bounds)

    exts = []
    for core, probe_ids in zip(cores, owners):
        windows = [scan.window_of(i) for i in probe_ids]
        exts.append(_extended(core, windows, bounds, halo))
    exts = _enforce_ordering(exts, mesh, bounds)
    tiles = [
        RankTile(rank=rank, core=core, ext=ext, probes=tuple(probe_ids))
        for rank, (core, ext, probe_ids) in enumerate(
            zip(cores, exts, owners)
        )
    ]
    decomp = Decomposition(
        mesh=mesh, bounds=bounds, tiles=tiles, scan=scan, halo_mode=halo
    )
    decomp.validate()
    return decomp


def decompose_halo_exchange(
    scan: RasterScan,
    object_shape: Tuple[int, int],
    mesh: Optional[MeshLayout] = None,
    n_ranks: Optional[int] = None,
    extra_rows: int = 2,
    halo: Union[str, int] = "exact",
    enforce_tile_constraint: bool = True,
    partition: str = "scan",
) -> Decomposition:
    """Halo Voxel Exchange tiling (paper Sec. II-C).

    Besides its own probes each tile receives every probe within
    ``extra_rows`` scan rows/columns of its core (the neighbouring circles
    of Figs. 2(d)-(e)), and its halo grows to cover them.

    Raises
    ------
    ScalabilityError
        When ``enforce_tile_constraint`` and a core tile is smaller than
        the halo it must fill at its neighbours — the algorithmic limit
        that makes the paper report "NA" beyond 54 GPUs on the small
        dataset (Sec. VI-B).
    """
    if extra_rows < 0:
        raise ValueError("extra_rows must be non-negative")
    mesh = _resolve_mesh(mesh, n_ranks, object_shape)
    bounds = Rect(0, object_shape[0], 0, object_shape[1])
    cores, row_splits, col_splits = _core_tiles(bounds, mesh, scan, partition)
    owners = _assign_probes(scan, mesh, row_splits, col_splits, bounds)

    # Extra probes: centers within extra_rows scan steps of the core
    # (vectorized rectangle membership per tile).
    reach = int(np.ceil(extra_rows * scan.spec.step_px))
    centers_r = scan.centers[:, 0]
    centers_c = scan.centers[:, 1]
    exts = []
    extras_per_rank = []
    for core, probe_ids in zip(cores, owners):
        own = np.zeros(scan.n_positions, dtype=bool)
        own[list(probe_ids)] = True
        reach_rect = core.expand(reach)
        inside = (
            (centers_r >= reach_rect.r0)
            & (centers_r < reach_rect.r1)
            & (centers_c >= reach_rect.c0)
            & (centers_c < reach_rect.c1)
        )
        extras = [int(i) for i in np.flatnonzero(inside & ~own)]
        extras_per_rank.append(extras)
        windows = [scan.window_of(i) for i in list(probe_ids) + extras]
        exts.append(_extended(core, windows, bounds, halo))
    exts = _enforce_ordering(exts, mesh, bounds)
    tiles = [
        RankTile(
            rank=rank,
            core=core,
            ext=ext,
            probes=tuple(probe_ids),
            extra_probes=tuple(extras),
        )
        for rank, (core, ext, probe_ids, extras) in enumerate(
            zip(cores, exts, owners, extras_per_rank)
        )
    ]

    decomp = Decomposition(
        mesh=mesh, bounds=bounds, tiles=tiles, scan=scan, halo_mode=halo
    )
    decomp.validate()

    if enforce_tile_constraint:
        _check_tile_constraint(decomp)
    return decomp


def _check_tile_constraint(decomp: Decomposition) -> None:
    """Each tile must be able to fill its neighbours' halos with its own
    core voxels: the core must be at least as large as the halo width it
    faces (paper Sec. VI-B, the "NA" constraint)."""
    for t in decomp.tiles:
        halo_top = t.core.r0 - t.ext.r0
        halo_bottom = t.ext.r1 - t.core.r1
        halo_left = t.core.c0 - t.ext.c0
        halo_right = t.ext.c1 - t.core.c1
        needed = max(halo_top, halo_bottom, halo_left, halo_right)
        if t.core.height < needed or t.core.width < needed:
            raise ScalabilityError(
                f"Halo Voxel Exchange tile-size constraint violated at rank "
                f"{t.rank}: core {t.core.shape} smaller than halo width "
                f"{needed}; cannot scale to {decomp.n_ranks} ranks (the "
                f"paper's 'NA' regime)"
            )


def _resolve_mesh(
    mesh: Optional[MeshLayout],
    n_ranks: Optional[int],
    object_shape: Tuple[int, int],
) -> MeshLayout:
    if (mesh is None) == (n_ranks is None):
        raise ValueError("provide exactly one of mesh= or n_ranks=")
    if mesh is not None:
        return mesh
    rows, cols = choose_mesh(
        int(n_ranks), aspect=object_shape[0] / object_shape[1]
    )
    return MeshLayout(rows=rows, cols=cols)

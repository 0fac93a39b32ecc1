"""Reference and baseline reconstructors.

* :mod:`repro.baseline.serial` — maximum-likelihood gradient descent on
  the full volume (the ground-truth semantics the decomposition must
  match), run as a one-rank schedule on the shared engine.
* :mod:`repro.baseline.halo_exchange` — the state-of-the-art Halo Voxel
  Exchange algorithm the paper compares against (Sec. II-C), complete with
  extra neighbour probes, augmented halos, synchronous voxel copy-paste,
  the tile-size scalability constraint, and — inevitably — seam artifacts.
"""

from repro.baseline.serial import SerialReconstructor
from repro.baseline.halo_exchange import HaloExchangeReconstructor

__all__ = ["SerialReconstructor", "HaloExchangeReconstructor"]

"""Experiment harness: one module per paper table/figure.

Each module exposes a ``run_*`` function returning a structured result
with a ``format()`` method that prints the paper's reported values next
to this reproduction's measured/modeled values.  ``tests/experiments``
asserts the paper's value bands on these results.

Every runner registers itself in :data:`EXPERIMENTS` (see
:mod:`repro.experiments.registry`); the CLI's ``experiment`` subcommand
derives both its choices and its dispatch from that registry.  The
numeric experiments (fig5/fig8/fig9) build their solvers through
:mod:`repro.api` configs, so they exercise the same code path as
``repro.reconstruct`` and the CLI.

=============  =======================================  ==================
paper artifact what it shows                            module
=============  =======================================  ==================
Table I        dataset sizes                            ``table1``
Table II       small-dataset scaling, both algorithms   ``table2``
Table III      large-dataset scaling, both algorithms   ``table3``
Fig. 7a        strong-scaling curves vs O(1/P)          ``fig7a``
Fig. 7b        compute/wait/comm breakdown, APPP vs w/o ``fig7b``
Fig. 8         seam artifacts                           ``fig8``
Fig. 9         convergence vs pass frequency            ``fig9``
=============  =======================================  ==================
"""

from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_names,
    get_experiment,
    register_experiment,
)
from repro.experiments.table1 import run_table1
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.fig7a import run_fig7a
from repro.experiments.fig7b import run_fig7b
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9

__all__ = [
    "EXPERIMENTS",
    "experiment_names",
    "get_experiment",
    "register_experiment",
    "run_table1",
    "run_fig5",
    "run_fig6",
    "run_table2",
    "run_table3",
    "run_fig7a",
    "run_fig7b",
    "run_fig8",
    "run_fig9",
]

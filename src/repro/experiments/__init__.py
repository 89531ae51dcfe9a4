"""Experiment harnesses — one per paper table/figure (see DESIGN.md §4).

============  =========================================================
``table1``    topology configurations (generated vs paper counts)
``fig01``     faulty-torus throughput + required VCs (Figs. 1a/1b)
``fig09``     edge-forwarding-index box statistics + Sec. 5.1 stats
``fig10``     all-to-all throughput across the Tab. 1 topologies
``fig11``     routing runtime / applicability on faulty tori
``scaling``   Prop. 1 empirical complexity fit
``fallbacks`` Sec. 5.1 escape-fallback statistics
============  =========================================================

Harnesses are not imported here, so ``python -m repro.experiments.<name>``
runs its module once; each figure's ``check`` asserts the paper's shape.
"""

from repro.experiments.common import (
    RoutingOutcome,
    nue_suite,
    routing_suite,
    run_routing,
)
from repro.experiments.report import render_table, dump_json

__all__ = [
    "RoutingOutcome",
    "nue_suite",
    "routing_suite",
    "run_routing",
    "render_table",
    "dump_json",
]

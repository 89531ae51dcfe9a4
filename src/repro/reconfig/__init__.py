"""Planned, deadlock-free reconfiguration (UPR-style transitions).

The subsystem completing the arc from "routes a static network" to
"operates a changing one": :mod:`repro.reconfig.compat` decides when
old and new forwarding states may coexist (union-CDG acyclicity per
virtual layer), :mod:`repro.reconfig.scheduler` orders per-destination
table swaps into a proven zero-drain sequence (with an explicit drain
barrier as the fallback), and :mod:`repro.reconfig.transitions` wraps
the three operational scenarios — repairing, growing, and switching
routing algorithms.  The typed RPC surface
(:class:`repro.service.requests.TransitionRequest`) and the
``repro reconfig`` CLI build on these; see ``docs/reconfiguration.md``.
"""

from repro.reconfig.compat import (
    CompatibilityReport,
    InducedEdges,
    LayerCompat,
    TransitionNotApplicable,
    UnionCDG,
    check_compatibility,
)
from repro.reconfig.scheduler import (
    MigrationPlan,
    TransitionIncompatible,
    TransitionStep,
    apply_plan,
    plan_transition,
    verify_plan,
)
from repro.reconfig.transitions import (
    TransitionOutcome,
    algorithm_transition,
    grow_transition,
    repair_transition,
    translate_result,
)

__all__ = [
    "CompatibilityReport",
    "InducedEdges",
    "LayerCompat",
    "TransitionNotApplicable",
    "UnionCDG",
    "check_compatibility",
    "MigrationPlan",
    "TransitionIncompatible",
    "TransitionStep",
    "apply_plan",
    "plan_transition",
    "verify_plan",
    "TransitionOutcome",
    "algorithm_transition",
    "grow_transition",
    "repair_transition",
    "translate_result",
]

"""Zero-drain migration scheduling with a proven step sequence.

Given two routings of the same network, :func:`plan_transition` emits
an ordered sequence of **per-destination table swaps** that takes the
fabric from the old forwarding state to the new one without ever
letting any virtual layer's union CDG go cyclic:

* a ``swap`` step activates destination ``d``'s new column while the
  old column's dependencies are still considered live (packets routed
  by the old table may still be in flight), so the admissibility test
  is *current state ∪ new(d)* — strictly covering both the transient
  overlap and the post-step mixed state;
* a ``retire`` step removes destinations that exist only in the old
  routing (dependency removal can never create a cycle);
* when no pending destination is admissible, the scheduler falls back
  to a single explicit ``drain`` barrier: traffic to the remaining
  destinations is flushed (their old dependencies disappear), then all
  their new columns are installed at once.  Strategy ``"zero-drain"``
  forbids the fallback and raises :class:`TransitionIncompatible`
  instead; ``"drain"`` forces a plan with exactly one barrier and no
  exploratory swaps; ``"auto"`` tries zero-drain first.

Every committed step carries a proof obligation: the touched layers
are re-proven acyclic with the existing checker
(:meth:`~repro.cdg.complete_cdg.CompleteCDG.assert_acyclic`), and the
per-step proof count is recorded on the plan.  The final state is the
new routing's columns verbatim, so the post-transition tables are
bit-identical to routing the target network from scratch —
:func:`apply_plan` reconstructs any intermediate mixed table and
:func:`verify_plan` re-proves the whole sequence from an edge
accounting of its own (tables and plan only, no scheduler state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.engine import tablestore
from repro.obs import core as obs
from repro.reconfig.compat import (
    CompatibilityReport,
    InducedEdges,
    UnionCDG,
    edge_ids_acyclic,
    union_by_layer,
    union_report,
)
from repro.routing.base import RoutingResult

__all__ = [
    "TransitionIncompatible",
    "TransitionStep",
    "MigrationPlan",
    "plan_transition",
    "apply_plan",
    "verify_plan",
]

STRATEGIES = ("auto", "zero-drain", "drain")


class TransitionIncompatible(RuntimeError):
    """No zero-drain swap order exists and draining was forbidden."""


@dataclass(frozen=True)
class TransitionStep:
    """One committed scheduler step.

    ``kind`` is ``"swap"`` (activate the new columns for ``dests``,
    old traffic may still be in flight), ``"retire"`` (drop old-only
    destinations) or ``"drain"`` (flush traffic to ``dests``, then
    install their new columns).  ``proofs`` counts the per-layer
    acyclicity proofs run when this step committed.
    """

    kind: str
    dests: Tuple[int, ...]
    proofs: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "dests": list(self.dests),
                "proofs": self.proofs}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TransitionStep":
        return cls(kind=str(data["kind"]),
                   dests=tuple(int(d) for d in data["dests"]),
                   proofs=int(data.get("proofs", 0)))


@dataclass
class MigrationPlan:
    """The ordered, proven swap sequence of one transition."""

    steps: List[TransitionStep] = field(default_factory=list)
    #: ``"zero-drain"`` when no barrier was needed, else ``"drain"``
    strategy: str = "zero-drain"
    #: full-union compatibility (sufficient condition held up front)
    compatible: bool = False
    #: total per-layer acyclicity proofs run while planning
    proofs: int = 0
    #: swap candidates rejected by the incremental cycle guard
    blocked_candidates: int = 0
    #: per-layer union summary from :func:`check_compatibility`
    report: Optional[CompatibilityReport] = None

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def n_swaps(self) -> int:
        return sum(1 for s in self.steps if s.kind == "swap")

    @property
    def n_drains(self) -> int:
        return sum(1 for s in self.steps if s.kind == "drain")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "steps": [step.to_dict() for step in self.steps],
            "strategy": self.strategy,
            "compatible": self.compatible,
            "proofs": self.proofs,
            "blocked_candidates": self.blocked_candidates,
            "report": self.report.to_dict() if self.report else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MigrationPlan":
        return cls(
            steps=[TransitionStep.from_dict(s) for s in data["steps"]],
            strategy=str(data.get("strategy", "zero-drain")),
            compatible=bool(data.get("compatible", False)),
            proofs=int(data.get("proofs", 0)),
            blocked_candidates=int(data.get("blocked_candidates", 0)),
        )


def _require_same_space(old: RoutingResult, new: RoutingResult) -> None:
    if old.net.n_nodes != new.net.n_nodes \
            or old.net.n_channels != new.net.n_channels:
        raise ValueError(
            "old and new routings must share one network id space; "
            "translate the old tables into the target network first "
            "(repro.reconfig.transitions.translate_result)"
        )


def plan_transition(
    old: RoutingResult,
    new: RoutingResult,
    *,
    strategy: str = "auto",
) -> MigrationPlan:
    """Schedule per-destination swaps from ``old`` to ``new``.

    Both results must be in the same network id space.  Returns a
    :class:`MigrationPlan` whose every step was proven acyclic with the
    existing checker at commit time; raises
    :class:`TransitionIncompatible` when ``strategy="zero-drain"`` and
    the greedy search exhausts its candidates, and ``ValueError`` when
    either endpoint routing is itself not deadlock-free (no transition
    discipline can fix a broken endpoint).
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    _require_same_space(old, new)
    with obs.span("reconfig.plan", strategy=strategy,
                  dests=len(new.dests)):
        plan = _plan_locked(old, new, strategy)
    if obs.enabled():
        obs.count("reconfig.plans")
        obs.count("reconfig.steps", plan.n_steps)
        obs.count("reconfig.swaps", plan.n_swaps)
        obs.count("reconfig.drains", plan.n_drains)
        obs.count("reconfig.proofs", plan.proofs)
        obs.count("reconfig.blocked_candidates", plan.blocked_candidates)
    return plan


def _plan_locked(old: RoutingResult, new: RoutingResult,
                 strategy: str) -> MigrationPlan:
    old_edges = InducedEdges(old)
    new_edges = InducedEdges(new)
    n_layers = max(old_edges.n_layers, new_edges.n_layers)
    report = union_report(old_edges, new_edges)

    state = UnionCDG(new.net, n_layers)
    for d in old.dests:
        if not state.add_if_acyclic(old_edges.layer_of[d],
                                    old_edges.edges_of[d]):
            raise ValueError(
                "the old routing is not deadlock-free; refusing to plan "
                "a transition from a broken state"
            )
    if not all(edge_ids_acyclic(new.net, eids)
               for eids in new_edges.by_layer(n_layers)):
        raise ValueError(
            "the target routing is not deadlock-free; no swap order "
            "can make the transition safe"
        )

    plan = MigrationPlan(compatible=report.compatible, report=report)
    new_set = set(new.dests)
    old_set = set(old.dests)

    # old-only destinations leave the fabric first: removals are
    # always safe, and they can only widen the admissible set
    gone = [d for d in old.dests if d not in new_set]
    if gone:
        touched = sorted({old_edges.layer_of[d] for d in gone})
        for d in gone:
            state.remove(old_edges.layer_of[d], old_edges.edges_of[d])
        proofs = state.assert_acyclic(touched)
        plan.proofs += proofs
        plan.steps.append(TransitionStep("retire", tuple(gone), proofs))

    pending: List[int] = list(new.dests)
    force_drain = strategy == "drain"
    while pending:
        progressed: List[int] = []
        if not force_drain:
            for d in pending:
                layer = new_edges.layer_of[d]
                if not state.add_if_acyclic(layer, new_edges.edges_of[d]):
                    plan.blocked_candidates += 1
                    continue
                touched = {layer}
                if d in old_set:
                    state.remove(old_edges.layer_of[d],
                                 old_edges.edges_of[d])
                    touched.add(old_edges.layer_of[d])
                proofs = state.assert_acyclic(sorted(touched))
                plan.proofs += proofs
                plan.steps.append(TransitionStep("swap", (d,), proofs))
                progressed.append(d)
        if progressed:
            pending = [d for d in pending if d not in set(progressed)]
            continue
        if strategy == "zero-drain":
            raise TransitionIncompatible(
                f"no compatible zero-drain order exists for the "
                f"{len(pending)} remaining destination(s) "
                f"{pending[:8]}{'...' if len(pending) > 8 else ''}; "
                "re-run with strategy 'drain' (or 'auto') to accept one "
                "drain barrier"
            )
        # drain barrier: old traffic to the remaining destinations is
        # flushed, so their old dependencies vanish before the new
        # columns are installed in one batch
        for d in pending:
            if d in old_set:
                state.remove(old_edges.layer_of[d], old_edges.edges_of[d])
        for d in pending:
            if not state.add_if_acyclic(new_edges.layer_of[d],
                                        new_edges.edges_of[d]):
                raise AssertionError(
                    "post-drain install failed although the target "
                    "routing is deadlock-free"
                )  # pragma: no cover - guarded by the target check
        proofs = state.assert_acyclic()
        plan.proofs += proofs
        plan.steps.append(TransitionStep("drain", tuple(pending), proofs))
        pending = []

    plan.strategy = "drain" if plan.n_drains else "zero-drain"
    if obs.enabled():
        obs.gauge("reconfig.progress", 1.0)
    return plan


def _assignment_after(plan: MigrationPlan, upto: Optional[int]
                      ) -> Tuple[Dict[int, str], Set[int]]:
    """Destination -> source table ("old"/"new") after ``upto`` steps."""
    swapped: Dict[int, str] = {}
    retired: Set[int] = set()
    steps = plan.steps if upto is None else plan.steps[:upto]
    for step in steps:
        if step.kind == "retire":
            retired.update(step.dests)
        else:
            for d in step.dests:
                swapped[d] = "new"
    return swapped, retired


def apply_plan(
    old: RoutingResult,
    new: RoutingResult,
    plan: MigrationPlan,
    upto: Optional[int] = None,
) -> RoutingResult:
    """Materialise the mixed forwarding state after ``upto`` steps.

    ``upto=None`` applies the whole plan, whose tables are bit-identical
    to ``new`` by construction (every destination's final column is the
    new routing's column verbatim).  Intermediate states carry the old
    column for not-yet-swapped destinations; destinations that only
    exist in the new routing appear once their install step has run.
    """
    _require_same_space(old, new)
    swapped, retired = _assignment_after(plan, upto)
    dests: List[int] = []
    cols: List[np.ndarray] = []
    vls: List[np.ndarray] = []
    old_set = set(old.dests)
    for d in new.dests:
        if swapped.get(d) == "new":
            j = new.dest_index(d)
            dests.append(d)
            cols.append(new.next_channel[:, j])
            vls.append(new.vl[:, j])
        elif d in old_set:
            j = old.dest_index(d)
            dests.append(d)
            cols.append(old.next_channel[:, j])
            vls.append(old.vl[:, j])
    for d in old.dests:
        if d not in retired and d not in set(new.dests) \
                and d not in swapped:
            j = old.dest_index(d)
            dests.append(d)
            cols.append(old.next_channel[:, j])
            vls.append(old.vl[:, j])
    # a transition already holds the old and new tables live at once;
    # the mixed state lands in its own private table (column-wise
    # writes, no np.stack staging copy; nothing fans out over it)
    table = tablestore.create_table(new.net.n_nodes, len(dests))
    for j, (c, v) in enumerate(zip(cols, vls)):
        table.next_channel[:, j] = c
        table.vl[:, j] = v
    mixed = RoutingResult(
        net=new.net,
        dests=dests,
        next_channel=table.next_channel,
        vl=table.vl,
        n_vls=max(old.n_vls, new.n_vls),
        algorithm=f"transition({old.algorithm}->{new.algorithm})",
    )
    return mixed


def verify_plan(
    old: RoutingResult,
    new: RoutingResult,
    plan: MigrationPlan,
) -> int:
    """Independently re-prove every intermediate union-CDG of a plan.

    Replays the schedule with a from-scratch edge accounting — built
    from the two tables and the plan, never from scheduler state — and
    the library's one Kahn check: after every step — and *during* every
    swap, with the swapped destination's old and new dependencies
    simultaneously live — each layer's union edge set must be acyclic.
    Returns the number of states checked; raises ``AssertionError`` on
    any violation or if the final assignment is not exactly the new
    routing.
    """
    _require_same_space(old, new)
    old_edges = InducedEdges(old)
    new_edges = InducedEdges(new)
    n_layers = max(old_edges.n_layers, new_edges.n_layers)
    net = new.net

    def column(d: int, which: str) -> Tuple[int, np.ndarray]:
        edges = new_edges if which == "new" else old_edges
        return edges.layer_of[d], edges.edges_of[d]

    def check(assignment: Dict[int, str], label: str,
              arriving: Sequence[int] = ()) -> None:
        """Assert every layer acyclic under ``assignment``, with the
        new columns of ``arriving`` live on top (a swap's transient)."""
        columns = [column(d, which) for d, which in assignment.items()]
        columns += [column(d, "new") for d in arriving]
        what = "transient union CDG" if arriving else "union CDG"
        for layer, eids in enumerate(union_by_layer(n_layers, columns)):
            assert edge_ids_acyclic(net, eids), (
                f"{label}: {what} of layer {layer} is cyclic")

    assignment: Dict[int, str] = {d: "old" for d in old.dests}
    states = 0
    check(assignment, "initial state")
    states += 1
    for i, step in enumerate(plan.steps):
        if step.kind == "retire":
            for d in step.dests:
                assignment.pop(d, None)
        elif step.kind == "swap":
            # transient: old and new columns of the swapped dests are
            # simultaneously live while in-flight packets drain
            transient = dict(assignment)
            for d in step.dests:
                if d in assignment:
                    transient[d] = "old"
            check(transient, f"step {i} (swap {step.dests})",
                  arriving=step.dests)
            states += 1
            for d in step.dests:
                assignment[d] = "new"
        elif step.kind == "drain":
            # the barrier flushes old traffic first: no transient union
            for d in step.dests:
                assignment[d] = "new"
        else:
            raise AssertionError(f"unknown step kind {step.kind!r}")
        check(assignment, f"after step {i} ({step.kind})")
        states += 1
    final = {d: which for d, which in assignment.items()}
    assert set(final) == set(new.dests), (
        "plan does not cover the target destination set")
    assert all(which == "new" for which in final.values()), (
        "plan leaves destinations on their old tables")
    mixed = apply_plan(old, new, plan)
    assert list(mixed.dests) == list(new.dests)
    assert np.array_equal(mixed.next_channel, new.next_channel), (
        "final tables differ from the from-scratch routing")
    assert np.array_equal(mixed.vl, new.vl)
    return states

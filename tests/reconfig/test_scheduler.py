"""Scheduler tests: proven swap orders, the drain fallback, plan codec.

The drain fixture is a deliberately incompatible pair of hand-built
routings on a 4-switch ring: the old state reaches ``t0_0``
counter-clockwise and ``t2_0`` clockwise, the new state reverses both
orientations, so *either* first swap closes a cycle with the other
destination's still-live old dependencies — no zero-drain order exists
and the scheduler must fall back to a single drain barrier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import make_algorithm, topologies
from repro.reconfig import (
    MigrationPlan,
    TransitionIncompatible,
    TransitionStep,
    apply_plan,
    check_compatibility,
    plan_transition,
    verify_plan,
)
from repro.routing.base import RoutingResult


def _route(net, name="nue", max_vls=2, seed=7, **config):
    return make_algorithm(name, max_vls=max_vls, **config).route(
        net, seed=seed)


@pytest.fixture
def ring4():
    return topologies.ring(4, terminals_per_switch=1)


def _build(net, dest_trees):
    """RoutingResult from {dest_name: {src_name: next_hop_name}}."""
    name = {n: i for i, n in enumerate(net.node_names)}

    def ch(u, v):
        return net.find_channels(name[u], name[v])[0]

    dests = [name[d] for d in dest_trees]
    nxt = np.full((net.n_nodes, len(dests)), -1, dtype=np.int32)
    for j, (dname, tree) in enumerate(dest_trees.items()):
        for src, hop in tree.items():
            if src == dname:
                continue
            nxt[name[src], j] = ch(src, hop)
    vl = np.zeros_like(nxt, dtype=np.int8)
    return RoutingResult(net=net, dests=dests, next_channel=nxt, vl=vl,
                         n_vls=1, algorithm="manual")


@pytest.fixture
def incompatible_pair(ring4):
    inject = {f"t{i}_0": f"s{i}" for i in range(4)}
    old = _build(ring4, {
        "t0_0": {**inject, "s0": "t0_0", "s1": "s0", "s2": "s1",
                 "s3": "s2"},
        "t2_0": {**inject, "s2": "t2_0", "s3": "s0", "s0": "s1",
                 "s1": "s2"},
    })
    new = _build(ring4, {
        "t0_0": {**inject, "s0": "t0_0", "s1": "s2", "s2": "s3",
                 "s3": "s0"},
        "t2_0": {**inject, "s2": "t2_0", "s1": "s0", "s0": "s3",
                 "s3": "s2"},
    })
    return old, new


class TestZeroDrain:
    def test_same_algorithm_reseed(self, ring6):
        old = _route(ring6, seed=1)
        new = _route(ring6, seed=2)
        plan = plan_transition(old, new)
        assert plan.n_steps >= 1
        assert verify_plan(old, new, plan) >= plan.n_steps + 1

    def test_final_state_is_new_verbatim(self, mesh33):
        old = _route(mesh33, "updn", max_vls=1)
        new = _route(mesh33, max_vls=1)
        plan = plan_transition(old, new)
        final = apply_plan(old, new, plan)
        assert list(final.dests) == list(new.dests)
        np.testing.assert_array_equal(final.next_channel,
                                      new.next_channel)
        np.testing.assert_array_equal(final.vl, new.vl)

    def test_intermediate_states_mix_tables(self, ring6):
        old = _route(ring6, seed=1)
        new = _route(ring6, seed=2)
        plan = plan_transition(old, new)
        swapped_first = plan.steps[0].dests
        mid = apply_plan(old, new, plan, upto=1)
        for d in new.dests:
            j = mid.dest_index(d)
            src = new if d in swapped_first else old
            np.testing.assert_array_equal(
                mid.next_channel[:, j],
                src.next_channel[:, src.dest_index(d)])

    def test_proof_accounting(self, ring6):
        old = _route(ring6, seed=1)
        new = _route(ring6, seed=2)
        plan = plan_transition(old, new)
        assert plan.proofs == sum(s.proofs for s in plan.steps)
        assert plan.proofs >= plan.n_steps


class TestOneLiftOneOverlay:
    def test_plan_lifts_each_table_once(self, torus443, monkeypatch):
        """One plan = one ``InducedEdges`` per table and one
        ``CompleteCDG`` per layer (the scheduler's ``state``): the
        compatibility report and the target proof reuse the lifts and
        build no CDG of their own."""
        from repro.cdg.complete_cdg import CompleteCDG
        from repro.reconfig.compat import InducedEdges

        built = {InducedEdges: 0, CompleteCDG: 0}
        for cls in built:
            def counting(self, *args, _cls=cls, _init=cls.__init__):
                built[_cls] += 1
                _init(self, *args)
            monkeypatch.setattr(cls, "__init__", counting)
        old = _route(torus443, "updn", seed=1)
        new = _route(torus443, seed=3)
        built[InducedEdges] = built[CompleteCDG] = 0  # routing's own
        plan = plan_transition(old, new)
        assert plan.report is not None
        assert built[InducedEdges] == 2
        assert built[CompleteCDG] == len(plan.report.layers) == 2


class TestDrainFallback:
    def test_auto_falls_back_to_one_barrier(self, incompatible_pair):
        old, new = incompatible_pair
        report = check_compatibility(old, new)
        assert not report.compatible
        plan = plan_transition(old, new, strategy="auto")
        assert plan.strategy == "drain"
        assert plan.n_swaps == 0
        assert plan.n_drains == 1
        assert plan.blocked_candidates >= 2
        [drain] = [s for s in plan.steps if s.kind == "drain"]
        assert set(drain.dests) == set(new.dests)
        assert verify_plan(old, new, plan) >= 2

    def test_zero_drain_refuses(self, incompatible_pair):
        old, new = incompatible_pair
        with pytest.raises(TransitionIncompatible, match="drain"):
            plan_transition(old, new, strategy="zero-drain")

    def test_forced_drain_skips_swap_search(self, incompatible_pair):
        old, new = incompatible_pair
        plan = plan_transition(old, new, strategy="drain")
        assert plan.strategy == "drain"
        assert plan.n_swaps == 0
        assert plan.blocked_candidates == 0
        assert verify_plan(old, new, plan) >= 2

    def test_forced_drain_on_compatible_pair(self, ring6):
        old = _route(ring6, seed=1)
        new = _route(ring6, seed=2)
        plan = plan_transition(old, new, strategy="drain")
        assert plan.n_drains == 1
        assert plan.n_swaps == 0
        assert verify_plan(old, new, plan) >= 2

    def test_unknown_strategy(self, ring6):
        old = _route(ring6, seed=1)
        with pytest.raises(ValueError, match="strategy"):
            plan_transition(old, old, strategy="bogus")


class TestBrokenEndpoints:
    def test_cyclic_old_routing_refused(self, ring4, incompatible_pair):
        _, new = incompatible_pair
        inject = {f"t{i}_0": f"s{i}" for i in range(4)}
        # minhop-style ring routing: both dests circulate clockwise and
        # the two trees together close the full ring cycle on layer 0
        broken = _build(ring4, {
            "t0_0": {**inject, "s0": "t0_0", "s1": "s2", "s2": "s3",
                     "s3": "s0"},
            "t2_0": {**inject, "s2": "t2_0", "s3": "s0", "s0": "s1",
                     "s1": "s2"},
        })
        with pytest.raises(ValueError,
                           match="old routing is not deadlock-free"):
            plan_transition(broken, new)
        with pytest.raises(ValueError,
                           match="target routing is not deadlock-free"):
            plan_transition(new, broken)


class TestPlanCodec:
    def test_round_trip(self, incompatible_pair):
        old, new = incompatible_pair
        plan = plan_transition(old, new, strategy="auto")
        data = plan.to_dict()
        back = MigrationPlan.from_dict(data)
        assert back.strategy == plan.strategy
        assert back.compatible == plan.compatible
        assert back.proofs == plan.proofs
        assert back.blocked_candidates == plan.blocked_candidates
        assert back.steps == plan.steps
        # the reconstructed plan re-verifies against the same endpoints
        assert verify_plan(old, new, back) >= 2

    def test_step_codec(self):
        step = TransitionStep("swap", (3, 1), proofs=2)
        assert TransitionStep.from_dict(step.to_dict()) == step

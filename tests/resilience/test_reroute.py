"""Incremental fail-in-place repair: validity, determinism, reuse."""

import pickle

import numpy as np
import pytest

import repro.core.nue as nue_mod
from repro.metrics import is_deadlock_free, validate_routing
from repro.network.faults import remove_links
from repro.network.topologies import k_ary_n_tree, ring, torus
from repro.resilience import (
    IncrementalNotApplicable,
    dirty_destinations,
    exact_reroute,
    incremental_reroute,
    translate_to_degraded,
)
from repro.resilience.reroute import REFUSAL_REASONS
from repro.routing import make_algorithm


def _s2s_link(net, index=0):
    """The ``index``-th switch-to-switch link and its channel ids."""
    picked = [
        li for li, (u, v) in enumerate(net.links())
        if net.is_switch(u) and net.is_switch(v)
    ][index]
    return picked, [2 * picked, 2 * picked + 1]


class TestDirtyDestinations:
    def test_empty_for_no_failures(self):
        net = ring(6, terminals_per_switch=1)
        prior = make_algorithm("nue", 2).route(net, seed=3)
        assert dirty_destinations(prior, []) == []

    def test_flags_destinations_using_channel(self):
        net = torus((3, 3), terminals_per_switch=1)
        prior = make_algorithm("nue", 2).route(net, seed=3)
        _, chans = _s2s_link(net, 4)
        dirty = set(dirty_destinations(prior, chans))
        for j, d in enumerate(prior.dests):
            uses = bool(np.isin(prior.next_channel[:, j], chans).any())
            assert (d in dirty) == uses


class TestIncrementalReroute:
    @pytest.mark.parametrize("dims,vls", [((4, 4, 3), 3), ((3, 3), 2)])
    def test_repaired_routing_is_valid(self, dims, vls):
        net = torus(dims, terminals_per_switch=1)
        prior = make_algorithm("nue", vls).route(net, seed=11)
        _, chans = _s2s_link(net, 1)
        repaired, stats = incremental_reroute(
            net, prior, chans, max_vls=vls, seed=11
        )
        validate_routing(repaired)
        assert is_deadlock_free(repaired)
        # no surviving route crosses the failed channels
        assert not np.isin(repaired.next_channel, chans).any()
        assert stats["dests_recomputed"] == stats["dests_dirty"]
        assert 0 < stats["dests_dirty"] < stats["dests_total"]

    def test_clean_columns_preserved_bitwise(self):
        net = torus((4, 4, 3), terminals_per_switch=1)
        prior = make_algorithm("nue", 3).route(net, seed=11)
        _, chans = _s2s_link(net, 1)
        repaired, _ = incremental_reroute(
            net, prior, chans, max_vls=3, seed=11
        )
        dirty = set(dirty_destinations(prior, chans))
        for j, d in enumerate(prior.dests):
            if d not in dirty:
                assert np.array_equal(
                    repaired.next_channel[:, j],
                    prior.next_channel[:, j],
                ), f"clean column {d} changed"

    def test_deterministic(self):
        net = torus((3, 3), terminals_per_switch=1)
        prior = make_algorithm("nue", 2).route(net, seed=7)
        _, chans = _s2s_link(net, 2)
        a, _ = incremental_reroute(net, prior, chans, max_vls=2, seed=7)
        b, _ = incremental_reroute(net, prior, chans, max_vls=2, seed=7)
        assert np.array_equal(a.next_channel, b.next_channel)

    def test_idempotent_when_nothing_new_dirty(self):
        # a repaired routing avoids the retired set, so repairing it
        # again under the same set finds no dirty destination and
        # returns the input unchanged
        net = torus((3, 3), terminals_per_switch=1)
        prior = make_algorithm("nue", 2).route(net, seed=7)
        _, chans = _s2s_link(net, 2)
        repaired, _ = incremental_reroute(net, prior, chans, max_vls=2,
                                          seed=7)
        again, stats = incremental_reroute(net, repaired, chans,
                                           max_vls=2, seed=7)
        assert again is repaired
        assert stats["dests_dirty"] == 0
        assert stats["dests_recomputed"] == 0

    def test_cumulative_failures_compose(self):
        net = torus((4, 4, 3), terminals_per_switch=1)
        prior = make_algorithm("nue", 3).route(net, seed=11)
        _, first = _s2s_link(net, 1)
        one, _ = incremental_reroute(net, prior, first, max_vls=3,
                                     seed=11)
        _, second = _s2s_link(net, 40)
        both, _ = incremental_reroute(net, one, first + second,
                                      max_vls=3, seed=11)
        validate_routing(both)
        assert not np.isin(both.next_channel, first + second).any()

    def test_non_nue_not_applicable(self):
        net = ring(6, terminals_per_switch=1)
        prior = make_algorithm("updn", 1).route(net, seed=3)
        with pytest.raises(IncrementalNotApplicable, match="nue") as info:
            incremental_reroute(net, prior, [0, 1], seed=3)
        assert info.value.reason == "algorithm"

    def test_lost_injection_channel_not_applicable(self):
        net = ring(6, terminals_per_switch=1)
        prior = make_algorithm("nue", 1).route(net, seed=3)
        t = net.terminals[0]
        inj = net.csr.injection_channel[t]
        with pytest.raises(IncrementalNotApplicable,
                           match="orphan|injection") as info:
            incremental_reroute(net, prior, [inj], seed=3)
        assert info.value.reason == "injection_lost"

    def test_disconnecting_failure_not_applicable(self):
        # killing both links of a 1-redundancy ring node partitions it
        net = ring(6, terminals_per_switch=1)
        prior = make_algorithm("nue", 1).route(net, seed=3)
        li0, _ = _s2s_link(net, 0)
        s = net.links()[li0][1]
        adj = [
            li for li, (u, v) in enumerate(net.links())
            if s in (u, v) and net.is_switch(u) and net.is_switch(v)
        ]
        chans = [c for li in adj for c in (2 * li, 2 * li + 1)]
        with pytest.raises(IncrementalNotApplicable) as info:
            incremental_reroute(net, prior, chans, seed=3)
        assert info.value.reason == "disconnected"

    def test_reason_survives_pickling(self):
        """Pool workers hand refusals back pickled."""
        exc = IncrementalNotApplicable("escape tree moved",
                                       "retained_conflict")
        back = pickle.loads(pickle.dumps(exc))
        assert (str(back), back.reason) == (str(exc), exc.reason)
        assert exc.reason in REFUSAL_REASONS

    def test_fault_sweep_keeps_every_root(self, monkeypatch):
        """Single switch-link faults on torus443 at k=1 and k=2.  A
        repair re-selects each dirty layer's root on the *original*
        net with the same subset, so the root never moves; the refusals
        that remain are the rebuilt escape *tree* (it avoids the failed
        link) blocking a retained column."""
        calls = []
        select_root = nue_mod.select_root

        def recording(net, subset, all_dests=False):
            root = select_root(net, subset, all_dests=all_dests)
            calls.append((tuple(subset), root))
            return root

        monkeypatch.setattr(nue_mod, "select_root", recording)
        net = torus((4, 4, 3), terminals_per_switch=2)
        reasons = []
        for k in (1, 2):
            calls.clear()
            prior = make_algorithm("nue", k, workers=1).route(net, seed=3)
            prior_roots = dict(calls)
            for index in range(12):
                calls.clear()
                _, chans = _s2s_link(net, index)
                try:
                    incremental_reroute(net, prior, chans, max_vls=k,
                                        seed=3, workers=1)
                except IncrementalNotApplicable as exc:
                    reasons.append((k, index, exc.reason))
                assert calls, "every link here dirties a layer"
                for subset, root in calls:
                    assert root == prior_roots[subset]
        assert reasons == [
            (1, 4, "retained_conflict"), (1, 7, "retained_conflict"),
            (1, 8, "retained_conflict"), (2, 9, "retained_conflict"),
            (2, 10, "retained_conflict"), (2, 11, "retained_conflict"),
        ]


class TestExactRerouteAndTranslate:
    def test_exact_matches_direct_route(self):
        net = k_ary_n_tree(2, 2)
        algo = make_algorithm("nue", 2)
        li, _ = _s2s_link(net, 0)
        fault = remove_links(net, [li])
        a = exact_reroute(fault, algo, seed=5)
        b = algo.route(fault.net, seed=5)
        assert np.array_equal(a.next_channel, b.next_channel)
        assert np.array_equal(a.vl, b.vl)

    def test_translate_to_degraded_ids(self):
        net = torus((3, 3), terminals_per_switch=1)
        prior = make_algorithm("nue", 2).route(net, seed=7)
        li, chans = _s2s_link(net, 2)
        repaired, _ = incremental_reroute(net, prior, chans, max_vls=2,
                                          seed=7)
        fault = remove_links(net, [li])
        moved = translate_to_degraded(repaired, fault)
        assert moved.net is fault.net
        validate_routing(moved)
        # same physical hops, expressed in the compacted id space
        src, dst = net.terminals[0], net.terminals[-1]
        old = [net.node_names[x]
               for x in repaired.path_nodes(src, dst)]
        names = fault.net.node_names
        new = [names[x] for x in moved.path_nodes(
            names.index(net.node_names[src]),
            names.index(net.node_names[dst]))]
        assert old == new

    def test_translate_requires_node_preservation(self):
        from repro.network.faults import remove_switches

        net = torus((3, 3), terminals_per_switch=1)
        prior = make_algorithm("nue", 2).route(net, seed=7)
        fault = remove_switches(net, [net.switches[0]])
        with pytest.raises(ValueError, match="node-preserving"):
            translate_to_degraded(prior, fault)


class TestPinnedLinkRepair:
    """The fail-in-place claim is quantitative: one failed link on the
    4x4x3 torus recomputes < 30 % of the destinations — only those
    whose forwarding trees crossed it.  The link is pinned
    (``s0_0_0--s0_1_0``, an average-traffic edge under seed 11), so
    the counts are deterministic."""

    SEED = 11
    MAX_VLS = 3

    @pytest.fixture(scope="class")
    def pinned(self):
        net = torus((4, 4, 3), terminals_per_switch=1)
        prior = make_algorithm("nue", self.MAX_VLS).route(net, seed=self.SEED)
        names = net.node_names
        li = next(i for i, (u, v) in enumerate(net.links())
                  if {names[u], names[v]} == {"s0_0_0", "s0_1_0"})
        return net, prior, [2 * li, 2 * li + 1]

    def test_repair_recomputes_only_the_dirty_minority(self, pinned):
        net, prior, chans = pinned
        repaired, stats = incremental_reroute(
            net, prior, chans, max_vls=self.MAX_VLS, seed=self.SEED)
        recomputed = stats["dests_recomputed"]
        assert recomputed == stats["dests_dirty"] > 0
        assert recomputed / stats["dests_total"] < 0.30
        assert not np.isin(repaired.next_channel, chans).any()

    def test_dirty_set_is_a_minority(self, pinned):
        _net, prior, chans = pinned
        dirty = dirty_destinations(prior, chans)
        assert 0 < len(dirty) < len(prior.dests) * 0.30

    def test_exact_reroute_stays_within_max_vls(self, pinned):
        net, _prior, chans = pinned
        fault = remove_links(net, [chans[0] // 2])
        result = make_algorithm("nue", self.MAX_VLS).route(
            fault.net, seed=self.SEED)
        assert result.n_vls <= self.MAX_VLS

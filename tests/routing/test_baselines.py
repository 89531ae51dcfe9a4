"""Baseline routing algorithms: validity, structure, known properties."""

import pytest

from conftest import small_network_zoo
from repro.metrics import (
    is_deadlock_free,
    path_length_stats,
    required_vcs,
    validate_routing,
)
from repro.network.faults import remove_switches
from repro.network.topologies import (
    k_ary_n_tree,
    mesh,
    random_topology,
    ring,
    torus,
)
from repro.routing import (
    DFSSSPRouting,
    DORRouting,
    DownUpRouting,
    FatTreeRouting,
    LASHRouting,
    MinHopRouting,
    NotApplicableError,
    RoutingError,
    Torus2QoSRouting,
    UpDownRouting,
    available_algorithms,
    make_algorithm,
)


class TestMinHop:
    def test_paths_minimal(self, ring6):
        res = MinHopRouting().route(ring6)
        levels = {
            d: ring6.bfs_levels(d) for d in res.dests
        }
        for d in res.dests:
            for s in ring6.terminals:
                if s != d:
                    assert res.hop_count(s, d) == levels[d][s]

    def test_not_deadlock_free_on_ring(self, ring6):
        res = MinHopRouting().route(ring6)
        assert not is_deadlock_free(res)
        assert required_vcs(res) >= 2

    def test_deadlock_free_on_tree(self, tree42):
        res = MinHopRouting().route(tree42)
        assert is_deadlock_free(res)

    def test_balances_parallel_choices(self):
        net = torus([4, 4], 4)
        res = MinHopRouting().route(net)
        validate_routing(res, check_deadlock=False)


class TestUpDown:
    def test_valid_everywhere(self):
        for name, build in small_network_zoo():
            net = build()
            res = UpDownRouting().route(
                net, dests=None if net.terminals else range(net.n_nodes)
            )
            validate_routing(res)

    def test_one_virtual_layer(self, ring6):
        res = UpDownRouting().route(ring6)
        assert res.n_vls == 1
        assert required_vcs(res) == 1

    def test_updown_phase_property(self, torus443):
        """No up hop may follow a down hop on any route."""
        res = UpDownRouting().route(torus443)
        root = torus443.node_names.index(res.stats["root"])
        levels = torus443.bfs_levels(root)

        def key(v):
            return (levels[v], v)

        for d in res.dests[:8]:
            for s in torus443.terminals[:20]:
                if s == d:
                    continue
                nodes = [
                    v for v in res.path_nodes(s, d)
                    if torus443.is_switch(v)
                ]
                went_down = False
                for a, b in zip(nodes, nodes[1:]):
                    down = key(b) > key(a)
                    if went_down:
                        assert down, f"up after down on {s}->{d}"
                    went_down = went_down or down

    def test_explicit_root(self, ring6):
        res = UpDownRouting(root=ring6.switches[2]).route(ring6)
        assert res.stats["root"] == ring6.node_names[ring6.switches[2]]
        validate_routing(res)

    def test_dnup_valid_on_torus(self, torus443):
        res = DownUpRouting().route(torus443)
        validate_routing(res)

    def test_dnup_may_fail_on_unsuited_topology(self):
        """dnup legitimately cannot route some fabrics (OpenSM falls
        back to minhop in that case); it must *fail*, not emit broken
        tables."""
        net = random_topology(20, 60, 3, seed=5)
        try:
            res = DownUpRouting().route(net)
        except RoutingError:
            return
        validate_routing(res)


class TestDOR:
    def test_valid_on_pristine_torus(self, torus443):
        res = DORRouting().route(torus443)
        validate_routing(res, check_deadlock=False)

    def test_dimension_order_property(self, torus443):
        from repro.network.topologies import torus_coordinates
        res = DORRouting().route(torus443)
        dims, coords = torus_coordinates(torus443)
        for d in res.dests[:6]:
            for s in torus443.terminals[:12]:
                if s == d:
                    continue
                sw = [
                    coords[v] for v in res.path_nodes(s, d)
                    if torus443.is_switch(v)
                ]
                changed = [
                    next(i for i in range(3) if a[i] != b[i])
                    for a, b in zip(sw, sw[1:])
                ]
                assert changed == sorted(changed), "dims out of order"

    def test_mesh_dor_is_deadlock_free(self):
        net = mesh([4, 4], 2)
        res = DORRouting().route(net)
        assert is_deadlock_free(res)

    def test_torus_dor_is_not(self, torus443):
        res = DORRouting().route(torus443)
        assert not is_deadlock_free(res)

    def test_fails_on_faulty_torus(self):
        net = remove_switches(torus([4, 4, 3], 1), [0])
        with pytest.raises(RoutingError):
            DORRouting().route(net)

    def test_not_applicable_off_torus(self, ring6):
        with pytest.raises(NotApplicableError):
            DORRouting().route(ring6)


class TestTorus2QoS:
    def test_valid_and_dl_free(self, torus443):
        res = Torus2QoSRouting().route(torus443)
        validate_routing(res)
        assert res.n_vls == 2

    def test_per_hop_vls_transition_at_dateline(self, torus443):
        res = Torus2QoSRouting().route(torus443)
        transitions = 0
        for d in res.dests[:10]:
            for s in torus443.terminals[:20]:
                if s == d:
                    continue
                vls = res.path_vls(s, d)
                assert all(v in (0, 1) for v in vls)
                # VL never drops back within one dimension segment is
                # hard to check cheaply; count that transitions exist
                if 1 in vls:
                    transitions += 1
        assert transitions > 0

    def test_survives_single_switch_failure(self):
        net = remove_switches(torus([4, 4, 3], 2), [5])
        res = Torus2QoSRouting().route(net)
        validate_routing(res)
        assert is_deadlock_free(res)

    def test_rejects_double_fault_in_ring(self):
        net = torus([5, 4, 4], 1)
        # two failed switches in the same dim-0 ring (same y, z)
        from repro.network.topologies import torus_coordinates
        dims, coords = torus_coordinates(net)
        ring_switches = [
            s for s, c in coords.items() if c[1] == 0 and c[2] == 0
        ]
        net2 = remove_switches(net, ring_switches[:2])
        with pytest.raises(RoutingError, match="failures in one"):
            Torus2QoSRouting().route(net2)

    def test_not_applicable_on_mesh(self):
        net = mesh([3, 3], 1)
        with pytest.raises(NotApplicableError):
            Torus2QoSRouting().route(net)

    def test_requires_two_vls(self):
        with pytest.raises(ValueError):
            Torus2QoSRouting(max_vls=1)


class TestFatTree:
    def test_valid_and_minimal(self, tree42):
        res = FatTreeRouting().route(tree42)
        validate_routing(res)
        stats = path_length_stats(res)
        # 4-ary 2-tree: max terminal-to-terminal distance is 4 hops
        assert stats.maximum <= 4

    def test_dmodk_spreads_up_links(self, tree42):
        """Different destinations on the same leaf climb through
        different top switches."""
        res = FatTreeRouting().route(tree42)
        leaf = tree42.terminal_switch(tree42.terminals[0])
        ups = {
            res.next_hop_channel(leaf, d)
            for d in tree42.terminals[4:8]  # all on the second leaf
        }
        assert len(ups) > 1

    def test_oversubscribed_tree(self):
        net = k_ary_n_tree(3, 2, terminals=12)
        res = FatTreeRouting().route(net)
        validate_routing(res)

    def test_not_applicable_elsewhere(self, ring6):
        with pytest.raises(NotApplicableError):
            FatTreeRouting().route(ring6)

    def test_deadlock_free(self, tree42):
        assert is_deadlock_free(FatTreeRouting().route(tree42))


class TestLASH:
    def test_valid_and_minimal(self, ring6):
        res = LASHRouting().route(ring6)
        validate_routing(res)
        levels = {d: ring6.bfs_levels(d) for d in res.dests}
        for d in res.dests:
            for s in ring6.terminals:
                if s != d:
                    assert res.hop_count(s, d) == levels[d][s]

    def test_layers_reported(self, torus443):
        res = LASHRouting().route(torus443)
        assert res.stats["layers"] == res.n_vls
        assert res.n_vls >= 2  # a torus cannot be minimal in one layer

    def test_vc_budget_enforced(self, torus443):
        with pytest.raises(RoutingError, match="virtual layers"):
            LASHRouting(max_vls=1).route(torus443)

    def test_pairs_share_layer_per_switch(self, ring6):
        res = LASHRouting().route(ring6)
        for j, d in enumerate(res.dests):
            for t in ring6.terminals:
                ts = ring6.terminal_switch(t)
                if ts != (d if ring6.is_switch(d)
                          else ring6.terminal_switch(d)):
                    assert res.vl[t, j] == res.vl[ts, j]


class TestDFSSSP:
    def test_valid_and_dl_free(self, ring6):
        res = DFSSSPRouting().route(ring6)
        validate_routing(res)

    def test_minimal_paths(self, random_small):
        res = DFSSSPRouting(max_vls=16).route(random_small)
        levels = {d: random_small.bfs_levels(d) for d in res.dests}
        for d in res.dests[:10]:
            for s in random_small.terminals[:15]:
                if s != d:
                    assert res.hop_count(s, d) == levels[d][s]

    def test_required_vls_stat(self, torus443):
        res = DFSSSPRouting(max_vls=16).route(torus443)
        assert res.stats["required_vls"] == res.n_vls
        assert res.n_vls >= 2

    def test_budget_exceeded_raises(self, torus443):
        with pytest.raises(RoutingError, match="virtual layers"):
            DFSSSPRouting(max_vls=1).route(torus443)

    def test_spread_layers_stays_dl_free(self, torus443):
        res = DFSSSPRouting(max_vls=8, spread_layers=True).route(torus443)
        validate_routing(res)
        assert res.n_vls >= res.stats["required_vls"]


class TestRegistry:
    def test_registry_names(self):
        baselines = {
            "minhop", "updn", "dnup", "dor", "torus-2qos",
            "ftree", "lash", "dfsssp",
        }
        assert baselines <= set(available_algorithms())
        for name in baselines:
            assert make_algorithm(name, max_vls=4).name == name

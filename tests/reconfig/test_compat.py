"""Unit tests for the union-CDG compatibility layer.

``InducedEdges`` must recover exactly the Def.-6 dependency edges a
forwarding tree uses, ``UnionCDG`` must refcount shared edges and roll
candidate overlays back exactly, and ``check_compatibility`` — like the
one Kahn check under it — must agree with networkx on every layer
verdict.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.api import make_algorithm, topologies
from repro.reconfig import (
    InducedEdges,
    TransitionNotApplicable,
    UnionCDG,
    check_compatibility,
)
from repro.reconfig.compat import edge_ids_acyclic
from repro.routing.base import RoutingResult


def _route(net, name="nue", max_vls=2, seed=7, **config):
    return make_algorithm(name, max_vls=max_vls, **config).route(
        net, seed=seed)


def _manual(net, columns):
    """RoutingResult from {dest: {src: next_channel}} dicts (VL 0)."""
    dests = sorted(columns)
    nxt = np.full((net.n_nodes, len(dests)), -1, dtype=np.int32)
    for j, d in enumerate(dests):
        for src, chan in columns[d].items():
            nxt[src, j] = chan
    vl = np.zeros_like(nxt, dtype=np.int8)
    return RoutingResult(net=net, dests=dests, next_channel=nxt, vl=vl,
                         n_vls=1, algorithm="manual")


class TestInducedEdges:
    def test_edges_match_table_walk(self, ring6):
        """Every induced edge is a Def.-6 edge actually walked by the
        tables, and every consecutive channel pair of the tables is
        induced."""
        result = _route(ring6)
        induced = InducedEdges(result)
        csr = ring6.csr
        channel_dst = np.asarray(ring6.channel_dst)
        for col, d in enumerate(result.dests):
            want = set()
            for src in range(ring6.n_nodes):
                cp = int(result.next_channel[src, col])
                if cp < 0:
                    continue
                cq = int(result.next_channel[int(channel_dst[cp]), col])
                if cq < 0:
                    continue
                eid = csr.edge_id(cp, cq)
                assert eid >= 0
                want.add(eid)
            assert set(int(e) for e in induced.edges_of[d]) == want

    def test_layer_constant_columns(self, torus443):
        result = _route(torus443, max_vls=2, seed=3)
        induced = InducedEdges(result)
        assert induced.n_layers >= result.n_vls
        for col, d in enumerate(result.dests):
            mask = result.next_channel[:, col] >= 0
            layers = set(result.vl[mask, col].tolist())
            assert layers == {induced.layer_of[d]}

    def test_mixed_layer_column_rejected(self, ring6):
        result = _route(ring6, max_vls=2)
        result.vl = result.vl.copy()
        col = 0
        rows = np.flatnonzero(result.next_channel[:, col] >= 0)
        assert rows.size >= 2
        result.vl[rows[0], col] = 0
        result.vl[rows[1], col] = 1
        with pytest.raises(TransitionNotApplicable, match="virtual"):
            InducedEdges(result)

    def test_180_degree_turn_rejected(self):
        net = topologies.ring(4, terminals_per_switch=1)
        c01 = net.find_channels(0, 1)[0]
        c10 = net.find_channels(1, 0)[0]
        dest = 2
        result = _manual(net, {dest: {0: c01, 1: c10}})
        with pytest.raises(TransitionNotApplicable, match="180"):
            InducedEdges(result)


class TestUnionCDG:
    def test_refcounted_add_remove(self, ring6):
        result = _route(ring6)
        induced = InducedEdges(result)
        union = UnionCDG(ring6, induced.n_layers)
        d0, d1 = result.dests[0], result.dests[1]
        layer = induced.layer_of[d0]
        assert union.add_if_acyclic(layer, induced.edges_of[d0])
        count_one = union.edge_count(layer)
        # a second column sharing edges only refcounts the overlap
        if induced.layer_of[d1] == layer:
            assert union.add_if_acyclic(layer, induced.edges_of[d1])
            union.remove(layer, induced.edges_of[d1])
        assert union.edge_count(layer) == count_one
        union.remove(layer, induced.edges_of[d0])
        assert union.edge_count(layer) == 0

    def test_remove_absent_edge_raises(self, ring6):
        union = UnionCDG(ring6, 1)
        with pytest.raises(ValueError, match="not present"):
            union.remove(0, [0])

    def test_blocked_add_rolls_back_exactly(self):
        """A rejected overlay leaves the layer bit-identical: the same
        cyclic edge set keeps failing, and acyclic sets still commit."""
        net = topologies.ring(3, terminals_per_switch=1)
        cyc = _ring_cycle_edges(net)
        union = UnionCDG(net, 1)
        assert not union.add_if_acyclic(0, cyc)
        assert union.edge_count(0) == 0
        assert union.assert_acyclic([0]) == 1
        # the prefix without the closing edge is fine
        assert union.add_if_acyclic(0, cyc[:-1])
        assert union.edge_count(0) == len(cyc) - 1


def _ring_cycle_edges(net):
    """Def.-6 edge ids of the full clockwise cycle of a ring net."""
    n = sum(1 for v in range(net.n_nodes) if not net.is_terminal(v))
    chans = [net.find_channels(i, (i + 1) % n)[0] for i in range(n)]
    eids = []
    for i in range(n):
        eid = net.csr.edge_id(chans[i], chans[(i + 1) % n])
        assert eid >= 0
        eids.append(eid)
    return eids


def _nx_acyclic(net, eids):
    """networkx verdict on a set of Def.-6 edge ids (outside oracle)."""
    csr = net.csr
    return nx.is_directed_acyclic_graph(nx.DiGraph(
        (csr.dep_src_l[e], csr.dep_dst_l[e]) for e in eids))


def _assert_verdicts_match_networkx(report, old, new):
    n_layers = len(report.layers)
    for lay, old_ids, new_ids in zip(
            report.layers, InducedEdges(old).by_layer(n_layers),
            InducedEdges(new).by_layer(n_layers)):
        assert lay.acyclic == _nx_acyclic(
            new.net, set(old_ids.tolist()) | set(new_ids.tolist()))


class TestEdgesAcyclic:
    def test_cycle_detected(self):
        net = topologies.ring(3, terminals_per_switch=1)
        cyc = np.array(_ring_cycle_edges(net))
        assert not edge_ids_acyclic(net, cyc)
        assert edge_ids_acyclic(net, cyc[:-1])
        assert edge_ids_acyclic(net, np.empty(0, dtype=np.int64))

    def test_agrees_with_union_cdg(self, fig2a_net):
        """The union verdict of ``check_compatibility`` and the one
        check on the same edge ids both agree with networkx."""
        result = _route(fig2a_net, max_vls=1)
        all_edges = InducedEdges(result).by_layer(1)[0]
        assert edge_ids_acyclic(fig2a_net, all_edges) \
            == _nx_acyclic(fig2a_net, all_edges.tolist())
        report = check_compatibility(result, result)
        assert report.layers[0].union_edges == all_edges.size
        assert report.layers[0].acyclic \
            == _nx_acyclic(fig2a_net, all_edges.tolist())


class TestCheckCompatibility:
    def test_self_transition_compatible(self, ring6):
        result = _route(ring6)
        report = check_compatibility(result, result)
        assert report.compatible
        for layer in report.layers:
            assert layer.acyclic
            assert layer.old_edges == layer.new_edges == layer.union_edges

    def test_layer_accounting(self, mesh33):
        old = _route(mesh33, "updn", max_vls=1)
        new = _route(mesh33, max_vls=1, seed=11)
        report = check_compatibility(old, new)
        assert len(report.layers) >= 1
        for layer in report.layers:
            assert layer.union_edges <= layer.old_edges + layer.new_edges
            assert layer.union_edges >= max(layer.old_edges,
                                            layer.new_edges)
        assert report.compatible == all(
            lay.acyclic for lay in report.layers)
        _assert_verdicts_match_networkx(report, old, new)
        as_dict = report.to_dict()
        assert as_dict["compatible"] == report.compatible
        assert len(as_dict["layers"]) == len(report.layers)

    def test_cyclic_union_reported_per_layer(self, ring6):
        """Two deadlock-free routings whose layer-0 union is cyclic."""
        old = _route(ring6, "updn", max_vls=2, seed=1)
        new = _route(ring6, max_vls=2, seed=3)
        report = check_compatibility(old, new)
        assert not report.compatible
        assert [lay.acyclic for lay in report.layers] == [False, True]
        _assert_verdicts_match_networkx(report, old, new)

    def test_mismatched_spaces_rejected(self, ring6):
        small = topologies.ring(4, terminals_per_switch=1)
        with pytest.raises(ValueError, match="id space"):
            check_compatibility(_route(small), _route(ring6))

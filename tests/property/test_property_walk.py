"""Hypothesis: the array table walk equals the scalar per-pair accessors.

For arbitrary connected multigraphs and every registered algorithm —
column-constant VLs (nue, updn), per-pair lanes (dfsssp, lash), per-hop
datelines (torus-2qos on tori), cyclic tables (dor, minhop) — the
walk's hop counts, channel sequences and per-hop VLs must equal
``path()`` and a test-side scalar VL rule pair by pair (so must
``path_vls()``, which is ``_hop_vls`` over one route), the lifted
dependency graph must equal the dict a scalar double loop builds
(insertion order included: the cycle witness depends on it), and the
Kahn verdict must agree with networkx.
"""

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.metrics import (
    is_deadlock_free,
    layer_usage,
    required_vcs,
    validate_routing,
)
from repro.metrics.deadlock import (
    DeadlockAnalysis,
    find_vc_cycle,
    induced_vc_dependencies,
)
from repro.metrics.validate import ValidationError
from repro.network.topologies import (
    random_topology,
    torus,
    torus_coordinates,
)
from repro.routing import RoutingError, available_algorithms, make_algorithm
from repro.routing.walk import walk


def scalar_vl_rule(result):
    """``(s, d) -> per-hop VLs of path(s, d)`` from the route alone,
    independent of the result's own ``path_vls``/``_hop_vls``:
    Torus-2QoS's dateline rule (VL 1 once the packet has arrived at
    ring position 0 of the dimension it is traversing), else the
    pair's one layer."""
    net = result.net
    if result.algorithm != "torus-2qos":
        return lambda s, d: [int(result.vl[s, result.dest_index(d)])] \
            * len(result.path(s, d))
    dims, coords = torus_coordinates(net)

    def datelines(s, d):
        vls = []
        passed_zero = [False] * len(dims)
        for c in result.path(s, d):
            u, v = net.endpoints(c)
            if not (net.is_switch(u) and net.is_switch(v)):
                vls.append(0)  # terminal hop, never on a cycle
                continue
            cu, cv = coords[u], coords[v]
            dim = next(i for i in range(len(dims)) if cu[i] != cv[i])
            vls.append(1 if passed_zero[dim] else 0)
            if cv[dim] == 0:
                passed_zero[dim] = True
        return vls

    return datelines


def scalar_vc_dependencies(result, sources=None):
    """The pre-walk ``induced_vc_dependencies``: one ``path()`` per pair."""
    net = result.net
    path_vls = scalar_vl_rule(result)
    adj = {}
    for d in result.dests:
        for s in (net.switches if sources is None else sources):
            if s == d:
                continue
            prev = None
            for c, v in zip(result.path(s, d), path_vls(s, d)):
                u, w = net.endpoints(c)
                if net.is_switch(u) and net.is_switch(w):
                    node = (c, v)
                    adj.setdefault(node, set())
                    if prev is not None:
                        adj[prev].add(node)
                    prev = node
                else:
                    prev = None
    return adj


def assert_walk_matches_scalar(result):
    net = result.net
    path_vls = scalar_vl_rule(result)
    for blk in walk(net, result.next_channel, result.dests,
                    range(net.n_nodes)):
        ptr, chan = blk.paths()
        vls = result._hop_vls(blk.src, blk.col, ptr, chan)
        for p, (s, d) in enumerate(zip(blk.src.tolist(),
                                       blk.dest.tolist())):
            path = result.path(s, d)
            assert blk.hops[p] == len(path)
            assert chan[ptr[p]:ptr[p + 1]].tolist() == path
            want = path_vls(s, d)
            assert vls[ptr[p]:ptr[p + 1]].tolist() == want
            assert result.path_vls(s, d) == want

    reference = scalar_vc_dependencies(result)
    lifted = induced_vc_dependencies(result)
    assert lifted == reference
    assert list(lifted) == list(reference)
    assert all(list(lifted[v]) == list(reference[v]) for v in reference)

    graph = nx.DiGraph()
    graph.add_nodes_from(reference)
    graph.add_edges_from((v, w) for v, outs in reference.items()
                         for w in outs)
    analysis = DeadlockAnalysis(result)
    assert analysis.deadlock_free == nx.is_directed_acyclic_graph(graph)
    assert analysis.cycle() == find_vc_cycle(reference)


@st.composite
def networks(draw):
    n_switches = draw(st.integers(4, 10))
    extra = draw(st.integers(0, 10))
    terminals = draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**31))
    return random_topology(n_switches, n_switches - 1 + extra,
                           terminals, seed=seed)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(net=networks(), seed=st.integers(0, 2**31))
def test_walk_matches_scalar_on_arbitrary_multigraphs(net, seed):
    routed = 0
    for name in available_algorithms():
        try:
            result = make_algorithm(name, max_vls=8).route(net, seed=seed)
        except RoutingError:  # not a torus / a tree, or out of VCs
            continue
        assert_walk_matches_scalar(result)
        routed += 1
    assert routed >= 4  # nue, updn, minhop, lash route anything


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.integers(2, 4), b=st.integers(2, 4), c=st.integers(2, 3),
       terminals=st.integers(1, 2))
def test_walk_matches_scalar_on_tori(a, b, c, terminals):
    net = torus([a, b, c], terminals)
    for name in ("torus-2qos", "dor", "dfsssp"):
        assert_walk_matches_scalar(make_algorithm(name).route(net, seed=1))


def test_switch_destinations_and_source_subsets(ring6):
    result = make_algorithm("updn").route(
        ring6, dests=range(ring6.n_nodes))
    assert_walk_matches_scalar(result)
    subset = ring6.terminals[::3]
    assert induced_vc_dependencies(result, subset) == \
        scalar_vc_dependencies(result, subset)


@pytest.mark.parametrize("algorithm, cyclic", [("dor", True), ("updn", False)])
def test_out_of_range_vls_are_vertices_like_any_other(algorithm, cyclic):
    """``repro analyze`` loads ``vl`` unvalidated: a negative or huge
    layer must lift to the graph the scalar builder gave, never to a
    smaller one that lets a cyclic table through the Theorem-1 gate."""
    net = torus([4, 4], 1)
    result = make_algorithm(algorithm).route(net, seed=1)
    result.vl[:] = -1
    result.vl[:, ::5] = 127
    assert_walk_matches_scalar(result)

    reference = scalar_vc_dependencies(result)
    assert {v for _, v in reference} == {-1, 127}
    assert (find_vc_cycle(reference) is not None) == cyclic
    assert is_deadlock_free(result) == (not cyclic)
    if cyclic:
        names = net.node_names
        witness = " -> ".join(
            f"({names[net.channel_src[c]]}->{names[net.channel_dst[c]]}, "
            f"VL{v})" for c, v in find_vc_cycle(reference))
        with pytest.raises(ValidationError) as err:
            validate_routing(result)
        assert str(err.value) == f"dor: induced CDG has a cycle: {witness}"
    else:
        validate_routing(result)
        assert required_vcs(result) == 128  # max layer + 1, as before

    routes, hops = {}, {}
    for d in result.dests:
        for s in net.terminals:
            vls = result.path_vls(s, d)
            if vls:
                routes[vls[0]] = routes.get(vls[0], 0) + 1
            for v in vls:
                hops[v] = hops.get(v, 0) + 1
    usage = layer_usage(result)
    assert usage.routes_per_layer == routes
    assert usage.hops_per_layer == hops

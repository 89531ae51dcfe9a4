"""Corrupted tables: the walk's consumers fail (or cope) as the scalar code did.

Every consumer of :mod:`repro.routing.walk` is run on deliberately
broken tables next to a scalar reference kept in this file — the
double loops ``validate_routing`` used before the walk, one ``path()``
per pair — and must raise the same exception type with the same text,
or, for the metrics that tolerate post-fault dangling chains, return
the same numbers.
"""

import json

import numpy as np
import pytest

from repro import cli, obs
from repro.io import save_routing, save_topology
from repro.metrics import (
    edge_forwarding_indices,
    gamma_summary,
    induced_vc_dependencies,
    is_deadlock_free,
    layer_usage,
    path_length_stats,
    quality_report,
    tree_depths,
    validate_routing,
)
from repro.metrics.validate import ValidationError
from repro.network.topologies import torus
from repro.resilience.engine import _reachable_pairs
from repro.routing import RoutingError, make_algorithm
from repro.routing.sssp import subtree_route_counts
from repro.routing.walk import BLOCK_COLS, LOOP, NO_ROUTE, census, walk
from repro.service.requests import (
    AnalyzeRequest,
    RouteRequest,
    execute_analyze,
)


def scalar_validate(result, sources=None):
    """Steps 1-2 of the pre-walk ``validate_routing``, verbatim."""
    net = result.net
    if sources is None:
        sources = range(net.n_nodes)
    for j, d in enumerate(result.dests):
        for v in range(net.n_nodes):
            c = int(result.next_channel[v, j])
            if c >= 0 and net.channel_src[c] != v:
                raise ValidationError(
                    f"{result.algorithm}: table entry at node "
                    f"{net.node_names[v]} toward {net.node_names[d]} uses "
                    f"channel {c} that does not originate there"
                )
    for d in result.dests:
        for s in sources:
            if s == d:
                continue
            try:
                result.path_nodes(s, d)
            except RoutingError as exc:
                raise ValidationError(str(exc)) from exc


def scalar_hops(result, s, d):
    try:
        return len(result.path(s, d))
    except RoutingError:
        return -1


def outcome(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except (ValidationError, RoutingError) as exc:
        return type(exc), str(exc)
    return None


@pytest.fixture
def net():
    # 3-rings in both dimensions: room for 2-node and 3-node loops
    return torus([3, 3], 2)


@pytest.fixture(params=["terminal-dests", "all-node-dests"])
def good(request, net):
    dests = None if request.param == "terminal-dests" \
        else range(net.n_nodes)
    # more columns than one walk block, so corruption beyond the first
    # block is covered
    result = make_algorithm("updn").route(net, dests=dests)
    assert len(result.dests) > BLOCK_COLS
    return result


def channel(net, u, v):
    return net.find_channels(u, v)[0]


def corrupt_foreign(net, result, j):
    v, other = net.switches[0], net.switches[4]
    result.next_channel[v, j] = net.out_channels[other][0]


def corrupt_hole(net, result, j):
    result.next_channel[net.switches[0], j] = -1


def corrupt_two_loop(net, result, j):
    a, b = net.switches[0], net.switches[1]
    result.next_channel[a, j] = channel(net, a, b)
    result.next_channel[b, j] = channel(net, b, a)


def corrupt_three_loop(net, result, j):
    a, b, c = net.switches[0], net.switches[1], net.switches[2]
    result.next_channel[a, j] = channel(net, a, b)
    result.next_channel[b, j] = channel(net, b, c)
    result.next_channel[c, j] = channel(net, c, a)


CORRUPTIONS = [corrupt_foreign, corrupt_hole, corrupt_two_loop,
               corrupt_three_loop]


def safe_columns(net, result):
    """Columns whose destination hangs off a switch no corruption
    touches, so every corruption there breaks routes."""
    safe = set(net.switches[5:])
    return [j for j, d in enumerate(result.dests)
            if (d if net.is_switch(d) else net.terminal_switch(d)) in safe]


def far_column(net, result):
    """A safe column beyond the first walk block."""
    j = safe_columns(net, result)[-1]
    assert j >= BLOCK_COLS
    return j


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_validate_reports_what_the_scalar_loops_reported(net, good, corrupt):
    corrupt(net, good, far_column(net, good))
    expected = outcome(scalar_validate, good)
    assert expected is not None and expected[0] is ValidationError
    assert outcome(validate_routing, good, check_deadlock=False) == expected
    # an earlier column failing too: the earlier one is named
    near = safe_columns(net, good)[0]
    corrupt(net, good, near)
    expected = outcome(scalar_validate, good)
    assert net.node_names[good.dests[near]] in expected[1]
    assert outcome(validate_routing, good, check_deadlock=False) == expected


@pytest.mark.parametrize("corrupt", [corrupt_two_loop, corrupt_three_loop])
def test_loops_surface_as_forwarding_loop(net, good, corrupt):
    """Satellite: a revisited node *is* a forwarding loop — there is no
    separate "revisits a node" verdict to reach."""
    j = far_column(net, good)
    corrupt(net, good, j)
    d = good.dests[j]
    s = next(s for s in range(net.n_nodes)
             if s != d and scalar_hops(good, s, d) < 0)
    with pytest.raises(ValidationError) as err:
        validate_routing(good, check_deadlock=False)
    assert str(err.value) == (
        f"forwarding loop routing {net.node_names[s]} -> "
        f"{net.node_names[d]}")


@pytest.mark.parametrize("corrupt", CORRUPTIONS[1:])
def test_source_subsets(net, good, corrupt):
    j = far_column(net, good)
    corrupt(net, good, j)
    subsets = (net.terminals[-2:], net.terminals[:3], [net.switches[1]],
               net.terminals)
    outcomes = [outcome(validate_routing, good, sources=sources,
                        check_deadlock=False) for sources in subsets]
    assert outcomes == [outcome(scalar_validate, good, sources)
                        for sources in subsets]
    assert outcomes[-1] is not None


@pytest.mark.parametrize("corrupt", CORRUPTIONS[1:])
def test_dependency_consumers_raise_the_path_error(net, good, corrupt):
    j = far_column(net, good)
    corrupt(net, good, j)

    def first_path_error(sources):
        for d in good.dests:
            for s in sources:
                if s != d:
                    good.path(s, d)

    expected = outcome(first_path_error, net.switches)
    assert expected is not None and expected[0] is RoutingError
    assert outcome(is_deadlock_free, good) == expected
    assert outcome(induced_vc_dependencies, good) == expected
    assert outcome(layer_usage, good, net.switches) == expected


def test_hop_codes(net, good):
    near, far = safe_columns(net, good)[0], far_column(net, good)
    corrupt_hole(net, good, near)
    corrupt_three_loop(net, good, far)
    hops = np.concatenate([
        blk.hops for blk in walk(net, good.next_channel, good.dests,
                                 range(net.n_nodes))
    ]).reshape(len(good.dests), net.n_nodes)
    assert (hops[near] == NO_ROUTE).any() and not (hops[near] == LOOP).any()
    assert (hops[far] == LOOP).any() and not (hops[far] == NO_ROUTE).any()
    for j in (near, far):
        for s in range(net.n_nodes):
            assert max(int(hops[j, s]), -1) == \
                scalar_hops(good, s, good.dests[j])


def test_dangling_chains_after_a_fault(net, good):
    """γ, path statistics and the reachability audit skip pairs the
    tables no longer connect — with the numbers the scalar code gave."""
    dead = set(net.find_channels(net.switches[3], net.switches[4])
               + net.find_channels(net.switches[4], net.switches[3])
               + net.find_channels(net.switches[7], net.switches[8]))
    nxt = good.next_channel
    nxt[np.isin(nxt, list(dead))] = -1
    sources = net.terminals

    gamma = sum(
        subtree_route_counts(net, np.ascontiguousarray(nxt[:, j]), d,
                             sources)
        for j, d in enumerate(good.dests))
    assert (edge_forwarding_indices(good) == gamma).all()
    assert (edge_forwarding_indices(good, workers=2) == gamma).all()

    lengths = [scalar_hops(good, s, d)
               for d in good.dests for s in sources]
    routed = [h for h in lengths if h > 0]
    assert 0 < len(routed) < sum(h != 0 for h in lengths)
    stats = path_length_stats(good)
    assert stats.as_tuple() == (min(routed), max(routed),
                                sum(routed) / len(routed), len(routed))
    assert stats.histogram == {
        h: routed.count(h) for h in sorted(set(routed))}
    assert path_length_stats(good, workers=2) == stats

    assert _reachable_pairs(good) == (
        len(routed), sum(h != 0 for h in lengths))

    for j in (0, far_column(net, good)):
        assert tree_depths(good, j).tolist() == [
            scalar_hops(good, s, good.dests[j])
            for s in range(net.n_nodes)]


def test_walk_is_observable(net, good):
    obs.enable(obs.MemorySink())
    validate_routing(good, check_deadlock=False)
    n_blocks = -(-len(good.dests) // BLOCK_COLS)
    assert obs.span_stats()["metrics.walk"]["calls"] == n_blocks
    assert obs.counters()["metrics.pairs_walked"] == \
        net.n_nodes * len(good.dests)


@pytest.mark.parametrize("corrupt", [corrupt_hole, corrupt_three_loop])
def test_census_and_its_views_ignore_the_worker_count(net, good, corrupt):
    """Two broken columns in different shards: every count sums, and
    the earliest shard's first unrouted pair is the census's."""
    near, far = safe_columns(net, good)[0], far_column(net, good)
    corrupt(net, good, far)
    corrupt(net, good, near)
    expected_error = outcome(scalar_validate, good)
    assert net.node_names[good.dests[near]] in expected_error[1]
    for sources in (net.terminals, range(net.n_nodes)):
        serial, sharded = (census(good, sources, workers=w) for w in (1, 3))
        assert np.array_equal(serial.channel_routes, sharded.channel_routes)
        assert np.array_equal(serial.hops, sharded.hops)
        assert (serial.unrouted, serial.first_unrouted) == \
            (sharded.unrouted, sharded.first_unrouted)
        assert serial.unrouted > 0
        assert good.dests.index(serial.first_unrouted[1]) == near
    terminal = census(good, net.terminals, workers=1)
    routed = int(terminal.hops.sum())
    for w in (1, 3):
        assert np.array_equal(edge_forwarding_indices(good, workers=w),
                              terminal.channel_routes)
        assert gamma_summary(good, workers=w) == gamma_summary(good)
        assert path_length_stats(good, workers=w) == path_length_stats(good)
        assert path_length_stats(good, workers=w).n_routes == routed
        assert _reachable_pairs(good, workers=w) == (
            routed, routed + terminal.unrouted)
    assert outcome(validate_routing, good, check_deadlock=False) == \
        expected_error


def _pairs_walked(trace_path):
    with open(trace_path) as fh:
        return sum(ev["n"] for ev in map(json.loads, fh)
                   if ev.get("type") == "counter"
                   and ev.get("name") == "metrics.pairs_walked")


def test_an_analysis_walks_the_terminal_pairs_once(net, tmp_path):
    """γ and path lengths come from one census of the terminal pairs;
    the deadlock lift walks the switch pairs, validation every node."""
    result = make_algorithm("nue", 2).route(net, seed=3)
    n_dests = len(result.dests)
    lift = len(net.switches) * n_dests
    terminal_pairs = len(net.terminals) * n_dests

    obs.enable(obs.MemorySink(keep_events=False))
    quality_report(result)
    # validate + lift + one census + layer_balance's own VL walk
    assert obs.counters()["metrics.pairs_walked"] == \
        net.n_nodes * n_dests + lift + 2 * terminal_pairs
    obs.disable()
    obs.reset()

    obs.enable(obs.MemorySink(keep_events=False))
    execute_analyze(AnalyzeRequest(route=RouteRequest(
        topology=net, algorithm="nue", max_vls=2, seed=3)))
    assert obs.counters()["metrics.pairs_walked"] == lift + terminal_pairs
    obs.disable()
    obs.reset()

    topo, tables = tmp_path / "f.topo", tmp_path / "t.json"
    save_topology(net, str(topo))
    save_routing(result, str(tables))
    trace = tmp_path / "t.jsonl"
    assert cli.main(["--trace", str(trace), "analyze", str(topo),
                     str(tables)]) == 0
    assert _pairs_walked(trace) == lift + terminal_pairs

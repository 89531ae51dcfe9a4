"""Array DOR columns vs the scalar per-(node, destination) walk.

``reference_columns`` below is the loop ``repro.routing.dor`` used to
run — one Python iteration per (node, destination), a
``channels_between`` lookup per hop — kept here as the oracle.  The
array passes must reproduce its tables bit for bit and, where it
raised, the same :class:`RoutingError` text for the first failing
(column, node) in destination-major, node-ascending order — at any
worker count, since shards are contiguous column runs and the fan-out
re-raises the first failing shard in task order.

The 2k-switch golden digest of ``benchmarks/test_bench_scale.py`` is
owned by tier-1 here too.
"""

import hashlib

import numpy as np
import pytest

from repro.network.faults import remove_links, remove_switches
from repro.network.graph import Network
from repro.network.topologies import mesh, torus
from repro.routing.base import RoutingError
from repro.routing.dor import DORRouting, TorusGeometry, dor_direction


def reference_columns(net: Network, dest_shard) -> np.ndarray:
    """The scalar DOR walk, verbatim: one column per destination."""
    geom = TorusGeometry(net)
    block = np.full((net.n_nodes, len(dest_shard)), -1, dtype=np.int32)
    for jj, d in enumerate(dest_shard):
        d_switch = d if net.is_switch(d) else net.terminal_switch(d)
        d_coord = geom.coord_of[d_switch]
        for node in range(net.n_nodes):
            if node == d:
                continue
            if net.is_terminal(node):
                block[node, jj] = net.csr.injection_channel[node]
                continue
            if node == d_switch:
                # eject to the terminal (or arrived, if dest is a switch)
                chans = net.csr.channels_between(node, d)
                block[node, jj] = chans[0] if chans else -1
                continue
            coord = geom.coord_of[node]
            dim = next(
                i for i in range(geom.n_dims) if coord[i] != d_coord[i]
            )
            if geom.wraparound:
                direction = dor_direction(
                    geom.dims[dim], coord[dim], d_coord[dim]
                )
            else:  # a mesh only ever walks straight at the target
                direction = 1 if d_coord[dim] > coord[dim] else -1
            block[node, jj] = geom.step_channel(
                node, dim, direction, select=d
            )
    return block


def _outcome(fn):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return ("ok", fn())
    except RoutingError as exc:
        return (type(exc), str(exc))


def assert_matches_reference(net, dests=None, workers=(1,)):
    dests = list(net.terminals or range(net.n_nodes)) \
        if dests is None else list(dests)
    want = _outcome(lambda: reference_columns(net, dests))
    for w in workers:
        def route():
            res = DORRouting(workers=w).route(net, seed=1, dests=dests)
            try:
                assert not res.vl.any()
                return np.array(res.next_channel)
            finally:
                res.release()
        got = _outcome(route)
        if want[0] == "ok":
            assert got[0] == "ok", got
            np.testing.assert_array_equal(got[1], want[1])
            assert got[1].dtype == np.int32
        else:
            assert got == want, (w, got, want)


SHAPES = [(5,), (2, 3), (3, 4), (4, 4, 3), (2, 2, 2, 2), (3, 2, 4, 2)]


class TestHealthyGrids:
    @pytest.mark.parametrize("dims", SHAPES, ids=str)
    @pytest.mark.parametrize("kind", [torus, mesh], ids=["torus", "mesh"])
    @pytest.mark.parametrize("terminals", [0, 1, 2])
    def test_every_terminal_count(self, kind, dims, terminals):
        if len(dims) == 1 and kind is torus:
            dims = (6,)  # a ring long enough for wrap ties
        assert_matches_reference(kind(dims, terminals))

    @pytest.mark.parametrize("redundancy", [1, 2, 4])
    @pytest.mark.parametrize("kind", [torus, mesh], ids=["torus", "mesh"])
    def test_redundant_links(self, kind, redundancy):
        assert_matches_reference(
            kind([4, 3], 2, redundancy=redundancy))

    def test_switch_destinations(self):
        net = torus([4, 3, 2], 1)
        assert_matches_reference(net, dests=range(net.n_nodes))

    def test_destination_order_and_repeats(self):
        net = torus([4, 4], 1)
        t = net.terminals
        assert_matches_reference(net, dests=[t[5], t[0], t[5], t[15]])

    def test_more_columns_than_one_block(self):
        net = torus([6, 5, 2], 2)  # 120 terminal columns: 8 blocks
        assert_matches_reference(net, workers=(1, 2))


def _torus443():
    return torus([4, 4, 3], 2)


def _switch_links(net):
    return [i for i, (u, v) in enumerate(net.links())
            if net.is_switch(u) and net.is_switch(v)]


class TestFaults:
    """DOR has no fault tolerance: degraded grids raise, and the first
    failing cell decides the text."""

    @pytest.mark.parametrize("link", _switch_links(_torus443()))
    def test_every_single_link_fault(self, link):
        assert_matches_reference(remove_links(_torus443(), [link]).net)

    @pytest.mark.parametrize("switch", _torus443().switches)
    def test_every_single_switch_fault(self, switch):
        assert_matches_reference(remove_switches(_torus443(), [switch]).net)

    def test_mesh_faults_and_partial_destinations(self):
        net = mesh([4, 3], 1)
        degraded = remove_links(net, _switch_links(net)[3:4]).net
        assert_matches_reference(degraded)
        # destinations whose columns never cross the dead link route
        assert_matches_reference(degraded, dests=degraded.terminals[:1])

    def test_redundant_link_fault_keeps_a_parallel_channel(self):
        net = torus([4, 3], 1, redundancy=2)
        # one of two parallel channels gone: the pair still has a link
        link = _switch_links(net)[0]
        assert_matches_reference(remove_links(net, [link]).net)

    def test_first_failing_shard_wins_across_workers(self):
        net = remove_switches(torus([6, 5, 2], 2), [7]).net
        want = _outcome(lambda: reference_columns(net, net.terminals))
        assert want[0] is RoutingError
        assert_matches_reference(net, workers=(1, 2))


#: golden table digest of the 2k proxy (blake2b-128 over LE int32
#: next_channel bytes then int8 vl bytes) — the same constant as
#: benchmarks/test_bench_scale.py's GOLDEN_2K
GOLDEN_2K = "5e4208bbdf4ec157c05cf82d856ed476"


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_2k_digest(workers, clean_fabric):
    """torus 13x13x12 t1, the first 512 terminals, seed 7."""
    net = torus([13, 13, 12], 1)
    res = DORRouting(workers=workers).route(
        net, seed=7, dests=list(net.terminals)[:512])
    try:
        h = hashlib.blake2b(digest_size=16)
        h.update(np.ascontiguousarray(res.next_channel,
                                      dtype=np.int32).tobytes())
        h.update(np.ascontiguousarray(res.vl, dtype=np.int8).tobytes())
    finally:
        res.release()
    assert h.hexdigest() == GOLDEN_2K

"""Torus-2QoS cells vs the scalar per-(node, destination) walk.

``reference_columns`` and ``reference_ring_check`` below are the loops
``repro.routing.torus2qos`` used to run — an arc walk per (node,
destination) with a ``channels_between`` lookup per hop, a detour
search per dead cell, an ``itertools.product`` pass per ring — kept
here as the oracle.  The fault-aware step-table cells must reproduce
its tables bit for bit and, where it raised, the same
:class:`RoutingError` type and text: the ring check's first
over-faulted ring, or the no-detour error of the first failing
(column, node) in destination-major, node-ascending order — and no
error at all when no routed column uses a dead cell.

Two table-size digests of torus 13x13x12 t1 (the scale of the paper's
Table 1) are pinned here too.
"""

from itertools import combinations, product
from typing import Optional, Sequence, Tuple

import numpy as np
import pytest
from digests import result_digest

from repro.network.faults import remove_links, remove_switches
from repro.network.graph import Network
from repro.network.topologies import torus
from repro.routing.base import RoutingError
from repro.routing.dor import TorusGeometry, dor_direction
from repro.routing.torus2qos import Torus2QoSRouting
from repro.utils.prng import make_rng


def _arc_passable(geom: TorusGeometry, coord: Tuple[int, ...], dim: int,
                  direction: int, target_pos: int) -> bool:
    """Can a packet walk ``coord`` -> target along ``direction``?"""
    cur = coord
    for _ in range(geom.dims[dim]):
        if cur[dim] == target_pos:
            return True
        nxt = geom.neighbor_coord(cur, dim, direction)
        if nxt is None or nxt not in geom.switch_at:
            return False
        if not geom.net.csr.channels_between(
            geom.switch_at[cur], geom.switch_at[nxt]
        ):
            return False
        cur = nxt
    return cur[dim] == target_pos


def _choose_direction(geom: TorusGeometry, coord: Tuple[int, ...],
                      dim: int, target_pos: int) -> Optional[int]:
    """Shortest passable ring direction (DOR preference first);
    None when the arc is blocked both ways (dead target cell)."""
    preferred = dor_direction(geom.dims[dim], coord[dim], target_pos)
    for direction in (preferred, -preferred):
        if _arc_passable(geom, coord, dim, direction, target_pos):
            return direction
    return None


def _detour_hop(geom: TorusGeometry, coord: Tuple[int, ...], dim: int,
                target_pos: int) -> Tuple[int, int]:
    """One hop in a later dimension whose side switch reaches the
    target position; ``(detour_dim, direction)``."""
    for j in range(dim + 1, geom.n_dims):
        for dj in (+1, -1):
            side = geom.neighbor_coord(coord, j, dj)
            if side is None or side not in geom.switch_at:
                continue
            if not geom.net.csr.channels_between(
                geom.switch_at[coord], geom.switch_at[side]
            ):
                continue
            if _choose_direction(geom, side, dim, target_pos) is not None:
                return j, dj
    raise RoutingError(
        f"no detour around dead cell: dim {dim} from {coord} to "
        f"position {target_pos}"
    )


def reference_columns(net: Network, dest_shard: Sequence[int]) -> np.ndarray:
    """The scalar Torus-2QoS walk, verbatim: one column per destination."""
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
                chans = net.csr.channels_between(node, d)
                block[node, jj] = chans[0] if chans else -1
                continue
            coord = geom.coord_of[node]
            dim = next(
                i for i in range(geom.n_dims) if coord[i] != d_coord[i]
            )
            direction = _choose_direction(geom, coord, dim, d_coord[dim])
            if direction is not None:
                block[node, jj] = geom.step_channel(
                    node, dim, direction, select=d
                )
            else:
                # the dim's target cell is the failed switch: hop one
                # position in a later dimension, then continue
                jdim, jdir = _detour_hop(geom, coord, dim, d_coord[dim])
                block[node, jj] = geom.step_channel(
                    node, jdim, jdir, select=d
                )
    return block


def reference_ring_check(geom: TorusGeometry) -> None:
    """Raise when any torus ring carries more than one failure."""
    dims = geom.dims
    for dim in range(len(dims)):
        other_axes = [
            range(size) for i, size in enumerate(dims) if i != dim
        ]
        for rest in product(*other_axes):
            faults = 0
            for pos in range(dims[dim]):
                coord = list(rest)
                coord.insert(dim, pos)
                coord_t = tuple(coord)
                if coord_t not in geom.switch_at:
                    faults += 1
                    continue
                nxt = geom.neighbor_coord(coord_t, dim, +1)
                if nxt is None:
                    continue
                if nxt in geom.switch_at and not geom.net.csr.channels_between(
                    geom.switch_at[coord_t], geom.switch_at[nxt]
                ):
                    faults += 1
            if faults > 1:
                raise RoutingError(
                    f"Torus-2QoS cannot route: {faults} failures in one "
                    f"ring (dim {dim}, fixed coords {rest})"
                )


def reference_route(net: Network, dests: Sequence[int]) -> np.ndarray:
    reference_ring_check(TorusGeometry(net))
    return reference_columns(net, dests)


def _outcome(fn):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return ("ok", fn())
    except RoutingError as exc:
        return (type(exc), str(exc))


def assert_matches_reference(net, dests=None):
    """Same table, or the same error; returns the reference outcome."""
    dests = list(net.terminals or range(net.n_nodes)) \
        if dests is None else list(dests)
    want = _outcome(lambda: reference_route(net, dests))

    def route():
        res = Torus2QoSRouting(workers=1).route(net, seed=1, dests=dests)
        assert res.n_vls == 2
        return np.array(res.next_channel)

    got = _outcome(route)
    if want[0] == "ok":
        assert got[0] == "ok", got
        np.testing.assert_array_equal(got[1], want[1])
        assert got[1].dtype == np.int32
    else:
        assert got == want
    return want


def _switch_links(net):
    return [i for i, (u, v) in enumerate(net.links())
            if net.is_switch(u) and net.is_switch(v)]


def _single_faults(dims, terminals, redundancy):
    """``(id, net)``: the pristine torus, then every single switch
    fault, then every single switch-link fault."""
    net = torus(dims, terminals, redundancy=redundancy)
    yield "pristine", net
    for s in net.switches:
        yield f"switch{s}", remove_switches(net, [s]).net
    for li in _switch_links(net):
        yield f"link{li}", remove_links(net, [li]).net


class TestSingleFaults:
    """The pristine net and every single switch or switch-link fault."""

    @pytest.mark.parametrize("redundancy", [1, 2, 4])
    def test_torus443_every_single_fault(self, redundancy):
        """Torus 4x4x3 t2: one fault never fails the ring check here,
        so every table must match."""
        for label, net in _single_faults([4, 4, 3], 2, redundancy):
            want = assert_matches_reference(net)
            assert want[0] == "ok", (label, want)

    @pytest.mark.parametrize("dims", [(6,), (3, 2), (3, 3, 2, 2)], ids=str)
    def test_other_shapes_every_single_fault(self, dims):
        """A ring, and 2-D / 4-D tori with a size-2 dimension."""
        for label, net in _single_faults(dims, 1, 1):
            assert_matches_reference(net)

    def test_switch_destinations(self):
        net = remove_switches(torus([4, 3, 3], 1), [7]).net
        assert_matches_reference(net, dests=range(net.n_nodes))


def _fault_pairs(base):
    """Every pair of single faults of ``base`` (switch node ids and
    switch-link indices), in a fixed order."""
    faults = [("switch", s) for s in base.switches] \
        + [("link", li) for li in _switch_links(base)]
    return list(combinations(faults, 2))


def _with_faults(base, pair):
    links = [i for kind, i in pair if kind == "link"]
    names = [base.node_names[i] for kind, i in pair if kind == "switch"]
    net = remove_links(base, links).net if links else base
    if names:
        net = remove_switches(
            net, [net.node_names.index(name) for name in names]).net
    return net


def _kind(outcome):
    if outcome[0] == "ok":
        return "ok"
    return "no detour" if "no detour" in outcome[1] else "ring"


class TestTwoFaults:
    def test_every_pair_of_a_size2_torus(self):
        """Torus 3x2 t1: two faults pass the ring check, trip it, or
        leave a dead cell with no detour."""
        base = torus([3, 2], 1)
        kinds = {_kind(assert_matches_reference(_with_faults(base, pair)))
                 for pair in _fault_pairs(base)}
        assert kinds == {"ok", "ring", "no detour"}

    @pytest.mark.parametrize("dims, terminals", [
        ((4, 4, 3), 1), ((5, 4, 4), 1), ((3, 5), 1), ((3, 3, 2, 2), 1),
        ((3, 3, 2), 1), ((4, 2, 3), 2),
    ], ids=str)
    def test_seeded_pairs(self, dims, terminals):
        base = torus(dims, terminals)
        pairs = _fault_pairs(base)
        pick = make_rng(5).choice(len(pairs), size=24, replace=False)
        kinds = {_kind(assert_matches_reference(
            _with_faults(base, pairs[i]))) for i in pick.tolist()}
        assert "ok" in kinds

    def test_double_fault_ring_raises_first_ring(self):
        base = torus([4, 4, 3], 1)
        geom = TorusGeometry(base)
        dead = [geom.switch_at[(1, 2, 0)], geom.switch_at[(3, 2, 0)],
                geom.switch_at[(0, 1, 2)], geom.switch_at[(0, 3, 2)]]
        want = assert_matches_reference(remove_switches(base, dead).net)
        assert want[0] is RoutingError
        assert "2 failures in one ring (dim 0, fixed coords (2, 0))" \
            in want[1]

    @pytest.mark.parametrize("dims, dead", [
        ((3, 2), [(0, 0), (1, 1)]), ((3, 2, 2), [(0, 0, 0), (0, 1, 1)]),
        ((3, 3, 2, 2), [(0, 0, 0, 0), (0, 0, 1, 1)]),
    ], ids=str)
    def test_unused_dead_cell_does_not_raise(self, dims, dead):
        base = torus(dims, 1)
        geom = TorusGeometry(base)
        net = remove_switches(base, [geom.switch_at[c] for c in dead]).net
        assert _kind(assert_matches_reference(net)) == "no detour"
        usable = [d for d in net.terminals
                  if _outcome(lambda: reference_columns(net, [d]))[0] == "ok"]
        failing = [d for d in net.terminals if d not in usable]
        assert usable and failing
        assert assert_matches_reference(net, dests=usable)[0] == "ok"
        # the first failing column decides the text, wherever it sits
        mixed = usable[:2] + failing[::-1] + usable[2:]
        assert _kind(assert_matches_reference(net, dests=mixed)) \
            == "no detour"


#: blake2b-128 digests (``tests/digests.py``) of Torus-2QoS over every
#: terminal of torus 13x13x12 t1, captured with the scalar walk
PAPER_SCALE = {
    "fault": "6a7de1de9e6621bad3a722176dc1566e",
    "pristine": "ac14dd08d4fb5007ddcd6e4b8d87156c",
}


@pytest.mark.parametrize("case", sorted(PAPER_SCALE))
def test_paper_scale_digest(case):
    net = torus([13, 13, 12], 1)
    if case == "fault":
        net = remove_switches(net, [net.switches[len(net.switches) // 2]]).net
    res = Torus2QoSRouting(workers=1).route(net, seed=7)
    assert result_digest(res) == PAPER_SCALE[case]

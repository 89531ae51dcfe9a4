"""TorusGeometry and direction logic shared by DOR / Torus-2QoS."""

import pytest

from repro.network.faults import remove_links, remove_switches
from repro.network.topologies import mesh, torus
from repro.routing.base import NotApplicableError, RoutingError
from repro.routing.dor import TorusGeometry, dor_direction


class TestDorDirection:
    def test_shorter_way_wins(self):
        assert dor_direction(8, 1, 3) == 1
        assert dor_direction(8, 3, 1) == -1
        assert dor_direction(8, 7, 1) == 1    # wrap is shorter
        assert dor_direction(8, 1, 7) == -1

    def test_tie_prefers_positive(self):
        assert dor_direction(8, 0, 4) == 1
        assert dor_direction(8, 0, 4, prefer_positive=False) == -1


class TestGeometry:
    def test_coord_maps(self):
        net = torus([3, 4], 1)
        geom = TorusGeometry(net)
        assert geom.dims == (3, 4)
        assert len(geom.coord_of) == 12
        for s, c in geom.coord_of.items():
            assert geom.switch_at[c] == s

    def test_neighbor_wraps_on_torus(self):
        net = torus([3, 3])
        geom = TorusGeometry(net)
        assert geom.neighbor_coord((2, 0), 0, 1) == (0, 0)
        assert geom.neighbor_coord((0, 0), 0, -1) == (2, 0)

    def test_neighbor_stops_at_mesh_edge(self):
        net = mesh([3, 3])
        geom = TorusGeometry(net)
        assert geom.neighbor_coord((2, 0), 0, 1) is None
        assert geom.neighbor_coord((0, 0), 1, -1) is None

    def test_step_channel_redundancy_select(self):
        net = torus([3, 3], redundancy=2)
        geom = TorusGeometry(net)
        s = geom.switch_at[(0, 0)]
        a = geom.step_channel(s, 0, 1, select=0)
        b = geom.step_channel(s, 0, 1, select=1)
        assert a != b
        assert net.channel_dst[a] == net.channel_dst[b]

    def test_step_channel_missing_switch(self):
        net = torus([3, 3, 3])
        geom0 = TorusGeometry(net)
        victim = geom0.switch_at[(1, 0, 0)]
        degraded = remove_switches(net, [victim])
        geom = TorusGeometry(degraded)
        src = geom.switch_at[(0, 0, 0)]
        with pytest.raises(RoutingError, match="missing switch"):
            geom.step_channel(src, 0, 1)

    def test_step_channel_missing_link(self):
        net = torus([4, 4])
        geom0 = TorusGeometry(net)
        a = geom0.switch_at[(0, 0)]
        b = geom0.switch_at[(1, 0)]
        link_idx = next(
            i for i, (u, v) in enumerate(net.links())
            if {u, v} == {a, b}
        )
        degraded = remove_links(net, [link_idx])
        geom = TorusGeometry(degraded)
        src = geom.switch_at[(0, 0)]
        with pytest.raises(RoutingError, match="missing link"):
            geom.step_channel(src, 0, 1)

    def test_rejects_non_torus(self, ring6):
        with pytest.raises(NotApplicableError):
            TorusGeometry(ring6)

"""Oracle sweep: every topology generator, arbitrary multigraphs.

The production routing step (``NueLayerRouter.route_batch``, reached
through ``NueRouting``) is pinned across the *whole* generator zoo —
regular, hierarchical and irregular topologies — and a hypothesis
sweep of arbitrary connected multigraphs against the frozen pre-CSR
oracle ``repro.legacy.nue_ref``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import NueRouting
from repro.legacy import legacy_nue_route
from repro.metrics import validate_routing
from repro.network.topologies import (
    binary_tree,
    cascade,
    dragonfly,
    hypercube,
    hyperx,
    k_ary_n_tree,
    kautz,
    mesh,
    paper_ring_with_shortcut,
    random_topology,
    ring,
    torus,
    two_tier_clos,
)


def assert_matches_legacy(net, k, seed, dests=None):
    """Route with the production step and with the oracle; tables,
    lanes and layer count must agree bit for bit."""
    if dests is None and not net.terminals:
        dests = list(range(net.n_nodes))
    res = NueRouting(k).route(net, dests=dests, seed=seed)
    nxt, vl, n_vls = legacy_nue_route(net, max_vls=k, dests=dests,
                                      seed=seed)
    assert np.array_equal(res.next_channel, nxt)
    assert np.array_equal(res.vl, vl)
    assert res.n_vls == n_vls
    return res


#: one small instance per generator in ``repro.network.topologies``
#: (tsubame25_like is covered separately with a destination subset —
#: full-fabric oracle routing would dominate the suite)
TOPOLOGIES = [
    ("ring", lambda: ring(6, 2)),
    ("fig2a_shortcut_ring", paper_ring_with_shortcut),
    ("binary_tree", lambda: binary_tree(3)),
    ("torus", lambda: torus([3, 3], 1)),
    ("mesh", lambda: mesh([3, 3], 1)),
    ("fat_tree", lambda: k_ary_n_tree(2, 2)),
    ("clos", lambda: two_tier_clos(3, 2, 6)),
    ("kautz", lambda: kautz(2, 2, 1)),
    ("dragonfly", lambda: dragonfly(2, 1, 1, 3)),
    ("cascade", lambda: cascade(groups=2, global_channels=4,
                                terminals_per_switch=1,
                                chassis_per_group=1,
                                slots_per_chassis=3)),
    ("hypercube", lambda: hypercube(3, 1)),
    ("hyperx", lambda: hyperx([2, 3], 1)),
    ("random", lambda: random_topology(8, 14, 2, seed=3)),
]


@pytest.mark.parametrize(
    "builder", [b for _, b in TOPOLOGIES], ids=[n for n, _ in TOPOLOGIES]
)
class TestEveryGenerator:
    def test_batched_vs_legacy(self, builder):
        validate_routing(assert_matches_legacy(builder(), k=2, seed=11))


def test_tsubame_subset_matches_legacy():
    """The one big generator, on a destination subset (full-fabric
    oracle routing would dominate the suite)."""
    from repro.network.topologies import tsubame25_like

    net = tsubame25_like()
    assert_matches_legacy(net, k=1, seed=11, dests=list(net.terminals)[:3])


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
@given(net=networks(), k=st.integers(1, 3), seed=st.integers(0, 2**31))
def test_matches_legacy_on_arbitrary_topologies(net, k, seed):
    """Hypothesis: bit-identity with the oracle holds for arbitrary
    connected multigraphs and any VC budget, not just the curated zoo."""
    assert_matches_legacy(net, k, seed)

"""Array-built CSR buffers vs the list loops they replaced.

``reference_buffers`` below is how ``CSRView.__init__`` used to build
the dependency-edge index: a successor list per channel and an
incoming-edge list per channel, each packed by a Python loop.  Every
:data:`~repro.network.csr.EXPORTED_BUFFERS` array the array passes
build must equal it — values and dtype — and so must the network
fingerprint hashed over them, on every topology generator, on degraded
nets and on hypothesis-drawn random multigraphs.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.fingerprint import network_fingerprint
from repro.network.csr import EXPORTED_BUFFERS, CSRView
from repro.network.faults import remove_links, remove_switches
from repro.network.graph import Network
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
    tsubame25_like,
    two_tier_clos,
)


def _pack(lists: List[List[int]]) -> Tuple[np.ndarray, np.ndarray]:
    ptr = np.zeros(len(lists) + 1, dtype=np.int32)
    for i, row in enumerate(lists):
        ptr[i + 1] = ptr[i] + len(row)
    idx = np.fromiter(
        (c for row in lists for c in row), dtype=np.int32, count=int(ptr[-1])
    )
    return ptr, idx


def reference_buffers(net: Network) -> Dict[str, np.ndarray]:
    """The exported buffers, built by the old per-channel loops."""
    out: Dict[str, np.ndarray] = {
        "channel_src": np.asarray(net.channel_src, dtype=np.int32),
        "channel_dst": np.asarray(net.channel_dst, dtype=np.int32),
        "channel_reverse": np.asarray(net.channel_reverse, dtype=np.int32),
        "switch_flags": np.fromiter(
            (1 if net.is_switch(n) else 0 for n in range(net.n_nodes)),
            dtype=np.int8, count=net.n_nodes,
        ),
    }
    out["out_ptr"], out["out_idx"] = _pack(net.out_channels)
    out["in_ptr"], out["in_idx"] = _pack(net.in_channels)
    src = net.channel_src
    dst = net.channel_dst
    dep_lists = [
        [cq for cq in net.out_channels[dst[cp]] if dst[cq] != src[cp]]
        for cp in range(net.n_channels)
    ]
    out["dep_ptr"], out["dep_dst"] = _pack(dep_lists)
    out["dep_src"] = np.repeat(
        np.arange(net.n_channels, dtype=np.int32), np.diff(out["dep_ptr"]))
    in_lists: List[List[int]] = [[] for _ in range(net.n_channels)]
    for eid in range(int(out["dep_ptr"][-1])):
        in_lists[int(out["dep_dst"][eid])].append(eid)
    out["dep_in_ptr"], out["dep_in_eid"] = _pack(in_lists)
    return out


def assert_matches_reference(net: Network) -> None:
    want = reference_buffers(net)
    view = CSRView(net)
    for key in EXPORTED_BUFFERS:
        got = getattr(view, key)
        assert got.dtype == want[key].dtype, key
        np.testing.assert_array_equal(got, want[key], err_msg=key)
    assert view.n_dep_edges == int(want["dep_ptr"][-1])
    # the fingerprint hashes these buffers: same bytes, same digest
    twin = Network(
        net.n_nodes, net.links(), [net.is_switch(v)
                                   for v in range(net.n_nodes)],
        node_names=list(net.node_names), name=net.name)
    twin.meta = dict(net.meta)
    twin._csr_view = CSRView.from_buffers(twin, want)
    assert network_fingerprint(net) == network_fingerprint(twin)


GENERATORS = [
    ("ring", lambda: ring(6, 1)),
    ("paper_ring", paper_ring_with_shortcut),
    ("binary_tree", lambda: binary_tree(3)),
    ("torus", lambda: torus([3, 3], 1)),
    ("torus_redundant", lambda: torus([4, 3, 2], 2, redundancy=2)),
    ("mesh", lambda: mesh([3, 3], 1)),
    ("k_ary_n_tree", lambda: k_ary_n_tree(2, 3)),
    ("two_tier_clos", lambda: two_tier_clos(3, 2, 6)),
    ("tsubame25_like", tsubame25_like),
    ("kautz", lambda: kautz(2, 2, 1)),
    ("dragonfly", lambda: dragonfly(3, 1, 1, 4)),
    ("cascade", lambda: cascade(2, 8, 1,
                                chassis_per_group=2, slots_per_chassis=2)),
    ("random", lambda: random_topology(10, 20, 2, seed=13)),
    ("hypercube", lambda: hypercube(3, 1)),
    ("hyperx", lambda: hyperx([2, 3], 1)),
    ("multigraph", lambda: Network(
        2, [(0, 1), (0, 1), (0, 1)], [True, True], name="tri-link")),
    ("switch_path", lambda: Network(  # dead ends: U-turns only
        3, [(0, 1), (1, 2)], [True, True, True], name="path")),
]


@pytest.mark.parametrize(
    "builder", [b for _, b in GENERATORS], ids=[n for n, _ in GENERATORS])
def test_every_generator(builder):
    assert_matches_reference(builder())


@pytest.mark.parametrize("fault", ["link", "switch", "both"])
def test_faulty_nets(fault):
    net = torus([4, 4, 3], 2)
    links = [i for i, (u, v) in enumerate(net.links())
             if net.is_switch(u) and net.is_switch(v)]
    if fault in ("link", "both"):
        net = remove_links(net, links[::7]).net
    if fault in ("switch", "both"):
        net = remove_switches(net, net.switches[5:7]).net
    assert_matches_reference(net)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_switches=st.integers(2, 12), extra=st.integers(0, 24),
       terminals=st.integers(0, 2), seed=st.integers(0, 2**31))
def test_random_multigraphs(n_switches, extra, terminals, seed):
    assert_matches_reference(random_topology(
        n_switches, n_switches - 1 + extra, terminals, seed=seed))


def reference_derived(net: Network) -> Dict[str, object]:
    """The derived indices, built by the old per-node/channel loops."""
    src = list(net.channel_src)
    dst = list(net.channel_dst)
    injection_channel = [
        net.out_channels[n][0] if not net.is_switch(n) else -1
        for n in range(net.n_nodes)
    ]
    switch_in_sources = [
        [src[c] for c in net.in_channels[u] if net.is_switch(src[c])]
        for u in range(net.n_nodes)
    ]
    pair_channels: Dict[Tuple[int, int], List[int]] = {}
    for c in range(net.n_channels):
        pair_channels.setdefault((src[c], dst[c]), []).append(c)
    bundles: List[List[int]] = []
    copy_index = np.zeros(net.n_channels, dtype=np.int64)
    for (u, v), bundle in sorted(pair_channels.items(),
                                 key=lambda kv: kv[1][0]):
        if len(bundle) > 1:
            bundles.append(bundle)
            for i, ch in enumerate(bundle):
                copy_index[ch] = i
    bundle_ptr, bundle_idx = _pack(bundles)
    terminal_ids = np.fromiter(
        (v for v in range(net.n_nodes) if not net.is_switch(v)),
        dtype=np.int32,
    )
    return {
        "injection_channel": injection_channel,
        "switch_in_sources": switch_in_sources,
        "pair_channels": pair_channels,
        "bundles": bundles,
        "copy_index": copy_index,
        "bundle_ptr": bundle_ptr,
        "bundle_idx": bundle_idx,
        "terminal_ids": terminal_ids,
    }


def assert_derived_matches_reference(net: Network) -> None:
    want = reference_derived(net)
    for view in (CSRView(net),
                 CSRView.from_buffers(net, reference_buffers(net))):
        assert view.injection_channel == want["injection_channel"]
        assert view.switch_in_sources == want["switch_in_sources"]
        assert view.bundles == want["bundles"]
        for key in ("copy_index", "bundle_ptr", "bundle_idx",
                    "terminal_ids"):
            got = getattr(view, key)
            assert got.dtype == want[key].dtype, key
            np.testing.assert_array_equal(got, want[key], err_msg=key)
        for (u, v), chans in want["pair_channels"].items():
            assert view.channels_between(u, v) == chans
        nodes = range(min(net.n_nodes, 24))  # absent pairs: empty
        for u in nodes:
            for v in nodes:
                assert view.channels_between(u, v) == \
                    want["pair_channels"].get((u, v), [])


@pytest.mark.parametrize(
    "builder", [b for _, b in GENERATORS], ids=[n for n, _ in GENERATORS])
def test_derived_indices_every_generator(builder):
    assert_derived_matches_reference(builder())


def test_derived_indices_faulty_net():
    net = torus([4, 3], 2, redundancy=2)
    net = remove_links(net, [0, 3, 9]).net
    assert_derived_matches_reference(net)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_switches=st.integers(2, 12), extra=st.integers(0, 24),
       terminals=st.integers(0, 2), seed=st.integers(0, 2**31))
def test_derived_indices_random_multigraphs(n_switches, extra, terminals,
                                            seed):
    assert_derived_matches_reference(random_topology(
        n_switches, n_switches - 1 + extra, terminals, seed=seed))

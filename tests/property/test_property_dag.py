"""Hypothesis: the one acyclicity check against an outside oracle.

``repro.utils.dag.kahn_residue`` answers every plain "is this a DAG?"
question in the library, so it is checked against networkx — code this
repo does not own — on random edge arrays: empty, self-loops,
duplicate edges, sparse int64 keys.  Whenever the verdict is "cyclic",
``find_vc_cycle`` (the one witness extractor) must return a closed walk
made of input edges only.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.metrics.deadlock import find_vc_cycle
from repro.utils.dag import kahn_residue

# a few dense small keys (cycles, self-loops and duplicates are likely)
# mixed with keys far apart in int64 (`channel << VL_BITS | vl` style)
_KEYS = st.one_of(st.integers(0, 7),
                  st.integers(0, 2**62).map(lambda k: k | 1 << 40))
_EDGES = st.lists(st.tuples(_KEYS, _KEYS), max_size=40)


@settings(max_examples=300, deadline=None)
@given(edges=_EDGES)
def test_verdict_agrees_with_networkx(edges):
    tails = np.array([t for t, _ in edges], dtype=np.int64)
    heads = np.array([h for _, h in edges], dtype=np.int64)
    graph = nx.DiGraph(edges)
    residue = kahn_residue(tails, heads)
    assert (residue == 0) == nx.is_directed_acyclic_graph(graph)
    # the residue is everything on or behind a cycle: the descendants
    # of the cyclic strongly connected components, themselves included
    on_cycle = set(nx.nodes_with_selfloops(graph))
    for scc in nx.strongly_connected_components(graph):
        if len(scc) > 1:
            on_cycle |= scc
    behind = set(on_cycle)
    for v in on_cycle:
        behind |= nx.descendants(graph, v)
    assert residue == len(behind)


@settings(max_examples=300, deadline=None)
@given(edges=_EDGES)
def test_witness_is_a_closed_walk_of_input_edges(edges):
    tails = np.array([t for t, _ in edges], dtype=np.int64)
    heads = np.array([h for _, h in edges], dtype=np.int64)
    adj = {}
    for t, h in edges:  # (key, 0) stands in for a (channel, vl) vertex
        adj.setdefault((t, 0), set()).add((h, 0))
        adj.setdefault((h, 0), set())
    cycle = find_vc_cycle(adj)
    if kahn_residue(tails, heads) == 0:
        assert cycle is None
        return
    assert cycle
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert (a[0], b[0]) in set(edges)


def test_empty_and_list_inputs():
    assert kahn_residue(np.empty(0, np.int64), np.empty(0, np.int64)) == 0
    assert kahn_residue([3, 5], [5, 9]) == 0
    assert kahn_residue([3, 5, 9], [5, 9, 3]) == 3
    assert kahn_residue([4], [4]) == 1

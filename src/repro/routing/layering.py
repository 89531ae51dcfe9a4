"""Assignment of paths to virtual layers for deadlock-freedom.

Two strategies from the literature, both operating on the channel
dependency pairs of already-computed paths:

* :class:`repro.routing.lash.GreedyLayerAssigner` — LASH's scheme:
  place each path into the first existing layer whose induced CDG
  stays acyclic, opening a new layer when none fits (it lives next to
  its only caller, so this module needs no ``repro.cdg``).
* :func:`break_cycles_into_layers` — DFSSSP's scheme: start with every
  path in layer 0; while the layer's induced CDG has a cycle, take the
  cycle edge carrying the fewest paths and push those paths into the
  next layer; repeat per layer.

Both are *unbounded*: they report how many layers were needed, and the
calling routing algorithm compares that against its VC budget (that
comparison failing is exactly the "DFSSSP exceeds the given VC limit
and is therefore inapplicable" situation of the paper's Fig. 1).

Dependencies are extracted from switch-to-switch channels only —
terminal channels can never participate in a CDG cycle (the only edge
into an injection channel would be a 180-degree turn, which Def. 6
excludes).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.network.graph import Network

__all__ = [
    "path_dependencies",
    "break_cycles_into_layers",
]


def path_dependencies(
    net: Network, path: Sequence[int]
) -> List[Tuple[int, int]]:
    """Consecutive switch-to-switch channel pairs along a channel path."""
    deps: List[Tuple[int, int]] = []
    prev = -1
    for c in path:
        u, v = net.channel_src[c], net.channel_dst[c]
        if net.is_switch(u) and net.is_switch(v):
            if prev >= 0:
                deps.append((prev, c))
            prev = c
        else:
            prev = -1
    return deps


def _find_cycle(adj: Dict[int, Set[int]]) -> Optional[List[Tuple[int, int]]]:
    """One directed cycle of ``adj`` as an edge list, or None.

    Iterative colored DFS; returns the edge sequence of the first
    back-edge cycle encountered.

    Not the shared acyclicity check (:func:`repro.utils.dag.kahn_residue`)
    on purpose: *which* cycle comes back picks the weakest edge
    :func:`break_cycles_into_layers` moves paths off, so this search
    order is part of the DFSSSP baseline itself (the dfsssp golden
    digests pin it) — as Pearce-Kelly is part of Nue.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[int, int] = {v: WHITE for v in adj}
    parent_edge: Dict[int, Tuple[int, int]] = {}
    for root in adj:
        if color[root] != WHITE:
            continue
        stack: List[Tuple[int, Iterable[int]]] = [(root, iter(adj[root]))]
        color[root] = GRAY
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w not in adj:
                    continue
                if color.get(w, WHITE) == WHITE:
                    color[w] = GRAY
                    parent_edge[w] = (v, w)
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
                if color.get(w) == GRAY:
                    # found a cycle: w .. v -> w
                    cycle = [(v, w)]
                    cur = v
                    while cur != w:
                        e = parent_edge[cur]
                        cycle.append(e)
                        cur = e[0]
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[v] = BLACK
                stack.pop()
        # reset parent edges between roots is unnecessary: BLACK nodes
        # are never re-entered.
    return None


def break_cycles_into_layers(
    net: Network,
    pair_paths: Dict[Tuple[int, int], Sequence[int]],
) -> Tuple[Dict[Tuple[int, int], int], int]:
    """DFSSSP-style layering: move paths off the weakest cycle edges.

    Parameters
    ----------
    pair_paths:
        Mapping ``(source, dest) -> channel path``.

    Returns
    -------
    (pair_layer, n_layers):
        Layer index per pair and the total number of layers needed.
    """
    pair_deps = {
        pair: path_dependencies(net, path)
        for pair, path in pair_paths.items()
    }
    pending = [pair for pair, deps in pair_deps.items()]
    pair_layer: Dict[Tuple[int, int], int] = {}
    layer = 0
    while pending:
        # build this layer's dependency graph with edge -> pairs index
        edge_pairs: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
        adj: Dict[int, Set[int]] = {}
        for pair in pending:
            for cp, cq in pair_deps[pair]:
                edge_pairs.setdefault((cp, cq), set()).add(pair)
                adj.setdefault(cp, set()).add(cq)
                adj.setdefault(cq, set())
        moved: Set[Tuple[int, int]] = set()
        while True:
            cycle = _find_cycle(adj)
            if cycle is None:
                break
            # weakest edge = fewest paths crossing it
            weak = min(cycle, key=lambda e: (len(edge_pairs[e]), e))
            for pair in list(edge_pairs[weak]):
                moved.add(pair)
                for dep in pair_deps[pair]:
                    group = edge_pairs.get(dep)
                    if group is None:
                        continue
                    group.discard(pair)
                    if not group:
                        del edge_pairs[dep]
                        adj[dep[0]].discard(dep[1])
        for pair in pending:
            if pair not in moved:
                pair_layer[pair] = layer
        pending = sorted(moved)
        layer += 1
    return pair_layer, max(layer, 1)

"""Spanning-tree root selection (paper Section 4.3).

The escape paths impose immovable channel dependencies, and their
number depends on where the spanning tree is rooted (paper Fig. 5: 5 vs
4 initial dependencies on the example ring).  Nue therefore roots the
tree at the node that is most *central with respect to the layer's
destination subset*: it computes the convex subgraph ``H_i`` spanned by
the shortest paths among ``N_i^d`` (Def. 8) and picks the node of
``H_i`` with maximum Brandes betweenness centrality.

Every pass is an array pass over ``net.csr`` in small row blocks:

* **Convex subgraph** — a level-synchronous BFS from up to
  :data:`CONVEX_BLOCK` destinations at once (one ``int32`` distance row
  each), then the paper's backward sweep as one mask step per BFS
  level over the ``(block x channel)`` step matrix: a channel ``v -> w``
  is a step when ``dist[w] == dist[v] + 1``, and it marks ``v`` (and
  the link) when ``w`` is marked.  Cost ``O(|N_d| * (D * |N| + |C|))``
  element operations (``D`` the diameter) in ``O(|N_d| / 16 * D)``
  numpy calls.
* **Brandes** — up to :data:`BRANDES_BLOCK` sources at once with σ and
  δ as 2-D arrays.  The shortest-path DAG edges of a block come from
  one ``nonzero`` over the ``(block x arc)`` matrix, grouped by level
  with a stable sort; σ flows down the levels and δ back up them, one
  scatter-add per level.  Cost ``O(|H| * (D * |H| + |E_H|))`` element
  operations in ``O(|H| / 32 * D)`` numpy calls.
* **Tie-break** — one block BFS from the tied nodes.

The blocks bound the working set to ``block x |C|``, never
``|N_d| x |N|`` at once.

**Ordering contract.**  On symmetric fabrics several nodes share the
maximum betweenness only up to float round-off, so the root is decided
by the exact bits of the sums, not by the graph alone.  The bits are
pinned to the original scalar implementation (kept as the test oracle
in ``tests/core/test_root.py``):

* σ holds integers, so its summation order is free.
* ``δ[u]`` adds its DAG children left to right, starting from 0.0, in
  ``u``'s adjacency-list order; ``bc`` adds the per-source δ rows in
  source order.
* ``H``'s adjacency order is the iteration order of a Python ``set``
  of undirected edges ``(min, max)`` filled in *first-marking* order:
  destination position, then the node's rank in the stable ``-dist``
  sort of that destination's sweep, then the channel's position in the
  node's out-channel list.

Sorted adjacency lists move the root of torus443 minus switch 5 at
k=8, seed 2 (layer 2); an ``isclose`` maximum moves the k=1 root of
torus443; a set filled in sorted order changes ``H``'s adjacency order.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.network.graph import Network

__all__ = [
    "convex_subgraph",
    "betweenness_centrality",
    "select_root",
]

#: destinations per convex-subgraph block (and tied nodes per
#: tie-break BFS block)
CONVEX_BLOCK = 16
#: sources per Brandes block
BRANDES_BLOCK = 32


def _arcs(net: Network) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ptr, tail, head)`` of the network's channels in out-channel
    order: ``head[ptr[v]:ptr[v+1]]`` are ``v``'s out-neighbours."""
    csr = net.csr
    ptr = csr.out_ptr.astype(np.int64)
    tail = np.repeat(np.arange(net.n_nodes, dtype=np.int64), np.diff(ptr))
    head = csr.channel_dst[csr.out_idx].astype(np.int64)
    return ptr, tail, head


def _block_bfs(ptr: np.ndarray, head: np.ndarray,
               sources: Sequence[int]) -> np.ndarray:
    """Hop distances from each of ``sources`` over the adjacency
    ``(ptr, head)``: one ``int32`` row per source, -1 if unreachable."""
    n = len(ptr) - 1
    rows = len(sources)
    dist = np.full(rows * n, -1, dtype=np.int32)
    front = np.arange(rows, dtype=np.int64) * n + np.asarray(sources)
    dist[front] = 0
    deg = np.diff(ptr)
    level = 0
    while front.size:
        v = front % n
        lens = deg[v]
        ends = np.cumsum(lens)
        if not ends[-1]:
            break
        pos = np.arange(ends[-1]) + np.repeat(ptr[v] - ends + lens, lens)
        hop = np.repeat(front - v, lens) + head[pos]
        level += 1
        dist[hop[dist[hop] < 0]] = level
        front = np.flatnonzero(dist == level)
    return dist.reshape(rows, n)


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort; keys that fit 16 bits take numpy's radix sort."""
    if keys.size and -2**15 <= keys.min() and keys.max() < 2**15:
        keys = keys.astype(np.int16)
    return np.argsort(keys, kind="stable")


def _level_runs(levels: np.ndarray) -> List[Tuple[int, int]]:
    """``[lo, hi)`` runs of equal values in a grouped ``levels``."""
    cuts = (np.flatnonzero(np.diff(levels)) + 1).tolist()
    return list(zip([0] + cuts, cuts + [len(levels)]))


def _convex_edges(
    net: Network, dest_subset: Sequence[int]
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Member mask of ``H`` and its undirected edges in adjacency
    order (the ordering contract's edge set, iterated)."""
    n = net.n_nodes
    ptr, tail, head = _arcs(net)
    links, link_of = np.unique(
        np.minimum(tail, head) * n + np.maximum(tail, head),
        return_inverse=True,
    )
    seen = np.zeros(len(links), dtype=bool)
    first_marked: List[np.ndarray] = []
    dests = list(dict.fromkeys(int(d) for d in dest_subset))
    targets = np.zeros(n, dtype=bool)
    targets[dests] = True
    member = targets.copy()
    for start in range(0, len(dests), CONVEX_BLOCK):
        block = dests[start:start + CONVEX_BLOCK]
        rows = np.arange(len(block))
        dist = _block_bfs(ptr, head, block)
        level_of_tail = dist[:, tail]
        r, p = np.nonzero(dist[:, head] == level_of_tail + 1)
        lv = level_of_tail[r, p]
        marked = np.repeat(targets[None, :], len(block), axis=0)
        marked[rows, block] = False
        flat = marked.reshape(-1)
        src_flat = r * n + tail[p]
        dst_flat = r * n + head[p]
        # backward sweep: one mask step per level, deepest first; a
        # step's head is final once its (deeper) level has been swept
        by_level = _stable_order(-lv)
        for lo, hi in _level_runs(lv[by_level]):
            step = by_level[lo:hi]
            flat[src_flat[step][flat[dst_flat[step]]]] = True
        hit = flat[dst_flat]
        member |= marked.any(axis=0)
        # first-marking order: destination, sweep rank (-dist, node id),
        # out-channel position — row-major nonzero order already sorts
        # ties by (node id, out-channel position)
        r, p, lv = r[hit], p[hit], lv[hit]
        top = int(lv.max(initial=0)) + 1
        order = _stable_order(r * (top + 2) + (top - lv))
        marks = link_of[p[order]]
        _, first = np.unique(marks, return_index=True)
        fresh = marks[np.sort(first)]
        fresh = fresh[~seen[fresh]]
        seen[fresh] = True
        first_marked.append(fresh)
    marked_links = links[np.concatenate(first_marked)] if first_marked \
        else links[:0]
    edge_set = set(zip((marked_links // n).tolist(),
                       (marked_links % n).tolist()))
    return member, list(edge_set)


def _convex_csr(
    net: Network, dest_subset: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(nodes, ptr, head)``: ``H``'s node ids and its adjacency over
    compact indices, in the ordering contract's adjacency order."""
    member, edges = _convex_edges(net, dest_subset)
    nodes = np.flatnonzero(member)
    index = np.full(net.n_nodes, -1, dtype=np.int64)
    index[nodes] = np.arange(len(nodes))
    pairs = index[np.asarray(edges, dtype=np.int64).reshape(-1, 2)]
    # each edge (u, v) appends v to u's list, then u to v's
    tails = pairs.reshape(-1)
    heads = pairs[:, ::-1].reshape(-1)
    ptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=len(nodes)), out=ptr[1:])
    return nodes, ptr, heads[np.argsort(tails, kind="stable")]


def _brandes(ptr: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Brandes betweenness over compact nodes ``0..n-1`` with
    adjacency ``(ptr, head)``, in source blocks (ordering contract)."""
    n = len(ptr) - 1
    bc = np.zeros(n)
    tail = np.repeat(np.arange(n, dtype=np.int64), np.diff(ptr))
    for start in range(0, n, BRANDES_BLOCK):
        sources = np.arange(start, min(n, start + BRANDES_BLOCK))
        rows = len(sources)
        dist = _block_bfs(ptr, head, sources)
        level_of_tail = dist[:, tail]
        r, e = np.nonzero((dist[:, head] == level_of_tail + 1)
                          & (level_of_tail >= 0))
        # the block's shortest-path DAG, grouped by level; within a
        # level, row-major order keeps each tail's arcs in adjacency
        # order
        by_level = _stable_order(level_of_tail[r, e])
        r, e = r[by_level], e[by_level]
        runs = _level_runs(level_of_tail[r, e])
        up = r * n + tail[e]
        down = r * n + head[e]
        seeds = np.arange(rows) * n + sources
        sigma = np.zeros(rows * n)
        sigma[seeds] = 1.0
        for lo, hi in runs:
            np.add.at(sigma, down[lo:hi], sigma[up[lo:hi]])
        delta = np.zeros(rows * n)
        for lo, hi in reversed(runs):
            u, w = up[lo:hi], down[lo:hi]
            np.add.at(delta, u, sigma[u] / sigma[w] * (1.0 + delta[w]))
        delta[seeds] = 0.0
        for row in delta.reshape(rows, n):
            bc += row
    return bc


def convex_subgraph(
    net: Network, dest_subset: Sequence[int]
) -> Tuple[List[int], Dict[int, List[int]]]:
    """Nodes and adjacency of the convex subgraph for ``dest_subset``.

    A node belongs to ``H`` when it is a destination or lies on a
    shortest path between two destinations (Def. 8); an (undirected)
    adjacency entry is kept when the hop lies on such a shortest path.

    Returns ``(nodes, adjacency)`` with adjacency restricted to ``H``
    (isolated members, e.g. a lone destination, map to ``[]``).
    """
    nodes, ptr, head = _convex_csr(net, dest_subset)
    ids = nodes.tolist()
    nbrs = nodes[head].tolist()
    bounds = ptr.tolist()
    return ids, {
        v: nbrs[bounds[i]:bounds[i + 1]] for i, v in enumerate(ids)
    }


def betweenness_centrality(
    nodes: Sequence[int], adjacency: Dict[int, List[int]]
) -> Dict[int, float]:
    """Brandes' exact betweenness centrality on an unweighted graph
    (directed adjacency; sources in ``nodes`` order)."""
    nodes = list(nodes)
    if not nodes:
        return {}
    index = {v: i for i, v in enumerate(nodes)}
    ptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum([len(adjacency[v]) for v in nodes], out=ptr[1:])
    head = np.fromiter((index[w] for v in nodes for w in adjacency[v]),
                       dtype=np.int64, count=int(ptr[-1]))
    return dict(zip(nodes, _brandes(ptr, head).tolist()))


def select_root(
    net: Network,
    dest_subset: Sequence[int],
    all_dests: bool = False,
) -> int:
    """Root node for a layer's escape-path spanning tree.

    ``all_dests=True`` is the paper's ``k = 1`` shortcut: the convex
    subgraph equals the whole network, so Brandes runs on ``I``
    directly.  Ties break toward short escape paths, then the lower
    node id.
    """
    if not dest_subset:
        raise ValueError("empty destination subset")
    if all_dests:
        # simple-graph adjacency (each neighbour once, first channel's
        # position): parallel channels do not multiply shortest-path
        # counts for centrality purposes
        ptr, tail, head = _arcs(net)
        _, first = np.unique(tail * net.n_nodes + head, return_index=True)
        keep = np.sort(first)
        nodes = np.arange(net.n_nodes)
        ptr = np.zeros(net.n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(tail[keep], minlength=net.n_nodes),
                  out=ptr[1:])
        head = head[keep]
    else:
        nodes, ptr, head = _convex_csr(net, dest_subset)
    bc = _brandes(ptr, head)
    ties = nodes[bc == bc.max()]
    if len(ties) == 1:
        return int(ties[0])
    # tie-break toward short escape paths (§4.3's latency argument):
    # least total network distance to the destination subset, then id
    ptr, _tail, head = _arcs(net)
    dset = np.unique(np.asarray(dest_subset, dtype=np.int64))
    sums = np.concatenate([
        _block_bfs(ptr, head, ties[i:i + CONVEX_BLOCK])[:, dset]
        .sum(axis=1, dtype=np.int64)
        for i in range(0, len(ties), CONVEX_BLOCK)
    ])
    return int(ties[np.argmin(sums)])

"""Deadlock analysis of routing results (paper Theorem 1).

A destination-based routing is deadlock-free iff its induced channel
dependency graph is acyclic.  With virtual channels the right object is
the *virtual-channel* dependency graph: vertices ``(channel, vl)`` and
an edge between consecutive hops of any route, each hop taken on its
own VL (Dally & Seitz).  Static-layer routings (Nue, DFSSSP, LASH)
yield per-layer subgraphs with no cross-layer edges; per-hop-VL
routings (Torus-2QoS datelines) yield genuine VL transitions — both
are covered by the per-hop VLs of the table walk
(:func:`repro.routing.walk.vc_dependencies`).

Only switch-to-switch channels are considered: a terminal's injection
channel cannot sit on a cycle (the only dependency into it would be a
180-degree turn, excluded by Def. 6).

:class:`DeadlockAnalysis` lifts the graph once, as integer arrays, and
answers every question from that one lift: the verdict by the
library's one Kahn peel (:func:`repro.utils.dag.kahn_residue`), the VC
requirement, and — only when a cycle exists — the dict form and
:func:`find_vc_cycle`'s witness.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.routing.base import RoutingResult
from repro.routing.layering import break_cycles_into_layers
from repro.routing.walk import (
    switch_channel_mask,
    vc_dependencies,
    vc_nodes,
)
from repro.utils.dag import kahn_residue

__all__ = [
    "induced_vc_dependencies",
    "is_deadlock_free",
    "find_vc_cycle",
    "required_vcs",
    "explicit_paths_deadlock_free",
]

VCNode = Tuple[int, int]  # (channel id, virtual layer)


def _as_tuples(keys: np.ndarray) -> List[VCNode]:
    channel, vl = vc_nodes(keys)
    return list(zip(channel.tolist(), vl.tolist()))


class DeadlockAnalysis:
    """One lift of a routing's induced VC dependency graph.

    ``sources`` defaults to all switches — sufficient for deadlock
    analysis because every terminal's route coincides with its switch's
    route after the injection hop.  Raises the scalar accessor's
    :class:`~repro.routing.base.RoutingError` when a pair has no route.
    """

    def __init__(self, result: RoutingResult,
                 sources: Optional[Sequence[int]] = None) -> None:
        self.result = result
        self.sources = result.net.switches if sources is None else sources
        self.vertices, self.tails, self.heads = vc_dependencies(
            result, self.sources)

    @cached_property
    def deadlock_free(self) -> bool:
        """Theorem 1 verdict: the lifted graph is acyclic."""
        return kahn_residue(self.tails, self.heads) == 0

    def adjacency(self) -> Dict[VCNode, Set[VCNode]]:
        """The graph as ``{(channel, vl): {(channel, vl), ...}}``."""
        adj: Dict[VCNode, Set[VCNode]] = {
            v: set() for v in _as_tuples(self.vertices)}
        for tail, head in zip(_as_tuples(self.tails),
                              _as_tuples(self.heads)):
            adj[tail].add(head)
        return adj

    def cycle(self) -> Optional[List[VCNode]]:
        """A Theorem-1 witness cycle, or None when deadlock-free."""
        if self.deadlock_free:
            return None
        return find_vc_cycle(self.adjacency())

    def required_vcs(self) -> int:
        """See :func:`required_vcs`."""
        if self.deadlock_free:
            if self.vertices.size == 0:
                return 1
            return int(vc_nodes(self.vertices)[1].max()) + 1
        result = self.result
        pair_paths = {
            (s, j): result.path(s, d)
            for j, d in enumerate(result.dests)
            for s in self.sources
            if s != d
        }
        _, n_layers = break_cycles_into_layers(result.net, pair_paths)
        return n_layers


def induced_vc_dependencies(
    result: RoutingResult,
    sources: Optional[Sequence[int]] = None,
) -> Dict[VCNode, Set[VCNode]]:
    """Adjacency of the induced virtual-channel dependency graph.

    ``sources`` defaults to all switches — sufficient for deadlock
    analysis because every terminal's route coincides with its switch's
    route after the injection hop.
    """
    return DeadlockAnalysis(result, sources).adjacency()


def find_vc_cycle(
    adj: Dict[VCNode, Set[VCNode]]
) -> Optional[List[VCNode]]:
    """A vertex cycle of the VC dependency graph, or None when acyclic.

    Kahn peeling: everything left after repeatedly removing zero
    in-degree vertices lies on or feeds a cycle; a DFS walk inside the
    remainder extracts one concrete cycle for diagnostics.
    """
    indeg: Dict[VCNode, int] = {v: 0 for v in adj}
    for v, outs in adj.items():
        for w in outs:
            indeg[w] = indeg.get(w, 0) + 1
    queue = [v for v, deg in indeg.items() if deg == 0]
    removed: Set[VCNode] = set()
    while queue:
        v = queue.pop()
        removed.add(v)
        for w in adj.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    # reverse peel (zero out-degree) so every survivor has a live
    # successor — otherwise the cycle walk below could hit a dead end
    # on a sink that is merely *fed* by a cycle.
    outdeg: Dict[VCNode, int] = {}
    radj: Dict[VCNode, Set[VCNode]] = {}
    for v in adj:
        if v in removed:
            continue
        live = {w for w in adj[v] if w not in removed}
        outdeg[v] = len(live)
        for w in live:
            radj.setdefault(w, set()).add(v)
    queue = [v for v, deg in outdeg.items() if deg == 0]
    while queue:
        v = queue.pop()
        removed.add(v)
        for w in radj.get(v, ()):
            if w in removed:
                continue
            outdeg[w] -= 1
            if outdeg[w] == 0:
                queue.append(w)
    remainder = [v for v in adj if v not in removed]
    if not remainder:
        return None
    # walk inside the remainder until a vertex repeats
    walk: List[VCNode] = [remainder[0]]
    seen = {remainder[0]: 0}
    while True:
        nxt = next(w for w in adj[walk[-1]] if w not in removed)
        if nxt in seen:
            return walk[seen[nxt]:]
        seen[nxt] = len(walk)
        walk.append(nxt)


def is_deadlock_free(
    result: RoutingResult,
    sources: Optional[Sequence[int]] = None,
) -> bool:
    """Theorem 1 check: acyclic induced VC dependency graph."""
    return DeadlockAnalysis(result, sources).deadlock_free


def required_vcs(result: RoutingResult) -> int:
    """Virtual channels this routing's *paths* need for deadlock freedom.

    When the declared VL assignment is already deadlock-free, that
    assignment's layer count is the answer (Fig. 1b's hatched 1-VC bars
    and Torus-2QoS's 2).  Otherwise — MinHop, DOR and friends that do
    no deadlock avoidance — the DFSSSP cycle-breaking is run on the
    path set to determine how many layers *would* be needed.
    """
    return DeadlockAnalysis(result).required_vcs()


def explicit_paths_deadlock_free(net, paths_and_vls) -> bool:
    """Theorem-1 check over explicit routes (source-routed results).

    ``paths_and_vls`` yields ``(channel_path, vl)`` pairs; per-hop VLs
    are constant per path here (the source-routed variant assigns one
    lane per pair).  Terminal channels are excluded as always.
    """
    inter_switch = switch_channel_mask(net).tolist()
    ids: Dict[VCNode, int] = {}
    tails: List[int] = []
    heads: List[int] = []
    for path, vl in paths_and_vls:
        prev: Optional[int] = None
        for c in path:
            if inter_switch[c]:
                node = ids.setdefault((c, vl), len(ids))
                if prev is not None:
                    tails.append(prev)
                    heads.append(node)
                prev = node
            else:
                prev = None
    return kahn_residue(np.array(tails, dtype=np.int64),
                        np.array(heads, dtype=np.int64)) == 0

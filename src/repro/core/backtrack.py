"""Impasse resolution: local backtracking and island shortcuts
(paper Sections 4.6.2 and 4.6.3).

When Algorithm 1 drains its heap with nodes still unreached — *islands*
walled off by previously placed routing restrictions — Nue checks the
2-hop neighbourhood of each island node for alternative routes: an
island channel ``c = (u, v)`` combined with any alternative in-channel
``a = (w, u)`` of the reached neighbour ``u`` forms a candidate detour
``v <- u <- w``.  It is taken when, simultaneously,

* the upstream dependency ``(usedChannel[w], a)`` is usable,
* the island dependency ``(a, c)`` is usable, and
* every dependency already recorded from ``u`` to its *current* tree
  children remains valid when re-based onto ``a`` (otherwise traffic
  that merges at ``u`` would ride an unchecked dependency).

Among all valid candidates the shortest (by accumulated weight) wins.
The checks interact — the upstream edge extends paths into ``a`` while
the re-based child edges extend paths out of it — so the commit is
atomic: each cycle check sees the edges added before it and any failure
rolls everything back exactly.

After an island is connected, Algorithm 1's main loop resumes, so whole
island *clusters* fill in.  A freshly connected island may then serve
as a **shortcut** to already-reached neighbours (Section 4.6.3): the
neighbour is re-based onto the island when that shortens its path and
all its local dependencies can be kept in place; dependencies this very
routing step had recorded for the superseded channel are reverted (the
ω reversal the paper describes).

A used-forest cycle (``u``'s new chain running back through ``u``)
cannot arise: every consecutive chain dependency is in the used state,
so a forest cycle would be a used-CDG cycle, which the checks exclude.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.obs import core as obs

__all__ = ["resolve_islands"]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.dijkstra import NueLayerRouter


def _connect_through(
    router: "NueLayerRouter", c: int, a: int
) -> bool:
    """Try the detour ``island <-c- u <-a- w``; commit when legal.

    ``a == usedChannel[u]`` means no re-base — only the island
    dependency is new.  Returns True on success.
    """
    net = router.net
    used = router._used
    u = net.channel_src[c]
    edges: List[Tuple[int, int]] = []
    if a != used[u]:
        w = net.channel_src[a]
        edges.append((used[w], a))
        needed = router.child_rebase_dependencies(u, a)
        if needed is None:
            return False
        edges.extend(needed)
    edges.append((a, c))
    if not router.try_use_dependencies_atomic(edges):
        return False
    router.cdg.mark_vertex_used(a)
    if a != used[u]:
        used[u] = a
        router._dist_node[u] = router._dist_chan[a]
    return True


def resolve_islands(
    router: "NueLayerRouter", dest: int
) -> Tuple[bool, int]:
    """One round of Section-4.6.2 backtracking.

    Tries to connect each island node through its 2-hop neighbourhood.
    Returns ``(progressed, shortcuts_taken)``; the caller re-runs the
    main loop after progress so island clusters complete, and calls
    again until no islands remain or no progress is possible.
    """
    net = router.net
    cdg = router.cdg
    used = router._used
    weights = router.weights
    progressed = False
    shortcuts = 0
    candidates_tried = 0

    islands = [v for v in range(net.n_nodes) if v != dest and used[v] < 0]
    for v in islands:
        if used[v] >= 0:
            continue  # reached meanwhile by an earlier detour
        # rank candidates (cost, a, c): island channel c = (u, v) plus
        # an in-channel a of u (usedChannel[u] first: its dependency
        # into c may never have been attempted if u was re-based after
        # its heap pop)
        candidates: List[Tuple[float, int, int]] = []
        for c in net.in_channels[v]:
            u = net.channel_src[c]
            if used[u] < 0:
                continue
            cur = used[u]
            if not cdg.would_close_cycle(cur, c):
                cost = router._dist_chan[cur] + weights[c]
                candidates.append((cost, cur, c))
            for a in net.in_channels[u]:
                w = net.channel_src[a]
                if a == cur or used[w] < 0 or w == v:
                    continue
                if not cdg.dependency_exists(a, c):
                    continue
                if not cdg.dependency_exists(used[w], a):
                    continue  # w's own chain arrives through u
                cost = router._dist_node[w] + weights[a] + weights[c]
                candidates.append((cost, a, c))
        for cost, a, c in sorted(candidates):
            candidates_tried += 1
            u = net.channel_src[c]
            if a != used[u]:
                router._dist_chan[a] = router._dist_node[
                    net.channel_src[a]
                ] + weights[a]
            if not _connect_through(router, c, a):
                continue
            used[v] = c
            router._dist_node[v] = cost
            router._dist_chan[c] = cost
            router.heap_push(c, cost)
            progressed = True
            if router.enable_shortcuts:
                shortcuts += _try_shortcuts(router, v)
            break

    if obs.enabled():
        obs.count_many({
            "nue.islands_seen": len(islands),
            "nue.backtrack_candidates": candidates_tried,
        }, layer=router.layer_index)
    return progressed, shortcuts


def _try_shortcuts(router: "NueLayerRouter", v: int) -> int:
    """Section 4.6.3: use the freshly connected island ``v`` to shorten
    already-reached neighbours, keeping local dependencies in place."""
    net = router.net
    cdg = router.cdg
    used = router._used
    taken = 0
    for c in net.out_channels[v]:
        t = net.channel_dst[c]
        if used[t] < 0 or used[t] == c:
            continue
        new_dist = router._dist_node[v] + router.weights[c]
        if new_dist >= router._dist_node[t]:
            continue
        if not cdg.dependency_exists(used[v], c):
            continue
        needed = router.child_rebase_dependencies(t, c)
        if needed is None:
            continue
        # feed + re-based child deps interact; atomic commit checks
        # them sequentially and rolls back on any cycle
        if not router.try_use_dependencies_atomic([(used[v], c)] + needed):
            continue
        old = used[t]
        # revert this step's dependencies of the superseded channel
        for _, cq in needed:
            router.unuse_step_dependency(old, cq)
        used[t] = c
        router._dist_node[t] = new_dist
        router._dist_chan[c] = new_dist
        router.heap_push(c, new_dist)
        taken += 1
    return taken

"""Modified Dijkstra inside the complete CDG (paper Algorithm 1).

One *routing step* computes deadlock-free routes from every node toward
one destination within one virtual layer, walking the layer's complete
CDG and blocking cycle-closing dependencies on the fly.
:meth:`NueLayerRouter.route_batch` runs the steps of a whole
destination batch back to back on the layer's shared state.

Orientation
-----------
The search starts at the route **destination** and discovers the
network outward, exactly as Algorithm 1 does (its ``Result`` is
``P_{n_y, n_0}`` — paths *toward* the search source).  A node's
forwarding channel toward the destination is the reverse of its
``usedChannel``.  The dependencies recorded in the CDG are therefore
the *mirror* (channel-reversal image) of the traffic-direction
dependencies.  This is sound because the complete CDG is closed under
reversal — ``(c_p, c_q) ∈ Ē  ⇔  (rev(c_q), rev(c_p)) ∈ Ē`` by Def. 6 —
and reversal maps cycles to cycles, so the recorded dependency set is
acyclic iff the real traffic CDG is.

Expansion discipline
--------------------
A popped channel expands only when it *is* the head node's current
``usedChannel``.  Expanding a stale (superseded) channel would record
dependencies from a predecessor the destination-based forwarding never
uses, silently leaving the *actual* dependency
``(usedChannel[x], c_q)`` unchecked.  Alternative in-channels are
instead explored by the Section-4.6.2 local backtracking, which
re-bases a node onto an alternative only after re-validating its
upstream dependency and every already-recorded downstream dependency
(see :mod:`repro.core.backtrack`).

Hot-path layout
---------------
The inner loop runs on the network's CSR array core (``net.csr``): a
channel's CDG successors are one contiguous slice whose positions are
flat edge ids, prebuilt per router into rows of ``(edge id, successor,
head node)`` tuples, so the per-relaxation state probe is a single
``bytearray`` index — no dict hashing, no method call on the fast
*already-used* and *blocked* branches.  Distance/used scratch buffers
and the channel weights are plain Python lists preallocated per router
(CPython indexes lists faster than 0-d numpy scalars; float64 and
Python floats are the same IEEE doubles, so arithmetic is
bit-identical), refilled from templates per step.  The balancing
update only ever touches the step's forwarding forest, and the
per-destination copy-rotation bias is a handful of sparse adds, so the
weights are maintained in place across the batch.  Forwarding columns
are scattered into the caller's ``int32`` block in one vectorised pass
at the end of the batch.

The pre-CSR implementation is frozen in :mod:`repro.legacy.nue_ref`
and the equality tests pin this one to it, route-for-route and
counter-for-counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cdg.complete_cdg import CompleteCDG
from repro.core.backtrack import resolve_islands
from repro.core.escape import EscapePaths
from repro.network.graph import Network
from repro.obs import core as obs

__all__ = ["RetainedColumnConflict", "RoutingStep", "NueLayerRouter"]


class RetainedColumnConflict(ValueError):
    """A retained forwarding column cannot be re-marked on a rebuilt
    layer (see :meth:`NueLayerRouter.adopt_column`)."""


@dataclass
class RoutingStep:
    """Work record of one Algorithm-1 routing step (one destination).

    The work tallies (heap traffic, edge relaxations) are kept as plain
    local integers during the search and flushed to :mod:`repro.obs`
    in one batch when observation is enabled.  Per-node state lives in
    the caller's forwarding block, not here.
    """

    dest: int
    fell_back: bool = False
    islands_resolved: int = 0
    shortcuts_taken: int = 0
    backtrack_rounds: int = 0
    heap_pops: int = 0
    stale_pops: int = 0
    relaxations: int = 0
    heap_pushes: int = 0


class NueLayerRouter:
    """Routing state of one virtual layer: CDG, escape paths, weights.

    Destinations of the layer are routed by :meth:`route_batch`, one
    step after another; blocked dependencies and channel weights
    accumulate across steps, which is what makes later steps respect
    the restrictions and balance of earlier ones.
    """

    def __init__(
        self,
        net: Network,
        cdg: CompleteCDG,
        escape: EscapePaths,
        enable_backtracking: bool = True,
        enable_shortcuts: bool = True,
        layer_index: int = 0,
        kernel: str = "python",
    ) -> None:
        # inert: bench/workloads/route.py:88-93 passes kernel=<resolved name>
        if kernel != "python":
            raise ValueError(f"unknown kernel {kernel!r}; choose from ['python']")
        self.net = net
        self.csr = csr = net.csr
        self.cdg = cdg
        self.escape = escape
        self.enable_backtracking = enable_backtracking
        self.enable_shortcuts = enable_shortcuts
        self.layer_index = layer_index
        #: search-orientation channel weights (DFSSSP-style balancing);
        #: consistently search-side: entry c reflects the accumulated
        #: load of traffic channel rev(c).  The initial weight exceeds
        #: any load the updates can accumulate, so balancing only
        #: breaks ties among minimal paths — like DFSSSP, Nue prefers
        #: shortest routes and detours only around CDG restrictions.
        n_dests = len(net.terminals) or net.n_nodes
        base = float((len(net.terminals) or net.n_nodes) * n_dests + 1)
        self.weights: List[float] = [base] * net.n_channels
        # balancing-source template: every terminal (or, on switch-only
        # fabrics, every node) carries one unit of traffic; per step
        # only the destination's own entry changes
        self._sources: List[int] = [0] * net.n_nodes
        for s in (net.terminals or range(net.n_nodes)):
            self._sources[s] = 1
        # parallel-channel bundles (redundant links) get a transient
        # per-destination bias that rotates the preferred copy —
        # OpenSM's port-group balancing trick.  A bundle's bias depends
        # on the destination only through ``dest mod m`` (m = bundle
        # size), so the non-zero (channel, bias) entries are cached per
        # residue class modulo the lcm of the bundle sizes
        self._bias_mod = lcm(*map(len, csr.bundles))
        self._bias_pairs: Dict[int, List[Tuple[int, float]]] = {}
        # per-channel relaxation rows of (edge id, successor channel,
        # head node) triples, so the inner loop unpacks one prebuilt
        # tuple instead of indexing three flat mirrors
        dep_ptr = csr.dep_ptr_l
        dep_dst = csr.dep_dst_l
        head = csr.dep_head_l
        self._rows: List[List[Tuple[int, int, int]]] = [
            list(zip(range(dep_ptr[c], dep_ptr[c + 1]),
                     dep_dst[dep_ptr[c]:dep_ptr[c + 1]],
                     head[dep_ptr[c]:dep_ptr[c + 1]]))
            for c in range(net.n_channels)
        ]
        # per-step scratch, preallocated once and refilled per step
        # (templates make the refill one slice copy); the heap is a
        # lazy-deletion binary heap of (distance, channel) — stale
        # entries are skipped on pop, which profiling showed beats an
        # addressable heap in CPython by a wide margin on these
        # workloads (see repro.utils on the heap idiom)
        inf = float("inf")
        self._tmpl_node: List[float] = [inf] * net.n_nodes
        self._tmpl_chan: List[float] = [inf] * net.n_channels
        self._tmpl_used: List[int] = [-1] * net.n_nodes
        self._dist_node: List[float] = list(self._tmpl_node)
        self._dist_chan: List[float] = list(self._tmpl_chan)
        self._used: List[int] = list(self._tmpl_used)
        self._heap: List[Tuple[float, int]] = []
        self._step_marked: Set[int] = set()  # edge ids this step used
        # per-step work tallies (flushed to repro.obs once per step)
        self._pops = 0
        self._stale = 0
        self._relax = 0
        self._pushes = 0

    # -- public API --------------------------------------------------------------

    def route_batch(
        self,
        dests: Sequence[int],
        block: np.ndarray,
        cols: Optional[Sequence[int]] = None,
    ) -> List[RoutingStep]:
        """Algorithm 1 for every destination of ``dests``, in order.

        Each step runs the modified Dijkstra with impasse resolution
        and never fails: when the local backtracking cannot reconnect
        all islands, the entire step falls back to the escape paths
        (Section 4.6.2, option one), which Definition 7 guarantees to
        work.  Steps are committed in ``dests`` order on the shared
        layer state (weights, CDG restrictions).  The
        *traffic-direction* forwarding column of ``dests[i]`` —
        ``col[v]`` is the channel node ``v`` forwards on toward the
        destination, -1 at the destination itself — is written into
        ``block[:, cols[i]]`` (``cols`` defaults to
        ``0..len(dests)-1``); the returned steps carry the work
        tallies.
        """
        dests = list(dests)
        cols = list(range(len(dests))) if cols is None else list(cols)
        if len(cols) != len(dests):
            raise ValueError(
                f"route_batch got {len(dests)} destinations but "
                f"{len(cols)} columns"
            )
        if not dests:
            return []
        wl = self.weights
        used = self._used
        steps: List[RoutingStep] = []
        used_snapshots: List[List[int]] = []

        for dest in dests:
            self._dist_node[:] = self._tmpl_node
            self._dist_chan[:] = self._tmpl_chan
            used[:] = self._tmpl_used
            self._heap.clear()
            self._step_marked.clear()
            self._pops = self._stale = self._relax = self._pushes = 0
            step = RoutingStep(dest=dest)

            # rotate which parallel copy this destination prefers (a
            # transient sub-unit epsilon; hop-count dominance and the
            # >=1-unit balancing updates are never overpowered) — the
            # destination-hash port-group rotation redundant fabrics
            # need
            bias_pairs = self._copy_rotation(dest)
            for ch, b in bias_pairs:
                wl[ch] += b

            self._seed(dest)
            # unreached-node accounting without per-round O(n) list
            # scans: ``used`` only transitions -1 -> c (the dest entry
            # stays -1), so count once after seeding (C-fast) and
            # subtract the main loop's fresh reaches; island resolution
            # rewrites ``used`` arbitrarily, so recount after each
            # (rare) backtrack round
            miss = used.count(-1) - 1
            miss -= self._main_loop()
            while miss and self.enable_backtracking:
                progressed, shortcuts = resolve_islands(self, dest)
                step.shortcuts_taken += shortcuts
                step.backtrack_rounds += 1
                if not progressed:
                    break
                step.islands_resolved += 1
                self._main_loop()
                miss = used.count(-1) - 1
            if miss:
                self._fall_back(dest)
                step.fell_back = True

            for ch, b in bias_pairs:
                wl[ch] -= b
            self._update_weights(dest)

            used_snapshots.append(used.copy())
            step.heap_pops = self._pops
            step.stale_pops = self._stale
            step.relaxations = self._relax
            step.heap_pushes = self._pushes
            if obs.enabled():
                obs.count_many({
                    "nue.route_steps": 1,
                    "nue.heap_pops": step.heap_pops,
                    "nue.stale_pops": step.stale_pops,
                    "nue.relaxations": step.relaxations,
                    "nue.heap_pushes": step.heap_pushes,
                    "nue.backtracks": step.islands_resolved,
                    "nue.backtrack_rounds": step.backtrack_rounds,
                    "nue.shortcuts": step.shortcuts_taken,
                    "nue.escape_fallbacks": int(step.fell_back),
                }, layer=self.layer_index)
                # per-step work-shape distributions: one histogram
                # event each, so a whole layer's steps remain
                # comparable across topologies regardless of
                # destination count
                obs.observe("nue.step.heap_pops", step.heap_pops,
                            layer=self.layer_index)
                obs.observe("nue.step.relaxations", step.relaxations,
                            layer=self.layer_index)
            steps.append(step)

        # scatter the traffic-direction columns in one vectorised pass:
        # node v forwards toward dest on the reverse of its used channel
        u = np.array(used_snapshots, dtype=np.int32).T  # (n_nodes, n_dests)
        out = np.where(u >= 0, self.csr.channel_reverse[u], np.int32(-1))
        out[dests, np.arange(len(dests))] = -1
        block[:, cols] = out
        return steps

    def adopt_column(self, dest: int, next_channel_col) -> None:
        """Re-mark a retained forwarding column as this layer's state.

        Replays, without searching, what routing ``dest`` originally
        did to the layer: marks every tree channel and every
        search-orientation dependency of the column's forwarding
        forest *used* in the CDG, then applies the balancing weight
        update.  Used by the resilience engine to warm-start a layer
        from the surviving columns before repairing the dirty ones,
        so repair steps respect the retained trees' restrictions and
        load exactly as later destinations respected earlier ones.

        Raises :class:`RetainedColumnConflict` (a ``ValueError``) when
        a column dependency cannot be marked.  The retained columns of
        one prior layer are mutually acyclic (their dependency union
        was verified when first routed, and channel retirement only
        removes dependencies), but this layer's escape tree is rebuilt
        on the *surviving* fabric: when retirement moved the BFS
        spanning tree, a retained dependency can hit an edge the new
        escape state blocked, or close a cycle against the new escape
        dependencies.  Callers
        treat that as "incremental repair not applicable" and fall
        back to a full reroute.
        """
        net = self.net
        cdg = self.cdg
        rev = net.channel_reverse
        src_of = self.csr.src_l
        used = self._used
        used[:] = self._tmpl_used
        for v in range(net.n_nodes):
            c = int(next_channel_col[v])
            if v != dest and c >= 0:
                used[v] = rev[c]
        for v in range(net.n_nodes):
            cq = used[v]
            if cq < 0:
                continue
            cdg.mark_vertex_used(cq)
            p = src_of[cq]
            if p == dest:
                continue
            cp = used[p]
            if cp >= 0 and not cdg.try_use_edge(cp, cq):
                raise RetainedColumnConflict(
                    f"retained column for {net.node_names[dest]} "
                    "conflicts with the rebuilt escape state (blocked "
                    "edge or dependency cycle)"
                )
        self._update_weights(dest)

    def _copy_rotation(self, dest: int) -> List[Tuple[int, float]]:
        """Non-zero ``(channel, bias)`` entries making copy
        ``(i - dest) mod m`` of every bundle cheapest for ``dest``."""
        r = dest % self._bias_mod
        pairs = self._bias_pairs.get(r)
        if pairs is None:
            eps = 1.0 / 1024.0
            pairs = [
                (ch, eps * ((i - r) % len(bundle)))
                for bundle in self.csr.bundles
                for i, ch in enumerate(bundle)
                if (i - r) % len(bundle)
            ]
            self._bias_pairs[r] = pairs
        return pairs

    # -- initialisation ------------------------------------------------------------

    def _seed(self, dest: int) -> None:
        """Algorithm 1 lines 6–9: source channel(s) of the search.

        A terminal destination seeds its unique channel at distance 0;
        a switch destination acts through the paper's fake channel
        ``(∅, n_0)``, realised by seeding every outgoing channel with
        its own weight (fake dependencies are never recorded — traffic
        *arriving* at the destination has no successor dependency).
        """
        net = self.net
        retired = self.cdg.channel_retired_mask
        self._dist_node[dest] = 0.0
        if net.is_terminal(dest):
            c0 = self.csr.injection_channel[dest]
            if retired[c0]:
                raise ValueError(
                    f"terminal {net.node_names[dest]} is orphaned: its "
                    "injection channel is retired"
                )
            s = net.channel_dst[c0]
            self._dist_chan[c0] = 0.0
            self._dist_node[s] = 0.0
            self._used[s] = c0
            self.cdg.mark_vertex_used(c0)
            self.heap_push(c0, 0.0)
        else:
            for cq in sorted(net.out_channels[dest]):
                if retired[cq]:
                    continue
                y = net.channel_dst[cq]
                alt = self.weights[cq]
                if alt < self._dist_node[y]:
                    self.cdg.mark_vertex_used(cq)
                    self._dist_node[y] = alt
                    self._dist_chan[cq] = alt
                    self._used[y] = cq
                    self.heap_push(cq, alt)

    # -- main loop -------------------------------------------------------------------

    def heap_push(self, chan: int, dist: float) -> None:
        """Enqueue (or re-enqueue with a better key) a channel."""
        heappush(self._heap, (dist, chan))
        self._pushes += 1

    def _main_loop(self) -> int:
        """Algorithm 1 lines 10–23 under the expansion discipline.

        Everything on the per-relaxation path is a local list /
        bytearray index: prebuilt relaxation rows, the CDG state byte,
        and the scratch distance lists.  Only a state-0 edge (a fresh
        dependency needing Algorithm 3's cycle check) or a re-wire
        leaves this frame.  Returns the number of nodes newly reached.
        """
        cdg = self.cdg
        heap = self._heap
        dist_node = self._dist_node
        dist_chan = self._dist_chan
        used = self._used
        wl = self.weights
        dst_of = self.csr.dst_l
        rows = self._rows
        state = cdg._state
        try_use = cdg.try_use_edge_id
        mark = self._step_marked.add
        enable_shortcuts = self.enable_shortcuts
        # plain local tallies: cheap enough to run unconditionally and
        # folded into the per-step obs flush (see route_batch)
        pops = stale = relax = pushes = fresh = 0
        while heap:
            d_cp, cp = heappop(heap)
            pops += 1
            if d_cp > dist_chan[cp]:
                stale += 1
                continue  # stale key: the channel was re-queued cheaper
            if used[dst_of[cp]] != cp:
                stale += 1
                continue  # stale: the head was re-wired to a better channel
            row = rows[cp]
            relax += len(row)
            for e, cq, y in row:
                alt = d_cp + wl[cq]
                if alt < dist_node[y]:
                    uy = used[y]
                    if uy < 0:
                        st = state[e]
                        if st == 0 and try_use(e, cp, cq):
                            mark(e)
                            st = 1
                        if st == 1:
                            used[y] = cq
                            dist_node[y] = alt
                            dist_chan[cq] = alt
                            heappush(heap, (alt, cq))
                            pushes += 1
                            fresh += 1  # the loop's only -1 -> c transition
                        # else: edge became a blocked routing restriction
                    elif uy != cq:
                        # y is being *re-wired*.  Under plain Dijkstra a
                        # node's channel is final once it pops, but the
                        # backtracking of §4.6.2 can open shorter routes
                        # afterwards; re-wiring a reached node is the
                        # lazy form of the §4.6.3 shortcut and shares
                        # its enable flag.  Any dependency already
                        # recorded toward y's current tree children must
                        # be re-validated on the new in-channel, exactly
                        # as a backtracking re-base would.
                        if not enable_shortcuts or state[e] >= 2:
                            continue  # blocked/retired: commit would fail
                        needed = self.child_rebase_dependencies(y, cq)
                        if needed is None:
                            continue
                        if self.try_use_dependencies_atomic(
                            [(cp, cq)] + needed
                        ):
                            for _, child in needed:
                                self.unuse_step_dependency(uy, child)
                            used[y] = cq
                            dist_node[y] = alt
                            dist_chan[cq] = alt
                            heappush(heap, (alt, cq))
                            pushes += 1
                    else:
                        # same channel, better distance (new shorter way
                        # to feed it is impossible — cq's dependency from
                        # cp is what improved); just update the keys
                        st = state[e]
                        if st == 0 and try_use(e, cp, cq):
                            mark(e)
                            st = 1
                        if st == 1:
                            dist_node[y] = alt
                            dist_chan[cq] = alt
                            heappush(heap, (alt, cq))
                            pushes += 1
        self._pops += pops
        self._stale += stale
        self._relax += relax
        self._pushes += pushes
        return fresh

    def child_rebase_dependencies(
        self, node: int, alt: int
    ) -> Optional[List[Tuple[int, int]]]:
        """Dependencies ``(alt, out)`` needed to re-base ``node`` onto
        in-channel ``alt`` — one per current tree child.

        Returns None when a child sits behind a 180-degree turn from
        ``alt``, in which case the re-base is impossible.
        """
        used = self._used
        dst_of = self.csr.dst_l
        src_of = self.csr.src_l
        head = dst_of[alt]
        tail = src_of[alt]
        needed: List[Tuple[int, int]] = []
        for cq in self.net.out_channels[node]:
            if used[dst_of[cq]] == cq:
                if src_of[cq] != head or dst_of[cq] == tail:
                    return None  # (alt, cq) is not a complete-CDG edge
                needed.append((alt, cq))
        return needed

    def try_use_dependencies_atomic(
        self, edges: Sequence[Tuple[int, int]]
    ) -> bool:
        """Mark a set of edges used, all or nothing.

        Edges are checked sequentially (each cycle check sees the ones
        already added — they can interact); on failure everything this
        call added is reverted, so the CDG returns to its exact prior
        state: a fresh edge that fails its cycle check is not left
        blocked, and reverted edges keep only their ω merge.  Edges
        this call marks are remembered as owned by the current step,
        so the shortcut optimisation can revert exactly those
        (Section 4.6.3) without touching dependencies owned by earlier
        destinations.
        """
        cdg = self.cdg
        state = cdg._state
        edge_id = self.csr.edge_id
        marked = self._step_marked
        added: List[int] = []
        for cp, cq in edges:
            eid = edge_id(cp, cq)
            st = state[eid]
            if st == 1:
                continue  # already used: nothing added, nothing to revert
            if st != 0 or not cdg._pk_insert_check(cp, cq):
                for e2 in reversed(added):
                    cdg._revert_used_id(e2)
                    marked.discard(e2)
                return False
            cdg._commit_used_id(eid, cp, cq)
            marked.add(eid)
            added.append(eid)
        return True

    def unuse_step_dependency(self, cp: int, cq: int) -> bool:
        """Revert an edge if (and only if) this step marked it."""
        eid = self.csr.edge_id(cp, cq)
        if eid in self._step_marked:
            self.cdg._revert_used_id(eid)
            self._step_marked.discard(eid)
            return True
        return False

    # -- impasse handling ----------------------------------------------------------

    def _fall_back(self, dest: int) -> None:
        """Escape-path fallback for the entire routing step.

        Partial fallbacks would break the destination-based property
        (paper Section 4.6.2), so *every* node's used channel becomes
        its escape-path channel.  The corresponding dependencies were
        marked used when the layer was initialised.
        """
        chans = self.escape.fallback_channels(dest)
        for v in range(self.net.n_nodes):
            self._used[v] = chans[v] if v != dest else -1

    # -- balancing -------------------------------------------------------------------

    def _update_weights(self, dest: int) -> None:
        """DFSSSP-style positive weight update after a routing step.

        Adds, to every channel of the step's forwarding forest, the
        number of terminal routes crossing it (computed by subtree
        accumulation in O(|N|)): nodes are visited in descending depth,
        ascending node id within a depth (a counting sort over depths).
        Each node's in-channel is unique, so every channel receives at
        most one exact integer-valued add per step.
        """
        n = self.net.n_nodes
        used = self._used
        src_of = self.csr.src_l
        wl = self.weights
        total = self._sources.copy()
        total[dest] = 0  # a destination is never its own traffic source
        # depth over the used-channel forest (distances can be
        # non-monotone after backtracking, so follow the tree itself)
        depth = [-1] * n
        depth[dest] = 0
        maxd = 0
        stack: List[int] = []  # one reused chain scratch
        for v in range(n):
            if depth[v] >= 0 or used[v] < 0:
                continue
            u = v
            while depth[u] < 0 and used[u] >= 0:
                stack.append(u)
                u = src_of[used[u]]
            base = depth[u]
            if base < 0:
                stack.clear()
                continue
            while stack:
                base += 1
                depth[stack.pop()] = base  # pops nearest-to-root first
            if base > maxd:
                maxd = base  # the last label is v's own depth
        buckets: List[List[int]] = [[] for _ in range(maxd + 1)]
        for v in range(n):
            d = depth[v]
            if d > 0:
                buckets[d].append(v)
        for d in range(maxd, 0, -1):
            for v in buckets[d]:
                c = used[v]
                t = total[v]
                wl[c] += t
                total[src_of[c]] += t
        # weights grow monotonically and stay positive (Lemma 1 relies
        # on strictly positive weights)

"""Complete channel dependency graph with state tracking (paper §4.1, §4.6.1).

The complete CDG ``D̄ = G(C, Ē)`` has one vertex per directed channel of
the network and an edge ``(c_p, c_q)`` whenever the head of ``c_p`` is
the tail of ``c_q`` and the pair is not a 180-degree turn
(``src(c_p) != dst(c_q)``, Def. 6 — note this is node-based, so a turn
back over a *parallel* channel is excluded too).

Structure vs. state
-------------------
The *structure* of ``D̄`` is static per network and lives in the shared
CSR array core (:class:`repro.network.csr.CSRView`): every dependency
edge has a flat integer id, successors/predecessors of a channel are
contiguous CSR slices.  This class holds only the *state*: one byte
per edge id (*unused*, *used*, *blocked*) plus one byte per vertex —
dense arrays, no dict hashing anywhere on the Algorithm-1 hot path.
The used-edge adjacency needed by the cycle machinery is array-backed
too: per-channel insertion-ordered lists of used successors and
predecessors, maintained alongside the state bytes (the same contract
the pre-CSR implementation exposed).

Vertices and edges carry the paper's three states plus the ω subgraph
numbering of Section 4.6.1, realised here as a union–find over
channels:

* condition (a): a blocked edge stays blocked — O(1);
* condition (b): a used edge is part of an acyclic subgraph — O(1);
* condition (c): endpoints in different ω components can never close a
  cycle — O(α);
* condition (d): same component ⇒ one DFS over *used* edges from
  ``c_q`` looking for ``c_p`` decides it exactly.

The union–find is monotone; the §4.6.3 shortcut optimisation may revert
an edge to unused without splitting components, which is conservative
(it can only force an extra DFS, never a wrong answer) — see
``repro/utils/unionfind.py``.

The cycle searches mark visited vertices on one epoch-stamped scratch
array owned by the CDG (bumping the epoch invalidates every mark in
O(1)), so every caller — the routing step's hot loop, the escape-path
marking, the layering and reconfiguration what-if checks — runs the
same search and moves the same counters.

The pre-CSR (dict/list) implementation is frozen verbatim in
:mod:`repro.legacy.nue_ref`; the equality tests pin this class to its
exact routing behaviour, work counters included.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.network.graph import Network
from repro.utils.dag import kahn_residue
from repro.utils.unionfind import UnionFind

__all__ = ["CompleteCDG", "UNUSED", "USED", "BLOCKED", "RETIRED"]

UNUSED = 0
USED = 1
BLOCKED = -1
RETIRED = -2

#: internal byte encoding of BLOCKED (bytearrays hold 0..255)
_B = 2
#: internal byte encoding of RETIRED (channel failed in place)
_R = 3
#: byte -> public state constant
_STATE_OF_BYTE = (UNUSED, USED, BLOCKED, RETIRED)


class CompleteCDG:
    """Mutable per-virtual-layer view of the complete CDG.

    One instance per virtual layer: Nue creates a fresh ``CompleteCDG``
    for every layer (paper Alg. 2 line 6) because the states and
    routing restrictions of different layers are independent.  The
    static structure is shared (``net.csr``); only the dense state
    arrays are per-instance, so creating a layer CDG is O(|Ē|) bytes
    and O(|C|) time.
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self.csr = csr = net.csr
        self.n_channels = net.n_channels
        #: dense per-edge state, indexed by dependency-edge id
        #: (0 = unused, 1 = used, 2 = blocked)
        self._state = bytearray(csr.n_dep_edges)
        self._vertex_used = bytearray(self.n_channels)
        #: array-backed used adjacency (insertion-ordered, exactly the
        #: legacy contract): used successors / predecessors per channel
        self._used_out: List[List[int]] = [[] for _ in range(self.n_channels)]
        self._used_in: List[List[int]] = [[] for _ in range(self.n_channels)]
        self._uf = UnionFind(self.n_channels)
        #: Pearce-Kelly dynamic topological order of the used subgraph;
        #: initialised arbitrarily (channel id) and repaired locally on
        #: order-violating insertions.
        self._ord: List[int] = list(range(self.n_channels))
        #: epoch-stamped visited marks of the cycle searches
        self._stamp: List[int] = [0] * self.n_channels
        self._epoch = 0
        #: per-channel retirement flags (fail-in-place): a retired
        #: channel's incident dependency edges are all in the RETIRED
        #: state and can never be used or unblocked again
        self._retired = bytearray(self.n_channels)
        self.n_used_edges = 0
        self.n_blocked_edges = 0
        self.n_retired_edges = 0
        self.n_retired_channels = 0
        self.cycle_searches = 0  #: number of condition-(d) DFS runs
        self.pk_reorders = 0     #: order-violating insertions repaired
        self.pk_reorder_moved = 0  #: vertices moved by those repairs

    # -- structure -------------------------------------------------------------

    def edge_id(self, cp: int, cq: int) -> int:
        """Flat id of edge ``(c_p, c_q)``; -1 when not a CDG edge."""
        return self.csr.edge_id(cp, cq)

    def dependency_exists(self, cp: int, cq: int) -> bool:
        """True when ``(c_p, c_q)`` is an edge of the complete CDG."""
        net = self.net
        return (
            net.channel_dst[cp] == net.channel_src[cq]
            and net.channel_src[cp] != net.channel_dst[cq]
        )

    def out_dependencies(self, cp: int) -> List[int]:
        """All successors ``c_q`` of ``c_p`` in the complete CDG."""
        return self.csr.out_successors(cp)

    def n_edges(self) -> int:
        """Total |Ē| of the complete CDG."""
        return self.csr.n_dep_edges

    # -- states ----------------------------------------------------------------

    def edge_state(self, cp: int, cq: int) -> int:
        """State of edge ``(c_p, c_q)``: UNUSED, USED or BLOCKED."""
        eid = self.csr.edge_id(cp, cq)
        if eid < 0:
            return UNUSED
        return _STATE_OF_BYTE[self._state[eid]]

    def is_vertex_used(self, c: int) -> bool:
        """True when channel ``c`` is in the *used* state."""
        return bool(self._vertex_used[c])

    def mark_vertex_used(self, c: int) -> None:
        """Put channel ``c`` into the *used* state (idempotent)."""
        self._vertex_used[c] = 1

    def component(self, c: int) -> int:
        """ω subgraph representative of channel ``c``."""
        return self._uf.find(c)

    def used_out_edges(self, c: int) -> List[int]:
        """Successor channels of ``c`` along *used* edges."""
        return self._used_out[c]

    def used_edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all used edges."""
        for cp in range(self.n_channels):
            for cq in self._used_out[cp]:
                yield (cp, cq)

    def blocked_edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all blocked edges."""
        src = self.csr.dep_src_l
        dst = self.csr.dep_dst_l
        for e, st in enumerate(self._state):
            if st == _B:
                yield (src[e], dst[e])

    # -- mutation --------------------------------------------------------------

    def _require_edge(self, cp: int, cq: int) -> int:
        eid = self.csr.edge_id(cp, cq)
        if eid < 0:
            raise ValueError(f"({cp}, {cq}) is not a complete-CDG edge")
        return eid

    def _commit_used_id(self, eid: int, cp: int, cq: int) -> None:
        """Record edge ``eid = (c_p, c_q)`` as used (no cycle check)."""
        self._state[eid] = 1
        self._used_out[cp].append(cq)
        self._used_in[cq].append(cp)
        self._vertex_used[cp] = 1
        self._vertex_used[cq] = 1
        self._uf.union(cp, cq)
        self.n_used_edges += 1

    def _mark_used(self, cp: int, cq: int) -> None:
        """Force edge ``(c_p, c_q)`` used, bypassing the cycle guard."""
        self._commit_used_id(self._require_edge(cp, cq), cp, cq)

    def block_edge(self, cp: int, cq: int) -> None:
        """Put edge into the *blocked* state (a routing restriction)."""
        eid = self._require_edge(cp, cq)
        prev = self._state[eid]
        if prev == 1:
            raise ValueError("cannot block a used edge")
        if prev == _R:
            raise ValueError("cannot block a retired edge")
        if prev != _B:
            self._state[eid] = _B
            self.n_blocked_edges += 1

    def unblock_edge(self, cp: int, cq: int) -> None:
        """Revert a blocked edge to unused.

        Nue never does this (its restrictions are permanent within a
        layer); the LASH/DFSSSP layer-assignment machinery uses it to
        roll back a failed what-if path insertion exactly.
        """
        eid = self._require_edge(cp, cq)
        if self._state[eid] != _B:
            raise ValueError(f"edge ({cp}, {cq}) is not blocked")
        self._state[eid] = 0
        self.n_blocked_edges -= 1

    def unuse_edge(self, cp: int, cq: int) -> None:
        """Revert a used edge to unused (§4.6.3 shortcut reversal).

        The ω component merge is deliberately *not* reverted (safe,
        conservative — see module docstring).  Vertex states are left
        untouched; callers revert them explicitly when appropriate.
        """
        eid = self._require_edge(cp, cq)
        if self._state[eid] != 1:
            raise ValueError(f"edge ({cp}, {cq}) is not used")
        self._state[eid] = 0
        self._used_out[cp].remove(cq)
        self._used_in[cq].remove(cp)
        self.n_used_edges -= 1

    def _revert_used_id(self, eid: int) -> None:
        """Exact-rollback helper: used -> unused by edge id (hot path).

        Caller guarantees ``eid`` is currently used (atomic-commit
        rollback); the ω merge stays, as in :meth:`unuse_edge`.
        """
        cp = self.csr.dep_src_l[eid]
        cq = self.csr.dep_dst_l[eid]
        self._state[eid] = 0
        self._used_out[cp].remove(cq)
        self._used_in[cq].remove(cp)
        self.n_used_edges -= 1

    def _revert_blocked_id(self, eid: int) -> None:
        """Exact-rollback helper: blocked -> unused by edge id."""
        self._state[eid] = 0
        self.n_blocked_edges -= 1

    # -- fail-in-place retirement ----------------------------------------------

    def is_channel_retired(self, c: int) -> bool:
        """True when channel ``c`` has been retired (failed in place)."""
        return bool(self._retired[c])

    @property
    def channel_retired_mask(self) -> bytearray:
        """Per-channel retirement flags (read-only by convention)."""
        return self._retired

    def _retire_edge_id(self, eid: int, cp: int, cq: int) -> int:
        st = self._state[eid]
        if st == _R:
            return 0
        if st == 1:
            self._used_out[cp].remove(cq)
            self._used_in[cq].remove(cp)
            self.n_used_edges -= 1
        elif st == _B:
            self.n_blocked_edges -= 1
        self._state[eid] = _R
        self.n_retired_edges += 1
        return 1

    def retire_channel(self, c: int) -> int:
        """Fail channel ``c`` in place: retire every incident dependency.

        All dependency edges into or out of ``c`` transition to the
        RETIRED state (releasing used/blocked bookkeeping exactly), the
        vertex leaves the used state, and the channel can never carry a
        dependency again.  The Pearce-Kelly topological order is left
        untouched — removing edges cannot invalidate a topological
        order of the remaining used subgraph, so ``_ord`` stays a
        correct witness and subsequent insert checks are unaffected.
        The ω component merges involving ``c`` are likewise kept
        (monotone and conservative, exactly like :meth:`unuse_edge`).

        Returns the number of dependency edges newly retired.
        Idempotent.
        """
        if self._retired[c]:
            return 0
        self._retired[c] = 1
        self.n_retired_channels += 1
        retired = 0
        ptr = self.csr.dep_ptr_l
        dep_dst = self.csr.dep_dst_l
        for eid in range(ptr[c], ptr[c + 1]):
            retired += self._retire_edge_id(eid, c, dep_dst[eid])
        net = self.net
        edge_id = self.csr.edge_id
        for p in net.in_channels[net.channel_src[c]]:
            eid = edge_id(p, c)
            if eid >= 0:
                retired += self._retire_edge_id(eid, p, c)
        self._vertex_used[c] = 0
        return retired

    # -- cycle machinery (Algorithm 3 + Pearce-Kelly order) ----------------------

    def _forward_discover(
        self, start: int, ub: int, target: int
    ) -> Optional[List[int]]:
        """Bounded forward search from ``start`` over used edges.

        Visits only vertices with order < ``ub``; returns None when
        ``target`` is reached (a cycle), otherwise the visited region.
        """
        self.cycle_searches += 1
        ordv = self._ord
        used_out = self._used_out
        stamp = self._stamp
        epoch = self._epoch = self._epoch + 1
        stamp[start] = epoch
        # scan instead of an explicit stack: CPython list iterators pick
        # up in-loop appends, and the bounded region is traversal-order
        # independent (it is exactly the reachable set inside the order
        # window)
        region = [start]
        for c in region:
            for nxt in used_out[c]:
                if stamp[nxt] != epoch:
                    # the first encounter of target is always unstamped,
                    # so testing it only here loses no cycle
                    if nxt == target:
                        return None
                    if ordv[nxt] < ub:
                        stamp[nxt] = epoch
                        region.append(nxt)
        return region

    def _backward_discover(self, start: int, lb: int) -> List[int]:
        """Bounded backward search from ``start`` (order > ``lb``)."""
        ordv = self._ord
        used_in = self._used_in
        stamp = self._stamp
        epoch = self._epoch = self._epoch + 1
        stamp[start] = epoch
        region = [start]
        for c in region:
            for prv in used_in[c]:
                if stamp[prv] != epoch and ordv[prv] > lb:
                    stamp[prv] = epoch
                    region.append(prv)
        return region

    def _pk_insert_check(self, cp: int, cq: int) -> bool:
        """Pearce-Kelly: check edge ``(cp, cq)`` and repair the order.

        Returns False when the edge would close a cycle (no state is
        changed); otherwise locally reorders the affected region so the
        topological order stays valid and returns True.
        """
        ordv = self._ord
        lb, ub = ordv[cq], ordv[cp]
        if ub < lb:
            return True  # order already consistent: no cycle possible
        fwd = self._forward_discover(cq, ub, cp)
        if fwd is None:
            return False  # cq reaches cp: the edge closes a cycle
        bwd = self._backward_discover(cp, lb)
        self.pk_reorders += 1
        self.pk_reorder_moved += len(fwd) + len(bwd)
        # reorder: the backward region must precede the forward region;
        # both keep their internal relative order and together reuse
        # the union of their old order slots, smallest first (in-place
        # sorts on a bound C key method)
        key = ordv.__getitem__
        bwd.sort(key=key)
        fwd.sort(key=key)
        merged = bwd + fwd
        for c, slot in zip(merged, sorted(map(key, merged))):
            ordv[c] = slot
        return True

    def try_use_edge(self, cp: int, cq: int) -> bool:
        """Algorithm 3: use edge ``(c_p, c_q)`` unless it closes a cycle.

        Returns True and marks the edge (and its endpoints) used when
        the used subgraph stays acyclic; otherwise marks the edge
        blocked and returns False.  ``(c_p, c_q)`` must be an edge of
        the complete CDG.
        """
        return self.try_use_edge_id(self._require_edge(cp, cq), cp, cq)

    def try_use_edge_id(self, eid: int, cp: int, cq: int) -> bool:
        """Algorithm 3 with the edge id already resolved (hot path).

        Conditions (a) and (b) of Section 4.6.1 are the two O(1) state
        checks below; conditions (c)/(d) — "does the edge connect two
        disjoint acyclic subgraphs or close a cycle inside one?" — are
        decided by a Pearce-Kelly dynamic topological order, which
        answers order-consistent insertions in O(1) and pays a DFS
        bounded to the affected region otherwise (a strict
        strengthening of the paper's ω memoization: same answers,
        smaller searches).
        """
        state = self._state[eid]
        if state == _B:                            # condition (a)
            return False
        if state == 1:                             # condition (b)
            return True
        if state == _R:                            # retired channel
            return False
        if not self._pk_insert_check(cp, cq):      # conditions (c)+(d)
            self._state[eid] = _B
            self.n_blocked_edges += 1
            return False
        self._commit_used_id(eid, cp, cq)
        return True

    def would_close_cycle(self, cp: int, cq: int) -> bool:
        """Non-mutating variant: would using ``(c_p, c_q)`` create a cycle?

        Blocked edges answer True, used edges False; otherwise the
        topological order answers O(1) when consistent, and a bounded
        DFS decides the rest (no state is updated).
        """
        eid = self.csr.edge_id(cp, cq)
        state = self._state[eid] if eid >= 0 else 0
        if state == _B or state == _R:
            return True
        if state == 1:
            return False
        if self._ord[cp] < self._ord[cq]:
            return False
        return self._forward_discover(cq, self._ord[cp], cp) is None

    # -- observability ---------------------------------------------------------

    def counter_snapshot(self) -> Dict[str, int]:
        """This CDG's lifetime work tallies, keyed for :mod:`repro.obs`.

        Layers own fresh CDGs, so a caller flushing the snapshot once
        per finished layer accumulates per-run totals in the obs layer.
        """
        return {
            "cdg.blocked_deps": self.n_blocked_edges,
            "cdg.used_deps": self.n_used_edges,
            "cdg.cycle_searches": self.cycle_searches,
            "cdg.pk_reorders": self.pk_reorders,
            "cdg.pk_reorder_moved": self.pk_reorder_moved,
            "cdg.retired_channels": self.n_retired_channels,
            "cdg.retired_deps": self.n_retired_edges,
        }

    # -- verification ----------------------------------------------------------

    def assert_acyclic(self) -> None:
        """The shared Kahn check over the used edges; raises on a cycle.

        Exact full check used by tests and the validation layer; the
        incremental machinery above never lets a cycle appear, so this
        should always pass.
        """
        used = np.flatnonzero(
            np.frombuffer(self._state, dtype=np.uint8) == 1)
        stuck = kahn_residue(self.csr.dep_src[used], self.csr.dep_dst[used])
        if stuck:
            raise AssertionError(
                f"used CDG contains a cycle ({stuck} vertices"
                " on cycles)"
            )

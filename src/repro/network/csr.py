"""Shared CSR array core of the network / CDG hot path (PR 3 tentpole).

A :class:`CSRView` is an immutable, array-oriented snapshot of a
:class:`~repro.network.graph.Network`, built once per network and
cached on it (``net.csr``).  It packs

* the per-channel endpoint arrays (``channel_src`` / ``channel_dst`` /
  ``channel_reverse``) as contiguous ``int32`` buffers,
* node adjacency (``out_ptr``/``out_idx``, ``in_ptr``/``in_idx``) in
  compressed-sparse-row form, and
* a **dense dependency-edge index**: the complete channel dependency
  graph of Def. 6 (successor channels per channel, 180-degree turns
  excluded) flattened into one CSR, giving every CDG edge
  ``(c_p, c_q)`` a flat integer *edge id*.  A mirrored incoming index
  (``dep_in_ptr``/``dep_in_eid``) lists, per channel, the edge ids
  that point at it.

Per-layer CDG state (:class:`repro.cdg.complete_cdg.CompleteCDG`) is a
dense byte array indexed by edge id over this static structure — no
dict hashing or list-of-list indirection in the Algorithm-1 inner
loop.  The numpy buffers are the canonical encoding (what a shared
memory export ships); the ``*_l`` attributes are plain-``list`` mirrors of the same data, kept
because CPython indexes lists substantially faster than 0-d numpy
scalars, which is what the routing step's inner loop lives on.

Edge ids are assigned in ``(c_p, then c_q)`` ascending order, so the
successor slice of every channel is sorted and :meth:`CSRView.edge_id`
resolves a pair by binary search in ``O(log Δ)``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.graph import Network

__all__ = ["CSRView", "build_csr", "EXPORTED_BUFFERS"]

#: the numpy buffers a shared-memory export ships (in layout order);
#: everything else on a :class:`CSRView` is derived from them alone by
#: ``_init_derived``.
EXPORTED_BUFFERS = (
    "channel_src", "channel_dst", "channel_reverse",
    "out_ptr", "out_idx", "in_ptr", "in_idx",
    "dep_ptr", "dep_dst", "dep_src", "dep_in_ptr", "dep_in_eid",
    "switch_flags",
)


def _ptr_from_counts(counts: Sequence[int]) -> np.ndarray:
    """CSR row pointers (int32, leading 0) from per-row lengths."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _split(flat: List[int], ptr: np.ndarray) -> List[List[int]]:
    """Cut a flat list into the rows a CSR pointer array delimits."""
    bounds = ptr.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def _csr_from_lists(lists: List[List[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Pack a list-of-lists adjacency into (ptr, idx) int32 arrays."""
    ptr = _ptr_from_counts([len(row) for row in lists])
    idx = np.fromiter(chain.from_iterable(lists), dtype=np.int32,
                      count=int(ptr[-1]))
    return ptr, idx


class CSRView:
    """Immutable CSR snapshot of one network (see module docstring).

    Attributes
    ----------
    channel_src / channel_dst / channel_reverse:
        ``int32[n_channels]`` endpoint / reverse-channel buffers.
    out_ptr, out_idx / in_ptr, in_idx:
        CSR node adjacency: channels leaving / entering node ``v`` are
        ``out_idx[out_ptr[v]:out_ptr[v+1]]`` (ascending channel ids).
    dep_ptr, dep_dst, dep_src:
        The dependency-edge index: CDG successors of channel ``c_p``
        are ``dep_dst[dep_ptr[c_p]:dep_ptr[c_p+1]]`` and the slice
        positions *are* the edge ids; ``dep_src[e]`` recovers ``c_p``
        from an edge id.
    dep_in_ptr, dep_in_eid:
        Incoming mirror: edge ids entering channel ``c_q``.
    switch_flags:
        ``int8[n_nodes]`` — 1 for switches, 0 for terminals.
    injection_channel:
        Per node: a terminal's unique outgoing channel, -1 at switches.
    """

    def __init__(self, net: "Network") -> None:
        # no reference back to ``net``: the network owns its view, and
        # a cycle between the two would leave every dropped network to
        # the cyclic collector (a daemon serving large fabrics then
        # holds several generations of them at once)
        self.n_nodes = net.n_nodes
        self.n_channels = net.n_channels

        self.channel_src = np.asarray(net.channel_src, dtype=np.int32)
        self.channel_dst = np.asarray(net.channel_dst, dtype=np.int32)
        self.channel_reverse = np.asarray(net.channel_reverse, dtype=np.int32)
        self.out_ptr, self.out_idx = _csr_from_lists(net.out_channels)
        self.in_ptr, self.in_idx = _csr_from_lists(net.in_channels)
        self.switch_flags = np.fromiter(
            (1 if net.is_switch(n) else 0 for n in range(net.n_nodes)),
            dtype=np.int8, count=net.n_nodes,
        )

        # dependency-edge index (complete CDG, Def. 6: head-to-tail
        # adjacency minus node-based 180-degree turns): every channel
        # repeated over the out-channels of its head node, in out_idx
        # order, then the U-turns dropped
        head = self.channel_dst
        fan = (self.out_ptr[1:] - self.out_ptr[:-1])[head]
        cand_src = np.repeat(
            np.arange(self.n_channels, dtype=np.int32), fan)
        first = np.cumsum(fan, dtype=np.int64) - fan
        pos = (np.arange(len(cand_src), dtype=np.int64)
               + np.repeat(self.out_ptr[head].astype(np.int64) - first,
                           fan))
        cand_dst = self.out_idx[pos]
        keep = self.channel_dst[cand_dst] != self.channel_src[cand_src]
        self.dep_src = cand_src[keep]
        self.dep_dst = cand_dst[keep]
        self.dep_ptr = _ptr_from_counts(
            np.bincount(self.dep_src, minlength=self.n_channels))
        self.n_dep_edges = int(self.dep_ptr[-1])
        # incoming mirror: edge ids grouped by head channel, ascending
        self.dep_in_eid = np.argsort(
            self.dep_dst, kind="stable").astype(np.int32)
        self.dep_in_ptr = _ptr_from_counts(
            np.bincount(self.dep_dst, minlength=self.n_channels))

        self._init_derived()

    @property
    def dep_head(self) -> np.ndarray:
        """Per dependency edge: the head *node* ``dst(dep_dst[e])``.

        Static, so the kernel hot loop resolves a relaxation's target
        node with one index instead of two (``dst_of[dep_dst[e]]``).
        """
        head = getattr(self, "_dep_head", None)
        if head is None:
            head = self.channel_dst[self.dep_dst]
            self._dep_head = head
        return head

    @property
    def dep_head_l(self) -> List[int]:
        """Plain-list mirror of :attr:`dep_head` for the scalar loops."""
        head_l = getattr(self, "_dep_head_l", None)
        if head_l is None:
            head_l = self.dep_head.tolist()
            self._dep_head_l = head_l
        return head_l

    @classmethod
    def from_buffers(cls, net: "Network", buffers: Dict[str, np.ndarray]
                     ) -> "CSRView":
        """Rebuild a view from its :data:`EXPORTED_BUFFERS` arrays.

        The zero-copy rehydration path of the shared-memory fabric
        (:mod:`repro.engine.fabric`): ``buffers`` maps each exported
        buffer name to a (typically shm-backed, read-only) array, and
        the cheap derived state — list mirrors, injection channels,
        pair/bundle indices — is recomputed from them instead of being
        pickled across the process boundary.
        """
        view = cls.__new__(cls)
        view.n_nodes = net.n_nodes
        view.n_channels = net.n_channels
        for key in EXPORTED_BUFFERS:
            setattr(view, key, buffers[key])
        view.n_dep_edges = int(view.dep_ptr[-1])
        view._init_derived()
        return view

    def _init_derived(self) -> None:
        """Derive mirrors/indices from the canonical numpy buffers."""
        # plain-list mirrors for the scalar hot loops
        self.src_l: List[int] = self.channel_src.tolist()
        self.dst_l: List[int] = self.channel_dst.tolist()
        self.rev_l: List[int] = self.channel_reverse.tolist()
        self.dep_ptr_l: List[int] = self.dep_ptr.tolist()
        self.dep_dst_l: List[int] = self.dep_dst.tolist()
        self.dep_src_l: List[int] = self.dep_src.tolist()
        self.dep_in_ptr_l: List[int] = self.dep_in_ptr.tolist()
        self.dep_in_eid_l: List[int] = self.dep_in_eid.tolist()

        n = self.n_nodes
        flags = self.switch_flags.astype(bool)
        terminals = np.flatnonzero(~flags)
        # a terminal's unique (first) out-channel, -1 at switches
        injection = np.full(n, -1, dtype=np.int64)
        injection[terminals] = self.out_idx[self.out_ptr[terminals]]
        self.injection_channel: List[int] = injection.tolist()
        # per node: source nodes of incoming switch-to-this-node
        # channels, in in_channel order (the switch-graph reverse
        # adjacency UpDn and friends used to re-derive per call)
        in_src = self.channel_src[self.in_idx]
        keep = flags[in_src]
        rows = np.repeat(np.arange(n), np.diff(self.in_ptr))
        self.switch_in_sources: List[List[int]] = _split(
            in_src[keep].tolist(),
            _ptr_from_counts(np.bincount(rows[keep], minlength=n)))

        # node-pair -> parallel channel ids (ascending): channels
        # sorted by one (src, dst) key, replacing repeated
        # Network.find_channels scans in the table builders
        key = (self.channel_src.astype(np.int64) * n
               + self.channel_dst.astype(np.int64))
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        self._pair_key_l: List[int] = sorted_key.tolist()
        self._pair_chan_l: List[int] = order.tolist()

        # parallel-channel bundles (multi-link redundancy, ordered by
        # first channel) and each channel's copy index within its
        # bundle — shared by every layer router (OpenSM port-group
        # rotation)
        head = np.ones(len(key), dtype=bool)
        head[1:] = sorted_key[1:] != sorted_key[:-1]
        starts = np.flatnonzero(head)
        sizes = np.diff(np.append(starts, len(key)))
        group = np.cumsum(head) - 1
        rank = np.arange(len(key)) - starts[group]
        self.copy_index = np.zeros(self.n_channels, dtype=np.int64)
        self.copy_index[order] = np.where(sizes[group] > 1, rank, 0)
        multi = np.flatnonzero(sizes > 1)
        multi = multi[np.argsort(order[starts[multi]])]
        lens = sizes[multi]
        pos = (np.arange(int(lens.sum()))
               + np.repeat(starts[multi] - (np.cumsum(lens) - lens), lens))
        # bundle CSR (kernel-ready form of ``bundles``): channels of
        # bundle b are bundle_idx[bundle_ptr[b]:bundle_ptr[b+1]]
        self.bundle_ptr = _ptr_from_counts(lens)
        self.bundle_idx = order[pos].astype(np.int32)
        self.bundles: List[List[int]] = _split(
            self.bundle_idx.tolist(), self.bundle_ptr)
        # terminal node ids in ascending order — the balancing-update
        # source set (empty on switch-only fabrics, where every node
        # acts as a source)
        self.terminal_ids = terminals.astype(np.int32)

    # -- queries ---------------------------------------------------------------

    def edge_id(self, cp: int, cq: int) -> int:
        """Flat edge id of CDG edge ``(c_p, c_q)``; -1 when not an edge."""
        lo = self.dep_ptr_l[cp]
        hi = self.dep_ptr_l[cp + 1]
        i = bisect_left(self.dep_dst_l, cq, lo, hi)
        if i < hi and self.dep_dst_l[i] == cq:
            return i
        return -1

    def out_successors(self, cp: int) -> List[int]:
        """CDG successor channels of ``c_p`` (ascending; a fresh slice)."""
        return self.dep_dst_l[self.dep_ptr_l[cp]:self.dep_ptr_l[cp + 1]]

    def channels_between(self, u: int, v: int) -> List[int]:
        """All (parallel) channel ids from ``u`` to ``v`` (ascending;
        a fresh list)."""
        k = u * self.n_nodes + v
        lo = bisect_left(self._pair_key_l, k)
        hi = bisect_right(self._pair_key_l, k, lo)
        return self._pair_chan_l[lo:hi]

    def incident_links(self, node: int) -> List[int]:
        """Duplex link indices (into ``Network.links()``) at ``node``."""
        lo, hi = self.out_ptr[node], self.out_ptr[node + 1]
        return (self.out_idx[lo:hi] >> 1).tolist()

    # -- comparison support -----------------------------------------------------

    def structural_buffers(self) -> List[np.ndarray]:
        """The canonical buffers that determine routing behaviour.

        Everything a deterministic routing algorithm reads off the
        structure, in fixed order: two views with equal buffers route
        bit-identically.  (The engine fingerprint hashes what these
        are a function of instead, so it never builds a view.)
        """
        return [
            self.channel_src,
            self.channel_dst,
            self.channel_reverse,
            self.out_ptr, self.out_idx,
            self.in_ptr, self.in_idx,
            self.dep_ptr, self.dep_dst,
            self.switch_flags,
        ]


def build_csr(net: "Network") -> CSRView:
    """Build (or return the cached) :class:`CSRView` of ``net``."""
    view = getattr(net, "_csr_view", None)
    if view is None:
        view = CSRView(net)
        net._csr_view = view
    return view

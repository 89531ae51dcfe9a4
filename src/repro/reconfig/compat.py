"""Union-CDG compatibility for planned transitions (UPR-style).

A planned reconfiguration replaces one destination-based routing with
another on the same (or a grown) fabric.  While the swap is in flight,
packets routed by the *old* tables and packets routed by the *new*
tables coexist, so the deadlock-freedom object is the **union** of the
two induced channel dependency graphs: the transition is safe exactly
when that union stays acyclic, per virtual layer (UPR,
arXiv:2006.02332 — the same complete-CDG acyclicity invariant Nue
maintains, paper Def. 6 / Theorem 1).

Everything here indexes dependencies by the Def.-6 flat edge ids of the
shared CSR structure (:class:`repro.network.csr.CSRView`):

* :class:`InducedEdges` extracts, per destination column of a
  :class:`~repro.routing.base.RoutingResult`, the set of complete-CDG
  edge ids its forwarding tree induces, bucketed by virtual layer
  (columns must be layer-constant — destination-based VL assignment as
  in Nue/Up*/Down*; per-hop-VL routings raise
  :class:`TransitionNotApplicable`).
* :class:`UnionCDG` holds one :class:`~repro.cdg.complete_cdg.CompleteCDG`
  byte plane per layer plus per-edge refcounts, so old and new columns
  overlay into one incremental acyclicity structure; candidate swaps
  are tested with Algorithm 3 (``try_use_edge_id``) and rolled back
  exactly, and every committed state can be proven with the existing
  checker (:meth:`~repro.cdg.complete_cdg.CompleteCDG.assert_acyclic`).
* :func:`check_compatibility` answers the up-front existence question:
  when the *full* union of old and new induced CDGs is acyclic, every
  swap order is safe and the zero-drain schedule is trivial; when it
  is not, a compatible order may still exist (the scheduler searches
  for one) but cannot be guaranteed.

Verdicts on a whole edge-id set (the report, the scheduler's target
check, ``verify_plan``) are the library's one Kahn check,
:func:`repro.utils.dag.kahn_residue`, via :func:`edge_ids_acyclic`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cdg.complete_cdg import CompleteCDG
from repro.network.graph import Network
from repro.obs import core as obs
from repro.routing.base import RoutingResult
from repro.utils.dag import kahn_residue

__all__ = [
    "TransitionNotApplicable",
    "InducedEdges",
    "UnionCDG",
    "LayerCompat",
    "CompatibilityReport",
    "check_compatibility",
]


class TransitionNotApplicable(RuntimeError):
    """The transition machinery cannot cover this pair of routings.

    Raised for per-hop/per-pair VL assignments (a destination column
    must live on one layer for per-destination swaps to be meaningful),
    for tables that use a non-CDG dependency (a 180-degree turn), and
    for grow transitions whose old fabric is not name-embeddable in the
    target.
    """


def _column_layer(result: RoutingResult, col: int,
                  nxt_col: Optional[np.ndarray] = None,
                  vl_col: Optional[np.ndarray] = None) -> int:
    """The single virtual layer of destination column ``col``.

    Rows whose next-channel entry is -1 (the destination itself,
    unreachable nodes) are ignored; all remaining rows must agree.
    ``nxt_col``/``vl_col`` optionally supply the column values already
    staged contiguously (the block-streaming lift), avoiding a strided
    pass over the full — possibly shm-resident — matrices.
    """
    if nxt_col is None:
        nxt_col = result.next_channel[:, col]
    if vl_col is None:
        vl_col = result.vl[:, col]
    mask = nxt_col >= 0
    if not mask.any():
        return 0
    vls = vl_col[mask]
    layer = int(vls[0])
    if not (vls == layer).all():
        raise TransitionNotApplicable(
            f"destination {result.dests[col]} uses more than one virtual "
            f"layer ({result.algorithm!r} assigns VLs per hop or per "
            "pair); per-destination swaps need layer-constant columns"
        )
    return layer


def _dep_keys(net: Network) -> np.ndarray:
    """Sorted ``src * n_channels + dst`` key per Def.-6 edge id.

    Edge ids are assigned in ascending ``(c_p, c_q)`` order by the CSR
    build, so this array is strictly increasing and a searchsorted
    against it *is* the vectorised form of ``csr.edge_id``.
    """
    csr = net.csr
    n = np.int64(net.n_channels)
    return csr.dep_src.astype(np.int64) * n + csr.dep_dst.astype(np.int64)


def _column_edge_ids(
    net: Network, column: np.ndarray, keys: np.ndarray, dest: int
) -> np.ndarray:
    """Def.-6 edge ids induced by one forwarding-tree column."""
    channel_dst = np.asarray(net.channel_dst, dtype=np.int64)
    col = np.asarray(column, dtype=np.int64)
    cp = col[col >= 0]
    if cp.size == 0:
        return np.empty(0, dtype=np.int64)
    cq = col[channel_dst[cp]]  # next hop at the head node
    live = cq >= 0             # head is not the destination
    cp, cq = cp[live], cq[live]
    if cp.size == 0:
        return np.empty(0, dtype=np.int64)
    want = cp * np.int64(net.n_channels) + cq
    eids = np.searchsorted(keys, want)
    bad = (eids >= keys.size) | (keys[np.minimum(eids, keys.size - 1)]
                                 != want)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise TransitionNotApplicable(
            f"tables for destination {dest} use ({int(cp[i])}, "
            f"{int(cq[i])}), which is not a complete-CDG edge "
            "(180-degree turn?)"
        )
    return np.unique(eids)


def union_by_layer(
    n_layers: int, columns: Iterable[Tuple[int, np.ndarray]]
) -> List[np.ndarray]:
    """Per layer, the sorted union of ``(layer, edge ids)`` columns."""
    parts: List[List[np.ndarray]] = [[] for _ in range(n_layers)]
    for layer, eids in columns:
        parts[layer].append(eids)
    return [np.unique(np.concatenate(p)) if p
            else np.empty(0, dtype=np.int64) for p in parts]


def edge_ids_acyclic(net: Network, eids: np.ndarray) -> bool:
    """The one Kahn verdict on a set of Def.-6 edge ids."""
    csr = net.csr
    return kahn_residue(csr.dep_src[eids], csr.dep_dst[eids]) == 0


class InducedEdges:
    """Per-destination induced complete-CDG edge sets of one routing.

    ``layer_of[d]`` is the virtual layer destination ``d``'s column
    lives on, ``edges_of[d]`` the sorted Def.-6 edge ids its forwarding
    tree induces (terminal/injection channels included — they cannot
    sit on a cycle, see Def. 6, so they never affect the verdicts).
    """

    #: columns staged per block during the lift: big enough to amortise
    #: the gather, small enough that two staged blocks of a 10k-node
    #: table stay around ~5 MB instead of rematerialising the matrices
    BLOCK_COLS = 64

    def __init__(self, result: RoutingResult) -> None:
        self.result = result
        self.net = result.net
        keys = _dep_keys(result.net)
        self.layer_of: Dict[int, int] = {}
        self.edges_of: Dict[int, np.ndarray] = {}
        # column-block streaming: the source matrices (zero-copy views
        # of an shm table, for a PR 10 routing) are gathered one block
        # of columns at a time; every per-column pass below then runs
        # over contiguous memory
        n_dests = len(result.dests)
        for lo in range(0, n_dests, self.BLOCK_COLS):
            hi = min(lo + self.BLOCK_COLS, n_dests)
            nxt_blk = np.ascontiguousarray(result.next_channel[:, lo:hi])
            vl_blk = np.ascontiguousarray(result.vl[:, lo:hi])
            for off in range(hi - lo):
                col = lo + off
                d = result.dests[col]
                self.layer_of[d] = _column_layer(
                    result, col, nxt_col=nxt_blk[:, off],
                    vl_col=vl_blk[:, off])
                self.edges_of[d] = _column_edge_ids(
                    result.net, nxt_blk[:, off], keys, d)
        self.n_layers = max(
            [result.n_vls] + [layer + 1 for layer in self.layer_of.values()]
        )

    def by_layer(self, n_layers: int) -> List[np.ndarray]:
        """Per layer, the sorted edge ids all columns together induce."""
        return union_by_layer(n_layers, (
            (self.layer_of[d], eids) for d, eids in self.edges_of.items()))


class UnionCDG:
    """Refcounted per-layer overlay of destination columns.

    One ``CompleteCDG`` byte plane per virtual layer carries the used
    edges of every column currently present; per-edge refcounts resolve
    sharing between columns (two forwarding trees routinely induce the
    same dependency).  :meth:`add_if_acyclic` is the incremental
    Algorithm-3 test with exact rollback; :meth:`assert_acyclic` is the
    existing full checker, run per layer as the proof obligation of
    every committed scheduler step.
    """

    def __init__(self, net: Network, n_layers: int) -> None:
        self.net = net
        self.n_layers = max(1, n_layers)
        self._cdgs = [CompleteCDG(net) for _ in range(self.n_layers)]
        self._refs: List[Dict[int, int]] = [
            {} for _ in range(self.n_layers)
        ]

    def add_if_acyclic(self, layer: int, eids: Sequence[int]) -> bool:
        """Overlay an edge set; commit iff the layer stays acyclic.

        Returns True and increments refcounts on success; on failure
        every tentatively used edge (and the one blocked edge) is
        reverted and the state is exactly as before the call.
        """
        cdg = self._cdgs[layer]
        refs = self._refs[layer]
        src, dst = cdg.csr.dep_src_l, cdg.csr.dep_dst_l
        added: List[int] = []
        for eid in eids:
            eid = int(eid)
            if refs.get(eid, 0) > 0:
                continue
            if cdg.try_use_edge_id(eid, src[eid], dst[eid]):
                added.append(eid)
            else:
                cdg._revert_blocked_id(eid)
                for done in reversed(added):
                    cdg._revert_used_id(done)
                return False
        for eid in eids:
            eid = int(eid)
            refs[eid] = refs.get(eid, 0) + 1
        return True

    def remove(self, layer: int, eids: Sequence[int]) -> None:
        """Drop one column's contribution (always acyclicity-safe)."""
        cdg = self._cdgs[layer]
        refs = self._refs[layer]
        for eid in eids:
            eid = int(eid)
            count = refs.get(eid, 0)
            if count <= 0:
                raise ValueError(f"edge {eid} not present on layer {layer}")
            if count == 1:
                del refs[eid]
                cdg._revert_used_id(eid)
            else:
                refs[eid] = count - 1

    def assert_acyclic(self, layers: Optional[Sequence[int]] = None) -> int:
        """Prove layers acyclic with the existing checker; returns the
        number of per-layer proofs run.  Raises ``AssertionError`` on a
        cycle (the checker's own diagnostic)."""
        which = range(self.n_layers) if layers is None else layers
        proofs = 0
        for layer in which:
            self._cdgs[layer].assert_acyclic()
            proofs += 1
        return proofs

    def edge_count(self, layer: int) -> int:
        return self._cdgs[layer].n_used_edges


@dataclass(frozen=True)
class LayerCompat:
    """Per-layer verdict of :func:`check_compatibility`."""

    layer: int
    old_edges: int
    new_edges: int
    union_edges: int
    acyclic: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "layer": self.layer,
            "old_edges": self.old_edges,
            "new_edges": self.new_edges,
            "union_edges": self.union_edges,
            "acyclic": self.acyclic,
        }


@dataclass(frozen=True)
class CompatibilityReport:
    """Outcome of the full-union compatibility test.

    ``compatible`` means every per-layer union of old and new induced
    CDGs is acyclic — the UPR sufficient condition under which *any*
    per-destination swap order is deadlock-free.  When False the
    scheduler may still find an order (the condition is not necessary);
    it just cannot be certified up front.
    """

    compatible: bool
    layers: Tuple[LayerCompat, ...] = field(default_factory=tuple)

    def to_dict(self) -> Dict[str, object]:
        return {
            "compatible": self.compatible,
            "layers": [layer.to_dict() for layer in self.layers],
        }


def check_compatibility(
    old: RoutingResult, new: RoutingResult
) -> CompatibilityReport:
    """Test whether the union of two induced CDGs stays acyclic.

    Both results must live in the same network id space (grow
    transitions translate the old tables first — see
    :func:`repro.reconfig.transitions.translate_result`).
    """
    if old.net.n_channels != new.net.n_channels \
            or old.net.n_nodes != new.net.n_nodes:
        raise ValueError(
            "old and new routings must share one network id space; "
            "translate the old tables into the target network first"
        )
    return union_report(InducedEdges(old), InducedEdges(new))


def union_report(old_edges: InducedEdges,
                 new_edges: InducedEdges) -> CompatibilityReport:
    """:func:`check_compatibility` over two already-lifted routings."""
    net = new_edges.net
    n_layers = max(old_edges.n_layers, new_edges.n_layers)
    with obs.span("reconfig.check"):
        layers = []
        for layer, (old_ids, new_ids) in enumerate(zip(
                old_edges.by_layer(n_layers), new_edges.by_layer(n_layers))):
            union = np.union1d(old_ids, new_ids)
            layers.append(LayerCompat(
                layer=layer,
                old_edges=int(old_ids.size),
                new_edges=int(new_ids.size),
                union_edges=int(union.size),
                acyclic=edge_ids_acyclic(net, union),
            ))
        if obs.enabled():
            obs.count("reconfig.checks")
        return CompatibilityReport(
            compatible=all(layer.acyclic for layer in layers),
            layers=tuple(layers))

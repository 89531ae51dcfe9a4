"""The one non-incremental acyclicity check (paper Theorem 1).

Every "is this dependency set a DAG?" question in the library — the
metrics verdict on lifted tables, ``CompleteCDG.assert_acyclic`` on a
layer's used edges, the union-CDG proofs of ``repro.reconfig`` — is
answered by :func:`kahn_residue`.  This module imports numpy only, so
a proof made with it depends on nothing the routing algorithms own.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kahn_residue"]


def kahn_residue(tails: np.ndarray, heads: np.ndarray) -> int:
    """Vertices of ``tails[i] -> heads[i]`` a Kahn peel cannot remove.

    0 means the edges form a DAG; otherwise the count of vertices on or
    behind a cycle.  The vertex set is the edges' endpoints in any
    integer key space (channel ids, ``channel << VL_BITS | vl`` keys);
    duplicate edges and self-loops are allowed.

    The edges are packed into a successor CSR with numpy; the peel
    itself pops one vertex at a time (dependency graphs of tori are
    hundreds of levels deep and a few vertices wide, so a
    level-at-a-time array peel pays numpy's dispatch per level and
    loses to this loop's ~0.1 us per edge).
    """
    n_edges = len(tails)
    ids, index = np.unique(np.concatenate((tails, heads)),
                           return_inverse=True)
    tail, head = index[:n_edges], index[n_edges:]
    succ = head[np.argsort(tail, kind="stable")].tolist()
    ptr = np.concatenate(
        ([0], np.cumsum(np.bincount(tail, minlength=ids.size)))).tolist()
    indeg = np.bincount(head, minlength=ids.size)
    ready = np.flatnonzero(indeg == 0).tolist()
    indeg = indeg.tolist()
    peeled = 0
    while ready:
        v = ready.pop()
        peeled += 1
        for w in succ[ptr[v]:ptr[v + 1]]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return ids.size - peeled

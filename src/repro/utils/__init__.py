"""Low-level data structures and helpers shared across the library.

* :class:`repro.utils.unionfind.UnionFind` — disjoint sets with path
  compression, used for the ω subgraph numbering of Section 4.6.1.
* :func:`repro.utils.dag.kahn_residue` — the library's one plain
  acyclicity check (Theorem 1), a numpy-only leaf.

The repo-wide heap idiom
------------------------
Every Dijkstra-style search in the library (the Nue routing step in
:mod:`repro.core.dijkstra`, ``sssp_tree`` in
:mod:`repro.routing.sssp`, the Up*/Down* pass-2 search) uses a
**lazy-deletion binary heap**: plain ``heapq`` over ``(key, id)``
tuples, re-pushing on improvement and discarding stale entries at pop
time with a ``key > dist[id]`` guard.  It stands in for the Fibonacci
heap's ``decrease_key`` that the paper's Algorithm 1 calls for:
CPython's C-implemented ``heappush``/``heappop`` on small tuples beats
an addressable pointer-based heap even though it does asymptotically
more work.  Results are unaffected by the choice: the searches relax
strictly, so stale pops are always dominated and tie-breaking reads
only final distances (see the bit-identity notes in the two call
sites).
"""

from repro.utils.unionfind import UnionFind
from repro.utils.prng import make_rng, spawn_seed

__all__ = ["UnionFind", "make_rng", "spawn_seed"]

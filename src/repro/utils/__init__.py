"""Low-level data structures and helpers shared across the library.

* :class:`repro.utils.heap.PairingHeap` — an addressable min-heap with
  ``O(1)`` amortised ``decrease_key``, standing in for the Fibonacci heap
  that the paper's Algorithm 1 calls for.
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
time with a ``key > dist[id]`` guard.  The repo previously mixed this
with :class:`PairingHeap` ``decrease_key`` calls; both were benchmarked
head-to-head on the 4x4x3-torus reference
(``benchmarks/test_bench_csr.py::test_bench_heap_idiom``) and the
lazy-deletion idiom won by roughly 2-3x — CPython's C-implemented
``heappush``/``heappop`` on small tuples beats the pointer-chasing
pairing-heap melds even though it does asymptotically more work.
``PairingHeap`` is retained (addressable heaps stay the right tool
when entries must be *removed* rather than superseded) but new search
code should default to the lazy-deletion idiom.  Results are
unaffected by the choice: the searches relax strictly, so stale pops
are always dominated and tie-breaking reads only final distances (see
the bit-identity notes in the two call sites).
"""

from repro.utils.heap import PairingHeap
from repro.utils.unionfind import UnionFind
from repro.utils.prng import make_rng, spawn_seed

__all__ = ["PairingHeap", "UnionFind", "make_rng", "spawn_seed"]

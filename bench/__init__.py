"""The repository's one committed benchmark (``python -m bench``).

Seven named workloads drive the public surface of ``repro`` — the
``repro.api`` facade, the ``repro serve`` daemon over loopback tcp and
the ``repro.fabric`` simulators — and report the same end-to-end
metrics on each, plus per-layer metrics from a separate traced run.
``bench/README.md`` is the manual; ``BENCHMARK.json`` at the repo root
is the contract the PR driver reads.

The package is self-contained on purpose: it imports nothing from
``benchmarks/`` or ``scripts/``, and everything it needs from ``repro``
beyond the public API goes through the one table in
:mod:`bench.probes`, so a later PR that deletes an internal function
turns one per-layer metric into ``null`` instead of breaking the run.
"""

#: bump when the ledger file layout changes incompatibly; ``bench diff``
#: refuses to compare files of different schema
LEDGER_SCHEMA = 1

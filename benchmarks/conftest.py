"""Benchmark configuration for the speed and memory guards.

The modules here guard engineering claims, not paper figures: the
shared-memory fabric and layer fan-out speedups (``test_bench_fabric``),
the scale sweep's memory budget (``test_bench_scale``), the
observability overhead (``test_bench_obs_overhead``) and resilience
repair (``test_bench_resilience``).  The paper's figures and their
shape facts live in ``repro.experiments`` (each figure's ``check``);
end-to-end wall-clock is the ``bench/`` harness's job.
"""

import os

import pytest

#: shared guard for every timing assertion: speedup/ratio claims are
#: only meaningful where >= 4 real cores guarantee the box is not a
#: noisy shared core (CI's engine-smoke runner qualifies; laptops on
#: battery and 1-2 core containers skip instead of flaking)
needs_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="timing guard needs >= 4 cores",
)


def run_once(benchmark, fn, *args, **kwargs):
    """One measured invocation (plus zero warmup) of ``fn``."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)

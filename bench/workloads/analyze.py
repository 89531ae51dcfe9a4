"""``analyze-torus``: the metrics layer alone.

One op is the full analysis a subnet manager runs on tables it already
has — ``validate_routing``, ``is_deadlock_free``, ``required_vcs``,
``gamma_summary``, ``path_length_stats`` — on pre-routed Nue k=2
tables of the 6x6x6 torus.  ``repro.core`` does nothing here, so a
kernel change must leave this workload flat, and ROADMAP item 4's
single verifier shows up here first.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro import api

from bench.tracer import Tracer
from bench.workloads.base import CheckFailed, Variant
from bench.workloads.tables import MAX_VLS, N_TABLE_SETS, PreRoutedWorkload


class AnalyzeTorus(PreRoutedWorkload):
    name = "analyze-torus"
    min_ops = N_TABLE_SETS

    def _analyze(self, i: int, tracer: Tracer) -> Tuple:
        result = self.table_set(i)
        with tracer.span("metrics.validate_s"):
            api.validate_routing(result)
        with tracer.span("metrics.deadlock_s"):
            deadlock_free = api.is_deadlock_free(result)
        with tracer.span("metrics.required_vcs_s"):
            vcs = api.required_vcs(result)
        with tracer.span("metrics.gamma_s"):
            gamma = api.gamma_summary(result)
        with tracer.span("metrics.path_stats_s"):
            paths = api.path_length_stats(result)
        return (bool(deadlock_free), int(vcs), float(gamma.maximum),
                float(gamma.average), float(paths.average),
                int(paths.n_routes))

    _plain = Tracer(enabled=False)

    def op(self, i: int, lane: int = 0) -> Tuple:
        return self._analyze(i, self._plain)

    def describe(self, i: int) -> Any:
        return {"tables_seed_index": i % N_TABLE_SETS}

    def check(self, i: int, kept: Tuple) -> None:
        deadlock_free, vcs = kept[0], kept[1]
        if not deadlock_free:
            raise CheckFailed("validated Nue tables reported as deadlocking")
        if vcs > MAX_VLS:
            raise CheckFailed(f"required_vcs {vcs} > max_vls {MAX_VLS}")
        self.check_repeats(i, kept, "analysis")

    def quality(self) -> Dict[str, Any]:
        if not self._checked:
            return {}
        return {
            "gamma_max": self.checked_mean(2),
            "path_len_avg": self.checked_mean(4),
            "digest": self.tables_digest() if self.tables else None,
        }

    def trace_variants(self, tracer: Tracer) -> List[Variant]:
        def traced(i: int, lane: int = 0) -> Tuple:
            with tracer.request(i):
                return self._analyze(i, tracer)

        return [("api", self.op, False), ("traced", traced, True)]

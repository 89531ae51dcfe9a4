"""Pre-routed Nue tables on the 6x6x6 torus, shared by the two
workloads that consume tables instead of producing them
(``analyze-torus``, ``simulate-torus``).

Four table sets from four seeds are routed in set-up and cycled by op
index, so an op's input is a function of ``(seed, i % 4)`` and two ops
with equal inputs must produce equal outputs.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro import api

from bench import probes
from bench.tracer import Tracer
from bench.workloads.base import (
    CheckFailed,
    Workload,
    combine_digests,
    derive_seed,
    table_digest,
    timed_median,
)

N_TABLE_SETS = 4
MAX_VLS = 2


def build_torus() -> Any:
    return api.topologies.torus([6, 6, 6], terminals_per_switch=1)


class PreRoutedWorkload(Workload):
    """Set-up routes the table sets; ops only read them."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.net: Any = None
        self.tables: List[Any] = []
        #: checked output per op; ops on the same table set (equal
        #: inputs) must agree exactly
        self._checked: Dict[int, Any] = {}

    def setup(self) -> None:
        self.net = build_torus()
        algo = api.make_algorithm("nue", max_vls=MAX_VLS)
        self.tables = [
            algo.route(self.net, seed=derive_seed(self.seed, "tables", j))
            for j in range(N_TABLE_SETS)
        ]

    def teardown(self) -> None:
        tables, self.tables = self.tables, []
        for result in tables:
            result.release()

    def table_set(self, i: int) -> Any:
        return self.tables[i % N_TABLE_SETS]

    def check_repeats(self, i: int, kept: Any, what: str) -> None:
        """File op ``i``'s output; it must equal that of every earlier
        op on the same table set."""
        first = self._checked.get(i % N_TABLE_SETS, kept)
        if first != kept:
            raise CheckFailed(
                f"{what} of table set {i % N_TABLE_SETS} changed "
                f"between ops: {first} != {kept}")
        self._checked[i] = kept

    def checked_mean(self, column: int) -> float:
        """Mean over the checked ops of one column of their outputs."""
        rows = list(self._checked.values())
        return sum(r[column] for r in rows) / len(rows)

    def tables_digest(self) -> str:
        return combine_digests(
            table_digest(r.next_channel, r.vl) for r in self.tables)

    def per_layer(self, tracer: Tracer, phases: Dict[str, Any],
                  layers: Dict[str, float]) -> Dict[str, Any]:
        found, missing = probes.resolve(["build_csr"])
        self.notes.update(missing)
        out: Dict[str, Any] = {
            "network.build_s": timed_median(build_torus)}
        if "build_csr" in found:
            fresh = iter([build_torus() for _ in range(3)])
            out["network.csr_s"] = timed_median(
                lambda: found["build_csr"](next(fresh)))
        return out

"""``simulate-torus``: the scalar per-object simulators of
``repro.fabric``, ROADMAP's prime optimisation suspect.

One op is a flow-level all-to-all exchange plus one flit-level load
point (offered load 0.3, 300-cycle window, 2000-cycle drain) on
pre-routed Nue tables of the 6x6x6 torus.  The metric is *host* time:
every simulated statistic (delivered, injected, deadlocked, cycles) is
an output that must not change, and ops with equal inputs must agree
exactly.  ``load_latency_sweep`` does not return the cycle count, so
the plain op compares the average packet latency in its place and the
traced run's composed op, which drives ``FlitSimulator`` itself,
compares the cycles.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.fabric import (
    FlitSimulator,
    load_latency_sweep,
    simulate_all_to_all,
)

from bench import stats
from bench.tracer import Tracer
from bench.workloads.base import CheckFailed, Variant, derive_seed
from bench.workloads.tables import N_TABLE_SETS, PreRoutedWorkload

LOAD = 0.3
WINDOW = 300
DRAIN = 2000

COMPOSED_PROBES = ("bernoulli_schedule", "make_rng")


class SimulateTorus(PreRoutedWorkload):
    name = "simulate-torus"
    #: a time-budget run simulates every table set once: table sets
    #: differ in simulated work (accepted load 0.23 vs 0.44 between two
    #: seeds), so a median over three of the four would report which
    #: ones the run happened to see
    min_ops = N_TABLE_SETS
    #: a traced run repeats every op three times (api, composed,
    #: traced) at ~3.5 s each; one op index keeps it inside a run's budget
    trace_min_ops = 1
    #: nothing in this op is lazily built or cached (a first op measured
    #: 3.49 s, its immediate repeat 3.37 s), and one op is ~3.5 s
    warmups = 0
    #: 3.5 s ops: ten runs of one seed spread by 0.19 with each op on
    #: its own two samples, 0.11 on the run's median sample (raw: 0.12)
    host_whole_run = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: api output of an op -> cycles of its first composed execution
        self._cycles: Dict[Tuple, int] = {}

    def sweep_seed(self, i: int) -> int:
        return derive_seed(self.seed, "sweep", i % N_TABLE_SETS)

    def describe(self, i: int) -> Any:
        return {"tables_seed_index": i % N_TABLE_SETS,
                "sweep_seed": self.sweep_seed(i)}

    def op(self, i: int, lane: int = 0) -> Tuple:
        result = self.table_set(i)
        flow = simulate_all_to_all(result)
        (point,) = load_latency_sweep(
            result, [LOAD], window=WINDOW, drain=DRAIN,
            seed=self.sweep_seed(i))
        return (float(flow.throughput_gbyte_per_s),
                float(point.accepted_load), int(point.delivered),
                int(point.injected), bool(point.deadlocked),
                float(point.avg_latency))

    def check(self, i: int, kept: Tuple) -> None:
        if kept[4]:
            raise CheckFailed("validated Nue tables deadlocked in the "
                              "flit simulator")
        self.check_repeats(i, kept, "simulated statistics")

    def quality(self) -> Dict[str, Any]:
        if not self._checked:
            return {}
        return {
            "a2a_throughput_gbs": self.checked_mean(0),
            "flit_accepted_load": self.checked_mean(1) / LOAD,
            "digest": self.tables_digest() if self.tables else None,
        }

    # -- traced run -------------------------------------------------------------

    def composed_op(self, i: int, tracer: Tracer,
                    counts: Dict[str, float]) -> Tuple:
        """The op with ``load_latency_sweep`` spelled out so schedule
        generation and the cycle loop get their own spans."""
        P = self._probes
        result = self.table_set(i)
        with tracer.span("fabric.flow.a2a_s"):
            flow = simulate_all_to_all(result)
        terminals = result.net.terminals
        with tracer.span("fabric.flit.schedule_s"):
            rng = P["make_rng"](self.sweep_seed(i))
            sim = FlitSimulator(result)
            sim.schedule(P["bernoulli_schedule"](
                terminals, LOAD, WINDOW, rng))
        with tracer.span("fabric.flit.run_s"):
            run = sim.run(max_cycles=WINDOW + DRAIN)
        counts["cycles"] = run.cycles
        counts["delivered"] = run.delivered_packets
        accepted = run.delivered_packets / (len(terminals) * WINDOW)
        return (float(flow.throughput_gbyte_per_s), float(accepted),
                int(run.delivered_packets), int(run.injected_packets),
                bool(run.deadlocked), float(run.avg_latency),
                int(run.cycles))

    def trace_variants(self, tracer: Tracer) -> List[Variant]:
        return self.composed_variants(tracer, COMPOSED_PROBES)

    def same_output(self, a: Tuple, b: Tuple) -> bool:
        # the api op has no cycle count; the composed and the traced
        # execution of one op must agree on theirs
        n = min(len(a), len(b))
        if a[:n] != b[:n]:
            return False
        cycles = self._cycles.setdefault(a, b[6]) if len(b) > 6 else None
        return cycles is None or cycles == b[6]

    def per_layer(self, tracer: Tracer, phases: Dict[str, Any],
                  layers: Dict[str, float]) -> Dict[str, Any]:
        out = super().per_layer(tracer, phases, layers)
        if self._trace_counts:
            cycles = stats.median([c["cycles"] for c in self._trace_counts])
            out.update({
                "fabric.flit.cycles": cycles,
                "fabric.flit.cycles_per_s":
                    cycles / layers["fabric.flit.run_s"],
                "fabric.flit.delivered_packets": stats.median(
                    [c["delivered"] for c in self._trace_counts]),
            })
        return out

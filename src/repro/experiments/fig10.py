"""Figure 10 — all-to-all throughput on the Tab. 1 topologies.

Every OpenSM routing plus Nue at 1..8 VCs, on the five standard and two
real-world topologies, 2 KiB shift all-to-all, QDR links, 8-VC budget.
Impossible topology/routing combinations are reported as such (e.g.
Torus-2QoS on a tree); routings whose VC requirement exceeds the budget
are flagged inapplicable exactly like the paper's missing bars.

Two scales:

* ``--paper-scale`` — the Tab. 1 configurations (~1,000 terminals);
  phases are sampled (``--sample-phases``, default 32) to keep the
  pure-Python run tractable.  This is the EXPERIMENTS.md run.
* default quick scale — structurally identical topologies at roughly
  1/8 size, all phases simulated.

Either run exits 1 when :func:`check` finds a broken paper-shape fact;
the paper-scale torus breaks its facts (the known deviation in
EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import time
from typing import Callable, Dict, List, Optional

from repro.experiments.common import nue_suite, routing_suite, run_routing
from repro.experiments.report import assert_facts, check_or_exit, render_table
from repro.experiments.table1 import paper_topologies
from repro.io.tables import save_experiment
from repro.fabric.flow import simulate_all_to_all
from repro.network.graph import Network
from repro.network.topologies import (
    cascade,
    dragonfly,
    k_ary_n_tree,
    kautz,
    random_topology,
    torus,
    two_tier_clos,
)

__all__ = ["run", "check", "quick_topologies"]


def quick_topologies(seed: int = 1) -> Dict[str, Callable[[], Network]]:
    """Scaled-down structural twins of the Tab. 1 topologies."""
    return {
        "random": lambda: random_topology(40, 200, 4, seed=seed),
        "torus-4x4x3": lambda: torus([4, 4, 3], 3, redundancy=2),
        "4-ary-3-tree": lambda: k_ary_n_tree(4, 3, terminals=70),
        "kautz": lambda: kautz(3, 3, 3, redundancy=2),
        "dragonfly": lambda: dragonfly(6, 3, 3, 7),
        "cascade": lambda: cascade(
            2, 24, 3, chassis_per_group=3, slots_per_chassis=6
        ),
        "tsubame2.5": lambda: two_tier_clos(24, 4, 120,
                                            name="tsubame-quick"),
    }


def run(
    paper_scale: bool = False,
    max_vls: int = 8,
    sample_phases: Optional[int] = None,
    seed: int = 1,
    only: Optional[List[str]] = None,
    json_path: Optional[str] = None,
) -> Dict[str, Dict[str, Optional[float]]]:
    started = time.perf_counter()
    builders = (
        paper_topologies(seed) if paper_scale else quick_topologies(seed)
    )
    if only:
        builders = {k: v for k, v in builders.items() if k in only}
    if sample_phases is None and paper_scale:
        sample_phases = 32

    algos = dict(routing_suite(max_vls))
    algos.update(nue_suite(max_vls))

    table: Dict[str, Dict[str, Optional[float]]] = {}
    vls_used: Dict[str, Dict[str, Optional[int]]] = {}
    for topo_name, build in builders.items():
        net = build()
        table[topo_name] = {}
        vls_used[topo_name] = {}
        for label, algo in algos.items():
            outcome = run_routing(algo, net, label=label, seed=seed)
            if not outcome.ok:
                table[topo_name][label] = None
                vls_used[topo_name][label] = None
                continue
            result = outcome.result
            assert result is not None
            sim = simulate_all_to_all(
                result, sample_phases=sample_phases, seed=seed
            )
            table[topo_name][label] = sim.throughput_gbyte_per_s
            vls_used[topo_name][label] = result.n_vls

    labels = list(algos)
    rows = []
    for topo_name in table:
        row: List[object] = [topo_name]
        for label in labels:
            tput = table[topo_name][label]
            if tput is None:
                row.append("-")
            else:
                row.append(f"{tput:.0f}({vls_used[topo_name][label]})")
        rows.append(row)
    print(render_table(
        ["topology"] + labels,
        rows,
        title=(
            "Fig. 10 - simulated all-to-all throughput, GB/s (VLs used); "
            "'-' = routing failed / not applicable\n"
            f"scale: {'paper (Tab. 1)' if paper_scale else 'quick (~1/8)'}"
            + (f", {sample_phases} sampled phases" if sample_phases else "")
        ),
    ))
    if json_path:
        save_experiment(
            json_path, "fig10",
            {"throughput_gbs": table, "vls_used": vls_used},
            seed=seed,
            config={"paper_scale": paper_scale, "max_vls": max_vls,
                    "sample_phases": sample_phases, "only": only},
            runtime_s=time.perf_counter() - started,
        )
    return table


def check(table: Dict[str, Dict[str, Optional[float]]]) -> None:
    """Assert Fig. 10's orderings on :func:`run`'s table; needs its torus,
    tree and random topologies (matched by name at either scale)."""
    def topology(kind: str) -> Dict[str, Optional[float]]:
        for name, row in table.items():
            if kind in name:
                return row
        raise KeyError(kind)

    def best_nue(kind: str, ks: List[int]) -> float:
        return max(topology(kind)[f"nue-{k}vl"] for k in ks)

    def tput(kind: str, label: str) -> float:
        return topology(kind)[label]

    assert_facts("fig10", [
        ("nue-8vl, dfsssp and updn route every topology",
         lambda: all(row[label] is not None for row in table.values()
                     for label in ("nue-8vl", "dfsssp", "updn"))),
        ("torus: nue (6-8 VLs) beats updn",
         lambda: best_nue("torus", [6, 8]) > tput("torus", "updn")),
        ("torus: nue (6-8 VLs) reaches 0.6x torus-2qos",
         lambda: best_nue("torus", [6, 8])
         >= 0.6 * tput("torus", "torus-2qos")),
        ("tree: ftree beats updn",
         lambda: tput("tree", "ftree") > tput("tree", "updn")),
        ("tree: nue-4vl beats updn",
         lambda: tput("tree", "nue-4vl") > tput("tree", "updn")),
        ("random: nue (4-8 VLs) reaches 0.75x dfsssp",
         lambda: best_nue("random", [4, 8])
         >= 0.75 * tput("random", "dfsssp")),
        ("random: nue (4-8 VLs) reaches 0.9x lash",
         lambda: best_nue("random", [4, 8]) >= 0.9 * tput("random", "lash")),
    ])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paper-scale", action="store_true")
    ap.add_argument("--max-vls", type=int, default=8)
    ap.add_argument("--sample-phases", type=int, default=None)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--only", nargs="*", default=None,
                    help="restrict to these topology names")
    ap.add_argument("--json", dest="json_path", default=None)
    args = ap.parse_args()
    table = run(args.paper_scale, args.max_vls, args.sample_phases,
                args.seed, args.only, args.json_path)
    check_or_exit(check, table)


if __name__ == "__main__":
    main()

"""Figure 9 + Section 5.1 — edge forwarding index on random topologies.

Paper setup: 1,000 random topologies of 125 switches, 1,000
switch-to-switch channels and 8 terminals per switch; Nue at 1..8 VCs
vs LASH vs DFSSSP.  Reported: the per-topology minimum / maximum /
average / standard deviation of the edge forwarding index γ, averaged
over the topologies (the Γ box plot), plus the Section-5.1 side
statistics — maximum path length and the escape-path fallback rate.

The topology count is configurable (box statistics stabilise far below
1,000 samples; see DESIGN.md §3): ``python -m repro.experiments.fig09
--topologies 1000`` is the paper-scale run.  It exits 1 when
:func:`check` finds a broken paper-shape fact.
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Optional

import numpy as np

from repro.experiments.report import assert_facts, check_or_exit, render_table
from repro.io.tables import save_experiment
from repro.metrics import gamma_summary, path_length_stats
from repro.network.topologies import random_topology
from repro.routing import make_algorithm
from repro.utils.prng import make_rng, spawn_seed

__all__ = ["run", "check"]

N_SWITCHES = 125
N_LINKS = 1000
TERMINALS_PER_SWITCH = 8


def run(
    n_topologies: int = 5,
    max_k: int = 8,
    seed: int = 2016,
    n_switches: int = N_SWITCHES,
    n_links: int = N_LINKS,
    terminals_per_switch: int = TERMINALS_PER_SWITCH,
    json_path: Optional[str] = None,
) -> Dict[str, Dict[str, float]]:
    started = time.perf_counter()
    rng = make_rng(seed)
    labels = [f"nue-{k}vl" for k in range(1, max_k + 1)] + ["lash", "dfsssp"]
    acc: Dict[str, Dict[str, List[float]]] = {
        lab: {"min": [], "max": [], "avg": [], "sd": [],
              "maxlen": [], "fallback": []}
        for lab in labels
    }

    for t in range(n_topologies):
        net = random_topology(
            n_switches, n_links, terminals_per_switch, seed=spawn_seed(rng)
        )
        run_seed = spawn_seed(rng)
        for lab in labels:
            if lab.startswith("nue"):
                k = int(lab.split("-")[1].removesuffix("vl"))
                algo = make_algorithm("nue", k)
            else:
                algo = make_algorithm(lab, max_vls=64)
            result = algo.route(net, seed=run_seed)
            g = gamma_summary(result)
            p = path_length_stats(result)
            acc[lab]["min"].append(g.minimum)
            acc[lab]["max"].append(g.maximum)
            acc[lab]["avg"].append(g.average)
            acc[lab]["sd"].append(g.stddev)
            acc[lab]["maxlen"].append(p.maximum)
            acc[lab]["fallback"].append(
                float(result.stats.get("fallback_rate", 0.0))
            )

    summary: Dict[str, Dict[str, float]] = {}
    rows = []
    for lab in labels:
        s = {
            key: float(np.mean(vals)) for key, vals in acc[lab].items()
        }
        summary[lab] = s
        rows.append([
            lab, s["min"], s["avg"], s["sd"], s["max"],
            s["maxlen"], f"{100 * s['fallback']:.2f}%",
        ])

    print(render_table(
        ["routing", "Γ_min", "Γ_avg", "Γ_SD", "Γ_max",
         "max path len", "escape fallback"],
        rows,
        title=(
            "Fig. 9 / Sec. 5.1 - edge forwarding index, averaged over "
            f"{n_topologies} random topologies "
            f"({n_switches} sw / {n_switches * terminals_per_switch} T / "
            f"{n_links} ch)"
        ),
    ))
    if json_path:
        save_experiment(
            json_path, "fig09",
            {"summary": summary, "n_topologies": n_topologies},
            seed=seed,
            config={"n_topologies": n_topologies, "max_k": max_k,
                    "n_switches": n_switches, "n_links": n_links,
                    "terminals_per_switch": terminals_per_switch},
            runtime_s=time.perf_counter() - started,
        )
    return summary


def check(summary: Dict[str, Dict[str, float]]) -> None:
    """Assert Fig. 9's shape on :func:`run`'s summary (needs max_k >= 8):
    more VLs move Nue's balance toward DFSSSP's (Sec. 5.1)."""
    def stat(label: str, key: str) -> float:
        return summary[label][key]

    assert_facts("fig09", [
        ("Γ_max > 0 for every Nue VL count",
         lambda: all(s["max"] > 0 for lab, s in summary.items()
                     if lab.startswith("nue"))),
        ("Γ_max(nue-8vl) < Γ_max(nue-1vl)",
         lambda: stat("nue-8vl", "max") < stat("nue-1vl", "max")),
        ("Γ_max(nue-8vl) < 2x Γ_max(dfsssp)",
         lambda: stat("nue-8vl", "max") < 2.0 * stat("dfsssp", "max")),
        ("max path length(nue-8vl) <= dfsssp's + 2",
         lambda: stat("nue-8vl", "maxlen") <= stat("dfsssp", "maxlen") + 2),
    ])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--topologies", type=int, default=5)
    ap.add_argument("--max-k", type=int, default=8)
    ap.add_argument("--seed", type=int, default=2016)
    ap.add_argument("--switches", type=int, default=N_SWITCHES)
    ap.add_argument("--links", type=int, default=N_LINKS)
    ap.add_argument("--terminals", type=int, default=TERMINALS_PER_SWITCH)
    ap.add_argument("--json", dest="json_path", default=None)
    args = ap.parse_args()
    summary = run(args.topologies, args.max_k, args.seed, args.switches,
                  args.links, args.terminals, args.json_path)
    check_or_exit(check, summary)


if __name__ == "__main__":
    main()

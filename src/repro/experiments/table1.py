"""Table 1 — topology configurations for the throughput simulations.

Regenerates each evaluation topology and reports switch / terminal /
switch-to-switch channel counts next to the paper's numbers.  The two
deliberate substitutions (Kautz parameters, Tsubame2.5 shape) are
documented in DESIGN.md §3 and show up as the only deltas; the run
exits 1 when :func:`check` finds any other.
"""

from __future__ import annotations

import argparse
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.report import assert_facts, check_or_exit, render_table
from repro.io.tables import save_experiment
from repro.network.graph import Network
from repro.obs import core as obs
from repro.obs import live
from repro.network.topologies import (
    cascade,
    dragonfly,
    k_ary_n_tree,
    kautz,
    random_topology,
    torus,
    tsubame25_like,
)

__all__ = ["run", "check", "paper_topologies", "PAPER_ROWS"]

#: paper Tab. 1: (switches, terminals, channels, redundancy)
PAPER_ROWS: Dict[str, Tuple[int, int, int, int]] = {
    "random": (125, 1000, 1000, 1),
    "torus-6x5x5": (150, 1050, 1800, 4),
    "10-ary-3-tree": (300, 1100, 2000, 1),
    "kautz": (150, 1050, 1500, 2),
    "dragonfly": (180, 1080, 1515, 1),
    "cascade": (192, 1536, 3072, 1),
    "tsubame2.5": (243, 1407, 3384, 1),
}

#: our stand-ins' channel counts where they differ (DESIGN.md §3)
SUBSTITUTE_CHANNELS = {"tsubame2.5": 3420}


def paper_topologies(seed: int = 1) -> Dict[str, Callable[[], Network]]:
    """Constructors for the seven Tab. 1 topologies at paper scale."""
    return {
        "random": lambda: random_topology(125, 1000, 8, seed=seed),
        "torus-6x5x5": lambda: torus([6, 5, 5], 7, redundancy=4),
        "10-ary-3-tree": lambda: k_ary_n_tree(10, 3, terminals=1100),
        "kautz": lambda: kautz(5, 3, 7, redundancy=2),
        "dragonfly": lambda: dragonfly(12, 6, 6, 15),
        "cascade": lambda: cascade(),
        "tsubame2.5": lambda: tsubame25_like(),
    }


def run(seed: int = 1, json_path: Optional[str] = None) -> List[Dict]:
    started = time.perf_counter()
    rows: List[Dict] = []
    topologies = paper_topologies(seed)
    total = len(topologies)
    if obs.enabled():
        obs.gauge("exp.table1.topologies_total", total)
    for i, (name, build) in enumerate(topologies.items()):
        if obs.enabled():
            obs.gauge("exp.table1.topologies_done", i)
            obs.gauge("exp.table1.progress", i / total)
        live.pump()
        with obs.span("exp.table1.topology", topology=name):
            net = build()
        got = (
            len(net.switches),
            len(net.terminals),
            len(net.switch_to_switch_links()),
        )
        paper = PAPER_ROWS[name]
        rows.append({
            "topology": name,
            "switches": got[0], "paper_switches": paper[0],
            "terminals": got[1], "paper_terminals": paper[1],
            "channels": got[2], "paper_channels": paper[2],
            "redundancy": paper[3],
        })
    if obs.enabled():
        obs.gauge("exp.table1.topologies_done", total)
        obs.gauge("exp.table1.progress", 1.0)
    live.pump()
    print(render_table(
        ["topology", "switches", "(paper)", "terminals", "(paper)",
         "s2s channels", "(paper)", "r"],
        [
            [r["topology"], r["switches"], r["paper_switches"],
             r["terminals"], r["paper_terminals"],
             r["channels"], r["paper_channels"], r["redundancy"]]
            for r in rows
        ],
        title="Tab. 1 - topology configurations (generated vs paper)",
    ))
    if json_path:
        save_experiment(
            json_path, "table1", {"rows": rows},
            seed=seed,
            runtime_s=time.perf_counter() - started,
        )
    return rows


def check(rows: List[Dict]) -> None:
    """Assert every Tab. 1 count equals the paper's (or the substitute's)."""
    by = {r["topology"]: r for r in rows}
    assert_facts("table1", [
        (f"{name} {what}", lambda name=name, what=what, want=want:
         by[name][what] == want)
        for name, (sw, term, ch, _r) in PAPER_ROWS.items()
        for what, want in (("switches", sw), ("terminals", term),
                           ("channels", SUBSTITUTE_CHANNELS.get(name, ch)))
    ])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", dest="json_path", default=None)
    args = ap.parse_args()
    check_or_exit(check, run(args.seed, args.json_path))


if __name__ == "__main__":
    main()

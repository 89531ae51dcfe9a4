"""Figure 1 — throughput and required VCs on a faulty 4x4x3 torus.

Paper setup: 4x4x3 3D torus, four terminals per switch, one failed
switch (47 switches / 188 terminals), QDR InfiniBand, at most 4 VCs.
Fig. 1a reports the all-to-all (2 KiB) throughput of every routing and
of Nue at 1..4 VCs; Fig. 1b the number of VCs each routing needs for
deadlock-freedom — DFSSSP exceeds the 4-VC limit and is therefore
inapplicable, Torus-2QoS works but would not survive a second failure
in the same ring, Nue works at every VC count.

Run: ``python -m repro.experiments.fig01 [--json out.json]``; it exits 1
when :func:`check` finds a broken paper-shape fact.
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Optional

from repro.experiments.common import nue_suite, routing_suite, run_routing
from repro.experiments.report import assert_facts, check_or_exit, render_table
from repro.io.tables import save_experiment
from repro.fabric.flow import simulate_all_to_all
from repro.metrics import is_deadlock_free
from repro.network.faults import remove_switches
from repro.network.topologies import torus

__all__ = ["run", "check", "build_network"]

VC_LIMIT = 4


def build_network(failed_switch: int = 0):
    """The paper's Fig. 1 network: 4x4x3 torus, 4 T/sw, 1 dead switch."""
    net = torus([4, 4, 3], terminals_per_switch=4)
    return remove_switches(net, [net.switches[failed_switch]]).net


def run(
    seed: int = 1,
    sample_phases: Optional[int] = None,
    json_path: Optional[str] = None,
) -> List[Dict]:
    started = time.perf_counter()
    net = build_network()
    rows: List[Dict] = []

    algos = dict(routing_suite(max_vls=16))  # large budget: we want the
    algos.pop("ftree")                       # requirement, not a failure
    algos.update(nue_suite(VC_LIMIT))

    for label, algo in algos.items():
        outcome = run_routing(
            algo, net, label=label, seed=seed, compute_required_vcs=True
        )
        if not outcome.ok:
            rows.append({
                "routing": label,
                "throughput_gbs": None,
                "required_vcs": None,
                "applicable": False,
                "note": outcome.error,
            })
            continue
        result = outcome.result
        assert result is not None
        sim = simulate_all_to_all(
            result, sample_phases=sample_phases, seed=seed
        )
        req = outcome.required_vcs
        deadlock_free = is_deadlock_free(result)
        applicable = bool(deadlock_free and req is not None and
                          req <= VC_LIMIT)
        rows.append({
            "routing": label,
            "throughput_gbs": sim.throughput_gbyte_per_s,
            "required_vcs": req,
            "applicable": applicable,
            "note": "" if deadlock_free else
                    f"not DL-free as routed; needs {req} VCs",
        })

    print(render_table(
        ["routing", "throughput GB/s", "required VCs",
         f"usable within {VC_LIMIT} VCs", "note"],
        [
            [r["routing"], r["throughput_gbs"], r["required_vcs"],
             "yes" if r["applicable"] else "NO", r["note"]]
            for r in rows
        ],
        title=(
            "Fig. 1 - all-to-all throughput and required VCs\n"
            "network: 4x4x3 torus, 4 terminals/switch, 1 failed switch, "
            f"QDR, {VC_LIMIT}-VC limit"
        ),
    ))
    if json_path:
        save_experiment(
            json_path, "fig01", {"rows": rows},
            seed=seed,
            config={"sample_phases": sample_phases,
                    "vc_limit": VC_LIMIT,
                    "topology": net.name},
            runtime_s=time.perf_counter() - started,
        )
    return rows


def check(rows: List[Dict]) -> None:
    """Assert Fig. 1's shape (the facts named below) on :func:`run`'s rows."""
    by = {r["routing"]: r for r in rows}

    def tput(label: str) -> float:
        return by[label]["throughput_gbs"]

    usable = [f"nue-{k}vl" for k in range(1, VC_LIMIT + 1)]
    usable += ["lash", "torus-2qos"]
    assert_facts("fig01", [
        *((f"{label} usable within {VC_LIMIT} VCs",
           lambda label=label: by[label]["applicable"] and tput(label) > 0)
          for label in usable),
        ("torus-2qos needs 2 VCs",
         lambda: by["torus-2qos"]["required_vcs"] == 2),
        ("updn needs 1 VC", lambda: by["updn"]["required_vcs"] == 1),
        (f"dfsssp needs more than {VC_LIMIT} VCs",
         lambda: by["dfsssp"]["required_vcs"] > VC_LIMIT),
        ("nue-4vl beats nue-1vl", lambda: tput("nue-4vl") > tput("nue-1vl")),
        ("nue-4vl reaches 0.7x torus-2qos",
         lambda: tput("nue-4vl") >= 0.7 * tput("torus-2qos")),
    ])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument(
        "--sample-phases", type=int, default=None,
        help="simulate only this many shift phases (default: all)",
    )
    ap.add_argument("--json", dest="json_path", default=None)
    args = ap.parse_args()
    rows = run(args.seed, args.sample_phases, args.json_path)
    check_or_exit(check, rows)


if __name__ == "__main__":
    main()

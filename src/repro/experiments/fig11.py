"""Figure 11 — routing runtime and applicability on faulty 3D tori.

Paper setup: 3D tori from 2x2x2 up to 10x10x10 (dimensions differing by
at most one), four terminals per switch, 1 % random link failures, 8-VC
budget; wall-clock runtime of Nue (8 VLs), DFSSSP, LASH and Torus-2QoS,
with missing points where an algorithm fails (VC budget exceeded or the
analytic scheme defeated by the faults).

The Python constant factor makes the 4,000-terminal end of the sweep
hours-long, so the default sweep stops at ``--max-dim 5`` (500
terminals); the claims under test are *relative*: Nue tracks DFSSSP's
complexity, Torus-2QoS stays faster (paper: ~9x), and only Nue keeps
100 % applicability as faults and size grow.  The run exits 1 when
:func:`check` finds a broken paper-shape fact (it needs ``--max-dim``
>= 4).
"""

from __future__ import annotations

import argparse
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.common import run_routing
from repro.experiments.report import assert_facts, check_or_exit, render_table
from repro.io.tables import save_experiment
from repro.network.faults import FaultInjectionError, inject_random_link_faults
from repro.network.topologies import torus
from repro.routing import make_algorithm

__all__ = ["run", "check", "tori_dimensions"]


def tori_dimensions(max_dim: int = 10) -> List[Tuple[int, int, int]]:
    """The paper's sweep: 2x2x2, 2x2x3, 2x3x3, 3x3x3, ... max³."""
    out: List[Tuple[int, int, int]] = []
    for d in range(2, max_dim + 1):
        out.append((d, d, d))
        if d < max_dim:
            out.append((d, d, d + 1))
            out.append((d, d + 1, d + 1))
    return sorted(out)


def run(
    max_dim: int = 5,
    max_vls: int = 8,
    fault_fraction: float = 0.01,
    terminals_per_switch: int = 4,
    seed: int = 11,
    json_path: Optional[str] = None,
) -> Dict[str, Dict[str, Any]]:
    """The JSON ``data``: runtimes_s / vls_used / notes [routing][size]."""
    started = time.perf_counter()
    algos = {
        "nue-8vl": make_algorithm("nue", max_vls),
        "dfsssp": make_algorithm("dfsssp", max_vls),
        "lash": make_algorithm("lash", max_vls),
        "torus-2qos": make_algorithm("torus-2qos", max_vls),
    }
    runtimes: Dict[str, Dict[str, Optional[float]]] = {
        lab: {} for lab in algos
    }
    vls_used: Dict[str, Dict[str, Optional[int]]] = {lab: {} for lab in algos}
    notes: Dict[str, Dict[str, str]] = {lab: {} for lab in algos}

    for dims in tori_dimensions(max_dim):
        label = "x".join(map(str, dims))
        net = torus(dims, terminals_per_switch)
        try:
            net = inject_random_link_faults(net, fault_fraction, seed=seed).net
        except FaultInjectionError:
            pass  # tiny torus: keep it pristine
        for lab, algo in algos.items():
            outcome = run_routing(algo, net, seed=seed)
            runtimes[lab][label] = outcome.runtime_s if outcome.ok else None
            vls_used[lab][label] = outcome.result.n_vls if outcome.ok else None
            notes[lab][label] = "" if outcome.ok else (outcome.error or "")

    sizes = ["x".join(map(str, d)) for d in tori_dimensions(max_dim)]
    rows = []
    for size in sizes:
        row: List[object] = [size]
        for lab in algos:
            rt = runtimes[lab][size]
            row.append(f"{rt:.2f}s" if rt is not None else "FAIL")
        rows.append(row)
    print(render_table(
        ["torus"] + list(algos),
        rows,
        title=(
            "Fig. 11 - deadlock-free routing runtime on faulty 3D tori "
            f"({terminals_per_switch} T/sw, {100 * fault_fraction:.0f}% "
            f"link faults, {max_vls}-VC budget); FAIL = inapplicable"
        ),
    ))
    applicability = {
        lab: sum(1 for v in runtimes[lab].values() if v is not None)
        / len(sizes)
        for lab in algos
    }
    print("\napplicability: " + ", ".join(
        f"{lab}={100 * frac:.0f}%" for lab, frac in applicability.items()
    ))
    data = {"runtimes_s": runtimes, "vls_used": vls_used, "notes": notes,
            "applicability": applicability}
    if json_path:
        save_experiment(
            json_path, "fig11", data,
            seed=seed,
            config={"max_dim": max_dim, "max_vls": max_vls,
                    "fault_fraction": fault_fraction,
                    "terminals_per_switch": terminals_per_switch},
            runtime_s=time.perf_counter() - started,
        )
    return data


def check(data: Dict[str, Dict[str, Any]]) -> None:
    """Assert Fig. 11's shape on :func:`run`'s output (max_dim >= 4)."""
    runtimes, vls = data["runtimes_s"], data["vls_used"]
    assert_facts("fig11", [
        ("nue-8vl routes every size within 8 VLs",
         lambda: all(v <= 8 for v in vls["nue-8vl"].values())),
        ("dfsssp routes 3x3x3",
         lambda: runtimes["dfsssp"]["3x3x3"] is not None),
        ("dfsssp runs out of virtual layers at 4x4x4",
         lambda: runtimes["dfsssp"]["4x4x4"] is None
         and "virtual layers" in data["notes"]["dfsssp"]["4x4x4"]),
        ("lash routes 3x3x3 and 4x4x4",
         lambda: None not in (runtimes["lash"]["3x3x3"],
                              runtimes["lash"]["4x4x4"])),
        ("torus-2qos routes every size with 2 VLs",
         lambda: all(v == 2 for v in vls["torus-2qos"].values())),
        ("torus-2qos is faster than nue-8vl at 4x4x4",
         lambda: runtimes["torus-2qos"]["4x4x4"]
         < runtimes["nue-8vl"]["4x4x4"]),
    ])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-dim", type=int, default=5)
    ap.add_argument("--max-vls", type=int, default=8)
    ap.add_argument("--faults", type=float, default=0.01)
    ap.add_argument("--terminals", type=int, default=4)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--json", dest="json_path", default=None)
    args = ap.parse_args()
    data = run(args.max_dim, args.max_vls, args.faults, args.terminals,
               args.seed, args.json_path)
    check_or_exit(check, data)


if __name__ == "__main__":
    main()

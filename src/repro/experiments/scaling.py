"""Proposition 1 — empirical runtime scaling of Nue.

The paper derives O(|N|² log |N|) time for fixed switch radix and VC
count.  This harness measures Nue's wall-clock over a size sweep of
constant-radix random topologies and fits the log–log slope of runtime
against |N|: the fit should land near 2 (the log factor is invisible at
these scales), confirming the quadratic envelope.  A sweep over fewer
than two distinct sizes measures no slope (``n/a``) and is not checked;
otherwise the run exits 1 when :func:`check` finds the slope >= 3.
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.experiments.report import assert_facts, check_or_exit, render_table
from repro.io.tables import save_experiment
from repro.network.topologies import random_topology
from repro.routing import make_algorithm

__all__ = ["run", "check"]


def run(
    sizes: Optional[List[int]] = None,
    k: int = 1,
    degree: int = 6,
    terminals_per_switch: int = 2,
    seed: int = 3,
    json_path: Optional[str] = None,
) -> Tuple[List[Tuple[int, float]], Optional[float]]:
    """Time Nue over the size sweep; return ``(points, slope)`` where
    ``slope`` is ``None`` below two distinct network sizes."""
    run_started = time.perf_counter()
    sizes = sizes or [16, 32, 64, 128]
    points: List[Tuple[int, float]] = []
    for n_switches in sizes:
        net = random_topology(
            n_switches,
            n_switches * degree // 2,
            terminals_per_switch,
            seed=seed,
        )
        algo = make_algorithm("nue", k)
        started = time.perf_counter()
        algo.route(net, seed=seed)
        # floored: a sub-timer-resolution run must not feed log(0)
        elapsed = max(time.perf_counter() - started, 1e-4)
        points.append((net.n_nodes, elapsed))

    slope: Optional[float] = None
    if len({n for n, _t in points}) >= 2:
        xs = np.log([p[0] for p in points])
        ys = np.log([p[1] for p in points])
        slope = float(np.polyfit(xs, ys, 1)[0])

    print(render_table(
        ["|N| (nodes)", "runtime (s)"],
        [[n, f"{t:.3f}"] for n, t in points],
        title=(
            f"Prop. 1 - Nue (k={k}) runtime scaling on degree-{degree} "
            "random topologies"
        ),
    ))
    shown = "n/a" if slope is None else f"{slope:.2f}"
    print(f"\nlog-log slope: {shown}  "
          "(paper bound O(|N|^2 log|N|) => slope ~2)")
    if json_path:
        save_experiment(
            json_path, "scaling",
            {"points": points, "slope": slope},
            seed=seed,
            config={"sizes": sizes, "k": k, "degree": degree,
                    "terminals_per_switch": terminals_per_switch},
            runtime_s=time.perf_counter() - run_started,
        )
    return points, slope


def check(result: Tuple[List[Tuple[int, float]], Optional[float]]) -> None:
    """Assert Prop. 1's quadratic(ish) envelope, far from smart routing's
    O(N^9), on :func:`run`'s ``(points, slope)``; a missing slope fails."""
    _points, slope = result
    assert_facts("scaling", [
        ("log-log slope measured and < 3",
         lambda: slope is not None and slope < 3.0),
    ])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="*", default=None)
    ap.add_argument("--k", type=int, default=1)
    ap.add_argument("--degree", type=int, default=6)
    ap.add_argument("--terminals", type=int, default=2)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--json", dest="json_path", default=None)
    args = ap.parse_args()
    points, slope = run(args.sizes, args.k, args.degree, args.terminals,
                        args.seed, args.json_path)
    if slope is not None:
        check_or_exit(check, (points, slope))


if __name__ == "__main__":
    main()

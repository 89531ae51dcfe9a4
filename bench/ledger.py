"""``bench run`` / ``bench diff`` / ``bench selftest``: ledger files.

A ledger file is one full set of runs of one commit: every workload
measured :data:`bench.spec.REPEATS` times, each time in a fresh
subprocess with the same seed and a fixed op count, so that two commits
do identical work and their files can be compared row by row.  The
value of a metric is the median of its repeats, and their range is the
commit's own run-to-run spread.  ``bench diff`` applies each end-to-end
metric's own bound (:mod:`bench.spec`), reports a pairing whose spread
is wider than its bound as unresolved, and refuses to compare runs that
did different work or ran on a different kernel backend.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench import LEDGER_SCHEMA, runtime, spec, stats

#: a workload subprocess that runs longer than this is killed and
#: recorded as failed — a hang never stalls the whole run
WORKLOAD_TIMEOUT_S = 900.0
#: a traced run repeats every op once per phase, so it uses a third of
#: the ledger's op count — but never fewer ops than six: the closure
#: check judges the median of the composed / api pairs, and one pair is
#: off by +-10 % on its own
TRACE_OPS_DIVISOR = 3
TRACE_OPS_MIN = 6


def ops_for(workload: spec.WorkloadSpec, trace: bool) -> int:
    return max(TRACE_OPS_MIN, workload.ops // TRACE_OPS_DIVISOR) \
        if trace else workload.ops


def _measure_in_subprocess(name: str, seed: int, ops: int, trace: bool,
                           quick: bool = False) -> Dict[str, Any]:
    """One workload in a fresh process; always returns a record.

    ``quick`` runs (selftest) may overlap and print nothing: only a
    non-quick run owns ``/dev/shm``, cleans up what a killed child left
    there, and echoes every metric by name."""
    before = runtime.shm_segments()
    runtime.OUT_DIR.mkdir(parents=True, exist_ok=True)
    fd, record_path = tempfile.mkstemp(
        prefix=f"record-{name}-", suffix=".json", dir=str(runtime.OUT_DIR))
    os.close(fd)
    cmd = [sys.executable, "-m", "bench", "measure", "--workload", name,
           "--seed", str(seed), "--ops", str(ops),
           "--trace", str(int(trace)), "--record", record_path]
    if quick:
        cmd.append("--quick")
    proc = subprocess.Popen(
        cmd, cwd=str(runtime.ROOT), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True)
    problem = None
    output = ""
    try:
        try:
            output, _ = proc.communicate(timeout=WORKLOAD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problem = f"timed out after {WORKLOAD_TIMEOUT_S:g} s"
    finally:
        _reap(proc)
    if not quick:
        # every metric by name; the driver's JSON line is not for humans
        lines = output.splitlines()
        print("\n".join(l for l in lines if not l.startswith("{")),
              flush=True)
    record: Optional[Dict[str, Any]] = None
    try:
        with open(record_path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        if problem is None:
            problem = (f"exit code {proc.returncode}, no result record; "
                       f"last output: {output.strip()[-300:]!r}")
    finally:
        try:
            os.unlink(record_path)
        except OSError:
            pass
    leaked = set() if quick else runtime.shm_segments() - before
    runtime.unlink_segments(leaked)
    if record is None:
        record = {
            "workload": name, "seed": seed, "budget": {"ops": ops},
            "trace": trace, "attempted": 0, "failed": 0, "samples": 0,
            "correct": False, "failures": [f"{name}: {problem}"],
            "shm_leak": sorted(leaked), "notes": {}, "typed_refusals": {},
            "end_to_end": {}, "per_layer": {},
        }
        if not quick:
            print(f"# FAILED: {name}: {problem}", flush=True)
    return record


def _reap(proc: subprocess.Popen) -> None:
    """End a measure child on every path out (success, timeout,
    Ctrl-C).  SIGTERM first: the child turns it into its normal
    tear-down (daemon stopped, pool shut down, segments unlinked); then
    its whole process group is killed and the child waited for."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            pass
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def summarize(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One workload's repeats as one ledger entry: per end-to-end
    metric the median of the repeats (the worst of them for
    ``failed_frac``), and the repeats themselves under ``runs``.

    The repeats share a seed, so their outputs must be identical: a
    quality metric or table digest that differs between them is a
    failed check, not noise."""
    failures = [msg for r in runs for msg in r["failures"]]
    end_to_end: Dict[str, Any] = {}
    for metric in spec.END_TO_END:
        if not any(metric.name in r["end_to_end"] for r in runs):
            continue
        values = [r["end_to_end"].get(metric.name) for r in runs]
        if any(v is None for v in values):
            end_to_end[metric.name] = None
        elif metric.kind == "rel":
            end_to_end[metric.name] = stats.median(values)
        else:
            end_to_end[metric.name] = max(values)
            if metric.kind == "exact" and min(values) != max(values):
                failures.append(f"{metric.name} differs between repeats "
                                f"of one seed: {values}")
    digests = {r.get("digest") for r in runs}
    if len(digests) > 1:
        failures.append(f"table digest differs between repeats of one "
                        f"seed: {sorted(map(str, digests))}")
    return {
        "budget": runs[0]["budget"],
        "correct": not failures and all(r["correct"] for r in runs),
        "failures": failures,
        "end_to_end": end_to_end,
        "digest": runs[0].get("digest"),
        "runs": runs,
    }


def run(seed: int, out: str, trace: bool) -> int:
    """Every workload into ledger file ``out``: ``spec.REPEATS`` rounds
    over all of them (so the repeats of one workload are minutes
    apart), or one round for the traced run."""
    rounds = 1 if trace else spec.REPEATS
    runs: Dict[str, List[Dict[str, Any]]] = {
        w.name: [] for w in spec.WORKLOADS}
    for k in range(rounds):
        print(f"# round {k + 1} of {rounds}", flush=True)
        for workload in spec.WORKLOADS:
            runs[workload.name].append(_measure_in_subprocess(
                workload.name, seed, ops_for(workload, trace), trace))
    machine = next((r["machine"] for rs in runs.values() for r in rs
                    if "machine" in r), None)
    for rs in runs.values():
        for r in rs:
            r.pop("machine", None)
    ledger = {
        "schema": LEDGER_SCHEMA,
        "kind": "trace" if trace else "run",
        "seed": seed,
        "machine": machine,
        "workloads": {name: rs[0] if trace else summarize(rs)
                      for name, rs in runs.items()},
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
        fh.write("\n")
    bad = [name for name, entry in ledger["workloads"].items()
           if not entry["correct"]]
    print(f"# wrote {out}: {len(runs)} workloads x {rounds} runs, "
          f"{len(bad)} with failed checks"
          + (f" ({', '.join(bad)})" if bad else ""))
    return 1 if bad else 0


def selftest(seed: int) -> int:
    """Every workload at 2 ops with all checks on (the traced run's
    closure checks need real op counts: ``bench run --trace``).

    Nothing is measured here, so the workloads run two at a time and
    skip warm-ups and repeated set-up (``measure --quick``)."""
    before = runtime.shm_segments()
    # longest first, so the two slots finish together
    order = sorted(spec.WORKLOADS, key=lambda w: w.name not in (
        "simulate-torus", "rpc-table", "analyze-torus"))
    with ThreadPoolExecutor(max_workers=2) as pool:
        records = list(pool.map(
            lambda w: _measure_in_subprocess(
                w.name, seed, 2, False, quick=True), order))
    status = 0
    for workload, record in zip(order, records):
        verdict = "ok" if record["correct"] else "FAILED"
        print(f"{workload.name:16s} {verdict}")
        for message in record["failures"]:
            print(f"    {message}")
        if not record["correct"]:
            status = 1
    leaked = runtime.shm_segments() - before
    if leaked:
        runtime.unlink_segments(leaked)
        print(f"/dev/shm leak: {sorted(leaked)}")
        status = 1
    return status


# -- diff ---------------------------------------------------------------------------

class DiffRefused(Exception):
    """The two files did different work; comparing them means nothing."""


def _load(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_comparable(old: Dict[str, Any], new: Dict[str, Any]) -> None:
    for key in ("schema", "kind", "seed"):
        if old.get(key) != new.get(key):
            raise DiffRefused(
                f"{key} differs: {old.get(key)!r} vs {new.get(key)!r}")
    if old.get("kind") != "run":
        raise DiffRefused("only plain runs carry end-to-end metrics; "
                          "traced runs are read, not diffed")
    backends = [(f.get("machine") or {}).get("kernel_backend")
                for f in (old, new)]
    if backends[0] != backends[1]:
        raise DiffRefused(
            f"kernel backend differs: {backends[0]!r} vs {backends[1]!r}")
    for name in set(old["workloads"]) & set(new["workloads"]):
        budgets = [f["workloads"][name].get("budget") for f in (old, new)]
        if budgets[0] != budgets[1]:
            raise DiffRefused(
                f"{name}: op counts differ: {budgets[0]} vs {budgets[1]}")


def _repeats(entry: Dict[str, Any], name: str) -> List[Optional[float]]:
    """The values of one metric in every repeat of a ledger entry."""
    return [r["end_to_end"].get(name) for r in entry["runs"]]


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread of one commit's repeats: their range."""
    return max(values) - min(values)


def verdict(metric: spec.Metric, old: Sequence[Optional[float]],
            new: Sequence[Optional[float]]) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one (workload, metric),
    from the repeats of both sides.

    ``unresolved`` is a pairing that cannot be judged: a side has no
    value (a tail percentile its sample does not support, a workload
    that did not finish), or a side's own runs spread wider than the
    bound — then only *every new run better than every old run* still
    counts as ``ok``."""
    if all(v is None for v in (*old, *new)):
        return "ok"
    if any(v is None for v in (*old, *new)):
        return "unresolved"
    sign = 1.0 if metric.better == "lower" else -1.0
    if metric.kind != "rel":
        # positive: got worse
        worse_by = sign * (max(new) - max(old))
        slack = spec.EXACT_RTOL * abs(max(old)) \
            if metric.kind == "exact" else 0.0
        return "worse" if worse_by > slack else "ok"
    a, b = stats.median(old), stats.median(new)
    allowed = metric.bound * abs(a) + metric.abs_slack
    if max(spread(old), spread(new)) > allowed:
        best_old = min(sign * v for v in old)
        worst_new = max(sign * v for v in new)
        return "ok" if worst_new < best_old else "unresolved"
    return "worse" if sign * (b - a) > allowed else "ok"


def _bound_text(metric: spec.Metric) -> str:
    if metric.kind == "none":
        return "no rise"
    if metric.kind == "exact":
        return "exact"
    text = f"{metric.bound:.0%}"
    return text + (f" or {metric.abs_slack:g} {metric.unit}"
                   if metric.abs_slack else "")


def _spread_text(metric: spec.Metric, values: Sequence[Optional[float]],
                 ) -> str:
    """A side's spread as a share of its median (``rel`` metrics)."""
    if metric.kind != "rel" or any(v is None for v in values) \
            or not stats.median(values):
        return ""
    return f"{spread(values) / abs(stats.median(values)):.0%}"


def diff(old: Dict[str, Any], new: Dict[str, Any],
         ) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Rows (one per workload and end-to-end metric) and digest notes."""
    check_comparable(old, new)
    rows: List[Dict[str, Any]] = []
    notes: List[str] = []
    for workload in spec.WORKLOADS:
        name = workload.name
        a = old["workloads"].get(name)
        b = new["workloads"].get(name)
        if a is None and b is None:
            continue
        if a is None or b is None:
            rows.append({"workload": name, "metric": "*", "old": None,
                         "new": None, "ratio": None, "bound": "",
                         "spread": "", "verdict": "unresolved"})
            continue
        for metric in spec.END_TO_END:
            if metric.name not in a["end_to_end"] \
                    and metric.name not in b["end_to_end"]:
                continue
            va = a["end_to_end"].get(metric.name)
            vb = b["end_to_end"].get(metric.name)
            ra, rb = _repeats(a, metric.name), _repeats(b, metric.name)
            rows.append({
                "workload": name, "metric": metric.name, "old": va,
                "new": vb,
                "ratio": vb / va if va and vb is not None else None,
                "bound": _bound_text(metric),
                "spread": "/".join(filter(None, (
                    _spread_text(metric, ra), _spread_text(metric, rb)))),
                "verdict": verdict(metric, ra, rb),
            })
        if a.get("digest") != b.get("digest"):
            notes.append(f"{name}: table digest changed "
                         f"({a.get('digest')} -> {b.get('digest')})")
    return rows, notes


def _cell(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.6g}"


def diff_files(old_path: str, new_path: str) -> int:
    try:
        rows, notes = diff(_load(old_path), _load(new_path))
    except DiffRefused as exc:
        print(f"bench diff: refusing to compare: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':16s} {'metric':22s} {'old':>12s} {'new':>12s} "
          f"{'new/old':>9s} {'bound':>14s} {'spread':>9s}  verdict")
    for row in rows:
        ratio = "" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(f"{row['workload']:16s} {row['metric']:22s} "
              f"{_cell(row['old']):>12s} {_cell(row['new']):>12s} "
              f"{ratio:>9s} {row['bound']:>14s} {row['spread']:>9s}  "
              f"{row['verdict']}")
    for note in notes:
        print(f"# {note}")
    counts = {v: sum(1 for r in rows if r["verdict"] == v)
              for v in ("ok", "worse", "unresolved")}
    print(f"# {counts['ok']} ok, {counts['worse']} worse, "
          f"{counts['unresolved']} unresolved (values are medians of "
          f"each file's repeats, ratios new/old with base {old_path}, "
          f"spread = range of a file's own repeats over their median, "
          f"old/new)")
    return 1 if counts["worse"] else 0

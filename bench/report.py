"""Turning a result record into text: the metric listing, the machine
descriptor, and the one JSON object the PR driver reads."""

from __future__ import annotations

import os
import platform
from typing import Any, Dict, Optional

from bench import probes, spec


#: what the driver's JSON object carries for a ``null`` per-layer value
UNMEASURED = -1.0


def machine_descriptor() -> Dict[str, Any]:
    """What the numbers were taken on.  ``kernel_backend`` is what
    ``kernel="auto"`` resolves to here (``python`` where numba is not
    installed); ``bench diff`` refuses to compare across backends."""
    import numpy

    found, missing = probes.resolve(["resolve_kernel", "obs"])
    backend: Optional[str] = None
    if "resolve_kernel" in found:
        backend = found["resolve_kernel"]("auto")
    commit = found["obs"].git_revision() if "obs" in found else None
    return {
        "kernel_backend": backend,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "transport": "loopback tcp (127.0.0.1); host time only",
        "probe_notes": missing,
    }


def _fmt(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_record(record: Dict[str, Any]) -> None:
    """Every metric by name with its unit, one per line."""
    budget = record["budget"]
    mode = f"{budget['ops']} ops" if budget.get("ops") is not None \
        else f"{budget['seconds']:g} s"
    print(f"# {record['workload']}  seed={record['seed']}  {mode}  "
          f"trace={int(record['trace'])}  samples={record['samples']}  "
          f"attempted={record['attempted']}  failed={record['failed']}")
    print("# daemon traffic is loopback tcp; every time is host time: "
          + ("seconds on the nominal host (bench/hostspeed.py)"
             if record["host_corrected"] else "raw wall seconds"))
    if record["trace"]:
        units = {name: unit for name, unit, _b in spec.driver_per_layer()}
        for name, value in record["per_layer"].items():
            print(f"{name} = {_fmt(value)} {units.get(name, '')}".rstrip())
        for label, p50 in record["phase_p50_s"].items():
            print(f"phase.{label}.request_p50_s = {_fmt(p50)} s")
        print(f"# accounting closure enforced: {record['closure']}")
    else:
        for m in spec.END_TO_END:
            if m.name in record["end_to_end"]:
                print(f"{m.name} = {_fmt(record['end_to_end'][m.name])} "
                      f"{m.unit}")
        print(f"digest = {record.get('digest')}")
    for name, reason in sorted(record["notes"].items()):
        print(f"# null: {name}: {reason}")
    for kind, n in sorted(record["typed_refusals"].items()):
        print(f"# typed refusal (valid answer): {kind} x {n}")
    for message in record["failures"]:
        print(f"# FAILED: {message}")


def driver_object(record: Dict[str, Any]) -> Dict[str, Any]:
    """The PR driver's result: ``correct``, ``attempted``, ``failed``,
    ``metrics``.

    The driver wants a number for every listed metric on every
    workload.  A per-layer metric this run has no measurement for —
    the workload does not exercise the layer, or a probe is gone
    (``null`` in the ledger, with the reason printed above) — is sent
    as :data:`UNMEASURED`: no time, count or share is negative, and a
    0.0 would read as the best possible value.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    if record["trace"]:
        values = record["per_layer"]
        for name, unit, _better in spec.driver_per_layer():
            value = values.get(name)
            metrics[name] = {
                "value": UNMEASURED if value is None else value,
                "unit": unit}
    else:
        for m in spec.driver_end_to_end():
            metrics[m.name] = {"value": record["end_to_end"][m.name],
                               "unit": m.unit}
    return {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }

"""``python -m bench <command>`` — see ``bench/README.md``.

``measure``   one workload in this process (the PR driver's entry point:
              ``python3 -m bench measure --workload W --seed N
              --seconds S --trace 0|1``); prints every metric by name
              and, as the last line, the driver's JSON object
``run``       every workload, each in a fresh subprocess, fixed op
              counts, three times over; writes a ledger file
``diff``      compare two ledger files against the metric bounds
``selftest``  every workload at 2 ops with all checks on
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before the program under test is imported

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from typing import List, Optional  # noqa: E402

from bench import runtime, spec  # noqa: E402


def _cmd_measure(args: argparse.Namespace) -> int:
    runtime.bootstrap()
    runtime.terminate_as_exit()
    from bench import harness, report
    from bench.workloads import registry

    cls = registry()[args.workload]
    import_s = time.perf_counter() - _T0
    budget = harness.Budget(ops=args.ops) if args.ops is not None \
        else harness.Budget(seconds=float(args.seconds))
    record = harness.measure(cls(args.seed), budget, bool(args.trace),
                             import_s, quick=args.quick)
    record["machine"] = report.machine_descriptor()
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    report.print_record(record)
    # the driver reads the last line of stdout
    print(json.dumps(report.driver_object(record)), flush=True)
    return 0 if record["correct"] else 1


def _cmd_run(args: argparse.Namespace) -> int:
    runtime.bootstrap()
    from bench import ledger

    return ledger.run(seed=args.seed, out=args.out, trace=args.trace)


def _cmd_diff(args: argparse.Namespace) -> int:
    from bench import ledger

    return ledger.diff_files(args.old, args.new)


def _cmd_selftest(args: argparse.Namespace) -> int:
    runtime.bootstrap()
    from bench import ledger

    return ledger.selftest(seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="measure one workload here")
    m.add_argument("--workload", required=True,
                   choices=spec.WORKLOAD_NAMES)
    m.add_argument("--seed", type=int, required=True)
    m.add_argument("--seconds", type=float, default=None,
                   help="time budget of the measured loop")
    m.add_argument("--ops", type=int, default=None,
                   help="fixed op count instead of a time budget")
    m.add_argument("--trace", type=int, choices=(0, 1), default=0)
    m.add_argument("--quick", action="store_true",
                   help="no warm-ups, one set-up: checks only (selftest)")
    m.add_argument("--record", metavar="FILE", default=None,
                   help="also write the full result record as JSON")
    m.set_defaults(func=_cmd_measure)

    r = sub.add_parser("run", help="run every workload into a ledger file")
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--out", required=True, metavar="FILE")
    r.add_argument("--trace", action="store_true",
                   help="the traced run: per-layer metrics")
    r.set_defaults(func=_cmd_run)

    d = sub.add_parser("diff", help="compare two ledger files")
    d.add_argument("old")
    d.add_argument("new")
    d.set_defaults(func=_cmd_diff)

    s = sub.add_parser("selftest", help="every workload at 2 ops")
    s.add_argument("--seed", type=int, default=1)
    s.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "measure" and \
            (args.ops is None) == (args.seconds is None):
        print("bench measure: give exactly one of --seconds / --ops",
              file=sys.stderr)
        return 2
    if args.command == "diff":
        return args.func(args)
    # no process this run starts, directly or through the program under
    # test, may outlive it
    runtime.adopt_orphans()
    try:
        return args.func(args)
    finally:
        runtime.reap_descendants()


if __name__ == "__main__":
    raise SystemExit(main())

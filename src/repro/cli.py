"""Command-line interface — generate, route, analyse, simulate.

The workflow OpenSM admins know, as a standalone tool:

```
repro generate torus --dims 4 4 3 --terminals 4 -o fabric.topo
repro route fabric.topo --algorithm nue --vls 2 -o tables.json --lft
repro analyze fabric.topo tables.json
repro simulate fabric.topo tables.json --sample-phases 40
```
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro import obs
from repro.fabric.flow import simulate_all_to_all
from repro.obs.cli import add_obs_parser
from repro.io import (
    format_lft,
    load_routing,
    load_topology,
    save_routing,
    save_tables_npz,
    save_topology,
)
from repro.metrics import validate_routing
from repro.metrics.deadlock import DeadlockAnalysis
from repro.metrics.report import gamma_and_path_lengths
from repro.network.faults import (
    inject_random_link_faults,
    inject_random_switch_faults,
)
from repro.network.topologies import (
    dragonfly,
    hypercube,
    hyperx,
    k_ary_n_tree,
    kautz,
    mesh,
    random_topology,
    ring,
    torus,
)
from repro.routing import (
    RoutingError,
    available_algorithms,
    make_algorithm,
)

__all__ = ["main", "build_parser"]


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "torus":
        net = torus(args.dims, args.terminals, redundancy=args.redundancy)
    elif args.kind == "mesh":
        net = mesh(args.dims, args.terminals)
    elif args.kind == "ring":
        net = ring(args.dims[0], args.terminals)
    elif args.kind == "fattree":
        k, n = args.dims[0], args.dims[1]
        net = k_ary_n_tree(k, n)
    elif args.kind == "kautz":
        net = kautz(args.dims[0], args.dims[1], args.terminals,
                    redundancy=args.redundancy)
    elif args.kind == "dragonfly":
        a, p, h, g = args.dims
        net = dragonfly(a, p, h, g)
    elif args.kind == "hypercube":
        net = hypercube(args.dims[0], args.terminals)
    elif args.kind == "hyperx":
        net = hyperx(args.dims, args.terminals,
                     redundancy=args.redundancy)
    elif args.kind == "random":
        n_sw, n_links = args.dims[0], args.dims[1]
        net = random_topology(n_sw, n_links, args.terminals,
                              seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.kind)
    if args.link_faults:
        net = inject_random_link_faults(net, args.link_faults,
                                        seed=args.seed).net
    if args.switch_faults:
        net = inject_random_switch_faults(net, args.switch_faults,
                                          seed=args.seed).net
    save_topology(net, args.output)
    print(f"wrote {args.output}: {net}")
    return 0


def _parse_opt_value(text: str) -> object:
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_opts(pairs: Optional[List[str]]) -> dict:
    """``--opt KEY=VAL`` pairs -> an algorithm-config dict.

    Values are coerced (bool/int/float/str); key validity is the
    registry's job (:func:`repro.routing.build_config` names the valid
    choices in its one-line error).
    """
    out: dict = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(
                f"--opt expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        out[key] = _parse_opt_value(value)
    return out


def _cmd_route(args: argparse.Namespace) -> int:
    net = load_topology(args.topology)
    if args.campaign:
        return _route_campaign(net, args)
    try:
        config = _parse_opts(args.opt)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.algorithm == "nue":
        config.setdefault("partitioner", args.partitioner)
    try:
        algo = make_algorithm(
            args.algorithm, args.vls, workers=args.workers, **config,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        result = algo.route(net, seed=args.seed)
    except RoutingError as exc:
        print(f"routing failed: {exc}", file=sys.stderr)
        return 1
    if args.validate:
        validate_routing(result)
    print(f"routed {net.name} with {result.algorithm}: "
          f"{result.n_vls} VL(s), {result.runtime_s:.2f}s")
    if args.output:
        save_routing(result, args.output)
        print(f"wrote {args.output}")
    if args.out:
        save_tables_npz(result, args.out)
        print(f"wrote {args.out}")
    if args.lft:
        sys.stdout.write(format_lft(result, max_dests=args.lft_dests))
    return 0


def _route_campaign(net, args: argparse.Namespace) -> int:
    """``route --campaign``: drive a fail-in-place fault campaign."""
    import json

    from repro.core.nue import NueConfig
    from repro.resilience import FaultSchedule, run_campaign

    if args.algorithm != "nue":
        print("--campaign requires --algorithm nue (the campaign "
              "engine's fallback chain starts from it)", file=sys.stderr)
        return 2
    try:
        schedule = FaultSchedule.load(args.campaign)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load schedule {args.campaign!r}: {exc}",
              file=sys.stderr)
        return 2
    res = run_campaign(
        net, schedule,
        max_vls=args.vls,
        config=NueConfig(partitioner=args.partitioner),
        seed=args.seed,
        strategy=args.campaign_strategy,
        timeout_s=args.campaign_timeout,
        workers=args.workers,
    )
    for r in res.reports:
        status = "ok" if r.ok else (
            "rejected" if not r.applied else "FAILED")
        print(f"[{r.event_index}] {r.event}: {status} "
              f"via {r.strategy or '-'} reach={r.reachability:.3f} "
              f"recomputed={r.dests_recomputed}/{r.dests_total} "
              f"vls={r.n_vls} deadlock_free={r.deadlock_free} "
              f"t={r.runtime_s:.2f}s")
    applied = sum(1 for r in res.reports if r.applied)
    print(f"campaign: {res.events_survived}/{applied} applied events "
          f"survived; final fabric {res.net.name} "
          f"({res.net.n_nodes} nodes, {res.routing.n_vls} VLs)")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(res.to_dict(), fh, indent=2)
        print(f"wrote {args.output}")
    return 0 if res.events_survived == applied else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    net = load_topology(args.topology)
    result = load_routing(net, args.tables)
    try:
        deadlock = DeadlockAnalysis(result)
        dl_free = deadlock.deadlock_free
        required = deadlock.required_vcs()
        g, p = gamma_and_path_lengths(result, workers=args.workers)
    except RoutingError as exc:  # a hole or a forwarding loop
        print(f"invalid tables: {exc}", file=sys.stderr)
        return 1
    print(f"algorithm:        {result.algorithm}")
    print(f"virtual lanes:    {result.n_vls}")
    print(f"deadlock-free:    {dl_free}")
    print(f"required VCs:     {required}")
    print(f"gamma (min/avg/max/sd): {g.minimum:.0f} / {g.average:.1f} "
          f"/ {g.maximum:.0f} / {g.stddev:.1f}")
    print(f"path length (min/avg/max): {p.minimum} / {p.average:.2f} "
          f"/ {p.maximum}")
    if not dl_free and args.explain:
        print("dependency cycle (Theorem 1 witness):")
        for c, vl in deadlock.cycle():
            u, v = net.endpoints(c)
            print(f"  {net.node_names[u]} -> {net.node_names[v]} "
                  f"(VL {vl})")
    return 0 if dl_free else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.core import RoutingService, _serve_forever

    if not obs.enabled():
        # the status RPC serves counters/spans; keep aggregates even
        # without --trace/--profile/--status
        obs.enable(obs.MemorySink(keep_events=False))
    service = RoutingService(
        max_networks=args.networks,
        max_pending=args.max_pending,
        workers=args.workers,
        cache=not args.no_cache,
    )

    def on_bound(bound: List[str]) -> None:
        for address in bound:
            # one parseable line per listener, flushed, so scripts and
            # the CI smoke job can scrape the ephemeral port
            print(f"listening on {address}", flush=True)

    addresses = args.bind or ["tcp://127.0.0.1:7469"]
    # returns once SIGINT or SIGTERM has taken the daemon through
    # service.stop(); a second Ctrl-C during that stop interrupts it
    try:
        asyncio.run(_serve_forever(service, addresses, on_bound))
    except KeyboardInterrupt:
        print("repro serve: interrupted during shutdown", file=sys.stderr)
        return 130
    return 0


def _cmd_reconfig(args: argparse.Namespace) -> int:
    """``repro reconfig``: plan a deadlock-free live transition."""
    import json

    from repro.engine.fingerprint import network_fingerprint
    from repro.reconfig import (
        TransitionIncompatible,
        TransitionNotApplicable,
    )
    from repro.service.requests import (
        RouteResponse,
        TransitionRequest,
        execute_transition,
    )

    target = load_topology(args.to)
    old_net = load_topology(args.from_topology) \
        if args.from_topology else None
    from_tables = None
    if args.from_tables:
        base = old_net if old_net is not None else target
        prior = load_routing(base, args.from_tables)
        from_tables = RouteResponse.from_result(
            prior, network_fingerprint(base))
    try:
        config = _parse_opts(args.opt)
        from_config = _parse_opts(args.from_opt)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    request = TransitionRequest(
        topology=target,
        algorithm=args.algorithm,
        max_vls=args.vls,
        config=config,
        seed=args.seed,
        from_topology=old_net,
        from_algorithm=args.from_algorithm,
        from_max_vls=args.from_vls,
        from_config=from_config or None,
        from_seed=args.from_seed,
        from_tables=from_tables,
        strategy=args.strategy,
        workers=args.workers,
    )
    try:
        response = execute_transition(request)
    except TransitionIncompatible as exc:
        print(f"no zero-drain order exists: {exc}", file=sys.stderr)
        print("rerun with --strategy auto (or drain) to plan the "
              "drain-barrier fallback", file=sys.stderr)
        return 1
    except (TransitionNotApplicable, ValueError) as exc:
        print(f"cannot plan transition: {exc}", file=sys.stderr)
        return 2
    print(f"scenario:  {response.scenario}")
    print(f"strategy:  {response.strategy} "
          f"(union-CDG compatible: {response.compatible})")
    print(f"steps:     {response.n_steps} ({response.n_swaps} swaps, "
          f"{response.n_drains} drain barriers)")
    print(f"proofs:    {response.proofs} per-layer acyclicity proofs, "
          f"{response.blocked_candidates} candidates blocked")
    for i, step in enumerate(response.plan.get("steps", [])):
        dests = step.get("dests", [])
        shown = ", ".join(str(d) for d in dests[:8])
        if len(dests) > 8:
            shown += f", ... ({len(dests)} total)"
        print(f"  [{i}] {step.get('kind')}: {shown}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(response.to_dict(), fh, indent=2)
        print(f"wrote {args.output}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    net = load_topology(args.topology)
    result = load_routing(net, args.tables)
    sim = simulate_all_to_all(
        result,
        size_bytes=args.message_bytes,
        sample_phases=args.sample_phases,
        seed=args.seed,
    )
    print(f"all-to-all throughput: {sim.throughput_gbyte_per_s:.1f} GB/s "
          f"({sim.n_phases} phases, worst bottleneck "
          f"{sim.max_phase_load} flows/channel)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--trace", metavar="FILE.jsonl", default=None,
        help="write span/counter events of the run as JSONL",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the span/counter summary after the command",
    )
    parser.add_argument(
        "--status", metavar="FILE.json", default=None,
        help="run with the live telemetry plane on, rewriting this "
             "status snapshot as the command progresses (point "
             "'repro obs watch FILE.json' at it from another shell)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a topology file")
    g.add_argument("kind", choices=[
        "torus", "mesh", "ring", "fattree", "kautz", "dragonfly",
        "hypercube", "hyperx", "random",
    ])
    g.add_argument("--dims", type=int, nargs="+", required=True,
                   help="shape parameters (e.g. torus: 4 4 3; "
                        "fattree: k n; random: switches links)")
    g.add_argument("--terminals", type=int, default=1,
                   help="terminals per switch")
    g.add_argument("--redundancy", type=int, default=1)
    g.add_argument("--link-faults", type=float, default=0.0,
                   help="fraction of links to fail")
    g.add_argument("--switch-faults", type=int, default=0)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_generate)

    r = sub.add_parser("route", help="compute forwarding tables")
    r.add_argument("topology")
    r.add_argument("-a", "--algorithm", default="nue",
                   help="routing algorithm; one of "
                        + ", ".join(available_algorithms()))
    r.add_argument("--vls", type=int, default=8,
                   help="virtual-lane budget")
    r.add_argument("--workers", type=int, default=None,
                   help="route independent virtual layers on this many "
                        "processes (0 = all cores); output is "
                        "bit-identical to serial")
    r.add_argument("--partitioner", default="kway",
                   choices=["kway", "random", "cluster", "spectral"])
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("-o", "--output", default=None,
                   help="write tables as JSON (.npz extension selects "
                        "the binary codec)")
    r.add_argument("--out", default=None, metavar="TABLES_NPZ",
                   help="write tables as a binary .npz dump (raw "
                        "int32/int8 buffers; ~5 bytes per entry vs "
                        "~25 for JSON at 10k switches)")
    r.add_argument("--lft", action="store_true",
                   help="print a human-readable LFT dump")
    r.add_argument("--lft-dests", type=int, default=4,
                   help="destinations in the LFT dump (0 = all)")
    r.add_argument("--validate", action="store_true",
                   help="run the full Def.-3 validity gate")
    r.add_argument("--campaign", metavar="SCHEDULE.json", default=None,
                   help="run a fail-in-place fault campaign from a "
                        "FaultSchedule JSON file instead of a single "
                        "route (-o then writes the campaign report)")
    r.add_argument("--campaign-strategy", default="incremental",
                   choices=["incremental", "exact"],
                   help="reroute strategy per event (incremental = "
                        "fail-in-place repair of dirty destinations)")
    r.add_argument("--campaign-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-event reroute deadline (cooperative)")
    r.add_argument("--opt", action="append", metavar="KEY=VAL",
                   default=None,
                   help="algorithm config option (repeatable; values "
                        "coerced bool/int/float/str — e.g. --opt "
                        "root=3, --opt spread_layers=true); unknown "
                        "keys fail eagerly naming the valid choices")
    r.set_defaults(func=_cmd_route)

    a = sub.add_parser("analyze", help="deadlock/balance report")
    a.add_argument("topology")
    a.add_argument("tables")
    a.add_argument("--explain", action="store_true",
                   help="print a concrete dependency cycle when the "
                        "routing is not deadlock-free")
    a.add_argument("--workers", type=int, default=None,
                   help="shard the per-destination metrics sweeps "
                        "over this many processes (0 = all cores); "
                        "results are bit-identical to serial")
    a.set_defaults(func=_cmd_analyze)

    c = sub.add_parser(
        "reconfig", help="plan a deadlock-free live transition "
                         "(UPR-style: proven per-destination swaps)")
    c.add_argument("--to", required=True, metavar="TARGET.topo",
                   help="target topology file")
    c.add_argument("--from", dest="from_topology", default=None,
                   metavar="OLD.topo",
                   help="old topology file (grow scenario; omit when "
                        "the fabric is unchanged)")
    c.add_argument("--from-tables", default=None, metavar="TABLES.json",
                   help="surviving forwarding state (repair scenario); "
                        "loaded against --from when given, else the "
                        "target")
    c.add_argument("-a", "--algorithm", default="nue",
                   help="target routing algorithm; one of "
                        + ", ".join(available_algorithms()))
    c.add_argument("--from-algorithm", default=None,
                   help="old routing algorithm (defaults to the target "
                        "algorithm; set for live algorithm switches, "
                        "e.g. --from-algorithm updn)")
    c.add_argument("--vls", type=int, default=1,
                   help="target virtual-lane budget")
    c.add_argument("--from-vls", type=int, default=None)
    c.add_argument("--opt", action="append", metavar="KEY=VAL",
                   default=None,
                   help="target algorithm config (repeatable)")
    c.add_argument("--from-opt", action="append", metavar="KEY=VAL",
                   default=None,
                   help="old algorithm config (repeatable)")
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--from-seed", type=int, default=None)
    c.add_argument("--strategy", default="auto",
                   choices=["auto", "zero-drain", "drain"],
                   help="zero-drain = fail when no compatible swap "
                        "order exists; drain = force the barrier; "
                        "auto = zero-drain with drain fallback")
    c.add_argument("--workers", type=int, default=None,
                   help="engine parallelism for the from-scratch "
                        "target routing (0 = all cores)")
    c.add_argument("-o", "--output", default=None,
                   help="write the full TransitionResponse as JSON")
    c.set_defaults(func=_cmd_reconfig)

    s = sub.add_parser("simulate", help="flow-level all-to-all throughput")
    s.add_argument("topology")
    s.add_argument("tables")
    s.add_argument("--message-bytes", type=int, default=2048)
    s.add_argument("--sample-phases", type=int, default=None)
    s.add_argument("--seed", type=int, default=1)
    s.set_defaults(func=_cmd_simulate)

    v = sub.add_parser(
        "serve", help="run the routing daemon (route/analyze/campaign "
                      "RPCs over tcp:// or unix://)")
    v.add_argument("--bind", action="append", metavar="ADDRESS",
                   default=None,
                   help="listen address (repeatable); tcp://host:port "
                        "(port 0 = ephemeral, printed on start) or "
                        "unix:///path.sock "
                        "[default: tcp://127.0.0.1:7469]")
    v.add_argument("--workers", type=int, default=None,
                   help="engine parallelism per request "
                        "(0 = all cores); requests may override")
    v.add_argument("--max-pending", type=int, default=32,
                   help="bound on distinct in-flight computations; "
                        "beyond it requests fail fast with "
                        "ServiceOverloaded")
    v.add_argument("--networks", type=int, default=8,
                   help="LRU capacity of admitted networks (each "
                        "pins one shared-memory export)")
    v.add_argument("--no-cache", action="store_true",
                   help="do not install the engine route memo cache")
    v.set_defaults(func=_cmd_serve)

    add_obs_parser(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # stdout reader went away (e.g. `repro obs summary | head`);
        # detach so the interpreter's shutdown flush can't re-raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if not (args.trace or args.profile or args.status):
        return args.func(args)
    obs.reset()
    if args.trace:
        try:
            sink = obs.JsonlSink(args.trace)
        except OSError as exc:
            print(f"cannot open trace file {args.trace!r}: {exc}",
                  file=sys.stderr)
            return 2
        obs.enable(sink)
    if args.profile:
        obs.enable(obs.MemorySink(keep_events=False))
    if args.status:
        # live plane: workers stream, the aggregator folds and keeps
        # the status snapshot fresh for a concurrent `repro obs watch`
        try:
            obs.live.start(status_path=args.status)
        except OSError as exc:
            print(f"cannot write status file {args.status!r}: {exc}",
                  file=sys.stderr)
            return 2
    try:
        return args.func(args)
    finally:
        if args.status:
            obs.live.stop()
        obs.disable()
        if args.profile:
            print()
            print(obs.report())


if __name__ == "__main__":
    raise SystemExit(main())

"""``rpc-small`` and ``rpc-table``: the ``repro serve`` daemon over
loopback tcp, at the two ends of the message-size range.

``rpc-small`` sends a seeded mix of every RPC op to five small fabrics
over two connections; requests and tables are tiny, so the per-request
cost of the service layer (framing, topofile parse, fingerprint, LRU,
thread hops) is what is measured, and it is the only workload with
enough samples for a tail percentile.  ``rpc-table`` sends one large
DOR request at a time to a ``--workers 2 --no-cache`` daemon: 272 KB of
topofile in, a ~10 MB binary frame out, columns written by two pool
workers into the shm table store — the table store and the framing do
the work and ``repro.core`` does none.

The daemon is a child process on 127.0.0.1: nothing here crosses a real
link, and every time is host time — raw wall seconds, not host-speed
corrected (:mod:`bench.hostspeed` says why).

Every answer is verified against the same request executed in this
process (``api.route`` and friends); the seconds that reference takes
are what the traced run subtracts from the RPC wall time to get the
service layer's own share.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import api

from bench import probes, runtime, stats
from bench.tracer import Tracer
from bench.workloads.base import (
    CheckFailed,
    Workload,
    combine_digests,
    derive_seed,
    engine_counts,
    table_digest,
    timed_median,
)

RPC_TIMEOUT_S = runtime.OP_TIMEOUT_S

#: typed "this request cannot be served that way" answers: valid
TYPED_REFUSALS = (api.IncrementalNotApplicable,
                  api.TransitionNotApplicable)

SERVICE_PROBES = ("encode_frame", "decode_frame", "get_codec",
                  "parse_topology", "build_csr", "network_fingerprint",
                  "make_algorithm")


def _tables_digest(response: Any) -> str:
    return table_digest(response.next_channel_array(), response.vl_array())


def composed_execute_route(P: Dict[str, Any], tracer: Tracer, request: Any,
                           workers: Optional[int]) -> Any:
    """``execute_route(request, workers=...)`` with a span per layer."""
    span = tracer.span
    with span("io.topofile.parse_s"):
        net = P["parse_topology"](request.topology)
    with span("network.csr_s"):
        P["build_csr"](net)
    with span("engine.fingerprint_s"):
        fingerprint = P["network_fingerprint"](net)
    with span("routing.make_algorithm_s"):
        algo = P["make_algorithm"](
            request.algorithm, max_vls=request.max_vls, workers=workers,
            **request.config)
    with span(f"routing.{request.algorithm}.route_s"):
        result = algo.route(net, dests=request.dests, seed=request.seed)
    with span("engine.table.copy_out_s"):
        response = api.RouteResponse.from_result(result, fingerprint)
    result.release()
    return response


def frame_probe(P: Dict[str, Any], request: Any, response: Any,
                ) -> Dict[str, float]:
    """Client-side cost of one route exchange: encode the request
    frame, decode the response frame, and both frame sizes."""
    codec = P["get_codec"]("json")
    message = {"id": 1, "op": "route", "payload": request.to_dict()}
    t0 = time.perf_counter()
    frame_in = P["encode_frame"](message, codec)
    encode_s = time.perf_counter() - t0
    frame_out = P["encode_frame"](
        {"id": 1, "ok": True, "result": response.to_dict(tables="binary")},
        codec)
    t0 = time.perf_counter()
    decoded = P["decode_frame"](frame_out)
    api.RouteResponse.from_dict(decoded["result"])
    decode_s = time.perf_counter() - t0
    return {"encode_s": encode_s, "decode_s": decode_s,
            "bytes_in": len(frame_in), "bytes_out": len(frame_out)}


class RpcWorkload(Workload):
    """Daemon child + one blocking client per lane."""

    daemon_args: List[str] = []
    host_corrected = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.daemon: Optional[runtime.Daemon] = None
        self.clients: List[Any] = []

    def setup(self) -> None:
        self.daemon = runtime.Daemon(self.daemon_args, self.name)
        for _ in range(self.lanes):
            client = api.ServiceClient(self.daemon.address)
            self.clients.append(client)
            client.connect()

    def teardown(self) -> None:
        clients, self.clients = self.clients, []
        for client in clients:
            try:
                client.close()
            except Exception:  # a dead daemon must not block the reaping
                pass
        daemon, self.daemon = self.daemon, None
        if daemon is not None:
            daemon.stop()
        # the in-process reference may have started a fabric pool
        api.shutdown_fabric()

    def ping_rtt_p50(self) -> float:
        return timed_median(self.clients[0].ping, repeats=50)

    def service_counts(self) -> Dict[str, Any]:
        """Counts the daemon keeps itself, read over its status RPC."""
        seen = self.clients[0].status().get("counters", {})
        return {
            "service.coalesced": seen.get("service.coalesced", 0),
            "service.networks_admitted":
                seen.get("service.networks_admitted", 0),
            "service.overloaded": seen.get("service.overloaded", 0),
            **engine_counts(seen),
        }


# -- rpc-table --------------------------------------------------------------------

def _fanout_task(ctx: Any, task: float) -> float:
    """Engine fan-out probe task: spin for ``task`` seconds, report the
    seconds actually spent (module-level: pool workers import it)."""
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < task:
        pass
    return time.perf_counter() - t0


class RpcTable(RpcWorkload):
    name = "rpc-table"
    daemon_args = ["--workers", "2", "--no-cache"]
    min_ops = 3
    N_DESTS = 512
    #: reference / composed pairs the traced run times in this process
    PAIRS = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.net: Any = None
        self.request: Any = None
        self._reference: Optional[Tuple[str, int]] = None
        self._digest: Optional[str] = None

    @staticmethod
    def build() -> Any:
        return api.topologies.torus([13, 13, 12], terminals_per_switch=1)

    def setup(self) -> None:
        self.net = self.build()
        self.net.csr
        self.request = api.RouteRequest(
            topology=self.net, algorithm="dor",
            dests=list(self.net.terminals[:self.N_DESTS]),
            seed=derive_seed(self.seed, self.name))
        super().setup()

    def describe(self, i: int) -> Any:
        return {"algorithm": "dor", "n_dests": self.N_DESTS,
                "seed": derive_seed(self.seed, self.name)}

    def op(self, i: int, lane: int = 0) -> Any:
        return self.clients[lane].route(self.request, timeout=RPC_TIMEOUT_S)

    def keep(self, i: int, out: Any) -> Any:
        # a digest, not 10 MB per op: held responses would be the RSS
        return (_tables_digest(out), out.n_vls,
                out.next_channel_array().shape)

    def check(self, i: int, kept: Any) -> None:
        if self._reference is None:  # one request, so one reference
            response = api.route(self.request)
            self._reference = (_tables_digest(response), response.n_vls)
        digest, n_vls, shape = kept
        if shape != (self.net.n_nodes, self.N_DESTS):
            raise CheckFailed(f"table shape {shape}")
        if (digest, n_vls) != self._reference:
            raise CheckFailed("RPC tables differ from api.route of the "
                              "same request")
        self._digest = digest

    def quality(self) -> Dict[str, Any]:
        return {"digest": self._digest}

    def trace_variants(self, tracer: Tracer) -> List[Any]:
        self._probes, missing = probes.resolve(
            SERVICE_PROBES + ("execute_route", "export_network",
                              "release_network", "create_table",
                              "run_layer_tasks"))
        self.notes.update(missing)
        return super().trace_variants(tracer)

    def per_layer(self, tracer: Tracer, phases: Dict[str, Any],
                  layers: Dict[str, float]) -> Dict[str, Any]:
        P = self._probes
        rpc_s = phases["api"].p50()
        out: Dict[str, Any] = {
            "network.build_s": timed_median(self.build),
            "service.rpc.route.p50_s": rpc_s,
            "service.ping_rtt_p50_s": self.ping_rtt_p50(),
            **self.service_counts(),
        }
        if all(name in P for name in SERVICE_PROBES + ("execute_route",)):
            # the daemon's work in this process, same parallelism, and
            # the same work composed layer by layer, turn about so that
            # both see the same host weather
            local = Tracer()
            P["execute_route"](self.request, workers=2)  # starts the pool
            reference_s, composed_s = [], []
            for k in range(self.PAIRS):
                t0 = time.perf_counter()
                P["execute_route"](self.request, workers=2)
                reference_s.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                with local.request(k):
                    response = composed_execute_route(
                        P, local, self.request, workers=2)
                composed_s.append(time.perf_counter() - t0)
            spans = local.self_times()
            for name in ("io.topofile.parse_s", "network.csr_s",
                         "engine.fingerprint_s", "routing.make_algorithm_s",
                         "routing.dor.route_s", "engine.table.copy_out_s"):
                out[name] = stats.median(
                    [spans[k].get(name, 0.0) for k in range(self.PAIRS)])
            out["service.overhead_s"] = rpc_s - stats.median(reference_s)
            out["trace.unattributed_frac"] = local.unattributed_frac()
            out["closure_ratios"] = [
                c / r for c, r in zip(composed_s, reference_s)]
            frames = frame_probe(P, self.request, response)
            out.update({
                "io.topofile.bytes": len(self.request.topology),
                "service.encode_request_s": frames["encode_s"],
                "service.decode_response_s": frames["decode_s"],
                "service.frame_bytes_in": frames["bytes_in"],
                "service.frame_bytes_out": frames["bytes_out"],
                "service.wire_mb_per_s":
                    (frames["bytes_in"] + frames["bytes_out"])
                    / 1e6 / rpc_s,
            })
        out.update(self._engine_probes())
        return out

    def _engine_probes(self) -> Dict[str, Any]:
        """Direct timings of the engine functions the daemon's route
        leans on, on this workload's fabric."""
        P, out = self._probes, {}
        if "export_network" in P and "release_network" in P:
            def export() -> None:
                handle = P["export_network"](self.net)
                P["release_network"](handle)
            out["engine.export_network_s"] = timed_median(export)
        if "create_table" in P:
            def create() -> None:
                table = P["create_table"](self.net.n_nodes, self.N_DESTS)
                if table is not None:
                    table.release()
            out["engine.table.create_s"] = timed_median(create)
        if "run_layer_tasks" in P:
            def fanout() -> float:
                t0 = time.perf_counter()
                spent = P["run_layer_tasks"](
                    _fanout_task, (self.net,), [0.05, 0.05], workers=2)
                return time.perf_counter() - t0 - max(spent)
            fanout()  # pool start is set-up, not fan-out wait
            out["engine.fanout_wait_s"] = stats.median(
                [fanout() for _ in range(3)])
        return out


# -- rpc-small --------------------------------------------------------------------

#: One block of 100 requests, by kind and fabric.  The composition is
#: exact, not sampled — only the order (and every per-request seed,
#: link and hot target) comes from ``--seed`` — because the median of
#: a bimodal mix moves with the mix: half fresh routes, a quarter hot
#: repeats, and the three heavier ops only where they stay under
#: ~0.2 s (never on the 240-node fabric).
FABRIC_KEYS = ["ring-fig2a", "torus-3x3x2", "4-ary-2-tree",
               "torus-4x4x3-t1", "torus-4x4x3-t4"]
BLOCK: List[Tuple[str, List[int]]] = [
    ("route", [6, 26, 10, 6, 2]),
    ("analyze", [3, 2, 2, 1, 0]),
    ("reroute", [2, 1, 1, 1, 0]),
    ("transition", [2, 1, 1, 1, 0]),
]
BLOCK_PLAIN = {"hot": 25, "ping": 4, "status": 3}
BLOCK_SIZE = 100

SMALL_MAX_VLS = 2


def build_small_fabrics() -> Dict[str, Any]:
    T = api.topologies
    return {
        "ring-fig2a": T.paper_ring_with_shortcut(),
        "torus-3x3x2": T.torus([3, 3, 2], terminals_per_switch=1),
        "4-ary-2-tree": T.k_ary_n_tree(4, 2),
        "torus-4x4x3-t1": T.torus([4, 4, 3], terminals_per_switch=1),
        "torus-4x4x3-t4": T.torus([4, 4, 3], terminals_per_switch=4),
    }


class RpcSmall(RpcWorkload):
    name = "rpc-small"
    lanes = 2
    #: 200 samples leave ten beyond p95 (bench.stats)
    min_ops = 200
    restart_between_phases = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.fabrics: Dict[str, Any] = {}
        self.texts: Dict[str, str] = {}
        self.switch_links: Dict[str, List[Tuple[str, str]]] = {}
        self._rng = random.Random(derive_seed(seed, "mix"))
        self._descriptors: List[Dict[str, Any]] = []
        self._route_indices: List[int] = []
        self._lock = threading.Lock()
        self._kept: Dict[int, Any] = {}

    def _build_fabrics(self) -> None:
        self.fabrics = build_small_fabrics()
        for key, net in self.fabrics.items():
            net.csr
            self.texts[key] = api.RouteRequest(topology=net).topology
            names = net.node_names
            self.switch_links[key] = [
                (names[u], names[v]) for u, v in net.links()
                if net.is_switch(u) and net.is_switch(v)]

    def setup(self) -> None:
        self._build_fabrics()
        super().setup()

    # -- the seeded request list --------------------------------------------------

    def _generate_block(self) -> None:
        """Append one shuffled block to the request list."""
        rng, base = self._rng, len(self._descriptors)
        block: List[Dict[str, Any]] = []
        for kind, per_fabric in BLOCK:
            for fabric, count in zip(FABRIC_KEYS, per_fabric):
                block += [{"kind": kind, "fabric": fabric}
                          for _ in range(count)]
        for kind, count in BLOCK_PLAIN.items():
            block += [{"kind": kind} for _ in range(count)]
        assert len(block) == BLOCK_SIZE
        rng.shuffle(block)
        if not self._route_indices:
            # a hot repeat needs an earlier route to repeat
            first = next(j for j, d in enumerate(block)
                         if d["kind"] == "route")
            block[0], block[first] = block[first], block[0]
        for offset, desc in enumerate(block):
            kind = desc["kind"]
            if kind == "hot":
                desc["of"] = rng.choice(self._route_indices)
            elif kind not in ("ping", "status"):
                desc["seed"] = rng.randrange(1 << 30)
                if kind == "route":
                    self._route_indices.append(base + offset)
                elif kind == "reroute":
                    desc["link"] = rng.randrange(
                        len(self.switch_links[desc["fabric"]]))
            self._descriptors.append(desc)

    def describe(self, i: int) -> Dict[str, Any]:
        if i < 0:  # warm-ups: one cheap route per lane
            return {"kind": "route", "fabric": FABRIC_KEYS[0],
                    "seed": derive_seed(self.seed, "warm", i)}
        with self._lock:
            if not self.fabrics:
                self._build_fabrics()
            while len(self._descriptors) <= i:
                self._generate_block()
            return self._descriptors[i]

    def _route_request(self, desc: Dict[str, Any]) -> Any:
        return api.RouteRequest(
            topology=self.texts[desc["fabric"]], algorithm="nue",
            max_vls=SMALL_MAX_VLS, seed=desc["seed"])

    def _call(self, desc: Dict[str, Any], target: Any) -> Any:
        """Send ``desc`` to ``target`` — a service client, or the
        ``repro.api`` module for the in-process reference."""
        kind = desc["kind"]
        # a hung daemon must become a counted failure, not a stuck run
        limit = {} if target is api else {"timeout": RPC_TIMEOUT_S}
        if kind == "hot":
            desc = self.describe(desc["of"])
            kind = "route"
        if kind == "route":
            return target.route(self._route_request(desc), **limit)
        if kind == "analyze":
            return target.analyze(
                api.AnalyzeRequest(route=self._route_request(desc)),
                **limit)
        if kind == "reroute":
            link = self.switch_links[desc["fabric"]][desc["link"]]
            return target.reroute(api.RerouteRequest(
                topology=self.texts[desc["fabric"]], failed_links=[link],
                max_vls=SMALL_MAX_VLS, seed=desc["seed"]), **limit)
        if kind == "transition":
            return target.transition(api.TransitionRequest(
                topology=self.texts[desc["fabric"]], algorithm="nue",
                max_vls=SMALL_MAX_VLS, seed=desc["seed"],
                from_algorithm="updn"), **limit)
        raise ValueError(f"no op kind {kind!r}")

    @staticmethod
    def _summary(kind: str, out: Any) -> Any:
        if kind in ("route", "hot"):
            return (_tables_digest(out), out.n_vls)
        if kind == "analyze":
            return (out.deadlock_free, out.required_vcs,
                    tuple(sorted(out.gamma.items())),
                    tuple(sorted(out.path_length.items())))
        if kind == "reroute":
            return (_tables_digest(out.route), out.route.n_vls,
                    out.stats.get("dests_recomputed"))
        if kind == "transition":
            return (_tables_digest(out.route), out.strategy, out.n_swaps,
                    out.n_drains, out.proofs)
        raise ValueError(kind)

    def _execute(self, desc: Dict[str, Any], target: Any) -> Any:
        kind = desc["kind"]
        if kind == "ping":
            return target.ping()
        if kind == "status":
            return "service" in target.status()
        try:
            return self._summary(kind, self._call(desc, target))
        except TYPED_REFUSALS as exc:
            return ("refused", type(exc).__name__)

    def op(self, i: int, lane: int = 0) -> Any:
        return self._execute(self.describe(i), self.clients[lane])

    def check(self, i: int, kept: Any) -> Optional[float]:
        desc = self.describe(i)
        kind = desc["kind"]
        self._kept[i] = kept
        if kind in ("ping", "status"):
            if kept is not True:
                raise CheckFailed(f"{kind} answered {kept!r}")
            return 0.0
        if kind == "hot":
            # the daemon served it from its cache or a coalesced
            # computation: free, and equal to the original's answer
            original = self._kept.get(desc["of"])
            if original is not None and original != kept:
                raise CheckFailed(
                    f"hot repeat of op {desc['of']} answered differently")
            return 0.0
        t0 = time.perf_counter()
        expected = self._execute(desc, api)
        ref_seconds = time.perf_counter() - t0
        if expected != kept:
            raise CheckFailed(
                f"{kind} on {desc['fabric']}: RPC answer differs from "
                f"the same request executed in-process")
        if isinstance(kept, tuple) and kept[0] == "refused":
            self.typed_refusals[kept[1]] = \
                self.typed_refusals.get(kept[1], 0) + 1
        return ref_seconds

    def quality(self) -> Dict[str, Any]:
        digests = [self._kept[i][0] for i in sorted(self._kept)
                   if self.describe(i)["kind"] == "route"
                   and self._kept[i][0] != "refused"]
        return {"digest": combine_digests(digests)} if digests else {}

    # -- traced run -------------------------------------------------------------

    def trace_variants(self, tracer: Tracer) -> List[Any]:
        self._probes, missing = probes.resolve(SERVICE_PROBES)
        self.notes.update(missing)
        return super().trace_variants(tracer)

    def per_layer(self, tracer: Tracer, phases: Dict[str, Any],
                  layers: Dict[str, float]) -> Dict[str, Any]:
        P = self._probes
        api_phase = phases["api"]
        records = api_phase.ok()
        by_kind: Dict[str, List[float]] = {}
        for r in records:
            by_kind.setdefault(self.describe(r.index)["kind"],
                               []).append(r.seconds)

        def p50(kind: str) -> Optional[float]:
            return stats.median(by_kind[kind]) \
                if kind in by_kind else None

        # the daemon computes one request at a time (compute threads
        # share the interpreter lock), so with two connections the wall
        # time of the loop, not of a request, is what the in-process
        # reference seconds add up to; the rest is the service layer
        compute = sum(r.ref_seconds or 0.0 for r in records)
        transitions = [self._kept[r.index] for r in records
                       if self.describe(r.index)["kind"] == "transition"
                       and self._kept.get(r.index, ("refused",))[0]
                       != "refused"]
        out: Dict[str, Any] = {
            "network.build_s": timed_median(build_small_fabrics),
            "service.rpc.route.p50_s": p50("route"),
            "service.rpc.analyze.p50_s": p50("analyze"),
            "service.rpc.reroute.p50_s": p50("reroute"),
            "service.rpc.transition.p50_s": p50("transition"),
            "service.hot_hit_p50_s": p50("hot"),
            "service.ping_rtt_p50_s": self.ping_rtt_p50(),
            "service.overhead_s":
                (api_phase.wall - compute) / len(records),
            "reconfig.transition_s": p50("transition"),
            **self.service_counts(),
        }
        if transitions:
            out["reconfig.n_swaps"] = stats.median(
                [t[2] for t in transitions])
            out["reconfig.n_drains"] = stats.median(
                [t[3] for t in transitions])
            out["reconfig.proofs"] = stats.median(
                [t[4] for t in transitions])
        if all(name in P for name in SERVICE_PROBES):
            out.update(self._route_probes(records))
        return out

    def _route_probes(self, records: Sequence[Any]) -> Dict[str, Any]:
        """Frame and parse costs on the first fresh routes of the run,
        and the composed-vs-``api.route`` closure on the same sample."""
        P = self._probes
        sample = [r for r in records
                  if self.describe(r.index)["kind"] == "route"][:40]
        local = Tracer()
        frames: List[Dict[str, float]] = []
        ratios: List[float] = []
        rpc_s = 0.0
        for r in sample:
            request = self._route_request(self.describe(r.index))
            # api.route and the composed path turn about, so that each
            # ratio is about the code and not the host's weather
            t0 = time.perf_counter()
            api.route(request)
            t1 = time.perf_counter()
            with local.request(r.index):
                response = composed_execute_route(P, local, request, None)
            ratios.append((time.perf_counter() - t1) / (t1 - t0))
            rpc_s += r.seconds
            frames.append(frame_probe(P, request, response))
        spans = local.self_times()

        def mid(key: str) -> float:
            return stats.median([f[key] for f in frames])

        def span_mid(name: str) -> float:
            return stats.median(
                [spans[r.index].get(name, 0.0) for r in sample])

        return {
            "io.topofile.parse_s": span_mid("io.topofile.parse_s"),
            "io.topofile.bytes": stats.median(
                [len(self.texts[self.describe(r.index)["fabric"]])
                 for r in sample]),
            "network.csr_s": span_mid("network.csr_s"),
            "engine.fingerprint_s": span_mid("engine.fingerprint_s"),
            "routing.make_algorithm_s":
                span_mid("routing.make_algorithm_s"),
            "engine.table.copy_out_s": span_mid("engine.table.copy_out_s"),
            "service.encode_request_s": mid("encode_s"),
            "service.decode_response_s": mid("decode_s"),
            "service.frame_bytes_in": mid("bytes_in"),
            "service.frame_bytes_out": mid("bytes_out"),
            "service.wire_mb_per_s":
                sum(f["bytes_in"] + f["bytes_out"] for f in frames)
                / 1e6 / rpc_s,
            "trace.unattributed_frac": local.unattributed_frac(),
            "closure_ratios": ratios,
        }

#!/usr/bin/env python3
"""Routing as a service: typed requests over a socket.

Stands up the RPC daemon on a unix socket inside this process
(``serve_in_thread`` — the in-process stand-in for ``repro serve``),
then drives it with the blocking ``ServiceClient``:

1. a ``RouteRequest`` answered over the wire, bit-identical to the
   in-process ``repro.api.route(...)`` facade;
2. the same request again — the daemon's route cache answers it;
3. an ``AnalyzeRequest`` returning deadlock-freedom and balance stats;
4. the daemon's ``status`` block (requests served, coalescing stats).

Run:  python examples/service_client.py
"""

import tempfile
from pathlib import Path

from repro.api import AnalyzeRequest, RouteRequest, ServiceClient, route, topologies
from repro.service import serve_in_thread


def main() -> None:
    net = topologies.torus([4, 4, 2], terminals_per_switch=1)
    print(f"fabric: {net}")

    sock = Path(tempfile.mkdtemp(prefix="repro_svc_")) / "repro.sock"
    with serve_in_thread([f"unix://{sock}"]) as (service, bound):
        print(f"daemon: listening on {bound[0]}")

        request = RouteRequest(topology=net, algorithm="nue",
                               max_vls=2, seed=7)
        with ServiceClient(bound[0]) as client:
            # 1. over the wire ...
            remote = client.route(request)
            print(f"route: {remote.algorithm} used {remote.n_vls} VL(s), "
                  f"{remote.runtime_s * 1e3:.1f} ms on the daemon")

            # ... equals the in-process facade, bit for bit
            local = route(request)
            assert (remote.next_channel == local.next_channel).all()
            assert (remote.vl == local.vl).all()
            print("route: RPC tables are bit-identical to the facade")

            # 2. repeat: served from the daemon's route cache
            again = client.route(request)
            assert (again.next_channel == remote.next_channel).all()

            # 3. analyze on top of the same (cached) routing
            report = client.analyze(AnalyzeRequest(route=request))
            print(f"analyze: deadlock_free={report.deadlock_free}, "
                  f"required_vcs={report.required_vcs}, "
                  f"max gamma={report.gamma['maximum']:.0f}")

            # 4. the daemon's own view of the traffic it served
            status = client.status()["service"]
            print(f"status: {status['requests_served']} requests served, "
                  f"{status['networks_cached']} network(s) pinned in shm")
        print(f"daemon stats: {service.stats()}")
    sock.unlink(missing_ok=True)


if __name__ == "__main__":
    main()

"""Typed per-algorithm config: eager validation and round-trips.

Every registered algorithm exposes a frozen ``Config`` dataclass as its
spec's ``config_cls``; ``build_config`` validates keyword names and
values in one line before any routing work, and the same dict-shaped
config round-trips unchanged through ``make_algorithm``, the service's
``RouteRequest.config``, and back.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import api
from repro.cli import main
from repro.core.nue import NueConfig
from repro.routing import available_algorithms, build_config, make_algorithm
from repro.routing.dfsssp import DFSSSPConfig
from repro.routing.dor import DORConfig
from repro.routing.ftree import FatTreeConfig
from repro.routing.lash import LASHConfig
from repro.routing.minhop import MinHopConfig
from repro.routing.torus2qos import Torus2QoSConfig
from repro.routing.updn import UpDownConfig
from repro.service import (
    AsyncServiceClient,
    RouteRequest,
    execute_route,
    serve_in_thread,
)

EXPECTED_CONFIG_CLS = {
    "nue": NueConfig,
    "dfsssp": DFSSSPConfig,
    "updn": UpDownConfig,
    "dnup": UpDownConfig,
    "minhop": MinHopConfig,
    "dor": DORConfig,
    "ftree": FatTreeConfig,
    "lash": LASHConfig,
    "torus-2qos": Torus2QoSConfig,
}


class TestBuildConfig:
    def test_every_algorithm_has_a_config_class(self):
        assert set(EXPECTED_CONFIG_CLS) == set(available_algorithms())
        for name, cls in EXPECTED_CONFIG_CLS.items():
            cfg = build_config(name)
            assert isinstance(cfg, cls)

    def test_unknown_key_lists_valid_choices(self):
        with pytest.raises(ValueError,
                           match=r"unknown nue option\(s\).*valid:"):
            build_config("nue", bogus=1)

    def test_empty_config_message(self):
        with pytest.raises(ValueError,
                           match="minhop takes no extra configuration"):
            build_config("minhop", bogus=1)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown routing algorithm"):
            build_config("no-such-algo")

    def test_value_validation_runs_eagerly(self):
        with pytest.raises(ValueError, match="unknown nue partitioner"):
            build_config("nue", partitioner="zzz")
        with pytest.raises(ValueError, match="updn root"):
            build_config("updn", root=-3)

    def test_valid_values_construct(self):
        cfg = build_config("nue", partitioner="spectral")
        assert cfg.partitioner == "spectral"
        cfg = build_config("updn", root=0)
        assert cfg.root == 0
        cfg = build_config("dfsssp", spread_layers=True)
        assert cfg.spread_layers is True


class TestKernelIsNotAnOption:
    """There is one routing step; ``kernel`` is refused on every
    surface with the error any misspelt key gets."""

    UNKNOWN = r"unknown nue option\(s\) \['kernel'\]"

    def test_make_algorithm(self):
        with pytest.raises(ValueError, match=self.UNKNOWN):
            make_algorithm("nue", kernel="python")

    def test_inproc_route(self, ring6):
        async def scenario(address):
            async with AsyncServiceClient(address) as client:
                with pytest.raises(ValueError, match=self.UNKNOWN):
                    await client.route(RouteRequest(
                        topology=ring6, config={"kernel": "python"}))

        with serve_in_thread(["inproc://svc-kernel"]) as (_svc, bound):
            asyncio.run(scenario(bound[0]))

    def test_cli(self, tmp_path, capsys):
        fabric = tmp_path / "fab.topo"
        assert main(["generate", "ring", "--dims", "5", "--terminals",
                     "1", "-o", str(fabric)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["route", str(fabric), "--kernel", "python"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err
        assert main(["route", str(fabric), "-a", "nue",
                     "--opt", "kernel=python"]) == 2
        assert "unknown nue option(s) ['kernel']" in capsys.readouterr().err


class TestMakeAlgorithmThreading:
    def test_make_algorithm_rejects_bad_config_eagerly(self):
        with pytest.raises(ValueError, match="unknown nue partitioner"):
            make_algorithm("nue", max_vls=2, partitioner="zzz")
        with pytest.raises(ValueError,
                           match=r"unknown lash option\(s\)"):
            make_algorithm("lash", max_vls=2, bogus=True)

    def test_all_algorithms_construct_and_report_name(self):
        for name in available_algorithms():
            algo = make_algorithm(name, max_vls=2)
            assert algo.name == name

    def test_config_affects_routing(self, ring6):
        default = make_algorithm("updn", max_vls=1).route(ring6, seed=1)
        rooted = make_algorithm("updn", max_vls=1, root=2).route(
            ring6, seed=1)
        assert default.algorithm == rooted.algorithm == "updn"
        # both are valid routings; the explicit root is honored (the
        # routing is deterministic given the root, so same root twice
        # is bit-identical)
        again = make_algorithm("updn", max_vls=1, root=2).route(
            ring6, seed=1)
        np.testing.assert_array_equal(rooted.next_channel,
                                      again.next_channel)


class TestRouteRequestRoundTrip:
    def test_config_round_trips_through_request(self, ring6):
        request = RouteRequest(topology=ring6, algorithm="nue",
                               max_vls=2, seed=7,
                               config={"partitioner": "spectral"})
        wire = RouteRequest.from_dict(request.to_dict())
        assert wire.config == {"partitioner": "spectral"}
        response = execute_route(wire)
        direct = make_algorithm("nue", max_vls=2,
                                partitioner="spectral").route(
            ring6, seed=7)
        np.testing.assert_array_equal(response.next_channel_array(),
                                      direct.next_channel)
        np.testing.assert_array_equal(response.vl_array(), direct.vl)

    def test_bad_config_rejected_through_request(self, ring6):
        request = RouteRequest(topology=ring6, algorithm="nue",
                               max_vls=2, config={"partitioner": "zzz"})
        with pytest.raises(ValueError, match="unknown nue partitioner"):
            execute_route(request)

    def test_facade_accepts_config(self, ring6):
        response = api.route(RouteRequest(
            topology=ring6, algorithm="updn", max_vls=1,
            config={"root": 1}, seed=3))
        assert response.algorithm == "updn"

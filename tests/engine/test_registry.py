"""Algorithm registry: round-trips and config validation."""

import warnings

import pytest

from repro.routing import (
    RoutingAlgorithm,
    algorithm_descriptions,
    available_algorithms,
    make_algorithm,
)
from repro.network.topologies import ring


class TestRoundTrip:
    def test_expected_names_present(self):
        names = available_algorithms()
        assert set(names) >= {
            "nue", "minhop", "updn", "dnup", "dor", "torus-2qos",
            "ftree", "lash", "dfsssp",
        }
        assert names == sorted(names)

    @pytest.mark.parametrize("name", [
        "nue", "minhop", "updn", "dnup", "dor", "torus-2qos",
        "ftree", "lash", "dfsssp",
    ])
    def test_make_algorithm_round_trips(self, name):
        algo = make_algorithm(name, max_vls=4)
        assert isinstance(algo, RoutingAlgorithm)
        assert algo.name == name
        assert algo.max_vls >= 4

    def test_descriptions_cover_all_names(self):
        desc = algorithm_descriptions()
        assert set(desc) == set(available_algorithms())
        assert all(desc.values())

    def test_min_vls_floor(self):
        assert make_algorithm("torus-2qos", max_vls=1).max_vls == 2


class TestValidation:
    def test_unknown_algorithm_one_line_error(self):
        with pytest.raises(ValueError) as exc:
            make_algorithm("bogus")
        msg = str(exc.value)
        assert "\n" not in msg
        assert "bogus" in msg and "nue" in msg

    def test_unknown_nue_config_key(self):
        with pytest.raises(ValueError) as exc:
            make_algorithm("nue", frobnicate=True)
        msg = str(exc.value)
        assert "\n" not in msg
        assert "frobnicate" in msg and "partitioner" in msg

    def test_unknown_partitioner_lists_choices(self):
        with pytest.raises(ValueError) as exc:
            make_algorithm("nue", partitioner="voodoo")
        msg = str(exc.value)
        assert "\n" not in msg
        assert "voodoo" in msg and "spectral" in msg

    def test_baselines_reject_config(self):
        with pytest.raises(ValueError):
            make_algorithm("minhop", partitioner="kway")

    def test_nue_config_forwarded(self):
        algo = make_algorithm("nue", max_vls=2, partitioner="spectral",
                              enable_shortcuts=False)
        assert algo.config.partitioner == "spectral"
        assert algo.config.enable_shortcuts is False

    def test_updn_root_forwarded(self):
        net = ring(5, 1)
        algo = make_algorithm("updn", root=net.switches[2])
        assert algo.root == net.switches[2]

    def test_workers_forwarded(self):
        assert make_algorithm("nue", workers=2).workers == 2
        # baselines accept-and-ignore workers for API uniformity
        assert make_algorithm("lash", workers=2).workers == 2


class TestDirectConstruction:
    def test_direct_constructors_still_work(self):
        from repro.core import NueRouting
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning for direct use
            algo = NueRouting(2)
        assert algo.name == "nue"

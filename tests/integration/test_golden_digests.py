"""Golden forwarding-table digests captured on the pre-CSR tree.

Every digest below was produced by ``scripts/capture_golden.py``
running the *pre-refactor* (legacy) implementation at seed 7.  The CSR
rebase of the network/CDG hot path is contractually bit-identical, so
the current tree must reproduce every value exactly — any drift means
a routing decision changed, not just a representation.

``raises:<Error>`` entries pin the inapplicability behaviour (e.g. DOR
on a non-torus, fat-tree routing on a torus) including which exception
type escapes.
"""

import pytest
from digests import result_digest

from repro.network.faults import remove_switches
from repro.network.topologies import k_ary_n_tree, ring, torus
from repro.routing import make_algorithm
from repro.routing.base import RoutingError

TOPOLOGIES = {
    "ring8": lambda: ring(8, 2),
    "torus443": lambda: torus([4, 4, 3], 2),
    "tree32": lambda: k_ary_n_tree(3, 2),
    "torus443_fault": lambda: remove_switches(torus([4, 4, 3], 2), [5]),
}

# captured pre-CSR: PYTHONPATH=src python scripts/capture_golden.py
GOLDEN = {
    "ring8/dfsssp/k8": "b1f20cae2eebe62d641dfb998f335021",
    "ring8/dnup/k8": "bbe826da5830f33541535220fca21e46",
    "ring8/dor/k8": "raises:NotApplicableError",
    "ring8/ftree/k8": "raises:NotApplicableError",
    "ring8/lash/k8": "67ff4a24e393d0831db5d6319c7a4e84",
    "ring8/minhop/k8": "7fa2042c4a6ff992cb9db121872b13ee",
    "ring8/nue/k1": "80148d9f8f6c6401dad801f5afda7db3",
    "ring8/nue/k2": "9ceec4caef8af89b90e192d22ae370d2",
    "ring8/nue/k4": "9403143bc8b9122ff60fc24b421adb2c",
    "ring8/torus-2qos/k8": "raises:NotApplicableError",
    "ring8/updn/k8": "43d89c877a3c1560373995b4e584f834",
    "torus443/dfsssp/k8": "25ba06fa2a67b918b9317738cad93214",
    "torus443/dnup/k8": "4ec0894b9960fec4603b6f4b95261c31",
    "torus443/dor/k8": "a6654f4abaa5ce5eafcff24773061daa",
    "torus443/ftree/k8": "raises:NotApplicableError",
    "torus443/lash/k8": "c6ad723475671c5b4ed277ff3a815f8b",
    "torus443/minhop/k8": "12a6a9e29fef6920cbef1779a411c3c3",
    "torus443/nue/k1": "223efd80a939a6003ba395b137af3b5e",
    "torus443/nue/k2": "8259a87053dceb04980f0c6b69999a8c",
    "torus443/nue/k4": "20e3caf5f8c91f2279346571157d2a35",
    "torus443/torus-2qos/k8": "b29987291806fbba0f7a5af5fd774e79",
    "torus443/updn/k8": "cb39d1769e169dd9ee55ed78e4770526",
    "torus443_fault/dfsssp/k8": "e55d379cb13c382d8e3d73fb559b6188",
    "torus443_fault/dnup/k8": "raises:RoutingError",
    "torus443_fault/dor/k8": "raises:RoutingError",
    "torus443_fault/ftree/k8": "raises:NotApplicableError",
    "torus443_fault/lash/k8": "5e21b7d3f53521b480ce405d3df4832a",
    "torus443_fault/minhop/k8": "54cdec4cf5951f470539904e7cacf269",
    "torus443_fault/nue/k1": "57a70e49e8bb654bd88f6b3e14114e0d",
    "torus443_fault/nue/k2": "5c1eaac750bca9400fe2893271f83e6f",
    "torus443_fault/nue/k4": "b9299dd82f81ed480df385d66e546162",
    "torus443_fault/torus-2qos/k8": "a81809d3f1474fe46cd2d3789cfbcfad",
    "torus443_fault/updn/k8": "0899270d5aa0f388656cbaf5f48e8e11",
    "tree32/dfsssp/k8": "3354297f431b07211e388d0a82dca145",
    "tree32/dnup/k8": "e2d9b61ce5b3c8f57f94a48fc303e609",
    "tree32/dor/k8": "raises:NotApplicableError",
    "tree32/ftree/k8": "3354297f431b07211e388d0a82dca145",
    "tree32/lash/k8": "5eedd564afc45a4ee7021315809ab9c1",
    "tree32/minhop/k8": "3354297f431b07211e388d0a82dca145",
    "tree32/nue/k1": "3354297f431b07211e388d0a82dca145",
    "tree32/nue/k2": "1d704aa3f874bf9b82d60a4828ff50a0",
    "tree32/nue/k4": "46386f3f5a5139e34a833df2f871f321",
    "tree32/torus-2qos/k8": "raises:NotApplicableError",
    "tree32/updn/k8": "350a1dc596667deb8d89791a3bceda4f",
}


@pytest.fixture(scope="module")
def nets():
    return {name: builder() for name, builder in TOPOLOGIES.items()}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_digest(nets, key):
    tname, aname, kspec = key.split("/")
    algo = make_algorithm(aname, max_vls=int(kspec[1:]))
    expected = GOLDEN[key]
    if expected.startswith("raises:"):
        with pytest.raises(RoutingError) as exc_info:
            algo.route(nets[tname], seed=7)
        assert type(exc_info.value).__name__ == expected.split(":", 1)[1]
    else:
        assert result_digest(algo.route(nets[tname], seed=7)) == expected


def test_repro_kernel_env_var_is_not_read(nets, monkeypatch):
    """``REPRO_KERNEL`` used to select a backend (and an unavailable
    one failed the route); nothing reads it any more."""
    monkeypatch.setenv("REPRO_KERNEL", "numba")
    algo = make_algorithm("nue", max_vls=2)
    assert result_digest(algo.route(nets["ring8"], seed=7)) \
        == GOLDEN["ring8/nue/k2"]

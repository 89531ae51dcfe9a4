"""``meta["topology"]`` enters the fingerprint as one canonical JSON
text: string keys, sorted, tuples as lists, ``repr`` for the rest."""

from repro.engine.fingerprint import network_fingerprint
from repro.network.graph import Network


def _net(topology):
    net = Network(3, [(0, 1), (1, 2)], [True] * 3)
    net.meta["topology"] = topology
    return net


def _fp(topology):
    return network_fingerprint(_net(topology))


def test_what_json_cannot_tell_apart_hashes_equal():
    assert _fp({"dims": (3, 1)}) == _fp({"dims": [3, 1]})
    assert _fp({2: "a", 10: "b"}) == _fp({"10": "b", "2": "a"})
    assert _fp({"c": {(0, 1): 2}}) == _fp({"c": {"(0, 1)": 2}})
    assert _fp({"x": set}) == _fp({"x": repr(set)})


def test_what_json_tells_apart_hashes_apart():
    assert _fp({"dims": [3, 1]}) != _fp({"dims": [1, 3]})
    assert _fp({"n": 1}) != _fp({"n": "1"})
    assert _fp({"n": 1}) != _fp({"n": 1.5})
    assert _fp({"a": {"b": 1}}) != _fp({"a": {"c": 1}})


def test_fingerprint_builds_no_csr():
    net = _net({"type": "custom"})
    network_fingerprint(net)
    assert net._csr_view is None

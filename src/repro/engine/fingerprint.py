"""Structural network fingerprints for the engine's memo cache.

A fingerprint is a stable hex digest over everything that determines a
routing result: the network name, node count, node names, the
switch/terminal role of every node, the channel endpoints
``channel_src`` / ``channel_dst`` (``int32``, in channel-id order —
the link list in construction order) and ``meta["topology"]``.  Two
:class:`~repro.network.graph.Network` objects with equal fingerprints
produce bit-identical forwarding tables under any of the library's
deterministic routing algorithms, which is what lets
:mod:`repro.engine.cache` reuse results across separately constructed
copies of the same topology (e.g. a fault sweep re-deriving the same
degraded network), and what keys the fabric's shm exports and the
daemon's network LRU.

The CSR core (:class:`repro.network.csr.CSRView`) adds nothing to the
digest: every array in it is a pure function of ``n_nodes``, the
channel endpoints and the roles — a channel's reverse is ``id ^ 1``,
the out/in adjacency is the channels grouped by source/head, the
dependency index follows from those.  So the fingerprint never builds
it: a daemon fingerprints a freshly parsed fabric without the CSR it
would drop again when the resident copy of that fabric is reused.

``meta`` is deliberately excluded *except* for the ``topology``
entry: topology-aware routings (DOR, Torus-2QoS) read coordinates from
``net.meta["topology"]``, so it is part of the routing input; the rest
of ``meta`` (provenance, fault notes) is diagnostics only.  It is
hashed as one canonical JSON text — string keys, sorted, tuples as
lists, ``repr`` for anything JSON cannot hold — so equal values hash
equally whatever their dict order, and a network and its topology-file
round trip (where JSON turns tuples into lists) share a digest.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.network.graph import Network, as_network

__all__ = ["network_fingerprint"]


def _canonical_json(value) -> bytes:
    """One canonical JSON text of ``value`` (see the module docstring).

    A first dump with ``repr`` as the fallback and a load turn keys
    into strings and tuples into lists; the second dump sorts the keys.
    Keys JSON cannot write at all (tuples) are ``str``-ed first."""
    try:
        plain = json.loads(json.dumps(value, default=repr))
    except TypeError:
        plain = json.loads(json.dumps(_str_keys(value), default=repr))
    return json.dumps(plain, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode()


def _str_keys(value):
    if isinstance(value, dict):
        return {str(k): _str_keys(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_str_keys(v) for v in value]
    return value


def _field(h, data: bytes) -> None:
    """A length-prefixed field: no two field splits share a stream."""
    h.update(b"%d:" % len(data))
    h.update(data)


def network_fingerprint(net: Network) -> str:
    """Hex digest identifying ``net`` structurally (blake2b-128)."""
    net = as_network(net)
    h = hashlib.blake2b(digest_size=16)
    _field(h, net.name.encode())
    _field(h, b"%d" % net.n_nodes)
    _field(h, "\x00".join(net.node_names).encode())
    _field(h, np.array(net._switch, dtype=bool).tobytes())
    _field(h, np.asarray(net.channel_src, dtype=np.int32).tobytes())
    _field(h, np.asarray(net.channel_dst, dtype=np.int32).tobytes())
    topo = net.meta.get("topology")
    if topo is not None:
        _field(h, _canonical_json(topo))
    return h.hexdigest()

"""The golden-digest identity of a routing, shared by the suites that
compare tables across code paths."""

import hashlib


def result_digest(res) -> str:
    """blake2b-128 over a routing's tables and its layer count."""
    h = hashlib.blake2b(digest_size=16)
    h.update(res.next_channel.astype("int32").tobytes())
    h.update(res.vl.astype("int8").tobytes())
    h.update(b"%d" % res.n_vls)
    return h.hexdigest()

"""Bulk topofile ingest against the scalar loops it replaced.

``parse_topology`` splits each line once and hands the
:class:`Network` constructor one endpoint array; the constructor cuts
its channel and adjacency lists from a stable sort and checks Def. 1
with array passes.  The per-line builder parser and the per-link
constructor loop they replaced are kept here, verbatim in effect, as
the oracle: every field a network exposes must come out identical, and
every malformed file must fail with the same exception type and text —
the line number of its *first* failing line included.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.fingerprint import network_fingerprint
from repro.io.topofile import (
    TopologyFormatError,
    format_topology,
    parse_topology,
)
from repro.network.faults import remove_links, remove_switches
from repro.network.graph import Network
from repro.network.topologies import (
    binary_tree,
    cascade,
    dragonfly,
    hypercube,
    hyperx,
    k_ary_n_tree,
    kautz,
    mesh,
    paper_ring_with_shortcut,
    random_topology,
    ring,
    torus,
    tsubame25_like,
    two_tier_clos,
)

# -- the oracle: the scalar constructor and parser --------------------------------


class ReferenceNetwork:
    """The per-link ``Network.__init__`` loop and its ``_validate``."""

    def __init__(self, n_nodes, links, switch_flags, node_names=None,
                 name="network"):
        if n_nodes <= 0:
            raise ValueError("network needs at least one node")
        self.name = name
        self.n_nodes = n_nodes
        self.meta = {}
        self._switch = list(switch_flags)
        if len(self._switch) != n_nodes:
            raise ValueError("switch_flags length mismatch")
        self.node_names = (
            list(node_names) if node_names is not None
            else [f"n{i}" for i in range(n_nodes)]
        )
        if len(self.node_names) != n_nodes:
            raise ValueError("node_names length mismatch")
        self.channel_src, self.channel_dst, self.channel_reverse = [], [], []
        self.out_channels = [[] for _ in range(n_nodes)]
        self.in_channels = [[] for _ in range(n_nodes)]
        for (u, v) in links:
            if not (0 <= u < n_nodes and 0 <= v < n_nodes):
                raise ValueError(f"link endpoint out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop link at node {u}")
            a = len(self.channel_src)
            b = a + 1
            self.channel_src += [u, v]
            self.channel_dst += [v, u]
            self.channel_reverse += [b, a]
            self.out_channels[u].append(a)
            self.in_channels[v].append(a)
            self.out_channels[v].append(b)
            self.in_channels[u].append(b)
        self.n_channels = len(self.channel_src)
        self._validate()

    def _validate(self):
        for node in range(self.n_nodes):
            degree = len(self.out_channels[node])
            if degree == 0:
                raise ValueError(
                    f"node {self.node_names[node]} is disconnected")
            if not self._switch[node] and degree != 1:
                raise ValueError(
                    f"terminal {self.node_names[node]} has degree {degree}"
                    " (Def. 1 requires exactly one link)")
        seen = [False] * self.n_nodes
        stack, seen[0], count = [0], True, 1
        while stack:
            node = stack.pop()
            for cid in self.out_channels[node]:
                nxt = self.channel_dst[cid]
                if not seen[nxt]:
                    seen[nxt] = True
                    count += 1
                    stack.append(nxt)
        if count != self.n_nodes:
            raise ValueError("network must be connected (Def. 1)")


class _ReferenceBuilder:
    def __init__(self):
        self.name = "network"
        self._names, self._switch, self._links, self._by_name = [], [], [], {}

    def add_node(self, name, switch):
        if name in self._by_name:
            raise ValueError(f"duplicate node name: {name}")
        self._by_name[name] = len(self._names)
        self._names.append(name)
        self._switch.append(switch)

    def add_link(self, u, v, count=1):
        if count < 1:
            raise ValueError("count must be >= 1")
        self._links += [(u, v)] * count

    def node_id(self, name):
        return self._by_name[name]

    def build(self):
        return ReferenceNetwork(len(self._names), self._links, self._switch,
                                self._names, self.name)


def reference_parse(text):
    """The per-line builder parser."""
    builder = _ReferenceBuilder()
    meta = {}
    seen_any = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 2)
        keyword = parts[0].lower()
        try:
            if keyword == "name":
                builder.name = parts[1]
            elif keyword in ("switch", "terminal"):
                builder.add_node(parts[1], keyword == "switch")
                seen_any = True
            elif keyword == "link":
                rest = line.split()[1:]
                if len(rest) not in (2, 3):
                    raise TopologyFormatError(
                        f"line {lineno}: link needs two node names")
                count = 1
                if len(rest) == 3:
                    if not rest[2].startswith("x"):
                        raise TopologyFormatError(
                            f"line {lineno}: link multiplicity must be "
                            f"'xN', got {rest[2]!r}")
                    count = int(rest[2][1:])
                builder.add_link(builder.node_id(rest[0]),
                                 builder.node_id(rest[1]), count=count)
            elif keyword == "meta":
                key, payload = parts[1], parts[2]
                meta[key] = json.loads(payload)
            else:
                raise TopologyFormatError(
                    f"line {lineno}: unknown keyword {keyword!r}")
        except TopologyFormatError:
            raise
        except (KeyError, IndexError, ValueError) as exc:
            raise TopologyFormatError(f"line {lineno}: {exc}") from exc
    if not seen_any:
        raise TopologyFormatError("no nodes defined")
    try:
        net = builder.build()
    except ValueError as exc:
        raise TopologyFormatError(str(exc)) from exc
    net.meta.update(meta)
    return net


# -- comparisons --------------------------------------------------------------------

FIELDS = ("name", "n_nodes", "n_channels", "node_names", "channel_src",
          "channel_dst", "channel_reverse", "out_channels", "in_channels",
          "meta")


def assert_same_network(got, want):
    for field in FIELDS:
        assert getattr(got, field) == getattr(want, field), field
    assert [got.is_switch(v) for v in range(got.n_nodes)] == \
        [bool(flag) for flag in want._switch]
    for field in ("channel_src", "channel_dst", "channel_reverse"):
        assert all(type(c) is int for c in getattr(got, field))


def outcome(fn, *args, **kwargs):
    """``("ok", value)`` or ``(exception type, text)``."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is the point
        return type(exc), str(exc)


def assert_same_parse(text):
    got, want = outcome(parse_topology, text), outcome(reference_parse, text)
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert_same_network(got[1], want[1])
    else:
        assert got == want


GENERATORS = [
    ("ring", lambda: ring(6, 1)),
    ("paper_ring", paper_ring_with_shortcut),
    ("binary_tree", lambda: binary_tree(3)),
    ("torus", lambda: torus([3, 3, 2], 2)),
    ("torus_redundant", lambda: torus([3, 3], 1, redundancy=2)),
    ("mesh", lambda: mesh([3, 4], 1)),
    ("k_ary_n_tree", lambda: k_ary_n_tree(2, 3)),
    ("two_tier_clos", lambda: two_tier_clos(3, 2, 6)),
    ("tsubame25_like", tsubame25_like),
    ("kautz", lambda: kautz(2, 2, 1)),
    ("dragonfly", lambda: dragonfly(3, 1, 1, 4)),
    ("cascade", lambda: cascade(2, 8, 1,
                                chassis_per_group=2, slots_per_chassis=2)),
    ("random", lambda: random_topology(10, 20, 2, seed=13)),
    ("hypercube", lambda: hypercube(3, 1)),
    ("hyperx", lambda: hyperx([2, 3], 1)),
    ("torus_link_fault", lambda: remove_links(torus([4, 4, 3], 2), [0]).net),
    ("torus_switch_fault",
     lambda: remove_switches(torus([4, 4, 3], 1), [5]).net),
]


@pytest.mark.parametrize("builder", [b for _, b in GENERATORS],
                         ids=[n for n, _ in GENERATORS])
class TestGenerators:
    def test_round_trip_parses_like_the_reference(self, builder):
        assert_same_parse(format_topology(builder()))

    def test_round_trip_shares_the_fingerprint_without_a_csr(self, builder):
        net = builder()
        back = parse_topology(format_topology(net))
        assert network_fingerprint(back) == network_fingerprint(net)
        assert net._csr_view is None and back._csr_view is None

    def test_constructor_builds_like_the_reference(self, builder):
        net = builder()
        links = net.links()
        want = ReferenceNetwork(net.n_nodes, links, net._switch,
                                net.node_names, net.name)
        for form in (links, np.array(links, dtype=np.int64).reshape(-1, 2)):
            assert_same_network(
                Network(net.n_nodes, form, net._switch, net.node_names,
                        net.name), want)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_switches=st.integers(2, 12), extra_links=st.integers(0, 14),
       terminals=st.integers(0, 2), seed=st.integers(0, 2 ** 31))
def test_random_multigraphs_parse_like_the_reference(
        n_switches, extra_links, terminals, seed):
    net = random_topology(n_switches, n_switches - 1 + extra_links,
                          terminals, seed=seed)
    assert_same_parse(format_topology(net))


# -- malformed files ----------------------------------------------------------------

HEAD = "name m\nswitch s0\nswitch s1\nterminal t0\n"
LINKS = "link s0 s1\nlink t0 s0\n"

MALFORMED = {
    "unknown keyword": HEAD + "frobnicate s0\n" + LINKS,
    "upper-case keyword": "NAME m\nSWITCH s0\nSwitch s1\nTERMINAL t0\n"
                          "LINK s0 s1 X2\nLink s0 s1 x2\nlink t0 s0\n",
    "bad multiplicity": HEAD + "link s0 s1 twice\n" + LINKS,
    "non-numeric multiplicity": HEAD + "link s0 s1 xtwo\n" + LINKS,
    "empty multiplicity": HEAD + "link s0 s1 x\n" + LINKS,
    "x0 multiplicity": HEAD + "link s0 s1 x0\n" + LINKS,
    "negative multiplicity": HEAD + "link s0 s1 x-2\n" + LINKS,
    "x0 to an unknown node": HEAD + "link s0 ghost x0\n" + LINKS,
    "bad multiplicity to an unknown node": HEAD + "link s0 ghost xtwo\n"
                                           + LINKS,
    "one link name": HEAD + "link s0\n" + LINKS,
    "four link words": HEAD + "link s0 s1 x2 x3\n" + LINKS,
    "bare link": HEAD + "link\n" + LINKS,
    "unknown node": HEAD + "link s0 ghost\n" + LINKS,
    "used before declared": "switch s0\nlink s0 s1\nswitch s1\n"
                            "terminal t0\nlink t0 s0\n",
    "duplicate name": HEAD + "terminal s1\n" + LINKS,
    "switch without a name": HEAD + "switch\n" + LINKS,
    "name without a value": "name\n" + HEAD[7:] + LINKS,
    "bad meta JSON": HEAD + LINKS + "meta topology {nope\n",
    "meta without payload": HEAD + LINKS + "meta topology\n",
    "meta with a comment": HEAD + LINKS + 'meta k {"a": [1, 2]}  # c\n',
    "self-loop": HEAD + "link s0 s0\n" + LINKS,
    "disconnected node": HEAD + "switch s2\n" + LINKS,
    "terminal of degree 2": HEAD + LINKS + "link t0 s1\n",
    "disconnected graph": "switch a\nswitch b\nswitch c\nswitch d\n"
                          "link a b\nlink c d\n",
    "empty file": "",
    "comment-only file": "# nothing\n   # here\n\n",
    "names and meta only": "name x\nmeta k 1\n",
    "CRLF": HEAD.replace("\n", "\r\n") + LINKS.replace("\n", "\r\n"),
    "odd line breaks": HEAD + "link s0 s1\x0blink t0 s0 \n",
    "two errors, keyword first": HEAD + "bogus\nlink s0 ghost\n" + LINKS,
    "two errors, link first": HEAD + "link s0 ghost\nbogus\n" + LINKS,
    "line error beats a structure error": HEAD + "link s0 s0\n"
                                          "switch s0\n" + LINKS,
    "two structure errors": "switch a\nterminal t\nswitch b\n"
                            "link t a\nlink t b\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_files_fail_like_the_reference(name):
    assert_same_parse(MALFORMED[name])


def test_errors_name_the_first_failing_line():
    text = HEAD + "link s0 s1\nbogus\nlink s0 ghost\n" + LINKS
    with pytest.raises(TopologyFormatError, match=r"^line 6: unknown"):
        parse_topology(text)


@pytest.mark.parametrize("links, error", [
    ([(0, 1), (1, 3), (2, 2)], "link endpoint out of range: (1, 3)"),
    ([(0, 1), (2, 2), (-1, 0)], "self-loop link at node 2"),
    ([(0, 1), (-1, 0)], "link endpoint out of range: (-1, 0)"),
])
def test_constructor_names_the_first_bad_link(links, error):
    got = outcome(Network, 3, links, [True] * 3)
    assert got == outcome(ReferenceNetwork, 3, links, [True] * 3)
    assert got == (ValueError, error)

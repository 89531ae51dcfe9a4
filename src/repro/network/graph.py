"""Interconnection-network model (paper Section 2).

A network is a connected multigraph ``I = G(N, C)`` whose duplex links
are split into two directed channels of opposite direction (Def. 1).  A
node is a *terminal* when it has exactly one neighbouring link,
otherwise it is a *switch*.  Channel capacity is uniform.

The model is deliberately array-oriented: nodes and channels are dense
integer ids, adjacency is a list of channel-id lists, and the ``csr``
property exposes the shared contiguous array core
(:class:`repro.network.csr.CSRView`) that the CDG machinery, the
routing hot paths and the shm fabric all operate on.
Human-readable names live in ``node_names`` purely for diagnostics.
Networks are immutable after construction — fault injection produces a
*new* network (see :mod:`repro.network.faults`), which keeps
invariants (and the once-per-network CSR build) trivial to reason
about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.network.csr import CSRView

__all__ = ["Network", "NetworkBuilder", "Channel", "as_network"]


def as_network(obj) -> "Network":
    """Coerce ``obj`` to the :class:`Network` it denotes.

    Accepts a :class:`Network` directly or any wrapper exposing one as
    ``.net`` (e.g. :class:`repro.network.faults.FaultResult`), so every
    entry point that consumes a network also accepts the result of a
    fault injection without manual unwrapping.
    """
    if isinstance(obj, Network):
        return obj
    inner = getattr(obj, "net", None)
    if isinstance(inner, Network):
        return inner
    raise TypeError(f"expected a Network (or FaultResult), got {type(obj).__name__}")


@dataclass(frozen=True)
class Channel:
    """A directed channel (view onto the network's channel arrays)."""

    id: int
    src: int
    dst: int
    reverse: int  #: channel id of the opposite direction of the same link


class Network:
    """Immutable interconnection network (multigraph of directed channels).

    Construct via :class:`NetworkBuilder` or a topology generator from
    :mod:`repro.network.topologies`; ``links`` is a sequence of
    ``(u, v)`` node-id pairs or an ``int[L, 2]`` array of them.  The
    lists below are built from arrays in a few passes (no per-link
    Python step); the first invalid link or node raises ``ValueError``.

    Attributes
    ----------
    n_nodes:
        Number of nodes ``|N|`` (terminals + switches).
    n_channels:
        Number of *directed* channels ``|C|`` (2x the duplex link count).
    channel_src / channel_dst / channel_reverse:
        Per-channel endpoint and reverse-channel arrays.
    out_channels / in_channels:
        Adjacency: channel ids leaving / entering each node.
    """

    def __init__(
        self,
        n_nodes: int,
        links: Sequence[Tuple[int, int]],
        switch_flags: Sequence[bool],
        node_names: Optional[Sequence[str]] = None,
        name: str = "network",
    ) -> None:
        if n_nodes <= 0:
            raise ValueError("network needs at least one node")
        self.name = name
        self.n_nodes = n_nodes
        #: auxiliary, non-structural metadata (topology parameters such as
        #: torus dimensions); used by topology-aware routings only.
        self.meta: Dict[str, object] = {}
        self._switch = list(switch_flags)
        if len(self._switch) != n_nodes:
            raise ValueError("switch_flags length mismatch")
        self.node_names: List[str] = (
            list(node_names) if node_names is not None
            else [f"n{i}" for i in range(n_nodes)]
        )
        if len(self.node_names) != n_nodes:
            raise ValueError("node_names length mismatch")

        ends = _link_ends(links, n_nodes)
        # channel 2i is link i's u -> v, 2i+1 its v -> u: the sources
        # interleave (u, v) pairs, the heads the same pairs swapped
        src = ends.reshape(-1)
        dst = ends[:, ::-1].reshape(-1)
        # a node's out- and in-channels, ascending, are one stable sort
        # of the channel sources / heads; every link adds one of each at
        # both its ends, so out- and in-degree are one bincount
        degree = np.bincount(src, minlength=n_nodes)
        ptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(degree, out=ptr[1:])
        _fill_lists(self, src, dst, np.arange(len(src)) ^ 1,
                    ptr, np.argsort(src, kind="stable"),
                    ptr, np.argsort(dst, kind="stable"))
        self._csr_view = None  # lazily built CSR core (see .csr)
        self._validate(degree, ends)

    # -- construction helpers -------------------------------------------------

    def _validate(self, degree: np.ndarray, ends: np.ndarray) -> None:
        """Def. 1: every node linked, terminals exactly once, and the
        whole network connected; the first failing node is named."""
        terminal = ~np.array(self._switch, dtype=bool)
        bad = (degree == 0) | (terminal & (degree != 1))
        if bad.any():
            node = int(bad.argmax())
            if degree[node] == 0:
                raise ValueError(
                    f"node {self.node_names[node]} is disconnected"
                )
            raise ValueError(
                f"terminal {self.node_names[node]} has degree "
                f"{int(degree[node])} (Def. 1 requires exactly one link)"
            )
        if not _connected(self.n_nodes, ends):
            raise ValueError("network must be connected (Def. 1)")

    # -- basic queries ---------------------------------------------------------

    def is_switch(self, node: int) -> bool:
        """True when ``node`` is a switch (degree > 1 or declared)."""
        return self._switch[node]

    def is_terminal(self, node: int) -> bool:
        """True when ``node`` is a terminal (exactly one link, Def. 1)."""
        return not self._switch[node]

    @property
    def switches(self) -> List[int]:
        """Node ids of all switches."""
        return [n for n in range(self.n_nodes) if self._switch[n]]

    @property
    def terminals(self) -> List[int]:
        """Node ids of all terminals."""
        return [n for n in range(self.n_nodes) if not self._switch[n]]

    @property
    def n_links(self) -> int:
        """Number of duplex links (``n_channels / 2``)."""
        return self.n_channels // 2

    @property
    def csr(self) -> "CSRView":
        """The network's shared CSR array core (built once, cached).

        All hot-path consumers — the complete CDG, the Nue routing
        step, the baseline table builders, fault rebuilding and the
        fabric's network export — read this one view instead of
        re-deriving adjacency; see :mod:`repro.network.csr`.
        """
        if self._csr_view is None:
            from repro.network.csr import CSRView

            self._csr_view = CSRView(self)
        return self._csr_view

    def channel(self, cid: int) -> Channel:
        """Structured view of channel ``cid``."""
        return Channel(
            cid,
            self.channel_src[cid],
            self.channel_dst[cid],
            self.channel_reverse[cid],
        )

    def channels(self) -> Iterator[Channel]:
        """Iterate over all directed channels."""
        for cid in range(self.n_channels):
            yield self.channel(cid)

    def endpoints(self, cid: int) -> Tuple[int, int]:
        """``(src, dst)`` node ids of channel ``cid``."""
        return self.channel_src[cid], self.channel_dst[cid]

    def neighbors(self, node: int) -> List[int]:
        """Distinct neighbour node ids of ``node``."""
        seen: Dict[int, None] = {}
        for cid in self.out_channels[node]:
            seen.setdefault(self.channel_dst[cid], None)
        return list(seen)

    def degree(self, node: int) -> int:
        """Number of outgoing channels (= incident links) of ``node``."""
        return len(self.out_channels[node])

    def max_degree(self) -> int:
        """Maximum degree Δ over all nodes (paper's complexity parameter)."""
        return max(self.degree(n) for n in range(self.n_nodes))

    def find_channels(self, src: int, dst: int) -> List[int]:
        """All (parallel) channel ids from ``src`` to ``dst``."""
        return [
            cid for cid in self.out_channels[src]
            if self.channel_dst[cid] == dst
        ]

    def terminal_switch(self, terminal: int) -> int:
        """The switch a terminal hangs off (its unique neighbour)."""
        if self._switch[terminal]:
            raise ValueError(f"node {terminal} is a switch")
        return self.channel_dst[self.out_channels[terminal][0]]

    def attached_terminals(self, switch: int) -> List[int]:
        """Terminals directly attached to ``switch``."""
        return [
            self.channel_dst[cid]
            for cid in self.out_channels[switch]
            if self.is_terminal(self.channel_dst[cid])
        ]

    # -- traversal -------------------------------------------------------------

    def is_connected(self) -> bool:
        """Connectivity of the undirected structure (one array pass)."""
        ends = np.array(self.channel_src[0::2] + self.channel_dst[0::2],
                        dtype=np.int64).reshape(2, -1).T
        return _connected(self.n_nodes, ends)

    def bfs_levels(self, root: int) -> List[int]:
        """Hop distance of every node from ``root`` (-1 if unreachable)."""
        dist = [-1] * self.n_nodes
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt_frontier: List[int] = []
            for node in frontier:
                for cid in self.out_channels[node]:
                    nxt = self.channel_dst[cid]
                    if dist[nxt] < 0:
                        dist[nxt] = dist[node] + 1
                        nxt_frontier.append(nxt)
            frontier = nxt_frontier
        return dist

    # -- misc ------------------------------------------------------------------

    def links(self) -> List[Tuple[int, int]]:
        """Duplex links as ``(u, v)`` pairs (one entry per link)."""
        return [
            (self.channel_src[cid], self.channel_dst[cid])
            for cid in range(0, self.n_channels, 2)
        ]

    def switch_to_switch_links(self) -> List[Tuple[int, int]]:
        """Duplex links whose both endpoints are switches."""
        return [
            (u, v) for (u, v) in self.links()
            if self._switch[u] and self._switch[v]
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network({self.name!r}, nodes={self.n_nodes}, "
            f"switches={len(self.switches)}, links={self.n_links})"
        )


def _link_ends(links, n_nodes: int) -> np.ndarray:
    """``links`` as an ``int64[L, 2]`` array of checked endpoints.

    Raises the first bad link's error, in link order: an endpoint out
    of range or a self-loop."""
    ends = np.asarray(links, dtype=np.int64)
    if ends.size == 0:
        return ends.reshape(0, 2)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise ValueError("links must be (u, v) pairs")
    u, v = ends[:, 0], ends[:, 1]
    bad = (u < 0) | (u >= n_nodes) | (v < 0) | (v >= n_nodes) | (u == v)
    if bad.any():
        i = int(bad.argmax())
        a, b = int(u[i]), int(v[i])
        if not (0 <= a < n_nodes and 0 <= b < n_nodes):
            raise ValueError(f"link endpoint out of range: ({a}, {b})")
        raise ValueError(f"self-loop link at node {a}")
    return ends


def _connected(n_nodes: int, ends: np.ndarray) -> bool:
    """Whether the links ``ends`` (``int64[L, 2]``) connect all nodes.

    Label propagation with pointer jumping: every node points at a
    node of its component with a smaller id, each round hooks the
    larger of two linked roots under the smaller, then shortcuts every
    pointer to its root — a few rounds on any fabric, where a BFS
    takes one Python step per node."""
    parent = np.arange(n_nodes, dtype=np.int64)
    u, v = ends[:, 0], ends[:, 1]
    while True:
        pu, pv = parent[u], parent[v]
        split = pu != pv
        if not split.any():
            return bool((parent == 0).all())
        low = np.minimum(pu[split], pv[split])
        np.minimum.at(parent, pu[split], low)
        np.minimum.at(parent, pv[split], low)
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped


def _fill_lists(net: "Network", src: np.ndarray, dst: np.ndarray,
                reverse: np.ndarray, out_ptr: np.ndarray,
                out_idx: np.ndarray, in_ptr: np.ndarray,
                in_idx: np.ndarray) -> None:
    """Set ``net``'s public channel and adjacency lists from arrays:
    endpoint / reverse ids per channel, and the out / in channels of
    node ``v`` as ``*_idx[*_ptr[v]:*_ptr[v + 1]]``."""
    net.channel_src = src.tolist()
    net.channel_dst = dst.tolist()
    net.channel_reverse = reverse.tolist()
    net.n_channels = len(net.channel_src)
    for attr, ptr, idx in (("out_channels", out_ptr, out_idx),
                           ("in_channels", in_ptr, in_idx)):
        flat, bounds = idx.tolist(), ptr.tolist()
        setattr(net, attr, [flat[a:b] for a, b in zip(bounds, bounds[1:])])


class NetworkBuilder:
    """Incremental construction of a :class:`Network`.

    >>> b = NetworkBuilder("ring")
    >>> s = [b.add_switch(f"s{i}") for i in range(3)]
    >>> for i in range(3):
    ...     _ = b.add_link(s[i], s[(i + 1) % 3])
    >>> t = b.add_terminal("t0"); _ = b.add_link(t, s[0])
    >>> net = b.build()
    >>> net.n_nodes, net.n_links
    (4, 4)
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._names: List[str] = []
        self._switch: List[bool] = []
        self._links: List[Tuple[int, int]] = []
        self._by_name: Dict[str, int] = {}

    def add_switch(self, name: Optional[str] = None) -> int:
        """Add a switch node; returns its id."""
        return self._add_node(name, switch=True)

    def add_terminal(self, name: Optional[str] = None) -> int:
        """Add a terminal node; returns its id."""
        return self._add_node(name, switch=False)

    def _add_node(self, name: Optional[str], switch: bool) -> int:
        node = len(self._names)
        if name is None:
            name = f"{'sw' if switch else 't'}{node}"
        if name in self._by_name:
            raise ValueError(f"duplicate node name: {name}")
        self._by_name[name] = node
        self._names.append(name)
        self._switch.append(switch)
        return node

    def add_link(self, u: int, v: int, count: int = 1) -> List[int]:
        """Add ``count`` parallel duplex links between ``u`` and ``v``.

        Returns the link indices (into :meth:`Network.links`).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        out = []
        for _ in range(count):
            out.append(len(self._links))
            self._links.append((u, v))
        return out

    def node_id(self, name: str) -> int:
        """Resolve a node name to its id."""
        return self._by_name[name]

    @property
    def n_nodes(self) -> int:
        return len(self._names)

    def build(self) -> Network:
        """Finalize into an immutable, validated :class:`Network`."""
        return Network(
            n_nodes=len(self._names),
            links=self._links,
            switch_flags=self._switch,
            node_names=self._names,
            name=self.name,
        )


def attach_terminals(
    builder: NetworkBuilder,
    switches: Iterable[int],
    per_switch: int,
    prefix: str = "t",
) -> List[int]:
    """Attach ``per_switch`` terminals to each switch; returns terminal ids."""
    terminals: List[int] = []
    for s in switches:
        for j in range(per_switch):
            t = builder.add_terminal(f"{prefix}{s}_{j}")
            builder.add_link(t, s)
            terminals.append(t)
    return terminals

"""Plain-text topology files.

A minimal, diff-friendly format so fabrics can be stored in a repo,
edited by hand, and fed to the CLI — the role ibnetdiscover output
plays for OpenSM:

```
# anything after '#' is a comment
name my-cluster
switch  s0
switch  s1
terminal t0
link s0 s1        # one duplex link
link s0 s1 x2     # two parallel links
link t0 s0
meta topology {"type": "custom"}   # optional JSON metadata
```

Node order and link order are preserved, so ids round-trip exactly.

**First error wins.** Lines are read top to bottom and a malformed one
raises :class:`TopologyFormatError` ``"line N: ..."`` at once: an
unknown keyword, a missing name, a duplicate node, a link of other
than two names (plus an optional ``xN``), a bad or non-positive
multiplicity, a node not declared on an earlier line, bad meta JSON.
Keywords are case-insensitive.  Only a file whose every line parses
reaches the structural checks of :class:`Network` — self-loops,
isolated nodes, terminals of degree other than one, disconnection —
which raise without a line number, and a file without nodes raises
``"no nodes defined"``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.network.graph import Network

__all__ = ["load_topology", "save_topology", "parse_topology",
           "format_topology", "TopologyFormatError"]


class TopologyFormatError(ValueError):
    """Malformed topology file."""


def parse_topology(text: str) -> Network:
    """Parse the text format into a :class:`Network`.

    One pass splits each line once; link endpoints resolve by direct
    dict lookup into one flat ``(u, v, u, v, ...)`` list, which the
    :class:`Network` constructor takes as an array.  Errors name the
    first failing line (see the module docstring).
    """
    name = "network"
    names: List[str] = []
    switch: List[bool] = []
    ids: Dict[str, int] = {}
    ends: List[int] = []
    meta = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        words = raw.split()
        if not words:
            continue
        keyword = words[0].lower()
        try:
            if keyword == "link":
                if len(words) == 3:
                    ends += (ids[words[1]], ids[words[2]])
                    continue
                count = _multiplicity(words, lineno)
                u, v = ids[words[1]], ids[words[2]]
                if count < 1:
                    raise ValueError("count must be >= 1")
                ends += (u, v) * count
            elif keyword == "switch" or keyword == "terminal":
                node = words[1]
                if node in ids:
                    raise ValueError(f"duplicate node name: {node}")
                ids[node] = len(names)
                names.append(node)
                switch.append(keyword == "switch")
            elif keyword == "name":
                name = words[1]
            elif keyword == "meta":
                parts = raw.strip().split(None, 2)
                meta[parts[1]] = json.loads(parts[2])
            else:
                raise TopologyFormatError(
                    f"line {lineno}: unknown keyword {keyword!r}"
                )
        except TopologyFormatError:
            raise
        except (KeyError, IndexError, ValueError) as exc:
            raise TopologyFormatError(f"line {lineno}: {exc}") from exc
    if not names:
        raise TopologyFormatError("no nodes defined")
    try:
        net = Network(len(names),
                      np.array(ends, dtype=np.int64).reshape(-1, 2),
                      switch, names, name)
    except ValueError as exc:
        raise TopologyFormatError(str(exc)) from exc
    net.meta.update(meta)
    return net


def _multiplicity(words: List[str], lineno: int) -> int:
    """The ``xN`` count of a ``link`` line of other than two names."""
    if len(words) != 4:
        raise TopologyFormatError(f"line {lineno}: link needs two node names")
    if not words[3].startswith("x"):
        raise TopologyFormatError(
            f"line {lineno}: link multiplicity must be 'xN', got {words[3]!r}"
        )
    return int(words[3][1:])


def format_topology(net: Network) -> str:
    """Serialise a network into the text format (exact round-trip)."""
    lines: List[str] = [f"name {net.name}"]
    for v in range(net.n_nodes):
        kind = "switch" if net.is_switch(v) else "terminal"
        lines.append(f"{kind} {net.node_names[v]}")
    # merge consecutive identical links into multiplicities
    links = net.links()
    i = 0
    while i < len(links):
        u, v = links[i]
        count = 1
        while i + count < len(links) and links[i + count] == (u, v):
            count += 1
        suffix = f" x{count}" if count > 1 else ""
        lines.append(
            f"link {net.node_names[u]} {net.node_names[v]}{suffix}"
        )
        i += count
    for key, value in net.meta.items():
        try:
            lines.append(f"meta {key} {json.dumps(_jsonable(value))}")
        except TypeError:
            pass  # non-serialisable metadata stays in memory only
    return "\n".join(lines) + "\n"


def _jsonable(value):
    """Best-effort conversion of metadata (tuples/dict keys) to JSON."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def load_topology(path: Union[str, Path]) -> Network:
    """Read a topology file from disk."""
    return parse_topology(Path(path).read_text(encoding="utf-8"))


def save_topology(net: Network, path: Union[str, Path]) -> None:
    """Write a topology file to disk."""
    Path(path).write_text(format_topology(net), encoding="utf-8")

"""repro — Nue routing (HPDC'16) reproduction library.

Deadlock-free, oblivious, destination-based routing on the complete
channel dependency graph, plus every substrate the paper's evaluation
needs: topology generators, the OpenSM baseline routing set, deadlock
and balance metrics, and flow-/flit-level simulators.

The stable import surface is :mod:`repro.api` (see its docstring for
the stability policy); the most common entry points are also promoted
to this top-level namespace.

Quickstart::

    from repro import topologies, make_algorithm, validate_routing

    net = topologies.torus([4, 4, 3], terminals_per_switch=4)
    algo = make_algorithm("nue", max_vls=2, workers=4)
    result = algo.route(net)          # bit-identical to workers=1
    validate_routing(result)          # cycle-free, connected, DL-free
    print(result.path_nodes(net.terminals[0], net.terminals[-1]))

See DESIGN.md for the paper-to-module map and EXPERIMENTS.md for the
reproduced tables/figures.
"""

from repro import engine, obs
from repro.core import NueRouting, NueConfig
from repro.metrics import (
    validate_routing,
    is_deadlock_free,
    required_vcs,
    gamma_summary,
    path_length_stats,
)
from repro.network import Network, NetworkBuilder
from repro.network import topologies
from repro.routing import (
    RoutingAlgorithm,
    RoutingResult,
    RoutingError,
    NotApplicableError,
    MinHopRouting,
    UpDownRouting,
    DownUpRouting,
    DORRouting,
    Torus2QoSRouting,
    FatTreeRouting,
    LASHRouting,
    DFSSSPRouting,
    available_algorithms,
    make_algorithm,
)
from repro import api

__version__ = "1.0.0"

__all__ = [
    "api",
    "engine",
    "obs",
    "make_algorithm",
    "available_algorithms",
    "NueRouting",
    "NueConfig",
    "Network",
    "NetworkBuilder",
    "topologies",
    "RoutingAlgorithm",
    "RoutingResult",
    "RoutingError",
    "NotApplicableError",
    "MinHopRouting",
    "UpDownRouting",
    "DownUpRouting",
    "DORRouting",
    "Torus2QoSRouting",
    "FatTreeRouting",
    "LASHRouting",
    "DFSSSPRouting",
    "validate_routing",
    "is_deadlock_free",
    "required_vcs",
    "gamma_summary",
    "path_length_stats",
    "__version__",
]

"""Routing algorithms: Nue's baselines — the OpenSM 3.3.x engine set.

============  =====================================================
``minhop``    balanced minimal paths, no deadlock avoidance
``updn``      Up*/Down* (BFS-tree turn restriction), 1 VL
``dnup``      Down*/Up* (inverted rule), 1 VL
``dor``       dimension-order routing on tori/meshes, no DL avoidance
``torus-2qos``fault-tolerant dateline DOR, 2 VLs, tori only
``ftree``     d-mod-k fat-tree routing, k-ary n-trees only
``lash``      minimal paths + greedy layer assignment
``dfsssp``    balanced SSSP + cycle-breaking layer assignment
``nue``       this paper — see :mod:`repro.core`
============  =====================================================
"""

from repro.routing.base import (
    RoutingAlgorithm,
    RoutingResult,
    RoutingError,
    NotApplicableError,
)
from repro.routing.minhop import MinHopRouting
from repro.routing.updn import UpDownRouting, DownUpRouting, pick_tree_root
from repro.routing.dor import DORRouting
from repro.routing.torus2qos import Torus2QoSRouting, TorusQoSResult
from repro.routing.ftree import FatTreeRouting
from repro.routing.lash import LASHRouting
from repro.routing.dfsssp import DFSSSPRouting

from repro.routing.registry import (
    available_algorithms,
    algorithm_descriptions,
    build_config,
    make_algorithm,
    register,
)

__all__ = [
    "RoutingAlgorithm",
    "RoutingResult",
    "RoutingError",
    "NotApplicableError",
    "MinHopRouting",
    "UpDownRouting",
    "DownUpRouting",
    "pick_tree_root",
    "DORRouting",
    "Torus2QoSRouting",
    "TorusQoSResult",
    "FatTreeRouting",
    "LASHRouting",
    "DFSSSPRouting",
    "make_algorithm",
    "build_config",
    "register",
    "available_algorithms",
    "algorithm_descriptions",
]

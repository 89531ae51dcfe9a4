"""Public API surface: the names README documents must exist and work.

The ``API_SURFACE`` / ``TOP_LEVEL_SURFACE`` snapshots pin the stable
surface of :mod:`repro.api` (name -> kind or signature).  An
intentional API change must update the snapshot in the same commit —
the diff then documents the change; an accidental one fails here.
Regenerate a block with::

    python -c "import tests.test_public_api as t; print(t.render_surface('repro.api'))"
"""

import importlib
import inspect

import pytest

import repro
from repro import api


def describe(obj) -> str:
    """Stable one-line description: kind for classes/modules, the full
    signature for callables (defaults included — changing one is an API
    change)."""
    if inspect.ismodule(obj):
        return "module"
    if inspect.isclass(obj):
        return "class"
    if callable(obj):
        try:
            return str(inspect.signature(obj))
        except (TypeError, ValueError):  # pragma: no cover - builtins
            return "callable"
    return type(obj).__name__


def render_surface(module_name: str) -> str:
    """The snapshot literal for ``module_name`` (regeneration helper)."""
    mod = importlib.import_module(module_name)
    lines = ["{"]
    for name in sorted(mod.__all__):
        lines.append(f"    {name!r}: {describe(getattr(mod, name))!r},")
    lines.append("}")
    return "\n".join(lines)


API_SURFACE = {
    'AnalyzeRequest': 'class',
    'AnalyzeResponse': 'class',
    'CampaignRequest': 'class',
    'CampaignResponse': 'class',
    'CampaignResult': 'class',
    'CompatibilityReport': 'class',
    'DegradationReport': 'class',
    'FaultEvent': 'class',
    'FaultInjectionError': 'class',
    'FaultResult': 'class',
    'FaultSchedule': 'class',
    'IncrementalNotApplicable': 'class',
    'MigrationPlan': 'class',
    'Network': 'class',
    'NetworkBuilder': 'class',
    'NotApplicableError': 'class',
    'NueConfig': 'class',
    'NueRouting': 'class',
    'RerouteRequest': 'class',
    'RerouteResponse': 'class',
    'RouteRequest': 'class',
    'RouteResponse': 'class',
    'RoutingAlgorithm': 'class',
    'RoutingError': 'class',
    'RoutingResult': 'class',
    'ServiceClient': 'class',
    'ServiceError': 'class',
    'ServiceOverloaded': 'class',
    'TransitionIncompatible': 'class',
    'TransitionNotApplicable': 'class',
    'TransitionOutcome': 'class',
    'TransitionRequest': 'class',
    'TransitionResponse': 'class',
    'TransitionStep': 'class',
    'ValidationError': 'class',
    'afr_schedule': "(net: 'Network', duration_hours: 'float', link_afr: 'float' = 0.01, "
        "switch_afr: 'float' = 0.0, seed: 'SeedLike' = None, switch_to_switch_only: 'bool' = "
        "True, max_events: 'Optional[int]' = None) -> 'FaultSchedule'",
    'algorithm_descriptions': "() -> 'Dict[str, str]'",
    'algorithm_transition': "(net: 'Network', *, from_algorithm: 'str', to_algorithm: 'str', "
        "from_max_vls: 'int' = 1, to_max_vls: 'int' = 1, from_config: 'Optional[Dict[str, Any]]' "
        "= None, to_config: 'Optional[Dict[str, Any]]' = None, from_seed: 'SeedLike' = None, "
        "to_seed: 'SeedLike' = None, workers: 'Optional[int]' = None, strategy: 'str' = 'auto') "
        "-> 'TransitionOutcome'",
    'analyze': "(request: 'Union[AnalyzeRequest, RouteRequest]', /) -> 'AnalyzeResponse'",
    'apply_plan': "(old: 'RoutingResult', new: 'RoutingResult', plan: 'MigrationPlan', upto: "
        "'Optional[int]' = None) -> 'RoutingResult'",
    'as_network': '(obj) -> "\'Network\'"',
    'attach_terminals': "(builder: 'NetworkBuilder', switches: 'Iterable[int]', per_switch: "
        "'int', prefix: 'str' = 't') -> 'List[int]'",
    'available_algorithms': "() -> 'List[str]'",
    'build_config': "(name: 'str', **config: 'object') -> 'Optional[object]'",
    'campaign': "(request: 'CampaignRequest', /) -> 'CampaignResponse'",
    'check_compatibility': "(old: 'RoutingResult', new: 'RoutingResult') -> 'CompatibilityReport'",
    'dirty_destinations': "(result: 'RoutingResult', failed_channels: 'Sequence[int]') -> "
        "'List[int]'",
    'exact_reroute': "(fault: 'FaultResult', algo: 'RoutingAlgorithm', seed: 'SeedLike' = None, "
        "dests: 'Optional[Sequence[int]]' = None) -> 'RoutingResult'",
    'gamma_summary': "(result: 'RoutingResult', sources: 'Optional[Sequence[int]]' = None, "
        "workers: 'Optional[int]' = None) -> 'GammaSummary'",
    'grow_transition': "(old: 'RoutingResult', grown: 'Network', *, algorithm: 'str' = 'nue', "
        "max_vls: 'int' = 1, config: 'Optional[Dict[str, Any]]' = None, seed: 'SeedLike' = None, "
        "workers: 'Optional[int]' = None, strategy: 'str' = 'auto') -> 'TransitionOutcome'",
    'incremental_reroute': "(net: 'Network', prior: 'RoutingResult', failed_channels: "
        "'Sequence[int]', config: 'Optional[NueConfig]' = None, max_vls: 'int' = 1, seed: "
        "'SeedLike' = None, workers: 'Optional[int]' = None) -> 'Tuple[RoutingResult, Dict[str, "
        "object]]'",
    'inject_random_link_faults': "(net: 'Network', fraction: 'float', seed: 'SeedLike' = None, "
        "switch_to_switch_only: 'bool' = True, max_attempts: 'int' = 100) -> 'FaultResult'",
    'inject_random_switch_faults': "(net: 'Network', count: 'int', seed: 'SeedLike' = None, "
        "max_attempts: 'int' = 100) -> 'FaultResult'",
    'is_deadlock_free': "(result: 'RoutingResult', sources: 'Optional[Sequence[int]]' = None) -> "
        "'bool'",
    'make_algorithm': "(name: 'str', max_vls: 'int' = 8, workers: 'Optional[int]' = None, "
        "**config: 'object') -> 'RoutingAlgorithm'",
    'path_length_stats': "(result: 'RoutingResult', sources: 'Optional[Sequence[int]]' = None, "
        "workers: 'Optional[int]' = None) -> 'PathLengthStats'",
    'plan_transition': "(old: 'RoutingResult', new: 'RoutingResult', *, strategy: 'str' = 'auto') "
        "-> 'MigrationPlan'",
    'remove_links': "(net: 'Network', link_indices: 'Iterable[int]') -> 'FaultResult'",
    'remove_switches': "(net: 'Network', switches: 'Iterable[int]') -> 'FaultResult'",
    'repair_transition': "(old: 'RoutingResult', healed: 'Optional[Network]' = None, *, "
        "algorithm: 'str' = 'nue', max_vls: 'int' = 1, config: 'Optional[Dict[str, Any]]' = None, "
        "seed: 'SeedLike' = None, workers: 'Optional[int]' = None, strategy: 'str' = 'auto') -> "
        "'TransitionOutcome'",
    'required_vcs': "(result: 'RoutingResult') -> 'int'",
    'reroute': "(request: 'RerouteRequest', /) -> 'RerouteResponse'",
    'route': "(request: 'RouteRequest', /) -> 'RouteResponse'",
    'run_campaign': "(net: 'Network', schedule: 'FaultSchedule', max_vls: 'int' = 1, config: "
        "'Optional[NueConfig]' = None, seed: 'SeedLike' = None, strategy: 'str' = 'incremental', "
        "timeout_s: 'Optional[float]' = None, workers: 'Optional[int]' = None, validate: 'bool' = "
        "True) -> 'CampaignResult'",
    'shutdown_fabric': "(wait: 'bool' = True) -> 'None'",
    'topologies': 'module',
    'transition': "(request: 'TransitionRequest', /) -> 'TransitionResponse'",
    'validate_routing': "(result: 'RoutingResult', sources: 'Optional[Sequence[int]]' = None, "
        "check_deadlock: 'bool' = True) -> 'None'",
    'verify_plan': "(old: 'RoutingResult', new: 'RoutingResult', plan: 'MigrationPlan') -> 'int'",
}

TOP_LEVEL_SURFACE = {
    "DFSSSPRouting": "class",
    "DORRouting": "class",
    "DownUpRouting": "class",
    "FatTreeRouting": "class",
    "LASHRouting": "class",
    "MinHopRouting": "class",
    "Network": "class",
    "NetworkBuilder": "class",
    "NotApplicableError": "class",
    "NueConfig": "class",
    "NueRouting": "class",
    "RoutingAlgorithm": "class",
    "RoutingError": "class",
    "RoutingResult": "class",
    "Torus2QoSRouting": "class",
    "UpDownRouting": "class",
    "__version__": "str",
    "api": "module",
    "available_algorithms": "() -> 'List[str]'",
    "engine": "module",
    "gamma_summary": "(result: 'RoutingResult', "
                     "sources: 'Optional[Sequence[int]]' = None, "
                     "workers: 'Optional[int]' = None) "
                     "-> 'GammaSummary'",
    "is_deadlock_free": "(result: 'RoutingResult', "
                        "sources: 'Optional[Sequence[int]]' = None) "
                        "-> 'bool'",
    "make_algorithm": "(name: 'str', max_vls: 'int' = 8, "
                      "workers: 'Optional[int]' = None, "
                      "**config: 'object') "
                      "-> 'RoutingAlgorithm'",
    "obs": "module",
    "path_length_stats": "(result: 'RoutingResult', "
                         "sources: 'Optional[Sequence[int]]' = None, "
                         "workers: 'Optional[int]' = None) "
                         "-> 'PathLengthStats'",
    "required_vcs": "(result: 'RoutingResult') -> 'int'",
    "topologies": "module",
    "validate_routing": "(result: 'RoutingResult', "
                        "sources: 'Optional[Sequence[int]]' = None, "
                        "check_deadlock: 'bool' = True) -> 'None'",
}


@pytest.mark.parametrize("mod,expected", [
    (api, API_SURFACE),
    (repro, TOP_LEVEL_SURFACE),
], ids=["repro.api", "repro"])
def test_api_surface_snapshot(mod, expected):
    actual = {name: describe(getattr(mod, name)) for name in mod.__all__}
    assert actual == expected, (
        "public surface drifted; if intentional, regenerate the "
        "snapshot (see module docstring)"
    )


def test_api_docstring_doctests():
    """The facade's usage examples must keep working verbatim."""
    import doctest

    results = doctest.testmod(api, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0


def test_version():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_readme_quickstart_snippet():
    """The exact flow from README.md's Quickstart section."""
    from repro import NueRouting, topologies, validate_routing
    from repro.metrics import gamma_summary, required_vcs

    net = topologies.torus([3, 3], terminals_per_switch=2)
    result = NueRouting(max_vls=2).route(net, seed=7)
    validate_routing(result)
    assert required_vcs(result) <= 2
    assert gamma_summary(result).maximum > 0
    path = result.path_nodes(net.terminals[0], net.terminals[-1])
    assert path[0] == net.terminals[0]


def test_error_types_related():
    assert issubclass(repro.NotApplicableError, repro.RoutingError)
    assert issubclass(repro.RoutingError, RuntimeError)

"""Import-graph contracts, read off the AST (ROADMAP 3a / 9c).

(i) The proof path — the one acyclicity check, the table walk, the
layering heuristic, the deadlock analysis and the validator — imports
nothing the routing algorithms or the systems around them own, so a
verdict made with it is independent of what it judges.

(ii) Everything shipped under ``src/repro`` is reachable from a public
root, or is named below with the reason it ships anyway.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Set

import repro

SRC = Path(repro.__file__).resolve().parent


def _modules() -> Dict[str, Path]:
    """``dotted.name -> file`` for every module under ``src/repro``."""
    found = {}
    for path in SRC.rglob("*.py"):
        parts = ("repro",) + path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


MODULES = _modules()


def _direct_imports(name: str) -> Set[str]:
    """Dotted names ``name`` imports, anywhere in its body.

    ``from a.b import c`` yields ``a.b`` and ``a.b.c`` (``c`` may be a
    submodule); relative imports are resolved against ``name``.
    """
    path = MODULES[name]
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    names: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _imported_modules(name: str) -> Set[str]:
    """Modules of this package that importing ``name`` executes: the
    direct imports that are modules, and every parent package."""
    hit: Set[str] = set()
    for dotted in _direct_imports(name) | {name}:
        parts = dotted.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in MODULES:
                hit.add(prefix)
    hit.discard(name)
    return hit


PROOF_PATH = (
    "repro.utils.dag",
    "repro.routing.walk",
    "repro.routing.layering",
    "repro.metrics.deadlock",
    "repro.metrics.validate",
)
NOT_FOR_THE_PROOF_PATH = (
    "repro.cdg", "repro.core", "repro.reconfig", "repro.resilience",
    "repro.service", "repro.legacy",
)


def test_proof_path_imports_nothing_it_judges():
    for name in PROOF_PATH:
        for dotted in _direct_imports(name):
            assert not any(
                dotted == banned or dotted.startswith(banned + ".")
                for banned in NOT_FOR_THE_PROOF_PATH
            ), f"{name} imports {dotted}"


def test_the_one_check_is_a_numpy_leaf():
    assert _direct_imports("repro.utils.dag") == {
        "__future__", "__future__.annotations", "numpy"}


PUBLIC_ROOTS = (
    "repro.api", "repro.cli", "repro.experiments.runner", "repro.obs",
    "repro.fabric", "repro.service",
)
#: shipped although no public root imports it — prefix -> reason
UNREACHED_ON_PURPOSE = {
    "repro.ib": "documented subsystem, driven by examples/",
    "repro.viz": "documented subsystem, driven by examples/",
    "repro.legacy": "frozen Algorithm-1 oracle of the test suite",
    "repro.core.kernels": "inert names the frozen bench probes import",
    "repro.service.inproc": "transport resolved by address scheme",
    "repro.service.tcp": "transport resolved by address scheme",
}


def test_every_module_is_reachable_from_a_public_root():
    seen: Set[str] = set()
    stack = list(PUBLIC_ROOTS)
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(_imported_modules(name))
    unreached = {
        name for name in set(MODULES) - seen
        if not any(name == prefix or name.startswith(prefix + ".")
                   for prefix in UNREACHED_ON_PURPOSE)
    }
    assert not unreached, sorted(unreached)
    # an allowlist entry that became reachable (or vanished) is stale
    for prefix in UNREACHED_ON_PURPOSE:
        assert prefix in MODULES and prefix not in seen, prefix

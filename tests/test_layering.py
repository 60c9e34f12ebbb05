"""The import graph between the package's modules, and the package's
exports, pinned.

Each module's `from seqselect... import` lines are read with ast, without
importing anything.  A rule shared by two layers belongs in a module both
already import (core), not in a new edge between them: analytics must not
import policies to reach the policy's learning phase, for example.  A name
joins or leaves the package's exports only by an edit to EXPORTS.
"""

import ast
from pathlib import Path

import pytest

import seqselect

PACKAGE = Path(seqselect.__file__).parent
MODULES = ("core", "analytics", "policies", "multiround", "montecarlo", "cli")

EXPECTED = {
    "core": set(),
    "analytics": {"core"},
    "policies": {"core", "analytics"},
    "multiround": {"core", "policies"},
    "montecarlo": {"core", "analytics", "policies"},
    "cli": {"seqselect", *MODULES[:-1]},
}

EXPORTS = {
    "core": {"sample_rounds"},
    "policies": {"PolicySpec", "ZoneConfig", "run_policy_batch"},
    "analytics": {
        "AnalyticParams", "AnalyticCurve", "expected_max_hires", "expected_offline", "gamma0",
        "mu_hat_curve", "optimal_cutoff", "resolve_cutoff", "threshold_curve",
        "translate_cutoff",
    },
}


def seqselect_imports(module: str) -> set:
    """The seqselect modules (the package itself as "seqselect") that module
    imports, whether with `from ... import` or `import`."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return {name.removeprefix("seqselect.") for name in names
            if name == "seqselect" or name.startswith("seqselect.")}


def test_every_module_is_pinned():
    assert {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"} == set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_import_graph(module):
    assert seqselect_imports(module) == EXPECTED[module]


def test_package_exports_are_pinned():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exports = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            exports.setdefault(node.module.removeprefix("seqselect."), set()).update(
                alias.asname or alias.name for alias in node.names)
    assert exports == EXPORTS
    assert all(hasattr(seqselect, name) for names in EXPORTS.values() for name in names)

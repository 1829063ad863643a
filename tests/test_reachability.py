"""Every module of ``repro`` is reached from an entry point.

Code stays only if a CLI command, a serve endpoint, a report section or
a paper claim reaches it.  This module checks that statically: it
parses every ``src/repro/**/*.py`` with :mod:`ast` and follows imports
from the entry points:

* ``repro.cli`` and ``repro.__main__`` (every command, ``repro serve``
  included);
* every ``.py`` under ``benchmarks/`` (the paper claims) and
  ``perfbench/`` (the layered benchmark).

Every ``import`` and ``from ... import`` is an edge, including those
inside functions.  A name imported from a package resolves, through
the package's ``__init__``, to the module that defines it.  The
``__init__``'s own module-level imports are re-exports and reach
nothing; otherwise every re-exported module would count as reached.
No module imports dynamically, so the import graph is the whole story.

The same parse finds every ``from repro.X import name``, and importing
``repro.X`` checks that it exposes ``name``.  A fresh interpreter
checks that the entry points load no scipy module beyond what
``scipy.special`` loads.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ENTRY_MODULES = ("repro.cli", "repro.__main__")
ENTRY_DIRS = ("benchmarks", "perfbench")

# Modules no entry point reaches that stay anyway, each with its reason.
ALLOWLIST = {
    "repro.synth.validate": (
        "calibration check of the synthetic trace; ROADMAP item 1 turns "
        "it into the Table 2 check or deletes it"
    ),
}


def _module_files() -> Dict[str, Path]:
    """Dotted name -> file for every module and package under src/repro."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _module_files()
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}
TREES = {name: ast.parse(path.read_text(), str(path)) for name, path in MODULES.items()}


def _bound(alias: ast.alias) -> str:
    """The name an import alias binds (``import a.b`` binds ``a``)."""
    return alias.asname or alias.name.split(".")[0]


def _imports(
    tree: ast.Module, package: bool = False
) -> Iterator[Tuple[str, Optional[str]]]:
    """(module, name) for every absolute import; name is None for ``import``.

    In a package ``__init__`` a module-level import counts only when the
    package's own code uses the name it binds; the rest are re-exports.
    """
    top = set(map(id, tree.body)) if package else set()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs = [(alias, alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            pairs = [(alias, node.module, alias.name) for alias in node.names]
        else:
            continue
        for alias, module, name in pairs:
            if id(node) not in top or _bound(alias) in used:
                yield module, name


def _reexports(tree: ast.Module) -> Dict[str, Tuple[str, str]]:
    """Name -> (module, name) for a package ``__init__``'s re-exports."""
    table = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                table[_bound(alias)] = (node.module, alias.name)
    return table


REEXPORTS = {name: _reexports(TREES[name]) for name in PACKAGES}


def _resolve(module: str, name: Optional[str]) -> Optional[str]:
    """The repro module an import loads code from, or None."""
    if module not in MODULES:
        return None
    if name is None:
        return module
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if name in REEXPORTS.get(module, {}):
        return _resolve(*REEXPORTS[module][name])
    return module


def _edges(tree: ast.Module, package: bool = False) -> Set[str]:
    targets = (_resolve(module, name) for module, name in _imports(tree, package))
    return {target for target in targets if target is not None}


def reached_modules() -> Set[str]:
    """Every repro module an entry point reaches through imports."""
    pending = set(ENTRY_MODULES)
    for folder in ENTRY_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            pending |= _edges(ast.parse(path.read_text(), str(path)))
    reached: Set[str] = set()
    while pending:
        module = pending.pop()
        if module in reached:
            continue
        reached.add(module)
        # Importing a module runs every enclosing package's __init__.
        parent = module.rpartition(".")[0]
        if parent:
            pending.add(parent)
        pending |= _edges(TREES[module], package=module in PACKAGES)
    return reached


def test_every_module_is_reached_or_allowlisted():
    reached = reached_modules()
    dead = sorted(
        name
        for name in MODULES
        if name not in PACKAGES and name not in reached and name not in ALLOWLIST
    )
    lines = {name: len(MODULES[name].read_text().splitlines()) for name in dead}
    assert not dead, (
        f"{len(dead)} module(s), {sum(lines.values())} lines, are reached by no "
        f"entry point; delete them or allowlist them with a reason: {lines}"
    )


def test_allowlist_is_current():
    missing = sorted(set(ALLOWLIST) - set(MODULES))
    assert not missing, f"allowlisted modules that no longer exist: {missing}"
    stale = sorted(set(ALLOWLIST) & reached_modules())
    assert not stale, f"allowlisted modules an entry point now reaches: {stale}"
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_reachability_follows_imports_inside_functions():
    # Claim benches import some names inside their test functions; a
    # module-level-only walk would miss what they reach.
    tree = ast.parse(
        "def f():\n    from repro.analysis import burst_size_distribution\n"
    )
    assert _edges(tree) == {"repro.analysis.burstiness"}
    # A package's re-exports reach nothing; what its own code uses does.
    assert _edges(TREES["repro.analysis"], package=True) == set()
    assert _edges(TREES["repro.obs"], package=True) == {
        "repro.obs.metrics",
        "repro.obs.tracer",
    }


def test_no_module_imports_by_name():
    # The import graph is the whole story only while nothing imports a
    # module from a string.
    offenders = sorted(
        name
        for name, tree in TREES.items()
        if any(module.split(".")[0] == "importlib" for module, _ in _imports(tree))
        or any(
            isinstance(node, ast.Name) and node.id == "__import__"
            for node in ast.walk(tree)
        )
    )
    assert not offenders, f"modules that import dynamically: {offenders}"


def _exposes(module: str, name: str) -> bool:
    """Whether ``from module import name`` succeeds."""
    if f"{module}.{name}" in MODULES:
        return True
    try:
        return hasattr(importlib.import_module(module), name)
    except ImportError:
        return False


def test_imported_names_exist():
    # A deleted name that a claim bench imports inside its test function
    # would otherwise surface only when the claims run.
    missing = []
    for folder in ("src", "benchmarks", "perfbench", "examples"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for module, name in _imports(ast.parse(path.read_text(), str(path))):
                if name is None or module.split(".")[0] != "repro":
                    continue
                if not _exposes(module, name):
                    where = path.relative_to(ROOT)
                    missing.append(f"{where}: from {module} import {name}")
    assert not missing, "imports of names that do not exist:\n" + "\n".join(missing)


def test_entry_points_load_only_scipy_special():
    # repro uses scipy.special alone; scipy.optimize and its kin would add
    # hundreds of modules and ~20 MB to every process that imports repro.
    # What scipy.special itself loads differs between SciPy releases
    # (older ones import scipy.linalg with it), so the entry points are
    # measured against a process that has already imported it.
    script = (
        "import sys\n"
        "import scipy.special\n"
        "before = set(sys.modules)\n"
        "import repro.cli, repro.report, repro.serve.server\n"
        "print(' '.join(m for m in sys.modules\n"
        "    if m.split('.')[0] == 'scipy' and m not in before))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    loaded = out.stdout.split()
    assert not loaded, (
        f"{len(loaded)} scipy modules beyond scipy.special loaded: {loaded[:10]}"
    )

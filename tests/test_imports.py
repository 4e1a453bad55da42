"""Package structure: the modules of beamstab import each other without a
cycle, and importing the CLI loads no module only some runs use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "beamstab"


def _imported_modules(source: str, modules: set[str]) -> set[str]:
    """Package modules that ``source`` imports, at module level or inside a
    function.  ``from . import x`` names module x when x is one; any other
    import of the package root names ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name.split(".") for alias in node.names]
            found.update(p[1] if len(p) > 1 else "__init__"
                         for p in dotted if p[0] == "beamstab")
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[:1] != ["beamstab"]:
                    continue
                parts = parts[1:]
            if parts:
                found.add(parts[0])
            else:
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
    return found & modules


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle of ``graph`` as a module path, or None."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        path.append(module)
        for target in sorted(graph[module]):
            found = visit(target)
            if found:
                return found
        path.pop()
        done.add(module)
        return None

    for module in sorted(graph):
        found = visit(module)
        if found:
            return found
    return None


def _package_graph() -> dict[str, set[str]]:
    files = {p.stem: p for p in PACKAGE.glob("*.py")}
    return {name: _imported_modules(path.read_text(), set(files)) - {name}
            for name, path in files.items()}


def test_package_import_graph_is_acyclic():
    graph = _package_graph()
    assert {"fem", "stepper", "diagnostics", "bounds", "cli"} <= set(graph)
    assert {"problem", "fem", "stepper"} <= graph["cli"]
    assert _cycle(graph) is None, " -> ".join(_cycle(graph))

    # the collector sees function-local and absolute imports of the package
    local = "def f():\n    from .cli import main\n\nimport beamstab.stepper\n"
    assert _imported_modules(local, set(graph)) == {"cli", "stepper"}
    assert _cycle({**graph, "fem": graph["fem"] | {"cli"}}) is not None


def _after_importing_the_cli(expression: str) -> str:
    """What a fresh interpreter prints for ``expression`` once it has
    imported beamstab.cli."""
    code = f"import sys, beamstab.cli; print({expression})"
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def test_importing_the_cli_loads_no_csv_number_kernel():
    # the %.17g kernel of the CSV writers is compiled and loaded only by the
    # runs that write trace.csv or energy.csv, off setup_s and off `bounds`
    assert _after_importing_the_cli("'beamstab._g17' in sys.modules") == "False"


def test_importing_the_cli_loads_no_multiprocessing_module():
    # a run on one CPU never forks, so the pipe of the forked step loop (and
    # the sweep's worker pool) are imported where they are used, off setup_s
    assert _after_importing_the_cli(
        "sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing')") == "[]"

"""Every name the package imports is used in the module that imports it,
every function and class it defines is used somewhere in it, and the package
runs on numpy alone."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cinestat"
TRACER = SRC.parent.parent / "perfbench" / "tracer.py"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"unused imports in {path.name}: {unused}"


def _referenced(node) -> set[str]:
    """Every name, attribute and imported name under ``node``."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name)
    return names


def test_every_function_has_a_caller():
    # the benchmark's tracer patches module attributes by name, so a function
    # it wraps must stay even when no stage calls it any more
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {attr for _, attr, _, _ in tracer.TARGETS}

    statements = []  # (module file, top-level statement, names it references)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((path.name, node, _referenced(node)))
    orphans = [
        f"{module}:{node.name}"
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in traced
        and not any(node.name in names for _, other, names in statements if other is not node)
    ]
    assert not orphans, f"defined but never referenced: {orphans}"


def test_cli_imports_no_scipy():
    # scipy is only the tests' reference oracle; importing scipy.optimize
    # alone adds about half a second to every command's start-up
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, cinestat.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"

"""Every name the package imports is used in the module that imports it,
every function and class it defines is used somewhere in it, and the package
runs on numpy alone.  Nothing outside a config file and the command line sets
how it runs: every defaulted parameter is passed by some caller in the
program, every command-line option is read, and no environment variable is."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cinestat"
PERFBENCH = SRC.parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def _passed_arguments() -> dict[str, set]:
    """For each called name, the positions and keywords that some call in
    the program passes: ``src/cinestat`` and the benchmark, not the tests.
    Calls match functions by name alone.  A ``*args`` or ``**kwargs`` in a
    call counts as passing everything, marked ``"*"``."""
    passed = {}
    for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]:
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            args = passed.setdefault(name, set())
            if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
                args.add("*")
            args.update(range(len(call.args)))
            args.update(k.arg for k in call.keywords if k.arg)
    return passed


def test_every_defaulted_parameter_is_passed():
    # a default that no caller overrides is a setting that nothing sets
    passed = _passed_arguments()
    unpassed = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {
            fn for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
            and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = fn.args.posonlyargs + fn.args.args
            # a call on an object or class does not pass self or cls
            offset = 1 if fn in methods else 0
            defaulted = [(i - offset, p.arg) for i, p in enumerate(params) if i >= len(params) - len(fn.args.defaults)]
            defaulted += [(None, p.arg) for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            args = passed.get(fn.name, set())
            unpassed += [
                f"{path.name}:{fn.name}({name})"
                for position, name in defaulted
                if not args & {"*", position, name}
            ]
    assert not unpassed, f"defaulted parameters that no call in the program passes: {unpassed}"


def test_every_cli_option_is_read():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    options = set()
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "add_argument":
            dest = next((k.value.value for k in call.keywords if k.arg == "dest"), None)
            options.add(dest or call.args[0].value.lstrip("-").replace("-", "_"))
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args"
    }
    assert not sorted(options - read), f"options that nothing reads: {sorted(options - read)}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_reads_no_environment_variable(path):
    # a run is set by its config file and its command line alone
    names = {"environ", "environb", "getenv", "getenvb"}
    reads = sorted(
        node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.alias) and node.name in names)
    )
    assert not reads, f"{path.name} reads the environment on lines {reads}"


def test_cli_imports_no_scipy():
    # scipy is only the tests' reference oracle; importing scipy.optimize
    # alone adds about half a second to every command's start-up
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, cinestat.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"

"""Checks over the source tree and the pytest settings."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "tests", "scripts", "perfbench")


def _defaulted_params(fn: ast.FunctionDef, is_method: bool) -> dict:
    """Defaulted parameter name -> index among the positional arguments a
    call passes (``self``/``cls`` not counted), or None if keyword-only."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = {arg.arg: idx - is_method for idx, arg in enumerate(positional) if idx >= first}
    out.update((arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None)
    return out


def _definitions(tree: ast.Module, module: str):
    """(call name, qualified name, defaulted params) of every function
    with a default; a class's ``__init__`` is called by the class name."""
    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                params = _defaulted_params(child, cls is not None and not static)
                if params:
                    name = cls if child.name == "__init__" else child.name
                    yield name, f"{module}.{child.name}", params
                yield from walk(child, None)
            else:
                yield from walk(child, cls)
    yield from walk(tree, None)


def _calls(tree: ast.Module):
    """(callee name, positional count, keyword names) of every call by a
    plain or attribute name; a starred argument passes every position
    (count None) and ``**`` every keyword (names None)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        npos = (None if any(isinstance(a, ast.Starred) for a in node.args)
                else len(node.args))
        kws = {kw.arg for kw in node.keywords}
        yield name, npos, None if None in kws else kws


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_defaulted_parameter_is_passed_by_some_call():
    calls = [call for d in CALLER_DIRS for path in sorted((ROOT / d).rglob("*.py"))
             for call in _calls(_parse(path))]
    unused = []
    for path in sorted((ROOT / "src" / "sdpxlab").glob("*.py")):
        for name, qualname, params in _definitions(_parse(path), path.stem):
            for param, idx in params.items():
                if not any(callee == name
                           and (kws is None or param in kws
                                or npos is None or (idx is not None and idx < npos))
                           for callee, npos, kws in calls):
                    unused.append(f"{qualname}({param})")
    assert not unused, f"defaulted parameters no call passes: {unused}"


FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_property_test_fails_alone(tmp_path):
    # without its ignore entry in pyproject.toml, the warning filters turn a
    # failing @given test into an internal error that ends the session (exit 3)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout and "INTERNALERROR" not in proc.stdout


SCIPY_IMPORTS = """
import importlib, pkgutil, sys
import sdpxlab
for mod in pkgutil.iter_modules(sdpxlab.__path__):
    importlib.import_module("sdpxlab." + mod.name)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_importing_the_package_does_not_import_scipy():
    # the runtime needs numpy alone, and import time is part of set-up cost
    proc = subprocess.run([sys.executable, "-c", SCIPY_IMPORTS], cwd=ROOT / "src",
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

"""The runtime needs only the standard library, no function recurses by name,
and every module builds products and duals through the sweep memo."""

import ast
import importlib
import pathlib
import sys

import ohno

MODULES = sorted(pathlib.Path(ohno.__file__).parent.glob("*.py"))


def test_package_imports_only_the_standard_library():
    """Every import statement in ``ohno``, at any depth of any module, names a
    standard-library module or ``ohno`` itself.  Installed third-party
    packages would import fine here, so this reads the source, not the
    import system."""
    allowed = set(sys.stdlib_module_names) | {"ohno"}
    assert len(MODULES) >= 7
    stray = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert stray == []


def test_no_function_calls_itself():
    """No function in ``ohno`` calls itself by its plain name: every
    enumeration is one iterative pass, so no input reaches the interpreter's
    recursion limit through one.  The ``expr`` parser recurses through
    methods, bounded by ``MAX_NESTING``, and is not matched."""
    selfcalls = []
    for path in MODULES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == fn.name:
                    selfcalls.append(f"{path.stem}.{fn.name}:{node.lineno}")
    assert selfcalls == []


def test_every_module_binds_the_memoised_builders():
    """Every ``ohno`` module that binds ``sha``, ``hast`` or ``dual_linear``,
    under that name or another, binds the memoised function of
    ``ohno.indices``, so no caller builds past the sweep memo of ``verify``."""
    from ohno import indices

    builders = {name: getattr(indices, name) for name in ("sha", "hast", "dual_linear")}
    assert all(hasattr(fn, "__wrapped__") for fn in builders.values())
    stray, bound = [], set()
    for path in MODULES:
        module = ohno if path.stem == "__init__" else importlib.import_module(f"ohno.{path.stem}")
        for attr, value in vars(module).items():
            name = getattr(value, "__name__", None) if callable(value) else None
            if attr in builders or name in builders:
                bound.add(path.stem)
                if value is not builders.get(name):
                    stray.append(f"{path.stem}.{attr}")
    assert stray == []
    assert {"__init__", "expr", "indices", "sums", "verify"} <= bound

"""The runtime needs only the standard library, and no function recurses by name."""

import ast
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

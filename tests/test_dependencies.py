"""The runtime needs only the standard library."""

import ast
import pathlib
import sys

import ohno


def test_package_imports_only_the_standard_library():
    """Every import statement in ``ohno``, at any depth of any module, names a
    standard-library module or ``ohno`` itself.  Installed third-party
    packages would import fine here, so this reads the source, not the
    import system."""
    allowed = set(sys.stdlib_module_names) | {"ohno"}
    modules = sorted(pathlib.Path(ohno.__file__).parent.glob("*.py"))
    assert len(modules) >= 7
    stray = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert stray == []

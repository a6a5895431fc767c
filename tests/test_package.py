"""The package's public surface."""

import ast
from pathlib import Path

import bigwht


def test_every_export_resolves():
    # A stale name here breaks "from bigwht import *" for every user.
    assert [name for name in bigwht.__all__ if not hasattr(bigwht, name)] == []


def _imported_names(tree):
    """Each name an import statement binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    """Names the module reads, plus the strings listed in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


def test_no_unused_imports():
    # No linter runs in CI, so this check stands in for its unused-import
    # rule: a deletion must not leave a module importing what it no
    # longer uses.
    unused = []
    for path in sorted(Path(bigwht.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported_names(tree) if name not in used]
    assert unused == []

"""The package's public surface."""

import ast
from collections import Counter
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


def _referenced_names(node):
    """Every name and attribute name read or written under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_no_unreferenced_private_helpers():
    # A deletion must not leave behind a private helper that only its old
    # callers used: each private module-level function or class is
    # referenced somewhere in the package outside its own definition.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(bigwht.__file__).parent.glob("*.py"))}
    counts = Counter(name for tree in trees.values()
                     for name in _referenced_names(tree))
    unreferenced = []
    for filename, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and node.name.startswith("_")):
                own = sum(name == node.name for name in _referenced_names(node))
                if counts[node.name] == own:
                    unreferenced.append(f"{filename} {node.name}")
    assert unreferenced == []


def test_only_dataset_touches_fault_hook():
    # DatasetFile.fault_hook exists for fault-injection tests; the engine
    # must not read or set it, or a test hook could change its behaviour.
    touching = []
    for path in sorted(Path(bigwht.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name != "dataset.py" and "fault_hook" in _referenced_names(tree):
            touching.append(path.name)
    assert touching == []


def test_only_core_and_parallel_check_the_bound():
    # run_plan owns a planned transform's int64 bound and core's serial API
    # owns its own; a third module calling check_magnitude_bound would be a
    # second owner for a planned transform, through a binding that
    # bench/tracing.py does not wrap.
    touching = []
    for path in sorted(Path(bigwht.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if "check_magnitude_bound" in _referenced_names(tree):
            touching.append(path.name)
    assert touching == ["core.py", "parallel.py"]


def test_only_core_sizes_kernel_scratch():
    # The kernel allocates its own scratch, rows_transform its
    # temporaries included; a module that read TILE_ELEMS would be sizing
    # kernel scratch beside it.
    touching = []
    for path in sorted(Path(bigwht.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if "TILE_ELEMS" in _referenced_names(tree):
            touching.append(path.name)
    assert touching == ["core.py"]


def test_only_rows_transform_runs_quad():
    # Stages above a tile have one loop, core.rows_transform, and _quad is
    # its radix-4 step; a second function reaching _quad would be a second
    # stage loop grown back beside it.
    reaching = []
    for path in sorted(Path(bigwht.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reaching += [f"{path.name} {getattr(node, 'name', '<module>')}"
                     for node in tree.body
                     if getattr(node, "name", None) != "_quad"
                     and "_quad" in _referenced_names(node)]
    assert reaching == ["core.py rows_transform"]


def test_only_dataset_and_engine_touch_pass_progress():
    # An interrupted transform's marker is written by the engine and
    # judged by DatasetFile.domain alone; a module that read it could grow
    # a refusal path of its own again.
    marker_names = {"progress_marker", "set_progress_marker", "pass_progress"}
    touching = []
    for path in sorted(Path(bigwht.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set(_referenced_names(tree)) | {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        if names & marker_names and path.name not in ("dataset.py",
                                                      "external.py"):
            touching.append(path.name)
    assert touching == []


def test_one_function_reads_the_json_flag():
    # Every command reports through one function, so JSON output has one
    # shape and one encoding; a command that branched on --json itself
    # could drift from it.
    def reads_json(node):
        """``x["json"]`` or ``x.get("json")``."""
        if isinstance(node, ast.Subscript):
            key = node.slice
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and node.args):
            key = node.args[0]
        else:
            return False
        return isinstance(key, ast.Constant) and key.value == "json"

    tree = ast.parse((Path(bigwht.__file__).parent / "cli.py").read_text(
        encoding="utf-8"))
    readers = [func.name for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef)
               and any(reads_json(node) for node in ast.walk(func))]
    assert readers == ["_report"]


def test_one_function_collects_hits():
    # noisy._collect_hits is the one loop that runs _extract and sorts the
    # hits; a second function reaching _extract would be a second hit list
    # grown back beside it.
    reaching = []
    for path in sorted(Path(bigwht.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reaching += [f"{path.name} {getattr(node, 'name', '<module>')}"
                     for node in tree.body
                     if getattr(node, "name", None) != "_extract"
                     and "_extract" in _referenced_names(node)]
    assert reaching == ["noisy.py _collect_hits"]

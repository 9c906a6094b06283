"""Source hygiene of the package, read with ``ast`` alone: every import is
used, every module-level private name is referenced somewhere in the
package, so code that a change leaves behind shows up here, every public
export is bound, every module imports only the layers below it, and every
string compared with a solve's ``.status`` in the package and its tests is
a status that a solve can report."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "multiplicity"
# Lowest layer first: a module may import only modules before it.
LAYERS = (
    "core", "datasets", "simplex", "branch_bound", "formulations",
    "labelings", "profiles", "pool", "reports", "cli",
)


def _modules():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SRC.glob("*.py"))
    }


def _exports(tree):
    """The entries of the module's ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def _read_names(tree):
    """The names a module reads: loaded names and the entries of ``__all__``."""
    names = _exports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _defined_names(tree):
    """Names bound by the module's top-level statements."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id


def _imported_modules(tree):
    """The package modules a module imports.  ``from . import name`` counts
    only when ``name`` is a module, not a package-level name such as
    ``__version__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (a.name for a in node.names if a.name in LAYERS)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").startswith("multiplicity."):
                yield node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("multiplicity."):
                    yield alias.name.split(".")[1]


def test_modules_are_found():
    assert {"__init__.py", "cli.py", "profiles.py"} <= set(_modules())


def test_every_import_is_used():
    unused = []
    for name, tree in _modules().items():
        read = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_export_is_bound():
    # a name left in ``__all__`` after its definition is gone counts as read
    # above, yet breaks ``from multiplicity import *``
    tree = _modules()["__init__.py"]
    bound = set(_defined_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    assert _exports(tree) and sorted(_exports(tree) - bound) == []


def test_every_private_module_name_is_referenced():
    modules = _modules()
    referenced = set()
    for tree in modules.values():
        referenced |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = [
        f"{name}: {defined}"
        for name, tree in modules.items()
        for defined in _defined_names(tree)
        if defined.startswith("_")
        and not defined.startswith("__")
        and defined not in referenced
    ]
    assert unreferenced == []


def test_modules_import_only_lower_layers():
    modules = _modules()
    assert set(modules) == {f"{layer}.py" for layer in LAYERS} | {"__init__.py"}
    upward = [
        f"{name}: {imported}"
        for name, tree in modules.items()
        if name != "__init__.py"
        for imported in _imported_modules(tree)
        if LAYERS.index(imported) >= LAYERS.index(name[:-3])
    ]
    assert upward == []


def test_reports_is_the_one_json_writer():
    # every report goes through ``reports.write_json``, which must stay
    # byte-identical to json.dumps; a second encoder would drift from it
    writers = []
    for name, tree in _modules().items():
        if name == "reports.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                writers += [f"{name}: from json import {a.name}" for a in node.names
                            if a.name in ("dump", "dumps")]
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in ("dump", "dumps")
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            ):
                writers.append(f"{name}: json.{node.attr}")
    assert writers == []


def _solve_statuses():
    """The statuses a solve can report: the string literals that
    ``simplex`` returns or gives an ``LpSolution`` as its status, and the
    values of ``branch_bound``'s ``STATUS_*`` constants."""
    modules = _modules()
    statuses = set()
    for node in ast.walk(modules["simplex.py"]):
        if isinstance(node, ast.Return):
            value = node.value
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "LpSolution":
            value = node.args[0] if node.args else None
        else:
            continue
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            statuses.add(value.value)
    for node in modules["branch_bound.py"].body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if isinstance(target, ast.Name) and target.id.startswith("STATUS_"):
            statuses.add(node.value.value)
    return statuses


def test_status_compares_name_a_status():
    # a literal compared with ``.status`` that no solve returns makes the
    # compare dead, as a check for a retired status would be
    statuses = _solve_statuses()
    assert {"optimal", "infeasible", "stalled", "certified_optimal"} <= statuses
    stale = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if not any(isinstance(o, ast.Attribute) and o.attr == "status" for o in operands):
                continue
            for operand in operands:
                many = isinstance(operand, (ast.Tuple, ast.List, ast.Set))
                leaves = operand.elts if many else [operand]
                stale += [
                    f"{path.name}:{node.lineno}: {leaf.value!r}"
                    for leaf in leaves
                    if isinstance(leaf, ast.Constant)
                    and isinstance(leaf.value, str)
                    and leaf.value not in statuses
                ]
    assert stale == []

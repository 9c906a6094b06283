"""Source hygiene of the package, read with ``ast`` alone: every import is
used, every module-level private name is referenced somewhere in the
package and every module-level UPPER_CASE constant is read by one of its
modules, so code that a change leaves behind shows up here, every public
export is bound, every module imports only the layers below it, and every
string compared with a solve's ``.status`` in the package and its tests is
a status that a solve can report.  The one rule for a point meeting a
row, ``simplex.ROW_TOL``, is defined in ``simplex`` alone and read
outside it only by ``branch_bound`` and ``formulations.margin_floor``, only
``branch_bound`` builds a ``SolveResult``, ``labelings`` builds no LP of
its own, a simplex tableau keeps the program it was built over, only
``simplex`` reads a program's dense ``row_coefs``, and ``simplex`` has one
LP entry point."""

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


def _unreferenced(keep):
    """``module: name`` for each top-level name for which ``keep(name)``
    holds and that no package module reads, reaches as an attribute or
    imports."""
    modules = _modules()
    referenced = set()
    for tree in modules.values():
        referenced |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [
        f"{name}: {defined}"
        for name, tree in modules.items()
        for defined in _defined_names(tree)
        if keep(defined) and defined not in referenced
    ]


def test_every_private_module_name_is_referenced():
    assert _unreferenced(lambda n: n.startswith("_") and not n.startswith("__")) == []


def test_every_module_constant_is_read():
    # a tolerance or limit that outlives the code that read it still looks
    # like a setting of the solver; tests reading it do not count
    assert _unreferenced(lambda n: n.isupper()) == []


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


def test_one_module_owns_the_row_tolerance():
    # ``simplex.ROW_TOL`` decides when a point meets a row, for every LP,
    # incumbent and warm start; every other module reads that decision
    # through ``branch_bound`` or as ``formulations.margin_floor``
    definers, readers = [], []
    for name, tree in _modules().items():
        definers += [f"{name}:{t}" for t in _defined_names(tree) if t == "ROW_TOL"]
        if name == "simplex.py":
            continue
        for scope in tree.body:
            owner = getattr(scope, "name", None)
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.Name) and node.id == "ROW_TOL"
                    or isinstance(node, ast.Attribute) and node.attr == "ROW_TOL"
                ):
                    readers.append(name if name == "branch_bound.py" else f"{name}:{owner}")
    assert definers == ["simplex.py:ROW_TOL"]
    assert "formulations.py:margin_floor" in readers
    assert set(readers) <= {"branch_bound.py", "formulations.py:margin_floor"}


def test_branch_and_bound_is_the_one_certifier():
    # a solve's status is decided by branch-and-bound's gap rule alone: no
    # other module builds a ``SolveResult``, and the labeling pass, which
    # only bounds and proposes, does not reach the solver
    builders = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        if name != "branch_bound.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "SolveResult"
    ]
    assert builders == []
    assert "branch_bound" not in set(_imported_modules(_modules()["labelings.py"]))


def test_the_labeling_pass_builds_no_lp_of_its_own():
    # the pass checks a labeling on a leaf of the program it bounds, which
    # the simplex decides as it decides a node LP; an LP of its own would
    # answer to its own rows and its own margin test
    found = []
    for node in ast.walk(_modules()["labelings.py"]):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "LinearProgram"
        ):
            found.append(f"{node.lineno}: builds a LinearProgram")
        elif isinstance(node, ast.ImportFrom):
            found += [
                f"{node.lineno}: imports {a.name}"
                for a in node.names
                if a.name in ("LinearProgram", "solve_lp")
            ]
        elif isinstance(node, ast.Attribute) and node.attr == "solve_lp":
            found.append(f"{node.lineno}: reads solve_lp")
    assert found == []


def test_a_tableau_keeps_its_program():
    # ``_Tableau`` sets its program (rows, costs, tolerances, pivot limit)
    # in ``__init__`` alone: a working set of rows grows by a new tableau
    # started from the last one's basis, never by reshaping a solved one
    program = {"m", "n_ext", "A", "b", "cost", "iteration_limit"}
    tableau = next(
        node for node in _modules()["simplex.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "_Tableau"
    )
    writes = []
    for method in tableau.body:
        if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
            continue
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            writes += [
                f"{method.name}:{leaf.lineno}: self.{leaf.attr}"
                for target in targets
                for leaf in ast.walk(target)
                if isinstance(leaf, ast.Attribute)
                and isinstance(leaf.value, ast.Name)
                and leaf.value.id == "self"
                and leaf.attr in program
            ]
    assert writes == []


def test_the_simplex_has_one_lp_entry_point():
    # every LP, node or leaf, is solved by ``solve_lp_with_fixings``, and
    # ``solve_lp`` is its case without fixings: a second public solver would
    # be a second path with rules of its own
    solvers = sorted(
        node.name
        for node in _modules()["simplex.py"].body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and (
            "LpSolution" in ast.unparse(node.returns or ast.Constant(None))
            or any(
                isinstance(leaf, ast.Return) and isinstance(leaf.value, ast.Call)
                and getattr(leaf.value.func, "id", None) == "LpSolution"
                for leaf in ast.walk(node)
            )
        )
    )
    assert solvers == ["solve_lp", "solve_lp_with_fixings"]


def test_only_the_simplex_reads_dense_rows():
    # a program keeps the entries of its rows, and ``row_coefs`` makes every
    # row dense; a reader outside the simplex reads ``activity``, ``dense``
    # of the rows it needs, or the ``entries``
    readers = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        if name != "simplex.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "row_coefs"
    ]
    assert readers == []


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

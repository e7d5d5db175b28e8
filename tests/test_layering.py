"""Each module imports from inside the package only the layers below it."""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "slagcy"

# module -> the package modules it may import from (None: any)
ALLOWED = {
    "jets": set(),
    "dsl": {"jets"},
    "gridops": {"dsl"},
    "solver": {"jets"},
    "families": {"dsl", "gridops", "jets"},
    "hodge": {"families", "gridops", "jets"},
    "cli": None,
    "__init__": None,
}
# module -> the modules its PEP 562 ``__getattr__`` may import from: a name that moved
# up a layer stays readable where callers outside the package import it (the
# benchmark's self-test reads dsl.eval_grid)
FORWARDS = {"dsl": {"gridops"}}


def package_imports(path: Path, forwards: bool = False) -> set:
    """The package modules that ``path`` imports from, relatively or by name: outside
    its module-level ``__getattr__``, or with ``forwards`` inside it only."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = {id(node) for top in tree.body if isinstance(top, ast.FunctionDef)
              and top.name == "__getattr__" for node in ast.walk(top)}
    found = set()
    for node in ast.walk(tree):
        if (id(node) in inside) != forwards:
            continue
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[:1] != ["slagcy"]:
                    continue
                parts = parts[1:]
            found.update(parts[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("slagcy."))
    return found


def test_every_module_has_a_layer():
    assert {path.stem for path in SRC.glob("*.py")} == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_stay_within_the_layer(module):
    allowed = ALLOWED[module]
    if allowed is not None:
        assert package_imports(SRC / f"{module}.py") <= allowed
        assert package_imports(SRC / f"{module}.py", forwards=True) <= FORWARDS.get(module, set())


def test_the_check_sees_relative_imports():
    assert package_imports(SRC / "families.py") == {"dsl", "gridops", "jets"}
    assert package_imports(SRC / "hodge.py") == {"families", "gridops", "jets"}
    assert package_imports(SRC / "dsl.py") == {"jets"}
    assert package_imports(SRC / "dsl.py", forwards=True) == {"gridops"}


def imported_on_import(source: str) -> set:
    """The top-level modules that ``source`` imports when it is itself imported:
    each import statement outside a function body, a class body's included."""
    found = set()

    def visit(node):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for child in ast.iter_child_nodes(node):
                visit(child)

    for node in ast.parse(source).body:
        visit(node)
    return found


# numpy is a dependency of the grid kinds only: embed and verify run on jets and load
# the other modules alone, which import numpy inside the functions that sample
NUMPY_ON_IMPORT = {"gridops", "hodge"}


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_numpy_is_imported_on_import_only_by_the_grid_modules(module):
    found = imported_on_import((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert ("numpy" in found) == (module in NUMPY_ON_IMPORT)


def test_the_numpy_check_sees_module_level_imports():
    for source in ("import numpy as np", "from numpy import linspace", "import numpy.fft",
                   "if True:\n    import numpy", "class A:\n    import numpy as np"):
        assert imported_on_import(source) == {"numpy"}, source
    for source in ("def f():\n    import numpy as np", "from . import gridops",
                   "class A:\n    def f(self):\n        from numpy import exp"):
        assert imported_on_import(source) == set(), source


def attribute_reads(path: Path, name: str) -> list:
    """The lines of ``path`` that read an attribute called ``name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == name]


@pytest.mark.parametrize("module", sorted(set(ALLOWED) - {"jets"}))
def test_packed_keys_stay_inside_jets(module):
    # a jet's ``num`` is keyed by packed ints; other modules go through
    # coeffs, depends_on and the other Jet methods
    assert attribute_reads(SRC / f"{module}.py", "num") == []


def test_the_key_check_sees_reads_of_num():
    assert attribute_reads(SRC / "jets.py", "num")


def fft_uses(source: str) -> list:
    """The lines of ``source`` that read an ``fft`` attribute (``np.fft``) or import
    numpy's fft module or names from it."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Attribute) and node.attr == "fft")
            or (isinstance(node, ast.Import)
                and any(alias.name.startswith("numpy.fft") for alias in node.names))
            or (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
                and ("fft" in node.module.split(".")
                     or any(alias.name == "fft" for alias in node.names)))]


@pytest.mark.parametrize("module", sorted(set(ALLOWED) - {"gridops"}))
def test_fft_stays_inside_gridops(module):
    # gridops.grid_diff is the package's one sampled derivative
    assert fft_uses((SRC / f"{module}.py").read_text(encoding="utf-8")) == []


def test_the_fft_check_sees_numpy_fft():
    assert fft_uses((SRC / "gridops.py").read_text(encoding="utf-8"))
    for line in ("np.fft.rfft(a)", "import numpy.fft", "import numpy.fft as f",
                 "from numpy import fft", "from numpy.fft import rfft"):
        assert fft_uses(line) == [1], line
    assert fft_uses("from numpy import gradient\nimport numpy as np") == []


# a name read as a tolerance: tol, tolerance, phi_tolerance, _POLICY_TOL, ...
TOLERANCE_NAME = re.compile(r"(\w*_)?tol(erance)?", re.IGNORECASE)
ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def tolerance_comparisons(source: str) -> list:
    """(function, line) of each <, <=, > or >= comparison in ``source`` with an operand
    that reads a name or attribute named like a tolerance; function is the innermost
    enclosing function ("" at module level)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare) and any(isinstance(op, ORDERING) for op in node.ops):
            names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                     for operand in (node.left, *node.comparators) for sub in ast.walk(operand)
                     if isinstance(sub, (ast.Name, ast.Attribute))}
            if any(TOLERANCE_NAME.fullmatch(name) for name in names):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_tolerances_are_compared_only_in_within(module):
    # jets.within is the one verdict rule; a bare `worst > tol` lets a nan pass
    found = tolerance_comparisons((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert [hit for hit in found if module != "jets" or hit[0] != "within"] == []


def test_the_tolerance_check_sees_comparisons():
    assert [f for f, _ in tolerance_comparisons((SRC / "jets.py").read_text())] == ["within"]
    for line in ("if worst > tol:\n    raise E", "ok = x <= _CHECK_TOL", "a < self.tolerance",
                 "np.max(r) >= 100.0 * tol", "0 < tol", "b = sc.phi_tolerance > v"):
        assert tolerance_comparisons(line) == [("", 1)], line
    assert tolerance_comparisons("def f(v, tol):\n    return v > tol") == [("f", 2)]
    for line in ("0 <= value < float('inf')", "tol == 0", "within(x, tol)", "stop > total"):
        assert tolerance_comparisons(line) == [], line


# the helpers of the CK sweeps; the verifier restates (D) and d(omega) = 0 on
# its own, so that it checks the sweeps rather than repeating them
SWEEP_HELPERS = {"_product_terms", "_extend_cofactors", "ck_step", "_evolution"}


def reachable_calls(path: Path, name: str) -> set:
    """The names that function ``name`` of ``path`` calls, directly or through
    the other functions of that module it calls."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    called, todo = set(), [name]
    while todo:
        for node in ast.walk(functions[todo.pop()]):
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if callee is not None and callee not in called:
                    called.add(callee)
                    if callee in functions:
                        todo.append(callee)
    return called


def test_the_verifier_calls_no_sweep_helper():
    assert reachable_calls(SRC / "solver.py", "check_structure") & SWEEP_HELPERS == set()


def test_the_call_check_sees_the_sweep_helpers():
    assert {"det", "partial_sum", "_hmatrix"} <= reachable_calls(SRC / "solver.py",
                                                                 "check_structure")
    assert SWEEP_HELPERS <= reachable_calls(SRC / "solver.py", "solve_calabi_yau")


# -- the census: every function and class of the package has a reader -------------------

# defined in src/ but read nowhere outside the tests, each with why it stays
UNREAD = {
    "horizontal_slice_residuals": "the family-embedding run kind (the paper's refinement "
                                  "theorem) is to fold it into slice_residuals",
}


def names_read(tree) -> set:
    """The names a module reads: loaded names and attributes, and import aliases."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def defined_names(tree) -> set:
    """The functions and classes a module defines, methods included, dunders not:
    the interpreter reads those through operators and protocols."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def parsed(paths) -> list:
    return [ast.parse(p.read_text(encoding="utf-8")) for p in paths]


def readers() -> list:
    """The parsed modules of src/ and perfbench/ and the README's python blocks."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    return (parsed([*SRC.glob("*.py"), *(REPO / "perfbench").glob("*.py")])
            + [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)])


def test_every_defined_name_has_a_reader():
    """Names are matched as bare text, not through their class or module: a read of
    any same-named name or attribute anywhere in the readers counts, so a method
    passes when an unrelated object has an attribute of its name.  The check can
    miss an unread name this way, but never flags a read one."""
    defined = set().union(*map(defined_names, parsed(SRC.glob("*.py"))))
    assert defined - set().union(*map(names_read, readers())) == set(UNREAD)

"""Each module imports from inside the package only the layers below it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "slagcy"

# module -> the package modules it may import from (None: any)
ALLOWED = {
    "jets": set(),
    "gridops": set(),
    "dsl": {"jets"},
    "solver": {"jets"},
    "families": {"dsl", "gridops", "jets"},
    "hodge": {"families", "gridops", "jets"},
    "cli": None,
    "__init__": None,
}


def package_imports(path: Path) -> set:
    """The package modules that ``path`` imports from, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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


def test_the_check_sees_relative_imports():
    assert package_imports(SRC / "families.py") == {"dsl", "gridops", "jets"}
    assert package_imports(SRC / "hodge.py") == {"families", "gridops", "jets"}


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

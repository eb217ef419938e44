"""The package is a one-way stack of modules: each imports only from the
ranks below its own, so the builder never reaches up into the solver and the
solver never reaches up into the experiments."""

import ast
from pathlib import Path

import pytest

import ssfp

PACKAGE = Path(ssfp.__file__).parent

#: module -> rank; a module may import only modules of a lower rank
RANKS = {
    "graph_core": 0,
    "milp_core": 1,
    "instances": 1,
    "models": 2,
    "solver": 3,
    "experiments": 4,
    "cli": 5,
    "__init__": 6,  # the package's face re-exports from the layers below
}


def _relative_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) of every relative import in ``path``, wherever it sits
    (``if TYPE_CHECKING:`` blocks and function bodies included)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            modules = [node.module] if node.module else [a.name for a in node.names]
            found += [(node.lineno, module) for module in modules]
    return found


def test_every_module_has_a_rank():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(RANKS)


@pytest.mark.parametrize("module", sorted(RANKS))
def test_a_module_imports_only_from_lower_ranks(module):
    path = PACKAGE / f"{module}.py"
    upward = [
        f"{path.name}:{line} imports {imported}"
        for line, imported in _relative_imports(path)
        if RANKS.get(imported, len(RANKS)) >= RANKS[module]
    ]
    assert not upward

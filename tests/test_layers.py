"""The exact layer imports nothing but the standard library and itself."""

import ast
import sys
from pathlib import Path

import pytest

import gninterp

EXACT_LAYER = ("errors", "indices", "interp", "derivation")


def _imports(module: str) -> list[tuple[int, str]]:
    """``(level, name)`` of every module an exact-layer source file imports."""
    tree = ast.parse((Path(gninterp.__file__).parent / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # ``from . import x`` imports the module x.
            found += [(node.level, node.module)] if node.module else [(node.level, a.name) for a in node.names]
    return found


@pytest.mark.parametrize("module", EXACT_LAYER)
def test_exact_layer_imports_only_stdlib_and_itself(module):
    imports = _imports(module)
    assert imports, module
    outside = [
        (level, name)
        for level, name in imports
        if not (level == 1 and name in EXACT_LAYER)
        and not (level == 0 and name.split(".")[0] in sys.stdlib_module_names)
    ]
    assert outside == []

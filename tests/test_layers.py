"""The exact layer imports nothing but the standard library and itself, and
``import gninterp`` loads it alone: the numeric layer loads on first use."""

import ast
import os
import subprocess
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


NUMERIC_MODULES = ("numpy", "gninterp.testfn", "gninterp.norms", "gninterp.measure")


def _fresh(code: str, *args: str):
    """The value printed on the last stdout line of ``code`` run in a fresh
    interpreter that imports this copy of gninterp."""
    path = os.pathsep.join(filter(None, (str(Path(gninterp.__file__).parents[1]), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    return ast.literal_eval(proc.stdout.splitlines()[-1])


_EXACT_COMMANDS = f"""
import sys
import gninterp
import gninterp.derivation
from gninterp.cli import main

cert = sys.argv[1]
codes = [
    main(["params", "--n", "3", "--k", "2", "--l", "1", "--p", "2", "--r", "-3", "--theta", "1/2"]),
    main(["derive", "--instance", "n=1,k=3,l=2,p=-1/2,r=-1/2,theta=2/3", "--out", cert]),
    main(["verify", cert]),
]
before = [m for m in {NUMERIC_MODULES!r} if m in sys.modules]
gninterp.xnorm
after = [m for m in {NUMERIC_MODULES!r} if m in sys.modules]
print((codes, before, after, [name for name in gninterp.__all__ if name not in vars(gninterp)]))
"""


def test_exact_commands_load_no_numeric_module(tmp_path):
    codes, before, after, unbound = _fresh(_EXACT_COMMANDS, str(tmp_path / "chain.cert"))
    assert codes == [0, 0, 0]
    assert before == []
    # The first numeric name loads the whole layer and binds every name.
    assert after == list(NUMERIC_MODULES)
    assert unbound == []


_GETATTR = """
import sys
import gninterp

names = [name for name in gninterp.__all__ if name != "__version__"]
values = [getattr(gninterp, name) for name in names]
print(sorted(name for name, value in zip(names, values) if value is not getattr(sys.modules[value.__module__], name)))
"""

_STAR = """
from gninterp import *
import gninterp

print(sorted(name for name in gninterp.__all__ if globals().get(name) is not getattr(gninterp, name)))
"""


@pytest.mark.parametrize("code", [_GETATTR, _STAR], ids=["getattr", "star"])
def test_every_public_name_resolves(code):
    # Each name is the object of the module that defines it.
    assert _fresh(code) == []


def test_unknown_name_is_missing():
    assert not hasattr(gninterp, "nope")
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        gninterp.nope

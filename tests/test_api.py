"""The public surface: every exported name resolves, and README's Python
quick start gives the values its comments show."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import oscoh

MODULES = ["oscoh"] + [f"oscoh.{m.name}" for m in pkgutil.iter_modules(oscoh.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, (module, missing)


def quick_start():
    """README's "Quick start (Python)" block, as (statement, comment on its
    last line) pairs."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Quick start (Python)", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    return [
        (stmt, lines[stmt.end_lineno - 1].partition("#")[2].strip())
        for stmt in ast.parse(block).body
    ]


def test_the_readme_quick_start_gives_its_commented_values():
    env: dict = {}
    shown = []
    for stmt, comment in quick_start():
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), env)
            shown.append((value, comment))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), env)
    (dims_q, c1), (dims_3, c2), ((lower, upper, exact), c3) = shown
    assert (dims_q, dims_3) == ("t + 17*t^2", "2*t + 18*t^2")
    assert (c1, c2) == (repr(dims_q), repr(dims_3))
    assert tuple(lower) == tuple(upper) == (0, 0, 4, 4) and all(exact)
    assert c3 == "(0,0,4,4), (0,0,4,4), all exact"

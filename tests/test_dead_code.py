"""Guards against dead code in the package source, found with `ast`.

A function parameter that its body never reads is a knob that no call can
turn, and a module-level import that the module never uses is a dependency
that nothing needs.  Each test lists every such name in `src/lieschouten`,
so a new one names itself in the failure.
"""

import ast
import pathlib

import pytest

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "lieschouten"
MODULES = sorted(SOURCE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _loaded(nodes):
    """Every name that `nodes` read, as a bare name or as the base of an
    attribute."""
    return {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unread_parameters(tree):
    """(function, parameter) for each named parameter that its function's
    body, nested functions included, never reads.  `self`, `cls`, names
    that start with `_`, and `*args` and `**kwargs` are exempt."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        read = _loaded(node.body)
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            name = arg.arg
            if name in ("self", "cls") or name.startswith("_"):
                continue
            if name not in read:
                out.append(f"{node.name}({name})")
    return out


def unused_imports(tree):
    """Each name that a module-level import binds and the module never
    reads, `__future__` imports and names listed in `__all__` exempt."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in getattr(node.value, "elts", ()) if isinstance(e, ast.Constant)}
    read = _loaded(tree.body)
    return [name for name in bound if name not in read and name not in exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(_tree(path)) == []


def test_the_scans_see_what_they_look_for():
    tree = ast.parse(
        "import os\n"
        "import sys as system\n"
        "from math import gcd, lcm\n"
        "def f(a, b, _c, *args, **kwargs):\n"
        "    return a + lcm(1, 2)\n"
        "class K:\n"
        "    def m(self, x, y):\n"
        "        def inner():\n"
        "            return y\n"
        "        return inner\n"
    )
    assert unread_parameters(tree) == ["f(b)", "m(x)"]
    assert unused_imports(tree) == ["os", "system", "gcd"]

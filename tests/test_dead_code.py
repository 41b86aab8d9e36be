"""Guards against dead code in the package source, found with `ast`.

A function parameter that its body never reads is a knob that no call can
turn, a module-level import that the module never uses is a dependency
that nothing needs, and a module-level private name that no module reads
is code that nothing runs, as is a public function or class that no module
reads and the package does not export.  Each test lists every such name in
`src/lieschouten`, so a new one names itself in the failure.
"""

import ast
import pathlib

import pytest

import lieschouten

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


def unread_privates(trees):
    """Each module-level def, class or assignment target named `_x` (not a
    dunder) that no tree of `trees` reads, as `module.name`."""
    read = set().union(*(_loaded([tree]) for tree in trees.values()))
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            out += [f"{module}.{name}" for name in names if name.startswith("_") and not name.startswith("__") and name not in read]
    return out


def unexported_publics(trees, exports):
    """Each module-level def or class whose name does not start with `_`,
    that no tree of `trees` reads and that `exports`, public names by
    module as in `lieschouten._EXPORTS`, does not list, as `module.name`."""
    read = set().union(*(_loaded([tree]) for tree in trees.values()))
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
        and node.name not in exports.get(module, ())
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(_tree(path)) == []


def test_every_module_level_private_name_is_read():
    assert unread_privates({path.stem: _tree(path) for path in MODULES}) == []


def test_every_public_function_and_class_is_read_or_exported():
    assert unexported_publics({path.stem: _tree(path) for path in MODULES}, lieschouten._EXPORTS) == []


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
    modules = {
        "a": ast.parse(
            "_USED = 1\n"
            "_LEFT, __dunder__ = 2, 3\n"
            "_typed: int = 4\n"
            "def _helper():\n"
            "    return _USED\n"
            "class _Record:\n"
            "    _inner = 5\n"
        ),
        "b": ast.parse("from a import _helper\nprint(_helper())\n"),
    }
    assert unread_privates(modules) == ["a._LEFT", "a._typed", "a._Record"]
    modules = {
        "a": ast.parse(
            "VALUE = 1\n"
            "def used():\n"
            "    return VALUE\n"
            "def listed():\n"
            "    pass\n"
            "def left():\n"
            "    pass\n"
            "class Left:\n"
            "    def method(self):\n"
            "        pass\n"
            "def _private():\n"
            "    pass\n"
        ),
        "b": ast.parse("from a import used\nprint(used())\n"),
    }
    assert unexported_publics(modules, {"a": ("listed",), "b": ("left",)}) == ["a.left", "a.Left"]

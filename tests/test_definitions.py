"""Every function and method the package defines is referenced somewhere.

A stdlib-only dead-code scan: each function defined at module level, and
each method defined at class level, in the package source (dunders
excepted) must be referenced in the package or the tests: a function as a
name, an attribute or an import alias, a method only as an attribute, so
that a same-named variable does not count for it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "motifcount"
TESTS = ROOT / "tests"


def definitions(path: Path) -> list:
    """(line, qualified name, name) of the module-level functions and the
    class-level methods of one module, dunders excepted."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, funcs):
            out.append((node.lineno, node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs):
                    out.append((item.lineno, f"{node.name}.{item.name}", item.name))
    return [d for d in out if not (d[2].startswith("__") and d[2].endswith("__"))]


def references(paths) -> tuple:
    """(names, attributes): every name, attribute and import alias used,
    and the attributes alone."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
                if node.asname:
                    names.add(node.asname)
    return names | attributes, attributes


def unreferenced(defining: list, referencing: list) -> list:
    names, attributes = references(referencing)
    return [
        f"{path.name}:{line}: {qualified}"
        for path in defining
        for line, qualified, name in definitions(path)
        if name not in (attributes if "." in qualified else names)
    ]


def test_scan_finds_an_unreferenced_definition(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from os import path as p\n"
        "def used():\n    return p\n"
        "def unused():\n    return used()\n"
        "class C:\n"
        "    def __init__(self):\n        self.x = 1\n"
        "    def called(self):\n        return self.x\n"
        "    def dead(self):\n        return 0\n"
        "print(C().called)\n"
    )
    user = tmp_path / "test_m.py"
    user.write_text("from m import C\n")
    assert unreferenced([module], [module, user]) == ["m.py:4: unused", "m.py:11: C.dead"]


def test_a_method_shadowed_by_a_variable_is_unreferenced(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "class C:\n"
        "    def size(self):\n        return 0\n"
        "size = 3\n"
        "print(size)\n"
    )
    assert unreferenced([module], [module]) == ["m.py:2: C.size"]


def test_every_definition_is_referenced():
    package = sorted(SOURCE.glob("*.py"))
    assert unreferenced(package, package + sorted(TESTS.glob("*.py"))) == []

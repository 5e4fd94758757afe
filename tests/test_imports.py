"""Stdlib AST scans of the package source.

- Every module-level import is used: a stand-in for a linter's unused-import
  rule (F401).  Package `__init__.py` files re-export by importing and are
  skipped, and an import line marked `# noqa: F401` is an intended re-export.
- Every local name a function assigns is read in it: a stand-in for the
  unused-local rule (F841).  Names starting with `_` and names declared
  `nonlocal` or `global` are exempt.
- Every `from .m import name` names something module m defines, not
  something m imports from elsewhere.
- Every module-level private name (`_x`, not a dunder) that a `def`, a
  `class` or an assignment binds is read somewhere in the package: a
  deletion leaves no orphaned helper behind.
- Every method and class-level annotated field of a package class (dunders
  exempt) is read somewhere in the package as an attribute or a name: a
  deletion leaves no orphaned member behind either.
- The package's relative imports form a graph without a cycle, and the
  kernel route is reached through homcount alone: motif and colored import
  none of its pieces, colored imports nothing from motif, and only
  homcount defines DENSE_WORK_RATIO.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "motifcount"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def unused_imports(path: Path) -> list:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}  # bound name -> line number
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        f"{path.name}:{line}: {name}"
        for name, line in imported.items()
        if name not in used
    )


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nimport sys\nfrom math import pi  # noqa: F401\nprint(sys.argv)\n"
    )
    assert unused_imports(module) == ["m.py:1: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path) == []


def _own_nodes(function):
    """The nodes of a function's body outside nested functions and classes."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(path: Path) -> list:
    """Names a function binds by a plain or annotated assignment or `:=`
    and never reads in its body, nested functions included."""
    found = []
    for function in ast.walk(ast.parse(path.read_text())):
        if not isinstance(function, FUNCTIONS):
            continue
        declared = {name for node in ast.walk(function)
                    if isinstance(node, (ast.Nonlocal, ast.Global)) for name in node.names}
        assigned: dict = {}
        for node in _own_nodes(function):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, target.lineno)
        read = {n.id for n in ast.walk(function)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        read |= {n.target.id for n in ast.walk(function)
                 if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
        found += [f"{path.name}:{line}: {name} in {getattr(function, 'name', 'lambda')}"
                  for name, line in assigned.items()
                  if name not in read and name not in declared and not name.startswith("_")]
    return sorted(found)


def _definitions(tree: ast.Module):
    """(name, line) for each name a module binds at top level other than by
    importing."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((n.id, n.lineno) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


def _defined(path: Path) -> set:
    return {name for name, _ in _definitions(ast.parse(path.read_text()))}


def reexported_imports(package: Path) -> list:
    """`from .m import name` lines in the package whose name m does not
    define itself."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                defined = _defined(package / f"{node.module}.py")
                found += [f"{path.name}:{node.lineno}: {alias.name} from .{node.module}"
                          for alias in node.names if alias.name not in defined]
    return found


def test_scan_finds_an_unused_local(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(x):\n"
        "    unused = x\n"
        "    _skipped = x\n"
        "    count = 0\n"
        "    count += 1\n"
        "    closed = x\n"
        "    total: int = 0\n"
        "    def g():\n"
        "        nonlocal total\n"
        "        total = closed\n"
        "    if (hit := x):\n"
        "        return g\n"
        "    return lambda: (spare := 1)\n"
    )
    assert unused_locals(module) == [
        "m.py:11: hit in f", "m.py:13: spare in lambda", "m.py:2: unused in f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path) == []


def test_scan_finds_a_reexported_import(tmp_path):
    (tmp_path / "a.py").write_text("from .b import B\nA = 1\ndef f():\n    pass\n")
    (tmp_path / "b.py").write_text("class B:\n    pass\n")
    (tmp_path / "c.py").write_text("from .a import A, B, f\n")
    assert reexported_imports(tmp_path) == ["c.py:1: B from .a"]


def test_package_imports_name_their_definitions():
    assert reexported_imports(SOURCE) == []


def unread_private_names(package: Path) -> list:
    """Module-level private names of the package's modules that no module
    reads, as a name or as an attribute."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{name}:{line}: {private}"
            for name, tree in trees.items()
            for private, line in _definitions(tree)
            if private.startswith("_") and not private.startswith("__")
            and private not in read]


def test_scan_finds_an_unread_private_name(tmp_path):
    (tmp_path / "m.py").write_text(
        "_USED = 1\n"
        "_DEAD = 2\n"
        "__version__ = 3\n"
        "_VIA_ATTRIBUTE = 4\n"
        "def _helper():\n"
        "    return _USED\n"
        "def _orphan():\n"
        "    _local = 5\n"
        "class _Gone:\n"
        "    pass\n"
        "def public(m):\n"
        "    return _helper(), m._VIA_ATTRIBUTE\n"
    )
    assert unread_private_names(tmp_path) == ["m.py:2: _DEAD", "m.py:7: _orphan", "m.py:9: _Gone"]


def test_every_private_name_is_read():
    assert unread_private_names(SOURCE) == []


def unread_members(package: Path) -> list:
    """Methods and class-level annotated fields (dunders aside) of the
    package's classes that no module reads, as an attribute or a name."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    found = []
    for name, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    member = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    member = node.target.id
                else:
                    continue
                if not member.startswith("__") and member not in read:
                    found.append(f"{name}:{node.lineno}: {cls.name}.{member}")
    return found


def test_scan_finds_an_unread_member(tmp_path):
    (tmp_path / "m.py").write_text(
        "from typing import NamedTuple\n"
        "class Shape(NamedTuple):\n"
        "    used: int\n"
        "    dead: int\n"
        "class Store:\n"
        "    limit: int = 0\n"
        "    def __init__(self):\n"
        "        self.dead = 1\n"
        "    def read(self):\n"
        "        return self.limit\n"
        "    def release(self):\n"
        "        pass\n"
        "print(Shape(1, 2).used, Store().read())\n"
    )
    assert unread_members(tmp_path) == ["m.py:4: Shape.dead", "m.py:11: Store.release"]


def test_every_member_is_read():
    assert unread_members(SOURCE) == []


def import_graph(package: Path) -> dict:
    """{module: {module it imports from: the names imported}} over the
    package's relative imports, those inside functions included."""
    graph = {}
    for path in sorted(package.glob("*.py")):
        edges = graph.setdefault(path.stem, {})
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = {alias.name for alias in node.names}
                if node.module:
                    edges.setdefault(node.module, set()).update(names)
                else:  # from . import m
                    for name in names:
                        edges.setdefault(name, set())
    return graph


def import_cycle(graph: dict) -> list:
    """One cycle of the import graph, as the modules along it with the
    first repeated at the end, or [] when there is none."""
    done, path = set(), []

    def visit(module):
        path.append(module)
        for target in graph.get(module, ()):
            if target in path:
                return path[path.index(target):] + [target]
            if target not in done and (cycle := visit(target)):
                return cycle
        done.add(path.pop())
        return []

    for module in graph:
        if module not in done and (cycle := visit(module)):
            return cycle
    return []


def test_scan_finds_an_import_cycle(tmp_path):
    (tmp_path / "a.py").write_text("from .b import f\n")
    (tmp_path / "b.py").write_text("def f():\n    from .c import g\n")
    (tmp_path / "c.py").write_text("from . import a\ndef g():\n    pass\n")
    (tmp_path / "d.py").write_text("from .a import f\n")
    graph = import_graph(tmp_path)
    assert graph["b"] == {"c": {"g"}} and graph["c"] == {"a": set()}
    assert import_cycle(graph) == ["a", "b", "c", "a"]
    (tmp_path / "c.py").write_text("def g():\n    pass\n")
    assert import_cycle(import_graph(tmp_path)) == []


def test_package_imports_have_no_cycle():
    assert import_cycle(import_graph(SOURCE)) == []


def test_the_kernel_route_lives_in_homcount():
    graph = import_graph(SOURCE)
    route = {"_run", "_predicted_work", "count_hom_dp", "count_hom_mm"}
    for module in ("motif", "colored"):
        assert not route & set().union(*graph[module].values()), module
    assert "motif" not in graph["colored"]
    assert [path.stem for path in MODULES if "DENSE_WORK_RATIO" in _defined(path)] == ["homcount"]

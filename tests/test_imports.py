"""Every module-level import in the package source is used.

A stdlib-only stand-in for a linter's unused-import rule (F401): package
`__init__.py` files re-export by importing and are skipped, and an import
line marked `# noqa: F401` is an intended re-export.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "motifcount"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


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

"""Every memoising cache in the package source has a size bound.

An unbounded `functools.lru_cache` (or `functools.cache`) keeps every key it
has seen, such as every host graph and every canonicalised supergraph, for
the life of the process.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "motifcount"
MODULES = sorted(SOURCE.glob("*.py"))


def _name(node) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", "")


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def unbounded_caches(path: Path) -> list:
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            name = _name(call.func if call else dec)
            if name == "cache":
                unbounded = True
            elif name == "lru_cache" and call is not None:
                sizes = list(call.args[:1]) + [k.value for k in call.keywords if k.arg == "maxsize"]
                unbounded = any(_is_none(s) for s in sizes)
            else:
                unbounded = False
            if unbounded:
                out.append(f"{path.name}:{dec.lineno}: {node.name}")
    return out


def test_scan_finds_an_unbounded_cache(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(x): return x\n"
        "@functools.lru_cache(None)\ndef b(x): return x\n"
        "@cache\ndef c(x): return x\n"
        "@lru_cache(maxsize=16)\ndef d(x): return x\n"
        "@lru_cache\ndef e(x): return x\n"
    )
    assert unbounded_caches(module) == ["m.py:3: a", "m.py:5: b", "m.py:7: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    assert unbounded_caches(path) == []

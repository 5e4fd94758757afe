"""The bench recorder looks up some motifcount functions by name after
wrapping them (`originals["module.name"]` in bench/spans.py and
bench/query.py); a rename or a change that makes one private would break
a traced bench run with a KeyError.  The bench sources are read as text:
`spans.public_functions`, which decides what the recorder wraps, is
compiled from that text without importing the bench modules."""

import ast
import importlib
import re
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def recorder_lookups() -> set:
    keys = set()
    for name in ("spans.py", "query.py"):
        keys |= set(re.findall(r'originals\["([\w.]+)"\]', (BENCH / name).read_text()))
    return keys


def bench_public_functions():
    """spans.public_functions, with the imports and constants it reads."""
    tree = ast.parse((BENCH / "spans.py").read_text())
    tree.body = [
        node for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom, ast.Assign))
        or (isinstance(node, ast.FunctionDef) and node.name == "public_functions")
    ]
    namespace: dict = {}
    exec(compile(tree, str(BENCH / "spans.py"), "exec"), namespace)
    return namespace["public_functions"]


def test_recorder_lookups_are_wrapped_public_functions():
    keys = recorder_lookups()
    assert {"decomp.exact_treewidth", "graphs.canonical_form"} <= keys
    public_functions = bench_public_functions()
    for key in sorted(keys):
        module = importlib.import_module(f"motifcount.{key.split('.')[0]}")
        assert key in public_functions(module), key

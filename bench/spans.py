"""In-memory span recorder that wraps motifcount's public functions.

Each wrapped call records one span: (name, start, end, parent index, query
id).  The package modules import names from each other directly (``motif``
holds its own reference to ``count_hom_mm``), so a wrapper replaces the
function in every ``motifcount`` module namespace that refers to it.
Spans stay in memory until the process writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# The layers, in the order the metrics doc lists them.  ``extract`` serves no
# query path and ``oracle`` only the references, so neither is wrapped.
LAYER_MODULES = ("cli", "motif", "partitions", "decomp", "homcount", "colored", "graphs")

# Trivial cached accessors called inside inner loops; a span around them
# would cost more than the call and say nothing.
UNWRAPPED = frozenset({"graphs.adjacency", "graphs.graph_order_key"})

KERNELS = frozenset(
    {"homcount.count_hom_mm", "homcount.count_hom_dp", "homcount.count_colored_hom"}
)


def public_functions(module):
    """Public plain functions (and lru_cache wrappers) defined in module,
    generator functions excluded: a span would only time their creation."""
    out = {}
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or f"{short}.{attr}" in UNWRAPPED:
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        target = getattr(obj, "__wrapped__", obj)
        if not inspect.isfunction(target) or inspect.isgeneratorfunction(target):
            continue
        out[f"{short}.{attr}"] = obj
    return out


class Recorder:
    """Span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, query_id]
        self._stack: list = []
        self.query_id = None
        self.counters: dict = defaultdict(int)
        self.treewidth_args: set = set()  # the Graph of each call
        self.kernel_calls: list = []  # (pattern, host order) per outermost kernel call
        self.originals: dict = {}

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        before = self._before_hook(name)
        after = self._after_hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.query_id])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _before_hook(self, name: str):
        if name in KERNELS:
            return self._note_kernel_call
        if name == "decomp.exact_treewidth":
            return lambda args, kwargs: self.treewidth_args.add(args[0])
        return None

    def _after_hook(self, name: str):
        if name == "motif.change_basis":
            def hom_terms(args, kwargs, result):
                target = args[1] if len(args) > 1 else kwargs.get("target")
                if target == "hom":
                    self.counters["motif.hom_terms"] += len(result.terms)
            return hom_terms
        return None

    def _note_kernel_call(self, args, kwargs):
        """Keep the pattern and host order of an outermost kernel call; its
        treewidth is computed after the queries, outside every span."""
        if any(self.spans[i][0] in KERNELS for i in self._stack):
            return
        h, g = args[0], args[1]
        self.kernel_calls.append((getattr(h, "graph", h), g.n))

    def predicted_ops(self) -> int:
        """Sum of n^(tw+1) over the outermost kernel calls."""
        treewidth = functools.lru_cache(maxsize=None)(
            lambda h: self.originals["decomp.exact_treewidth"](h)[0])
        return sum(n ** (treewidth(h) + 1) for h, n in self.kernel_calls)

    def distinct_treewidth_patterns(self) -> int:
        """Isomorphism classes among the graphs exact_treewidth was called on.
        Calls canonical_form, so read its cache counters first."""
        return len({self.originals["graphs.canonical_form"](g) for g in self.treewidth_args})

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every layer's public functions; returns a function that
        puts the originals back."""
        import motifcount.cli  # noqa: F401  (the package does not import cli)

        modules = [m for n, m in list(sys.modules.items())
                   if n == "motifcount" or n.startswith("motifcount.")]
        replaced = []
        for layer in LAYER_MODULES:
            module = sys.modules[f"motifcount.{layer}"]
            for name, fn in public_functions(module).items():
                self.originals[name] = fn
                wrapper = self.wrap(name, fn)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapper)
                            replaced.append((mod, attr, fn))

        def restore():
            for mod, attr, fn in replaced:
                setattr(mod, attr, fn)

        return restore


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict = defaultdict(list)
    for i, (_name, _s, _e, parent, _q) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_name, start, end, _p, _q) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            cs = max(spans[c][1], reach)
            ce = min(spans[c][2], end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def layer_totals(spans) -> dict:
    """name -> {"calls", "s" (self time), "total_s" (inclusive time of the
    outermost spans of that name)}."""
    totals: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "total_s": 0.0})
    selfs = self_times(spans)
    for i, (name, start, end, parent, _q) in enumerate(spans):
        t = totals[name]
        t["calls"] += 1
        t["s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            t["total_s"] += end - start
    return dict(totals)


def kernel_seconds(spans) -> float:
    """Inclusive time of kernel calls not nested in another kernel call."""
    total = 0.0
    for name, start, end, parent, _q in spans:
        if name not in KERNELS:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in KERNELS:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total

"""Spans and counts around the calls into each layer's public functions.

The layers are the package's modules.  ``Tracer.install`` replaces each
traced function in every ``plumbjsj`` module namespace that binds it (for
example ``reduction`` imports ``is_consistent`` by name, while ``graph`` and
``reduction`` look up ``_kernel.*`` by attribute), and ``uninstall`` puts the
originals back, so only the traced passes pay for tracing.  The kernel's
implementation modules are left alone: the oracle calls its own propagation
routine 2^n times, and those inner calls are not layer boundaries.

Spans live in flat arrays (name, start, end, parent, op id); the run keeps
the first traced pass's spans and writes them out at the end.  A layer's
self time is its spans' duration minus the part
covered by their child spans.  Trivial helpers such as ``graph.sign`` or
``graph.is_extreme`` are not wrapped: a span would cost more than their body,
so their time stays with the caller.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

KERNEL_IMPLS = ("plumbjsj._kernel.pure", "plumbjsj._kernel._speedups")


def _tree_counts(counts, args, kwargs, tree):
    nodes, edges = len(tree.nodes), len(tree.edges)
    counts["reduction.tree_nodes"] += nodes
    counts["reduction.tree_edges"] += edges
    counts["reduction.dedup_hits"] += edges - nodes + 1
    broken = {(e.parent, e.datum.rule.path) for e in tree.edges if hasattr(e.datum.rule, "path")}
    counts["reduction.paths_broken"] += len(broken)


def _paths_counts(counts, args, kwargs, paths):
    counts["reduction.paths_found"] += len(paths)


def _oracle_counts(counts, args, kwargs, masks):
    counts["kernel.oracle_subsets"] += 1 << args[0]
    counts["kernel.oracle_maximal"] += len(masks)


def _bytes_out(counts, args, kwargs, text):
    counts["report.bytes_out"] += len(text.encode())


def _cf_terms(counts, args, kwargs, terms):
    counts["arith.cf_terms"] += len(terms)


# (layer module as named in run.load_library, function, span name, counter
# or None).  Span names are
# "<layer>.<function>"; the metrics in ``layer_metrics`` are built from them.
SPANS = (
    ("cli", "run_command", "cli.run_command", None),
    ("graphfile", "parse_graph_file", "graphfile.parse", None),
    ("graph", "validate_graph", "graph.validate", None),
    ("graph", "require_valid", "graph.require_valid", None),
    ("graph", "is_consistent", "graph.is_consistent", None),
    ("reduction", "reduce_to_tree", "reduction.reduce", _tree_counts),
    ("reduction", "minimal_inconsistent_paths", "reduction.min_paths", _paths_counts),
    ("reduction", "maximal_consistent_subgraphs", "reduction.oracle", None),
    ("report", "render_report", "report.render", _bytes_out),
    ("report", "emit_dot", "report.dot", _bytes_out),
    ("kernel", "propagation_consistent", "kernel.propagation", None),
    ("kernel", "paths_consistent", "kernel.paths", None),
    ("kernel", "maximal_consistent_masks", "kernel.oracle", _oracle_counts),
    ("arith", "neg_cf_expand", "arith.cf_expand", _cf_terms),
    ("arith", "neg_cf_evaluate", "arith.cf_evaluate", None),
    ("arith", "factor_monodromy", "arith.factor", None),
)

# Counted but not spanned: ``factor_monodromy`` tries ~10^5 candidate words,
# each through ``monodromy_matrix``; a span apiece would swamp the run.
COUNTED = (("arith", "monodromy_matrix", "arith.factor", "arith.factor_candidates"),)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, count=None):
        nid, count_id = self._id(name), self._id("trace.count")
        counts = self.counts

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count is not None:
                # Counting is tracing work: give it its own span so that it
                # is not charged to the caller's self time.
                j = self._open(count_id)
                count(counts, args, kwargs, result)
                self._close(j)
            return result

        return traced

    def counted(self, fn, inside, key):
        inside_id = self._id(inside)
        counts, stack, name = self.counts, self.stack, self.name

        def wrapper(*args, **kwargs):
            if stack and name[stack[-1]] == inside_id:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, target, attr, new):
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, new)

    def _patch_everywhere(self, original, new):
        for modname, mod in list(sys.modules.items()):
            if modname != "plumbjsj" and not modname.startswith("plumbjsj."):
                continue
            if modname in KERNEL_IMPLS:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self, lib):
        modules = vars(lib)
        for module, attr, name, count in SPANS:
            original = getattr(modules[module], attr)
            self._patch_everywhere(original, self.wrap(name, original, count))
        for module, attr, inside, key in COUNTED:
            original = getattr(modules[module], attr)
            self._patch_everywhere(original, self.counted(original, inside, key))
        diagram = lib.diagram
        for attr, value in list(vars(diagram).items()):
            if callable(value) and getattr(value, "__module__", None) == diagram.__name__ \
                    and not attr.startswith("_") and not isinstance(value, type):
                self._patch_everywhere(value, self.wrap("diagram.call", value))
        cls = lib.graph.PlumbingGraph
        self._patch(cls, "__init__", self.wrap("graph.build", cls.__init__))

    def uninstall(self):
        while self._patches:
            target, attr, value = self._patches.pop()
            setattr(target, attr, value)

    def truncate(self, first):
        """Drop the spans from index ``first`` on."""
        for column in (self.name, self.start, self.end, self.parent, self.op):
            del column[first:]

    def self_times(self, first=0):
        """{span name: (calls, self seconds)} over spans from index ``first``."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(first, n)]
        for i in range(first, n):
            p = self.parent[i]
            if p >= first:
                own[p - first] -= self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for k, i in enumerate(range(first, n)):
            entry = out.setdefault(self.names[self.name[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += own[k]
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path):
        """One tab-separated line per span: name, start, end, parent, op id."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.op[i]}\n"
                )


def layer_metrics(spans, counts):
    """Per-layer metrics for one pass: ``spans`` from ``self_times``,
    ``counts`` the counters that pass added."""

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def secs(*names):
        return sum(spans.get(n, (0, 0.0))[1] for n in names)

    found = counts["reduction.paths_found"]
    subsets = counts["kernel.oracle_subsets"]
    return {
        "graph.validate_calls": (calls("graph.validate"), "count"),
        "graph.validate_s": (secs("graph.validate", "graph.require_valid"), "s"),
        "graph.build_calls": (calls("graph.build"), "count"),
        "graph.build_s": (secs("graph.build"), "s"),
        "graph.is_consistent_calls": (calls("graph.is_consistent"), "count"),
        "graph.is_consistent_s": (secs("graph.is_consistent"), "s"),
        "reduction.reduce_calls": (calls("reduction.reduce"), "count"),
        "reduction.reduce_self_s": (secs("reduction.reduce"), "s"),
        "reduction.tree_nodes": (counts["reduction.tree_nodes"], "count"),
        "reduction.tree_edges": (counts["reduction.tree_edges"], "count"),
        "reduction.dedup_hits": (counts["reduction.dedup_hits"], "count"),
        "reduction.min_paths_calls": (calls("reduction.min_paths"), "count"),
        "reduction.min_paths_s": (secs("reduction.min_paths"), "s"),
        "reduction.paths_found": (found, "count"),
        "reduction.paths_used_ratio": (
            counts["reduction.paths_broken"] / found if found else 0.0, "ratio"),
        "reduction.oracle_self_s": (secs("reduction.oracle"), "s"),
        "report.render_s": (secs("report.render"), "s"),
        "report.dot_s": (secs("report.dot"), "s"),
        "report.bytes_out": (counts["report.bytes_out"], "bytes"),
        "kernel.propagation_calls": (calls("kernel.propagation"), "count"),
        "kernel.propagation_s": (secs("kernel.propagation"), "s"),
        "kernel.paths_calls": (calls("kernel.paths"), "count"),
        "kernel.paths_s": (secs("kernel.paths"), "s"),
        "kernel.oracle_calls": (calls("kernel.oracle"), "count"),
        "kernel.oracle_s": (secs("kernel.oracle"), "s"),
        "kernel.oracle_subsets": (subsets, "count"),
        "kernel.oracle_yield": (
            counts["kernel.oracle_maximal"] / subsets if subsets else 0.0, "ratio"),
        "arith.cf_expand_s": (secs("arith.cf_expand"), "s"),
        "arith.cf_evaluate_s": (secs("arith.cf_evaluate"), "s"),
        "arith.cf_terms": (counts["arith.cf_terms"], "count"),
        "arith.factor_calls": (calls("arith.factor"), "count"),
        "arith.factor_s": (secs("arith.factor"), "s"),
        "arith.factor_candidates": (counts["arith.factor_candidates"], "count"),
        "diagram.calls": (calls("diagram.call"), "count"),
        "diagram.s": (secs("diagram.call"), "s"),
        "cli.calls": (calls("cli.run_command"), "count"),
        "cli.self_s": (secs("cli.run_command"), "s"),
        "graphfile.parse_calls": (calls("graphfile.parse"), "count"),
        "graphfile.parse_s": (secs("graphfile.parse"), "s"),
    }


# Span names grouped by layer, for the "largest self time" summary.
LAYERS = ("cli", "graphfile", "graph", "kernel", "reduction", "report", "arith", "diagram")


def layer_self_times(spans):
    out = dict.fromkeys(LAYERS, 0.0)
    for name, (_, own) in spans.items():
        layer = name.split(".")[0]
        if layer in out:
            out[layer] += own
    return out

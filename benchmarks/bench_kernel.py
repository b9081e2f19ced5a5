"""Time the three hot kernels, the reduction and the arith layer alone.

Usage: python3 benchmarks/bench_kernel.py [--repeats N]

The workloads mirror the acceptance sweeps: many tiny consistency checks over
mixed sign patterns, the brute-force path enumerator on dense cases, and the
maximal-consistent-subset oracle on mid-size graphs.  Each row times the
library's routine: ``_kernel.propagation_consistent``,
``_kernel.paths_consistent`` and the component-split oracle
``_kernel.maximal_consistent_masks``.

The arith rows mirror the benchmark's arith_roundtrip workload:
``factor_monodromy`` at the CLI defaults on words of 2-5 exponents with
a_0 = 3 and the rest in 2-4, and the continued-fraction rows (expand,
evaluate and count every coprime q < p for p up to 500).

The reduction rows time, each on its own, ``reduce_to_tree`` with
``explore_all_paths=True``, then ``render_report`` and ``emit_dot`` on its
tree, for the 12-vertex path whose signs read ``+-0+-0+-0+-0`` (1,344 nodes
and 4,232 edges).
"""

from __future__ import annotations

import argparse
import random
import time
from math import gcd

from plumbjsj import _kernel, arith, diagram, reduction, report
from plumbjsj.graph import PlumbingGraph


def make_instances(rng, count, n_range, edge_prob):
    out = []
    for _ in range(count):
        n = rng.randint(*n_range)
        signs = [rng.choice((-1, 0, 1)) for _ in range(n)]
        extreme = [1 if s != 0 else rng.choice((0, 1)) for s in signs]
        edges = [
            (u, v, rng.choice((1, -1)))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < edge_prob
        ]
        out.append((n, signs, extreme, edges))
    return out


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def time_call(fn, instances, repeats):
    def run():
        for n, signs, extreme, edges in instances:
            fn(n, signs, extreme, edges)

    return best_of(run, repeats)


# (label, routine, instance parameters) per kernel row.
KERNEL_WORKLOADS = [
    (
        "propagation_consistent (20k graphs, n<=8)",
        lambda n, s, x, e: _kernel.propagation_consistent(n, s, e),
        dict(count=20000, n_range=(2, 8), edge_prob=0.35),
    ),
    (
        "paths_consistent (5k graphs, n<=8)",
        lambda n, s, x, e: _kernel.paths_consistent(n, s, e),
        dict(count=5000, n_range=(2, 8), edge_prob=0.45),
    ),
    (
        "maximal_consistent_masks (200 graphs, n<=14)",
        _kernel.maximal_consistent_masks,
        dict(count=200, n_range=(8, 14), edge_prob=0.25),
    ),
]


ARITH_WORDS_LABEL = "factor_monodromy (400 words, 2-5 exponents)"
ARITH_ROWS_LABEL = "cf rows: expand/evaluate/count (p<=500)"


def make_words(rng, per_length=100):
    return [
        arith.MonodromyWord(rng.choice((1, -1)), (3,) + tuple(rng.randint(2, 4) for _ in range(n)))
        for n in range(1, 5)
        for _ in range(per_length)
    ]


def factor_words(matrices):
    for m in matrices:
        arith.factor_monodromy(m, max_n=6, max_a=12)


def cf_rows(rows):
    for p, qs in rows:
        for q in qs:
            a = arith.neg_cf_expand(p, q)
            arith.neg_cf_evaluate(a)
            diagram.count_structures(a)


REDUCE_LABELS = (
    "reduce_to_tree --all-paths (n=12 path)",
    "render_report (its 1,344-node tree)",
    "emit_dot (its 1,344-node tree)",
)


def signed_path(pattern):
    """A path with one vertex per character: '+' is (-3, 1), '-' is (-3, -1)
    and '0' is (-2, 0); all edges positive."""
    deco = {"+": (-3, 1), "-": (-3, -1), "0": (-2, 0)}
    return PlumbingGraph(
        {i: deco[c] for i, c in enumerate(pattern)},
        [(i, i + 1, 1) for i in range(len(pattern) - 1)],
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    for label, fn, params in KERNEL_WORKLOADS:
        instances = make_instances(random.Random(7), **params)
        print(f"{label:46s} library {time_call(fn, instances, args.repeats) * 1e3:8.1f} ms")

    g = signed_path("+-0+-0+-0+-0")
    tree = reduction.reduce_to_tree(g, explore_all_paths=True)
    layers = (
        lambda: reduction.reduce_to_tree(g, explore_all_paths=True),
        lambda: report.render_report(tree),
        lambda: report.emit_dot(tree),
    )
    for label, fn in zip(REDUCE_LABELS, layers):
        print(f"{label:46s} library {best_of(fn, args.repeats) * 1e3:8.1f} ms")

    matrices = [arith.monodromy_matrix(w) for w in make_words(random.Random(7))]
    t_factor = best_of(lambda: factor_words(matrices), args.repeats)
    print(f"{ARITH_WORDS_LABEL:46s} library {t_factor * 1e3:8.1f} ms")
    rows = [(p, [q for q in range(1, p) if gcd(p, q) == 1]) for p in range(2, 501)]
    t_rows = best_of(lambda: cf_rows(rows), args.repeats)
    print(f"{ARITH_ROWS_LABEL:46s} library {t_rows * 1e3:8.1f} ms")


if __name__ == "__main__":
    main()

"""Time the three hot kernels alone.

Usage: python3 benchmarks/bench_kernel.py [--repeats N]

The workloads mirror the acceptance sweeps: many tiny consistency checks over
mixed sign patterns, the brute-force path enumerator on dense cases, and the
maximal-consistent-subset oracle on mid-size graphs.  Sign propagation and
path enumeration are timed in the pure-Python backend and, when it is built,
the compiled one.  The oracle row times the library's oracle,
``_kernel.maximal_consistent_masks``, which is the pure component-split
routine under every backend.
"""

from __future__ import annotations

import argparse
import random
import time

from plumbjsj import _kernel
from plumbjsj._kernel import pure

try:
    from plumbjsj._kernel import _speedups
except ImportError:
    _speedups = None


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


def time_call(fn, instances, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for n, signs, extreme, edges in instances:
            fn(n, signs, extreme, edges)
        best = min(best, time.perf_counter() - start)
    return best


# Kernels with a pure and a compiled twin: (label, pick, instance parameters).
TWIN_WORKLOADS = [
    (
        "propagation_consistent (20k graphs, n<=8)",
        lambda m: (lambda n, s, x, e: m.propagation_consistent(n, s, e)),
        dict(count=20000, n_range=(2, 8), edge_prob=0.35),
    ),
    (
        "paths_consistent (5k graphs, n<=8)",
        lambda m: (lambda n, s, x, e: m.paths_consistent(n, s, e)),
        dict(count=5000, n_range=(2, 8), edge_prob=0.45),
    ),
]

ORACLE_LABEL = "maximal_consistent_masks (200 graphs, n<=14)"
ORACLE_PARAMS = dict(count=200, n_range=(8, 14), edge_prob=0.25)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    if _speedups is None:
        print("compiled kernel not built; timing the pure backend only")

    for label, pick, params in TWIN_WORKLOADS:
        instances = make_instances(random.Random(7), **params)
        t_pure = time_call(pick(pure), instances, args.repeats)
        line = f"{label:46s} pure {t_pure * 1e3:8.1f} ms"
        if _speedups is not None:
            t_fast = time_call(pick(_speedups), instances, args.repeats)
            line += f"   compiled {t_fast * 1e3:8.1f} ms   speedup {t_pure / t_fast:5.1f}x"
        print(line)

    instances = make_instances(random.Random(7), **ORACLE_PARAMS)
    t_oracle = time_call(_kernel.maximal_consistent_masks, instances, args.repeats)
    print(f"{ORACLE_LABEL:46s} library {t_oracle * 1e3:8.1f} ms")


if __name__ == "__main__":
    main()

"""Exhaustive reference for the maximal consistent subgraph oracle.

``maximal_consistent_masks`` scans all 2^n vertex subsets and checks each one
with ``propagation_consistent``.  It is the library's former oracle kept
verbatim, so tests can compare the component-split oracle in
``plumbjsj._kernel.pure`` against an independent route.  It is exponential in
every vertex, extreme or not: keep inputs small.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from plumbjsj._kernel.pure import Edge, propagation_consistent
from plumbjsj.graph import PlumbingGraph


def maximal_consistent_masks(
    n: int,
    extreme: Sequence[int],
    signs: Sequence[int],
    edges: Iterable[Edge],
) -> list[int]:
    """Bitmasks of the maximal vertex subsets inducing a consistent subgraph.

    Exhaustive over all 2^n subsets.  Consistent subsets are closed under
    taking subsets, so maximality only needs single-vertex extensions.
    """
    edge_list = list(edges)
    all_extreme_mask = 0
    for v in range(n):
        if extreme[v]:
            all_extreme_mask |= 1 << v

    consistent = bytearray(1 << n)
    for mask in range(1 << n):
        if mask & ~all_extreme_mask:
            continue
        sub_edges = [(u, v, s) for u, v, s in edge_list if mask >> u & 1 and mask >> v & 1]
        if propagation_consistent(n, signs, sub_edges):
            consistent[mask] = 1

    out = []
    for mask in range(1 << n):
        if not consistent[mask]:
            continue
        if any(not mask >> v & 1 and consistent[mask | 1 << v] for v in range(n)):
            continue
        out.append(mask)
    return out


def maximal_consistent_subgraphs(g: PlumbingGraph) -> list[tuple[int, ...]]:
    """Sorted vertex-id tuples of ``maximal_consistent_masks`` on ``g``, in the
    form ``plumbjsj.reduction.maximal_consistent_subgraphs`` returns."""
    ids, _, signs, extreme, edges = g.compact()
    masks = maximal_consistent_masks(len(ids), extreme, signs, edges)
    return sorted(tuple(ids[i] for i in range(len(ids)) if mask >> i & 1) for mask in masks)

"""Pure-Python kernels for sign propagation, path-product checking and the
maximal consistent subset oracle.

All three operate on a compact encoding of a decorated graph:

    n       -- number of vertices, labelled 0..n-1
    signs   -- per-vertex sign of the secondary weight, each -1, 0 or +1
    extreme -- per-vertex flag, truthy when the decoration is extreme
    edges   -- iterable of (u, v, sign) with u != v and sign = +-1

``propagation_consistent`` and ``paths_consistent`` both decide whether every
endpoint-sign / edge-sign product over paths (including closed paths based at
a signed vertex) is non-negative -- the first by spreading a tentative sign
over each component, the second by brute-force path enumeration.  They are
kept as two genuinely independent routes on purpose.

Both decide that property when every unsigned vertex has degree at most 2,
as on every all-extreme valid graph (an unsigned extreme vertex has b = -2,
so goodness caps its degree at 2): a negative cycle in a component with a
signed vertex then passes through one.  Outside that domain only
``paths_consistent`` follows the definition, since propagation also rejects
a negative cycle that a signed vertex reaches without lying on it.  For a
signed pendant vertex 0 on the unsigned junction 1 (b = -4, r = 0) of the
negative triangle 1-2-3, propagation says False and paths says True.

``maximal_consistent_masks`` splits the extreme vertices' subgraph into
connected components and scans each inconsistent component's subsets alone,
instead of all 2^n subsets of the graph.  The exhaustive 2^n scan it replaces
is kept as the reference in ``tests/brute_oracle.py``.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

Edge = tuple[int, int, int]


def _adjacency(n: int, edges: Iterable[Edge]) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, s in edges:
        adj[u].append((v, s))
        adj[v].append((u, s))
    return adj


def propagation_consistent(n: int, signs: Sequence[int], edges: Iterable[Edge]) -> bool:
    """Breadth-first sign propagation from a signed root in each component."""
    adj = _adjacency(n, edges)
    tau = [0] * n
    for root in range(n):
        if signs[root] == 0 or tau[root] != 0:
            continue
        tau[root] = signs[root]
        stack = [root]
        while stack:
            v = stack.pop()
            tv = tau[v]
            for w, s in adj[v]:
                t = tv * s
                if tau[w] == 0:
                    if signs[w] != 0 and signs[w] != t:
                        return False
                    tau[w] = t
                    stack.append(w)
                elif tau[w] != t:
                    return False
    return True


def paths_consistent(n: int, signs: Sequence[int], edges: Iterable[Edge]) -> bool:
    """Brute-force enumeration of simple paths between signed endpoints and of
    simple closed paths based at a signed vertex.

    Paths with an unsigned endpoint have product zero and are skipped; that is
    the only pruning applied.  The search recurses once per path vertex, so a
    path longer than Python's recursion limit (``sys.getrecursionlimit()``,
    1,000 frames by default, less the caller's) raises ``RecursionError``.
    """
    adj = _adjacency(n, edges)
    visited = [False] * n

    def extend(start: int, v: int, prod: int, depth: int) -> bool:
        for w, s in adj[v]:
            p = prod * s
            if w == start:
                # Closing edge: a simple closed path needs >= 3 vertices.
                if depth >= 2 and p < 0:
                    return False
                continue
            if visited[w]:
                continue
            if signs[w] != 0 and signs[start] * p * signs[w] < 0:
                return False
            visited[w] = True
            if not extend(start, w, p, depth + 1):
                return False
            visited[w] = False
        return True

    for start in range(n):
        if signs[start] == 0:
            continue
        visited[start] = True
        if not extend(start, start, 1, 0):
            return False
        visited[start] = False
    return True


def maximal_consistent_masks(
    n: int,
    extreme: Sequence[int],
    signs: Sequence[int],
    edges: Iterable[Edge],
) -> list[int]:
    """Bitmasks of the maximal vertex subsets inducing a consistent subgraph,
    ascending.

    Only extreme vertices can belong to one.  A sign conflict or a negative
    cycle lies inside one connected component, so a set is consistent exactly
    when its part in each component of the extreme vertices' subgraph is, and
    the maximal sets are the unions of one maximal set per component.
    """
    adj = _adjacency(n, ((u, v, s) for u, v, s in edges if extreme[u] and extreme[v]))
    seen = [False] * n
    choices = []
    for root in range(n):
        if not extreme[root] or seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for v in comp:
            for w, _ in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        choices.append(_component_maximal(sorted(comp), signs, adj))
    # The components' masks are disjoint, so their sum is their union.
    return sorted(sum(pick) for pick in product(*choices))


def _component_maximal(
    comp: list[int], signs: Sequence[int], adj: list[list[tuple[int, int]]]
) -> list[int]:
    """Bitmasks of the maximal consistent subsets of one connected component.

    A consistent component is its own only choice.  Otherwise its 2^k
    subsets are scanned in increasing order on local indices 0..k-1, at most
    one check each.  Consistency is hereditary, so a subset is checked only
    when dropping its lowest or its highest vertex leaves a consistent set,
    and then only the component of its highest vertex needs a check.
    """
    k = len(comp)
    local = {v: i for i, v in enumerate(comp)}
    local_signs = [signs[v] for v in comp]
    nbrs = [[(1 << local[w], local[w], s) for w, s in adj[v]] for v in comp]
    full = (1 << k) - 1
    if _consistent_around(full, 0, local_signs, nbrs, [0] * k):
        return [sum(1 << v for v in comp)]

    ok = bytearray(1 << k)
    ok[0] = 1
    for mask in range(1, 1 << k):
        top = mask.bit_length() - 1
        if (
            ok[mask & (mask - 1)]
            and ok[mask ^ (1 << top)]
            and _consistent_around(mask, top, local_signs, nbrs, [0] * k)
        ):
            ok[mask] = 1

    bits = [1 << i for i in range(k)]
    out = []
    for mask in range(1 << k):
        if ok[mask] and not any(ok[mask | b] for b in bits if not mask & b):
            out.append(sum(1 << comp[i] for i in range(k) if mask >> i & 1))
    return out


def _consistent_around(mask: int, h: int, signs: Sequence[int], nbrs, z: list[int]) -> bool:
    """Whether the component of local vertex h in the subgraph induced by
    ``mask`` is consistent; ``z`` is 0 on that component and is left holding
    its potential.

    Spreads a switching potential z (z[h] = 1) over the component.  It is
    inconsistent when it holds a signed vertex and either an edge disagrees
    with z (a negative cycle) or two signed vertices w differ in
    signs[w] * z[w] (a negative path between them).
    """
    z[h] = 1
    anchor = signs[h]
    balanced = True
    stack = [h]
    while stack:
        v = stack.pop()
        zv = z[v]
        for bit, w, s in nbrs[v]:
            if not mask & bit:
                continue
            t = zv * s
            if not z[w]:
                z[w] = t
                stack.append(w)
                if signs[w]:
                    if not anchor:
                        anchor = signs[w] * t
                    elif anchor != signs[w] * t:
                        return False
            elif z[w] != t:
                balanced = False
    return balanced or not anchor

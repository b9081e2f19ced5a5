"""Graph-per-node reference for the reduction tree.

This is the library's former reduction kept verbatim: every tree node holds
its own ``PlumbingGraph``, built by deleting one vertex from its parent's,
and every check (consistency, the non-extreme move, minimal-path search, the
datum's neighbour edges) runs on that graph.  Tests compare the mask-keyed
reduction in ``plumbjsj.reduction`` against it.  The tree it returns is a
``plumbjsj.reduction.ReductionTree`` whose nodes are this module's
``TreeNode``, so the library's report and DOT renderers accept it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from plumbjsj.graph import (
    Path,
    PlumbingGraph,
    _consistent,
    is_consistent,
    is_extreme,
    require_valid,
    sign,
    vertex_unknot,
)
from plumbjsj.reduction import (
    NonExtreme,
    PathBreak,
    ReductionTree,
    RoundHandleDatum,
    TreeEdge,
)


@dataclass
class TreeNode:
    graph: PlumbingGraph
    consistent: bool


def _non_extreme(g: PlumbingGraph) -> list[int]:
    return sorted(v for v, (b, r) in g.vertices.items() if not is_extreme(b, r))


def minimal_inconsistent_paths(g: PlumbingGraph) -> list[Path]:
    require_valid(g)
    if _non_extreme(g):
        raise ValueError("graph has non-extreme vertices; delete those first")
    return _minimal_paths(g)


def _minimal_paths(g: PlumbingGraph) -> list[Path]:
    """minimal_inconsistent_paths on a valid, all-extreme graph, unchecked."""
    adj = g.adjacency()
    sgn = {v: sign(r) for v, (b, r) in g.vertices.items()}
    found: dict[tuple[tuple[int, ...], bool], Path] = {}

    def record(vertices: tuple[int, ...], closed: bool, prod: int) -> None:
        if closed:
            # Same cycle discovered in both directions; keep the smaller.
            alt = (vertices[0],) + tuple(reversed(vertices[1:-1])) + (vertices[0],)
            vertices = min(vertices, alt)
        key = (min(vertices, tuple(reversed(vertices))), closed)
        found.setdefault(key, Path(vertices, closed, prod))

    def extend(start: int, path: list[int], prod: int) -> None:
        v = path[-1]
        for w, s in adj[v]:
            p = prod * s
            if w == start:
                if len(path) >= 3 and p < 0:
                    record(tuple(path) + (start,), True, p)
                continue
            if w in path:
                continue
            if sgn[w] != 0:
                if w > start and sgn[start] * p * sgn[w] < 0:
                    record(tuple(path) + (w,), False, p)
                continue
            path.append(w)
            extend(start, path, p)
            path.pop()

    for start in sorted(v for v in g.vertices if sgn[v] != 0):
        extend(start, [start], 1)

    return sorted(found.values(), key=lambda p: (tuple(sorted(set(p.vertices))), p.vertices))


def _datum(g: PlumbingGraph, v: int, rule) -> RoundHandleDatum:
    b, r = g.vertices[v]
    lam_plus, lam_minus = vertex_unknot(b, r).split()
    nbr = tuple(sorted((min(v, w), max(v, w), s) for w, s in g.adjacency()[v]))
    return RoundHandleDatum(v, (b, r), rule, lam_plus, lam_minus, nbr)


def _moves(g: PlumbingGraph, all_paths: bool) -> list[tuple[int, NonExtreme | PathBreak]]:
    """(deleted vertex, rule) per child of a valid inconsistent graph; a vertex
    is listed once, at its first position (a closed path names its base twice)."""
    non_extreme = _non_extreme(g)
    if non_extreme:
        return [(non_extreme[0], NonExtreme())]
    paths = _minimal_paths(g)
    moves: dict[int, PathBreak] = {}
    for path in paths if all_paths else paths[:1]:
        for k, v in enumerate(path.vertices, start=1):
            if v not in moves:
                moves[v] = PathBreak(path, k)
    return list(moves.items())


def reduction_children(g: PlumbingGraph) -> list[tuple[PlumbingGraph, RoundHandleDatum]]:
    if is_consistent(g):
        raise ValueError("consistent graph has no reduction children")
    return [(g.delete_vertex(v), _datum(g, v, rule)) for v, rule in _moves(g, False)]


def reduce_to_tree(g: PlumbingGraph, explore_all_paths: bool = False) -> ReductionTree:
    require_valid(g)
    tree = ReductionTree(root=g)
    root_set = frozenset(g.vertices)
    tree.nodes[root_set] = TreeNode(g, _consistent(g))
    queue: deque[frozenset[int]] = deque([root_set])
    while queue:
        parent_set = queue.popleft()
        node = tree.nodes[parent_set]
        if node.consistent:
            continue
        for v, rule in _moves(node.graph, explore_all_paths):
            child_set = parent_set - {v}
            tree.edges.append(TreeEdge(parent_set, child_set, _datum(node.graph, v, rule)))
            if child_set not in tree.nodes:
                child = node.graph.delete_vertex(v)
                tree.nodes[child_set] = TreeNode(child, _consistent(child))
                queue.append(child_set)
    return tree

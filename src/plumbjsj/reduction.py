"""Reduction of inconsistent plumbing graphs to trees of consistent leaves.

An inconsistent graph is reduced one vertex at a time: a non-extreme vertex
is deleted outright, otherwise a minimal inconsistent path is broken at each
of its vertices.  Every deletion is recorded with the round-1-handle datum
(the pinched pair of unknots) needed to rebuild fillings of the parent from
fillings of the child.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from plumbjsj import _kernel
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
from plumbjsj.unknot import UnknotDescriptor


class SizeLimitError(ValueError):
    """Subset enumeration refused: too many vertices."""


MAX_ORACLE_VERTICES = 22


@dataclass(frozen=True)
class NonExtreme:
    """Deletion rule: the vertex carried a non-extreme secondary weight."""

    def __str__(self) -> str:
        return "non-extreme"


@dataclass(frozen=True)
class PathBreak:
    """Deletion rule: vertex k (1-based) of a minimal inconsistent path."""

    path: Path
    index: int

    def __str__(self) -> str:
        verts = ",".join(str(v) for v in self.path.vertices)
        return f"path-break[{verts}] k={self.index}"


@dataclass(frozen=True)
class RoundHandleDatum:
    deleted_vertex: int
    deleted_decoration: tuple[int, int]
    rule: NonExtreme | PathBreak
    lambda_plus: UnknotDescriptor
    lambda_minus: UnknotDescriptor
    neighbor_edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        assert self.lambda_plus.s_minus == 0
        assert self.lambda_minus.s_plus == 0


@dataclass
class TreeNode:
    graph: PlumbingGraph
    consistent: bool


@dataclass(frozen=True)
class TreeEdge:
    parent: frozenset[int]
    child: frozenset[int]
    datum: RoundHandleDatum


@dataclass
class ReductionTree:
    root: PlumbingGraph
    nodes: dict[frozenset[int], TreeNode] = field(default_factory=dict)
    edges: list[TreeEdge] = field(default_factory=list)

    def leaves(self) -> list[tuple[int, ...]]:
        """Sorted vertex sets of the consistent nodes."""
        return sorted(
            tuple(sorted(s)) for s, node in self.nodes.items() if node.consistent
        )


def non_extreme_vertices(g: PlumbingGraph) -> list[int]:
    """Ids of vertices whose secondary weight is not extreme, ascending."""
    require_valid(g)
    return _non_extreme(g)


def _non_extreme(g: PlumbingGraph) -> list[int]:
    return sorted(v for v, (b, r) in g.vertices.items() if not is_extreme(b, r))


def minimal_inconsistent_paths(g: PlumbingGraph) -> list[Path]:
    """All inclusion-minimal inconsistent paths, one per reversal class.

    Only defined on all-extreme graphs (a non-extreme vertex is deleted by the
    other rule first).  A minimal inconsistent path has signed endpoints, a
    negative total product, and unsigned interior vertices; conversely every
    such path is minimal, since any proper sub-path acquires an unsigned
    endpoint.
    """
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
    """Children of an inconsistent graph under the default (deterministic)
    choices: least non-extreme vertex first, else the least minimal
    inconsistent path, broken at every position."""
    if is_consistent(g):
        raise ValueError("consistent graph has no reduction children")
    return [(g.delete_vertex(v), _datum(g, v, rule)) for v, rule in _moves(g, False)]


def reduce_to_tree(g: PlumbingGraph, explore_all_paths: bool = False) -> ReductionTree:
    """Expand reduction children breadth-first until every leaf is consistent.

    Nodes are deduplicated globally by vertex set, and a child's graph is
    built only for a new set.  With explore_all_paths, every minimal
    inconsistent path contributes children, not just the least.
    """
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


def maximal_consistent_subgraphs(g: PlumbingGraph) -> list[tuple[int, ...]]:
    """Vertex sets inducing maximal consistent subgraphs, sorted.

    This is the independent oracle for the reduction algorithm: it searches
    vertex subsets and makes no reduction moves.  The kernel splits the
    extreme vertices' subgraph into connected components and scans the
    subsets of each inconsistent component alone; the exhaustive scan over
    all 2^n subsets is kept as the tests' reference (tests/brute_oracle.py).
    """
    require_valid(g)
    ids, _, signs, extreme, edges = g.compact()
    n = len(ids)
    if n > MAX_ORACLE_VERTICES:
        raise SizeLimitError(
            f"subset enumeration limited to {MAX_ORACLE_VERTICES} vertices, got {n}"
        )
    masks = _kernel.maximal_consistent_masks(n, extreme, signs, edges)
    return sorted(
        tuple(ids[i] for i in range(n) if mask >> i & 1) for mask in masks
    )

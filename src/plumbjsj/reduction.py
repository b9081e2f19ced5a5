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


_NON_EXTREME = NonExtreme()


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


class TreeNode:
    """A reduction-tree node: its vertex set, whether the subgraph it induces
    on the root is consistent, and that subgraph, built on first read."""

    __slots__ = ("root", "vertex_set", "consistent", "_graph")

    def __init__(self, root: PlumbingGraph, vertex_set: frozenset[int], consistent: bool):
        self.root = root
        self.vertex_set = vertex_set
        self.consistent = consistent
        self._graph = root if len(vertex_set) == len(root.vertices) else None

    @property
    def graph(self) -> PlumbingGraph:
        if self._graph is None:
            self._graph = self.root.induced_subgraph(self.vertex_set)
        return self._graph


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


class _Encoding:
    """A valid root graph in the form every reduction check runs on.

    Bit i of a node's mask stands for vertex ids[i] (ids ascending), so a
    node is the subgraph its mask induces.  nbrs[i] lists (1 << j, j, edge
    sign) per neighbour j, ascending.  An encoding lives for one public
    call, and so do the path list and the data it keeps.
    """

    __slots__ = (
        "graph", "ids", "index", "signs", "nbrs", "non_extreme",
        "_deletions", "_paths", "_data",
    )

    def __init__(self, g: PlumbingGraph):
        ids, index, signs, extreme, edges = g.compact()
        nbrs: list[list[tuple[int, int, int]]] = [[] for _ in ids]
        for u, v, s in edges:
            nbrs[u].append((1 << v, v, s))
            nbrs[v].append((1 << u, u, s))
        self.graph = g
        self.ids = ids
        self.index = index
        self.signs = signs
        self.nbrs = nbrs
        self.non_extreme = sum(1 << i for i, x in enumerate(extreme) if not x)
        self._deletions: list = [None] * len(ids)
        self._paths: list | None = None
        self._data: dict[tuple[int, int, int], RoundHandleDatum] = {}

    @property
    def full(self) -> int:
        return (1 << len(self.ids)) - 1

    @property
    def paths(self) -> list[tuple[int, Path, tuple[tuple[int, PathBreak], ...]]]:
        """(vertex mask, path, its breaks) per minimal inconsistent path of
        the root's extreme vertices, in _minimal_paths order.

        A node induces a subgraph of the root with the same signs and edges,
        so the minimal inconsistent paths of an all-extreme node are exactly
        the root's whose vertices it keeps (reduce_to_tree carries each
        node's share).  A path's breaks list each vertex once, at its first
        position (a closed path names its base twice).
        """
        if self._paths is None:
            index = self.index
            self._paths = []
            for path in _minimal_paths(self, self.full & ~self.non_extreme):
                breaks: dict[int, PathBreak] = {}
                for k, v in enumerate(path.vertices, start=1):
                    if v not in breaks:
                        breaks[v] = PathBreak(path, k)
                bits = sum(1 << index[v] for v in breaks)
                self._paths.append((bits, path, tuple(breaks.items())))
        return self._paths

    def datum(self, mask: int, v: int, rule) -> RoundHandleDatum:
        """The datum of deleting vertex id v from the node mask: one object
        per (vertex, rule object, surviving neighbours)."""
        i = self.index[v]
        known = self._deletions[i]
        if known is None:
            # Per vertex, once: its decoration, its unknot's split, its
            # edges as (low id, high id, sign), ascending like nbrs[i], and
            # the mask of its neighbours.
            decoration = self.graph.vertices[v]
            ids = self.ids
            edges = [(bit, (min(v, ids[j]), max(v, ids[j]), s)) for bit, j, s in self.nbrs[i]]
            known = self._deletions[i] = (
                decoration, *vertex_unknot(*decoration).split(), edges,
                sum(bit for bit, _ in edges),
            )
        decoration, plus, minus, edges, nbr_bits = known
        # Keyed by the rule's identity: rules are made once per encoding, and
        # the cached datum holds its rule, so no key's id can be reused.
        key = (i, id(rule), mask & nbr_bits)
        d = self._data.get(key)
        if d is None:
            nbr = tuple(e for bit, e in edges if mask & bit)
            d = self._data[key] = RoundHandleDatum(v, decoration, rule, plus, minus, nbr)
        return d


def non_extreme_vertices(g: PlumbingGraph) -> list[int]:
    """Ids of vertices whose secondary weight is not extreme, ascending."""
    require_valid(g)
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
    enc = _Encoding(g)
    if enc.non_extreme:
        raise ValueError("graph has non-extreme vertices; delete those first")
    return [path for _, path, _ in enc.paths]


def _minimal_paths(enc: _Encoding, mask: int) -> list[Path]:
    """minimal_inconsistent_paths on the all-extreme subgraph that mask
    induces.  The search runs on bit indices; ids ascend with them, so every
    comparison below orders the paths as it would on ids."""
    signs, nbrs = enc.signs, enc.nbrs
    found: dict[tuple[tuple[int, ...], bool], tuple[tuple[int, ...], bool, int]] = {}

    def record(vertices: tuple[int, ...], closed: bool, prod: int) -> None:
        if closed:
            # Same cycle discovered in both directions; keep the smaller.
            alt = (vertices[0],) + tuple(reversed(vertices[1:-1])) + (vertices[0],)
            vertices = min(vertices, alt)
        key = (min(vertices, tuple(reversed(vertices))), closed)
        found.setdefault(key, (vertices, closed, prod))

    for start in range(mask.bit_length()):
        if not (mask >> start & 1 and signs[start]):
            continue
        # Depth first on an explicit stack, one (neighbour scan, product) per
        # path vertex: a chain may outrun Python's recursion limit.
        path, used = [start], 1 << start
        stack = [(iter(nbrs[start]), 1)]
        while stack:
            scan, prod = stack[-1]
            for bit, w, s in scan:
                if not mask & bit:
                    continue
                p = prod * s
                if w == start:
                    if len(path) >= 3 and p < 0:
                        record(tuple(path) + (start,), True, p)
                    continue
                if used & bit:
                    continue
                if signs[w] != 0:
                    if w > start and signs[start] * p * signs[w] < 0:
                        record(tuple(path) + (w,), False, p)
                    continue
                path.append(w)
                used |= bit
                stack.append((iter(nbrs[w]), p))
                break
            else:
                stack.pop()
                used &= ~(1 << path.pop())

    ids = enc.ids
    return [
        Path(tuple(ids[i] for i in vertices), closed, prod)
        for vertices, closed, prod in sorted(
            found.values(), key=lambda p: (tuple(sorted(set(p[0]))), p[0])
        )
    ]


def _moves(
    enc: _Encoding, mask: int, paths: list, all_paths: bool
) -> tuple[tuple[int, NonExtreme | PathBreak], ...]:
    """(deleted vertex id, rule) per child of the inconsistent node mask,
    whose surviving _Encoding.paths entries are paths: the least non-extreme
    vertex, else the breaks of the least minimal inconsistent path, or with
    all_paths of every one (a vertex listed once, at its first break)."""
    non_extreme = mask & enc.non_extreme
    if non_extreme:
        return ((enc.ids[(non_extreme & -non_extreme).bit_length() - 1], _NON_EXTREME),)
    if not all_paths:
        return paths[0][2]
    moves: dict[int, PathBreak] = {}
    for _, _, breaks in paths:
        for v, rule in breaks:
            moves.setdefault(v, rule)
    return tuple(moves.items())


def reduction_children(g: PlumbingGraph) -> list[tuple[PlumbingGraph, RoundHandleDatum]]:
    """Children of an inconsistent graph under the default (deterministic)
    choices: least non-extreme vertex first, else the least minimal
    inconsistent path, broken at every position."""
    if is_consistent(g):
        raise ValueError("consistent graph has no reduction children")
    enc = _Encoding(g)
    moves = _moves(enc, enc.full, enc.paths, False)
    return [(g.delete_vertex(v), enc.datum(enc.full, v, rule)) for v, rule in moves]


def reduce_to_tree(g: PlumbingGraph, explore_all_paths: bool = False) -> ReductionTree:
    """Expand reduction children breadth-first until every leaf is consistent.

    Nodes are deduplicated globally by vertex set.  The search runs on bit
    masks over the root's compact encoding (the child of mask after deleting
    vertex i is mask & ~(1 << i)) and builds no node graph: TreeNode.graph
    builds one on first read.  The minimal inconsistent paths are enumerated
    once, on the root, and each queued node carries those that survive in
    it; an all-extreme node is consistent exactly when none does (its
    unsigned vertices have degree at most 2, see _kernel.pure).  Edges that
    delete the same vertex by the same rule beside the same neighbours share
    one datum.  With explore_all_paths, every minimal inconsistent path
    contributes children, not just the least.
    """
    require_valid(g)
    tree = ReductionTree(root=g)
    root_set = frozenset(g.vertices)
    consistent = _consistent(g)
    tree.nodes[root_set] = TreeNode(g, root_set, consistent)
    if consistent:
        return tree
    enc = _Encoding(g)
    full = enc.full
    sets = {full: root_set}
    queue = deque([(full, root_set, enc.paths)])
    while queue:
        mask, parent_set, paths = queue.popleft()
        for v, rule in _moves(enc, mask, paths, explore_all_paths):
            bit = 1 << enc.index[v]
            child = mask & ~bit
            child_set = sets.get(child)
            if child_set is None:
                child_set = sets[child] = parent_set - {v}
                kept = [entry for entry in paths if not entry[0] & bit]
                consistent = not (child & enc.non_extreme or kept)
                tree.nodes[child_set] = TreeNode(g, child_set, consistent)
                if not consistent:
                    # A child that loses no entry shares its parent's list:
                    # the queue keeps a new list only where one shrinks.
                    queue.append((child, child_set, kept if len(kept) < len(paths) else paths))
            tree.edges.append(TreeEdge(parent_set, child_set, enc.datum(mask, v, rule)))
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

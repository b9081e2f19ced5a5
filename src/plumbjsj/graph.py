"""Plumbing-graph data model, decoration validation, and consistency.

A plumbing graph is a finite simple graph whose vertices carry a primary
weight b (the surgery framing is b, the corresponding unknot has tb = b+1)
and a secondary weight r (the rotation number), and whose edges carry a sign.
"""

from __future__ import annotations

from dataclasses import dataclass

from plumbjsj import _kernel
from plumbjsj.unknot import UnknotDescriptor


class GraphStructureError(ValueError):
    """Vertex/edge data does not describe a simple decorated graph."""


def sign(x: int) -> int:
    return (x > 0) - (x < 0)


def decoration_valid(b: int, r: int) -> bool:
    """True when (b, r) is an admissible vertex decoration: b <= -2,
    r has the parity of b, and |r| <= -b - 2."""
    return b <= -2 and (r - b) % 2 == 0 and abs(r) <= -b - 2


def is_extreme(b: int, r: int) -> bool:
    """True when the secondary weight takes one of its two extreme values."""
    return r == b + 2 or r == -(b + 2)


def vertex_unknot(b: int, r: int) -> UnknotDescriptor:
    """The Legendrian unknot realizing a valid decoration: tb = b+1, rot = r."""
    if not decoration_valid(b, r):
        raise ValueError(f"invalid decoration (b={b}, r={r})")
    return UnknotDescriptor((-b - 2 + r) // 2, (-b - 2 - r) // 2)


class PlumbingGraph:
    """Immutable decorated graph; vertices maps id -> (b, r)."""

    __slots__ = ("vertices", "edges", "name", "_adj", "_compact")

    def __init__(self, vertices, edges, name: str | None = None):
        verts: dict[int, tuple[int, int]] = {}
        for vid, weights in dict(vertices).items():
            if not isinstance(vid, int) or isinstance(vid, bool) or vid < 0:
                raise GraphStructureError(f"vertex id must be a non-negative integer: {vid!r}")
            b, r = weights
            # Exact type: bool, float and other int subclasses are refused.
            if type(b) is not int or type(r) is not int:
                raise GraphStructureError(
                    f"vertex {vid} has weights {weights!r}, expected integers (b, r)"
                )
            verts[vid] = (b, r)

        norm: dict[tuple[int, int], int] = {}
        for item in edges:
            u, v, s = item
            if u == v:
                raise GraphStructureError(f"self-loop at vertex {u}")
            if u not in verts or v not in verts:
                missing = u if u not in verts else v
                raise GraphStructureError(f"edge ({u},{v}) references unknown vertex {missing}")
            if type(s) is not int or s not in (1, -1):
                raise GraphStructureError(f"edge ({u},{v}) has sign {s!r}, expected +1 or -1")
            key = (min(u, v), max(u, v))
            if key in norm:
                raise GraphStructureError(f"parallel edge between {key[0]} and {key[1]}")
            norm[key] = s

        self._fill(
            dict(sorted(verts.items())),
            frozenset((u, v, s) for (u, v), s in norm.items()),
            name,
        )

    def _fill(self, vertices: dict, edges: frozenset, name: str | None) -> None:
        """Set the fields; vertices sorted by id, edges (u, v, s) with u < v."""
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_adj", None)
        object.__setattr__(self, "_compact", None)

    def __setattr__(self, key, value):
        raise AttributeError("PlumbingGraph is immutable")

    def __eq__(self, other):
        if not isinstance(other, PlumbingGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((tuple(self.vertices.items()), self.edges))

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<PlumbingGraph{label} |V|={len(self.vertices)} |E|={len(self.edges)}>"
        )

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """id -> list of (neighbour id, edge sign), neighbours sorted."""
        if self._adj is None:
            adj: dict[int, list[tuple[int, int]]] = {v: [] for v in self.vertices}
            for u, v, s in self.edges:
                adj[u].append((v, s))
                adj[v].append((u, s))
            for lst in adj.values():
                lst.sort()
            object.__setattr__(self, "_adj", adj)
        return self._adj

    def degree(self, v: int) -> int:
        return len(self.adjacency()[v])

    def compact(self):
        """(ids, index, signs, extreme, edges) with vertices renumbered 0..n-1."""
        if self._compact is None:
            ids = sorted(self.vertices)
            index = {v: i for i, v in enumerate(ids)}
            signs = [sign(self.vertices[v][1]) for v in ids]
            extreme = [int(is_extreme(*self.vertices[v])) for v in ids]
            edges = sorted((index[u], index[v], s) for u, v, s in self.edges)
            object.__setattr__(self, "_compact", (ids, index, signs, extreme, edges))
        return self._compact

    def induced_subgraph(self, keep) -> "PlumbingGraph":
        """The subgraph on the ids in keep.  It is filtered from this graph's
        checked, sorted and normalized fields, so __init__ is skipped."""
        keep = set(keep)
        unknown = keep - self.vertices.keys()
        if unknown:
            raise GraphStructureError(f"unknown vertices {sorted(unknown)}")
        child = object.__new__(PlumbingGraph)
        child._fill(
            {v: w for v, w in self.vertices.items() if v in keep},
            frozenset(e for e in self.edges if e[0] in keep and e[1] in keep),
            self.name,
        )
        return child

    def delete_vertex(self, v: int) -> "PlumbingGraph":
        return self.induced_subgraph(set(self.vertices) - {v})


@dataclass(frozen=True)
class Violation:
    rule: str      # one of "decoration", "good", "shape"
    subject: str   # offending vertex/edge, rendered
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.message} at {self.subject}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def is_valid(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class Path:
    """A path v_1,...,v_{m+1} along edges; closed when v_1 == v_{m+1}."""

    vertices: tuple[int, ...]
    closed: bool
    sign: int

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("a path traverses at least one edge")
        if self.closed != (self.vertices[0] == self.vertices[-1]):
            raise ValueError("closed flag disagrees with endpoints")
        seq = self.vertices[:-1] if self.closed else self.vertices
        if len(set(seq)) != len(seq):
            raise ValueError("path vertices must be distinct")

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


def cycle_rank(g: PlumbingGraph) -> int:
    """Number of independent cycles: |E| - |V| + the number of components,
    counted as the edges that close a cycle in a union-find pass."""
    parent = {v: v for v in g.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rank = 0
    for u, v, _ in g.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            rank += 1
        else:
            parent[ru] = rv
    return rank


def validate_graph(g: PlumbingGraph) -> ValidationReport:
    """Check decoration validity, goodness, and the tame-shape condition.

    Structural defects (dangling endpoints, self-loops, parallel edges,
    duplicate ids) are rejected as GraphStructureError already at
    construction / parse time, so they cannot reach this function.
    """
    out: list[Violation] = []
    high_degree = []
    for v, (b, r) in g.vertices.items():
        if b > -2:
            out.append(Violation("decoration", f"vertex {v}", f"b(v) <= -2 fails (b={b})"))
        elif not decoration_valid(b, r):
            out.append(
                Violation(
                    "decoration",
                    f"vertex {v}",
                    f"r(v) must equal b(v)+2k with 1 <= k <= -(b(v)+1) (b={b}, r={r})",
                )
            )
        degree = g.degree(v)
        if b + degree > 0:
            out.append(
                Violation("good", f"vertex {v}", f"b(v)+deg(v) <= 0 fails ({b}+{degree})")
            )
        if degree > 3:
            high_degree.append(v)
    if high_degree and cycle_rank(g):
        out.append(
            Violation(
                "shape",
                f"vertex {min(high_degree)}",
                "graph with a cycle has a vertex of degree > 3",
            )
        )
    return ValidationReport(tuple(out))


def require_valid(g: PlumbingGraph) -> None:
    report = validate_graph(g)
    if not report.is_valid:
        details = "; ".join(str(v) for v in report.violations)
        raise ValueError(f"invalid plumbing graph: {details}")


def path_sign(g: PlumbingGraph, vertices) -> int:
    """Product of edge signs along consecutive vertices; raises on non-edges."""
    signs = {(min(u, v), max(u, v)): s for u, v, s in g.edges}
    prod = 1
    for u, v in zip(vertices, vertices[1:]):
        key = (min(u, v), max(u, v))
        if key not in signs:
            raise ValueError(f"({u},{v}) is not an edge")
        prod *= signs[key]
    return prod


def is_consistent(g: PlumbingGraph) -> bool:
    """All secondary weights extreme, and every endpoint-sign / edge-sign
    product over paths (including closed paths based at a signed vertex)
    non-negative."""
    require_valid(g)
    return _consistent(g)


def _consistent(g: PlumbingGraph) -> bool:
    """is_consistent for a graph known valid, such as an induced subgraph of one."""
    _, _, signs, extreme, edges = g.compact()
    if not all(extreme):
        return False
    return _kernel.propagation_consistent(len(signs), signs, edges)

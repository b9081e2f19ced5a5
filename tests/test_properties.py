"""Property tests on random valid graphs with at most 10 vertices: paths,
cycles, trees, tadpoles and thetas, with every edge sign and good decoration
drawable."""

from hypothesis import given
from hypothesis import strategies as st

from plumbjsj._kernel import paths_consistent, propagation_consistent
from plumbjsj.graph import PlumbingGraph, is_consistent, is_extreme, validate_graph
from plumbjsj.graphfile import parse_graph_file, write_graph_file
from plumbjsj.reduction import (
    maximal_consistent_subgraphs,
    minimal_inconsistent_paths,
    reduce_to_tree,
)

MAX_VERTICES = 10


@st.composite
def shapes(draw):
    """(n, unsigned edges) on 1..10 vertices: a path, a cycle, a tree, a
    tadpole (a cycle with a path hanging off vertex 0) or a theta (vertices
    0 and 1 joined by three disjoint paths, at most one of them an edge)."""
    kind = draw(st.sampled_from(["path", "cycle", "tree", "tadpole", "theta"]))
    if kind in ("cycle", "tadpole"):
        c = draw(st.integers(3, MAX_VERTICES - (kind == "tadpole")))
        n = draw(st.integers(c + 1, MAX_VERTICES)) if kind == "tadpole" else c
        tail = [0, *range(c, n)]
        return n, [(i, (i + 1) % c) for i in range(c)] + list(zip(tail, tail[1:]))
    if kind == "theta":
        # Inner vertices per path: at most one path is a bare edge.
        edges, n = [], 2
        for length in (draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))):
            chain = [0, *range(n, n + length), 1]
            n += length
            edges += zip(chain, chain[1:])
        return n, edges
    n = draw(st.integers(1, MAX_VERTICES))
    if kind == "path":
        return n, [(i, i + 1) for i in range(n - 1)]
    return n, [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]


@st.composite
def valid_graphs(draw, all_extreme=False):
    n, edges = draw(shapes())
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    vertices = {}
    for i in range(n):
        # Goodness: b + deg <= 0; any r in b+2, b+4, ..., -b-2.
        b = draw(st.integers(min(-2, -degree[i]) - 2, min(-2, -degree[i])))
        weights = (b + 2, -b - 2) if all_extreme else range(b + 2, -b - 1, 2)
        vertices[i] = (b, draw(st.sampled_from(weights)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(edges), max_size=len(edges)))
    g = PlumbingGraph(vertices, [(u, v, s) for (u, v), s in zip(edges, signs)])
    assert validate_graph(g).is_valid
    return g


def switch(g: PlumbingGraph, v: int) -> PlumbingGraph:
    """Negate r at v and the signs of v's edges."""
    vertices = dict(g.vertices)
    b, r = vertices[v]
    vertices[v] = (b, -r)
    edges = [(a, c, -s if v in (a, c) else s) for a, c, s in g.edges]
    return PlumbingGraph(vertices, edges)


@given(valid_graphs(), st.booleans())
def test_leaves_consistent_and_inside_oracle(g, all_paths):
    tree = reduce_to_tree(g, explore_all_paths=all_paths)
    oracle = [set(m) for m in maximal_consistent_subgraphs(g)]
    for leaf in tree.leaves():
        assert is_consistent(tree.nodes[frozenset(leaf)].graph)
        assert any(set(leaf) <= m for m in oracle)


@given(valid_graphs(), st.booleans())
def test_maximal_leaves_are_the_oracle(g, all_paths):
    # Each inconsistent node breaks a whole circuit, and a maximal consistent
    # set inside the node misses one of its vertices: some child keeps it.
    leaves = reduce_to_tree(g, explore_all_paths=all_paths).leaves()
    maximal = [leaf for leaf in leaves if not any(set(leaf) < set(other) for other in leaves)]
    assert maximal == maximal_consistent_subgraphs(g)


@given(valid_graphs())
def test_unsigned_extreme_vertices_have_degree_at_most_two(g):
    # r = 0 and extreme give b = -2, and goodness (b + deg <= 0) the rest.
    degree = dict.fromkeys(g.vertices, 0)
    for u, v, _ in g.edges:
        degree[u] += 1
        degree[v] += 1
    for v, (b, r) in g.vertices.items():
        if r == 0 and is_extreme(b, r):
            assert degree[v] <= 2


@given(valid_graphs(all_extreme=True))
def test_all_extreme_consistency_is_having_no_minimal_inconsistent_path(g):
    # The reduction decides its all-extreme nodes this way, and both kernels
    # decide the paper's property on this domain.
    no_path = not minimal_inconsistent_paths(g)
    assert is_consistent(g) == no_path
    _, _, signs, _, edges = g.compact()
    assert propagation_consistent(len(signs), signs, edges) == no_path
    assert paths_consistent(len(signs), signs, edges) == no_path


@given(valid_graphs(), st.data())
def test_switching_invariance(g, data):
    v = data.draw(st.sampled_from(sorted(g.vertices)))
    h = switch(g, v)
    for all_paths in (False, True):
        assert (
            reduce_to_tree(h, explore_all_paths=all_paths).leaves()
            == reduce_to_tree(g, explore_all_paths=all_paths).leaves()
        )
    assert maximal_consistent_subgraphs(h) == maximal_consistent_subgraphs(g)


@given(valid_graphs())
def test_parse_write_round_trip(g):
    assert parse_graph_file(write_graph_file(g)) == g

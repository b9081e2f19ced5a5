"""Property tests on random valid graphs with at most 10 vertices: paths,
cycles and trees, with every edge sign and good decoration drawable."""

from hypothesis import given
from hypothesis import strategies as st

from plumbjsj.graph import PlumbingGraph, is_consistent, validate_graph
from plumbjsj.graphfile import parse_graph_file, write_graph_file
from plumbjsj.reduction import maximal_consistent_subgraphs, reduce_to_tree

MAX_VERTICES = 10


@st.composite
def shapes(draw):
    """(n, unsigned edges) of a path, a cycle or a tree on 1..10 vertices."""
    kind = draw(st.sampled_from(["path", "cycle", "tree"]))
    if kind == "cycle":
        n = draw(st.integers(3, MAX_VERTICES))
        return n, [(i, (i + 1) % n) for i in range(n)]
    n = draw(st.integers(1, MAX_VERTICES))
    if kind == "path":
        return n, [(i, i + 1) for i in range(n - 1)]
    return n, [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]


@st.composite
def valid_graphs(draw):
    n, edges = draw(shapes())
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    vertices = {}
    for i in range(n):
        # Goodness: b + deg <= 0; any r in b+2, b+4, ..., -b-2.
        b = draw(st.integers(min(-2, -degree[i]) - 2, min(-2, -degree[i])))
        vertices[i] = (b, draw(st.sampled_from(range(b + 2, -b - 1, 2))))
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

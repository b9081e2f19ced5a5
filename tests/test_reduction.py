import pytest

from plumbjsj.graph import PlumbingGraph, is_consistent
from plumbjsj.reduction import (
    NonExtreme,
    PathBreak,
    SizeLimitError,
    maximal_consistent_subgraphs,
    minimal_inconsistent_paths,
    non_extreme_vertices,
    reduce_to_tree,
    reduction_children,
)


def chain(decorations, edge_signs=None):
    n = len(decorations)
    if edge_signs is None:
        edge_signs = [1] * (n - 1)
    return PlumbingGraph(
        {i: d for i, d in enumerate(decorations)},
        [(i, i + 1, s) for i, s in enumerate(edge_signs)],
    )


class TestNonExtremeVertices:
    def test_all_extreme(self):
        assert non_extreme_vertices(chain([(-3, 1), (-3, 1)])) == []

    def test_single(self):
        assert non_extreme_vertices(PlumbingGraph({4: (-4, 0)}, [])) == [4]

    def test_mixed(self):
        g = PlumbingGraph({0: (-4, 0), 1: (-5, 1), 2: (-3, 1)}, [])
        assert non_extreme_vertices(g) == [0, 1]


class TestMinimalInconsistentPaths:
    def test_consistent_chain_empty(self):
        assert minimal_inconsistent_paths(chain([(-3, 1), (-3, 1)])) == []

    def test_three_chain(self):
        g = chain([(-3, 1), (-2, 0), (-3, -1)])
        paths = minimal_inconsistent_paths(g)
        assert len(paths) == 1
        assert paths[0].vertices == (0, 1, 2)
        assert not paths[0].closed and paths[0].sign == 1

    def test_negative_edge_pair(self):
        g = chain([(-3, 1), (-3, 1)], [-1])
        paths = minimal_inconsistent_paths(g)
        assert [p.vertices for p in paths] == [(0, 1)]

    def test_long_closed_path(self):
        # A 2,000-vertex cycle through one signed vertex: the search walks
        # it deeper than Python's recursion limit.
        n = 2000
        g = PlumbingGraph(
            {0: (-4, 2), **{i: (-2, 0) for i in range(1, n)}},
            [(0, 1, -1)] + [(i, (i + 1) % n, 1) for i in range(1, n)],
        )
        paths = minimal_inconsistent_paths(g)
        assert [(p.vertices, p.closed, p.sign) for p in paths] == [((*range(n), 0), True, -1)]

    def test_closed_path(self):
        g = PlumbingGraph(
            {0: (-3, 1), 1: (-2, 0), 2: (-2, 0)},
            [(0, 1, 1), (1, 2, 1), (2, 0, -1)],
        )
        paths = minimal_inconsistent_paths(g)
        assert len(paths) == 1
        assert paths[0].closed
        assert paths[0].vertices[0] == paths[0].vertices[-1] == 0
        assert set(paths[0].vertices) == {0, 1, 2}

    def test_interior_vertices_are_unsigned_degree_two(self):
        g = chain([(-3, 1), (-2, 0), (-2, 0), (-3, -1)])
        for path in minimal_inconsistent_paths(g):
            for v in path.vertices[1:-1]:
                assert g.vertices[v] == (-2, 0)
                assert g.degree(v) == 2

    def test_rejects_non_extreme(self):
        with pytest.raises(ValueError):
            minimal_inconsistent_paths(PlumbingGraph({0: (-4, 0)}, []))

    def test_reported_once_up_to_reversal(self):
        g = chain([(-3, 1), (-3, -1)])
        assert len(minimal_inconsistent_paths(g)) == 1


class TestReductionChildren:
    def test_three_chain(self):
        g = chain([(-3, -1), (-2, 0), (-3, 1)])
        children = reduction_children(g)
        assert sorted(tuple(sorted(c.vertices)) for c, _ in children) == [
            (0, 1),
            (0, 2),
            (1, 2),
        ]
        for _, datum in children:
            assert isinstance(datum.rule, PathBreak)

    def test_non_extreme_hub(self):
        g = PlumbingGraph(
            {0: (-4, 0), 1: (-2, 0), 2: (-2, 0)}, [(0, 1, 1), (0, 2, 1)]
        )
        children = reduction_children(g)
        assert len(children) == 1
        child, datum = children[0]
        assert set(child.vertices) == {1, 2}
        assert isinstance(datum.rule, NonExtreme)
        assert datum.deleted_vertex == 0
        assert datum.neighbor_edges == ((0, 1, 1), (0, 2, 1))

    def test_two_chain_negative_edge(self):
        children = reduction_children(chain([(-3, 1), (-3, 1)], [-1]))
        assert sorted(tuple(c.vertices) for c, _ in children) == [(0,), (1,)]

    def test_rejects_consistent(self):
        with pytest.raises(ValueError):
            reduction_children(chain([(-3, 1), (-3, 1)]))

    def test_datum_split_identities(self):
        g = chain([(-4, 0), (-2, 0)])
        (child, datum), = reduction_children(g)
        b, r = datum.deleted_decoration
        assert datum.lambda_plus.tb + datum.lambda_minus.tb + 1 == b + 1
        assert datum.lambda_plus.rot + datum.lambda_minus.rot == r
        assert datum.lambda_plus.s_minus == 0
        assert datum.lambda_minus.s_plus == 0

    def test_relabel_equivariance(self):
        g = chain([(-3, -1), (-2, 0), (-3, 1)])
        mapping = {0: 10, 1: 11, 2: 12}
        h = PlumbingGraph(
            {mapping[v]: d for v, d in g.vertices.items()},
            [(mapping[u], mapping[v], s) for u, v, s in g.edges],
        )
        got = sorted(tuple(sorted(c.vertices)) for c, _ in reduction_children(h))
        want = sorted(
            tuple(sorted(mapping[v] for v in c.vertices))
            for c, _ in reduction_children(g)
        )
        assert got == want


class TestReduceToTree:
    def test_consistent_single_node(self):
        tree = reduce_to_tree(chain([(-3, 1), (-3, 1)]))
        assert len(tree.nodes) == 1 and not tree.edges
        assert tree.leaves() == [(0, 1)]

    def test_three_chain_depth_one(self):
        tree = reduce_to_tree(chain([(-3, -1), (-2, 0), (-3, 1)]))
        assert len(tree.nodes) == 4 and len(tree.edges) == 3
        assert tree.leaves() == [(0, 1), (0, 2), (1, 2)]

    def test_four_chain_leaves(self):
        tree = reduce_to_tree(chain([(-3, 1), (-2, 0), (-2, 0), (-3, -1)]))
        assert tree.leaves() == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_leaves_are_consistent(self):
        tree = reduce_to_tree(chain([(-3, 1), (-2, 0), (-3, -1)], [1, -1]))
        for leaf in tree.leaves():
            assert is_consistent(tree.nodes[frozenset(leaf)].graph)

    def test_child_removes_exactly_one_vertex(self):
        tree = reduce_to_tree(chain([(-3, 1), (-4, 0), (-3, -1)]))
        for edge in tree.edges:
            assert len(edge.parent - edge.child) == 1
            assert edge.child < edge.parent

    def test_explore_all_paths_superset(self):
        g = PlumbingGraph(
            {0: (-3, 1), 1: (-3, -1), 2: (-3, 1), 3: (-3, -1)},
            [(0, 1, 1), (1, 2, 1), (2, 3, 1)],
        )
        default = set(reduce_to_tree(g).leaves())
        all_paths = set(reduce_to_tree(g, explore_all_paths=True).leaves())
        assert default <= all_paths

    def test_rejects_invalid_root(self):
        with pytest.raises(ValueError):
            reduce_to_tree(PlumbingGraph({0: (-1, 0)}, []))


class TestMaximalConsistentSubgraphs:
    def test_consistent_whole_graph(self):
        g = chain([(-3, 1), (-3, 1)])
        assert maximal_consistent_subgraphs(g) == [(0, 1)]

    def test_three_chain(self):
        g = chain([(-3, -1), (-2, 0), (-3, 1)])
        assert maximal_consistent_subgraphs(g) == [(0, 1), (0, 2), (1, 2)]

    def test_four_chain(self):
        g = chain([(-3, 1), (-2, 0), (-2, 0), (-3, -1)])
        assert maximal_consistent_subgraphs(g) == [
            (0, 1, 2),
            (0, 1, 3),
            (0, 2, 3),
            (1, 2, 3),
        ]

    def test_size_guard(self):
        g = PlumbingGraph({i: (-2, 0) for i in range(23)}, [])
        with pytest.raises(SizeLimitError):
            maximal_consistent_subgraphs(g)

    def test_leaves_contained_in_oracle(self):
        g = PlumbingGraph(
            {0: (-3, 1), 1: (-2, 0), 2: (-2, 0)},
            [(0, 1, 1), (1, 2, 1), (2, 0, -1)],
        )
        oracle = maximal_consistent_subgraphs(g)
        for leaf in reduce_to_tree(g).leaves():
            assert any(set(leaf) <= set(m) for m in oracle)

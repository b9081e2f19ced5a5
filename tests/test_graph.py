import pytest

from plumbjsj.graph import (
    GraphStructureError,
    Path,
    PlumbingGraph,
    cycle_rank,
    decoration_valid,
    is_consistent,
    is_extreme,
    path_sign,
    sign,
    validate_graph,
    vertex_unknot,
)


def chain(decorations, edge_signs=None):
    n = len(decorations)
    if edge_signs is None:
        edge_signs = [1] * (n - 1)
    return PlumbingGraph(
        {i: d for i, d in enumerate(decorations)},
        [(i, i + 1, s) for i, s in enumerate(edge_signs)],
    )


class TestDecorations:
    def test_decoration_valid(self):
        assert decoration_valid(-2, 0)
        assert decoration_valid(-3, 1)
        assert decoration_valid(-3, -1)
        assert decoration_valid(-4, 0)
        assert not decoration_valid(-1, 0)  # b too large
        assert not decoration_valid(-3, 0)  # parity
        assert not decoration_valid(-3, 3)  # range
        assert not decoration_valid(-2, 2)  # range

    def test_is_extreme(self):
        assert is_extreme(-2, 0)
        assert is_extreme(-3, 1)
        assert is_extreme(-3, -1)
        assert not is_extreme(-4, 0)
        assert is_extreme(-4, 2)
        assert is_extreme(-4, -2)

    def test_vertex_unknot_examples(self):
        u = vertex_unknot(-2, 0)
        assert (u.tb, u.rot, u.s_plus, u.s_minus) == (-1, 0, 0, 0)
        u = vertex_unknot(-3, -1)
        assert (u.tb, u.rot, u.s_plus, u.s_minus) == (-2, -1, 0, 1)
        u = vertex_unknot(-4, 2)
        assert (u.tb, u.rot, u.s_plus, u.s_minus) == (-3, 2, 2, 0)

    def test_vertex_unknot_rejects_invalid(self):
        with pytest.raises(ValueError):
            vertex_unknot(-1, 0)
        with pytest.raises(ValueError):
            vertex_unknot(-3, 0)

    def test_unknot_invariants_exhaustive(self):
        for b in range(-2, -9, -1):
            for r in range(b + 2, -b - 1, 2):
                u = vertex_unknot(b, r)
                assert u.s_plus + u.s_minus == -b - 2
                assert u.s_plus - u.s_minus == r
                assert u.tb == b + 1 and u.rot == r
                assert is_extreme(b, r) == (u.s_plus == 0 or u.s_minus == 0)


class TestGraphStructure:
    def test_self_loop(self):
        with pytest.raises(GraphStructureError):
            PlumbingGraph({0: (-2, 0)}, [(0, 0, 1)])

    def test_parallel_edge(self):
        with pytest.raises(GraphStructureError):
            PlumbingGraph({0: (-2, 0), 1: (-2, 0)}, [(0, 1, 1), (1, 0, -1)])

    def test_dangling_endpoint(self):
        with pytest.raises(GraphStructureError):
            PlumbingGraph({0: (-2, 0)}, [(0, 1, 1)])

    def test_bad_sign(self):
        with pytest.raises(GraphStructureError):
            PlumbingGraph({0: (-2, 0), 1: (-2, 0)}, [(0, 1, 2)])

    def test_bad_vertex_id(self):
        with pytest.raises(GraphStructureError):
            PlumbingGraph({-1: (-2, 0)}, [])

    @pytest.mark.parametrize("weights", [(-3.9, 1), (-3, 1.0), (True, 0), (-2, False), ("-2", 0)])
    def test_weights_must_be_integers(self, weights):
        # Converting would store (-3.9, 1) as (-3, 1), which then validates.
        with pytest.raises(GraphStructureError, match=r"vertex 5 has weights"):
            PlumbingGraph({5: weights}, [])

    @pytest.mark.parametrize("s", [1.0, -1.0, True])
    def test_sign_must_be_an_integer(self, s):
        with pytest.raises(GraphStructureError, match=r"edge \(0,1\) has sign"):
            PlumbingGraph({0: (-2, 0), 1: (-2, 0)}, [(0, 1, s)])

    def test_immutable(self):
        g = PlumbingGraph({0: (-2, 0)}, [])
        with pytest.raises(AttributeError):
            g.vertices = {}

    def test_equality_ignores_name(self):
        a = PlumbingGraph({0: (-2, 0)}, [], name="a")
        b = PlumbingGraph({0: (-2, 0)}, [], name="b")
        assert a == b and hash(a) == hash(b)

    def test_adjacency_and_degree(self):
        g = PlumbingGraph(
            {0: (-3, 1), 1: (-2, 0), 2: (-3, -1)}, [(1, 0, 1), (1, 2, -1)]
        )
        assert g.adjacency()[1] == [(0, 1), (2, -1)]
        assert g.degree(1) == 2 and g.degree(0) == 1

    def test_induced_subgraph_and_delete(self):
        g = chain([(-3, 1), (-2, 0), (-3, -1)])
        h = g.delete_vertex(1)
        assert set(h.vertices) == {0, 2} and not h.edges
        k = g.induced_subgraph({0, 1})
        assert k.edges == frozenset({(0, 1, 1)})
        with pytest.raises(GraphStructureError):
            g.induced_subgraph({0, 9})

    def test_induced_subgraph_matches_a_fresh_build(self):
        g = PlumbingGraph(
            {3: (-3, 1), 0: (-2, 0), 2: (-3, -1), 1: (-2, 0)},
            [(3, 0, 1), (2, 0, -1), (1, 2, 1)],
            name="g",
        )
        h = g.induced_subgraph([2, 3, 0])
        fresh = PlumbingGraph(
            {0: (-2, 0), 2: (-3, -1), 3: (-3, 1)}, [(0, 3, 1), (0, 2, -1)]
        )
        assert h == fresh and hash(h) == hash(fresh)
        assert list(h.vertices) == [0, 2, 3] and h.name == "g"
        assert h.compact() == fresh.compact() and h.adjacency() == fresh.adjacency()
        with pytest.raises(AttributeError):
            h.name = "other"


class TestValidation:
    def test_minimal_valid(self):
        assert validate_graph(PlumbingGraph({0: (-2, 0)}, [])).is_valid

    def test_b_bound(self):
        report = validate_graph(PlumbingGraph({0: (-1, 0)}, []))
        assert not report.is_valid
        assert any("b(v) <= -2" in str(v) for v in report.violations)

    def test_goodness(self):
        g = chain([(-2, 0), (-2, 0), (-2, 0)])
        assert validate_graph(g).is_valid
        bad = PlumbingGraph(
            {0: (-2, 0), 1: (-2, 0), 2: (-2, 0), 3: (-2, 0)},
            [(0, 1, 1), (1, 2, 1), (1, 3, 1)],
        )
        report = validate_graph(bad)
        assert any(v.rule == "good" for v in report.violations)

    def test_shape(self):
        # A cycle plus a fourth neighbour on one cycle vertex.
        g = PlumbingGraph(
            {0: (-4, 2), 1: (-2, 0), 2: (-2, 0), 3: (-2, 0), 4: (-2, 0)},
            [(0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 3, 1), (0, 4, 1)],
        )
        report = validate_graph(g)
        assert any(v.rule == "shape" for v in report.violations)

    def test_tree_any_degree_ok(self):
        star = PlumbingGraph(
            {0: (-4, 2), 1: (-2, 0), 2: (-2, 0), 3: (-2, 0), 4: (-2, 0)},
            [(0, i, 1) for i in range(1, 5)],
        )
        assert validate_graph(star).is_valid

    @pytest.mark.parametrize(
        "edges, rank",
        [
            ([], 0),
            ([(0, 1), (1, 2), (3, 4)], 0),
            ([(0, 1), (1, 2), (2, 0)], 1),
            ([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 2),
            ([(0, 1), (1, 2), (2, 0), (0, 3), (3, 2)], 2),
        ],
    )
    def test_cycle_rank(self, edges, rank):
        g = PlumbingGraph({v: (-4, 0) for v in range(6)}, [(u, v, 1) for u, v in edges])
        assert cycle_rank(g) == rank


class TestPath:
    def test_open_path(self):
        p = Path((0, 1, 2), closed=False, sign=1)
        assert p.vertex_set == frozenset({0, 1, 2})

    def test_closed_flag_must_match(self):
        with pytest.raises(ValueError):
            Path((0, 1, 0), closed=False, sign=1)
        with pytest.raises(ValueError):
            Path((0, 1, 2), closed=True, sign=1)

    def test_distinctness(self):
        Path((0, 1, 2, 0), closed=True, sign=-1)
        with pytest.raises(ValueError):
            Path((0, 1, 1, 0), closed=True, sign=1)
        with pytest.raises(ValueError):
            Path((0,), closed=False, sign=1)

    def test_path_sign(self):
        g = chain([(-3, 1), (-2, 0), (-3, -1)], [1, -1])
        assert path_sign(g, [0, 1, 2]) == -1
        assert path_sign(g, [0, 1]) == 1
        with pytest.raises(ValueError):
            path_sign(g, [0, 2])


class TestConsistency:
    def test_positive_two_chain(self):
        assert is_consistent(chain([(-3, 1), (-3, 1)]))

    def test_opposed_two_chain(self):
        assert not is_consistent(chain([(-3, -1), (-3, 1)]))

    def test_negative_closed_path(self):
        g = PlumbingGraph(
            {0: (-3, 1), 1: (-2, 0), 2: (-2, 0)},
            [(0, 1, 1), (1, 2, 1), (2, 0, -1)],
        )
        assert not is_consistent(g)

    def test_positive_closed_path(self):
        g = PlumbingGraph(
            {0: (-3, 1), 1: (-2, 0), 2: (-2, 0)},
            [(0, 1, 1), (1, 2, 1), (2, 0, 1)],
        )
        assert is_consistent(g)

    def test_non_extreme_is_inconsistent(self):
        assert not is_consistent(PlumbingGraph({0: (-4, 0)}, []))

    def test_all_zero_extreme_consistent(self):
        g = PlumbingGraph(
            {i: (-2, 0) for i in range(4)},
            [(0, 1, -1), (1, 2, 1), (2, 3, -1)],
        )
        assert is_consistent(g)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            is_consistent(PlumbingGraph({0: (-1, 0)}, []))

    def test_relabel_invariance(self):
        g = chain([(-3, 1), (-2, 0), (-3, -1)], [1, -1])
        relabeled = PlumbingGraph(
            {7: (-3, 1), 3: (-2, 0), 5: (-3, -1)}, [(7, 3, 1), (3, 5, -1)]
        )
        assert is_consistent(g) == is_consistent(relabeled) is True

    def test_sign_helper(self):
        assert sign(5) == 1 and sign(-2) == -1 and sign(0) == 0

"""The mask-keyed reduction against the graph-per-node reference in
tests/brute_reduce.py: the same tree (node keys in order, flags, edges with
their data, leaves), the same report and DOT bytes, and the same answers
from minimal_inconsistent_paths and reduction_children."""

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import brute_reduce
from test_properties import valid_graphs
from test_tree_internals import assert_paths_filter_exactly, signed_path

from plumbjsj import reduction
from plumbjsj.graph import PlumbingGraph
from plumbjsj.graphfile import parse_graph_file
from plumbjsj.report import emit_dot, render_report

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.txt"))


def assert_same_tree(g, all_paths):
    tree = reduction.reduce_to_tree(g, explore_all_paths=all_paths)
    ref = brute_reduce.reduce_to_tree(g, explore_all_paths=all_paths)
    assert list(tree.nodes) == list(ref.nodes)
    assert [n.consistent for n in tree.nodes.values()] == [
        n.consistent for n in ref.nodes.values()
    ]
    assert tree.edges == ref.edges
    assert tree.leaves() == ref.leaves()
    assert render_report(tree) == render_report(ref)
    assert emit_dot(tree) == emit_dot(ref)


def outcome(fn, g):
    """fn(g), or the ValueError it raises as (type name, message)."""
    try:
        return fn(g)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def assert_same_moves(g):
    for name in ("minimal_inconsistent_paths", "reduction_children"):
        assert outcome(getattr(reduction, name), g) == outcome(getattr(brute_reduce, name), g)


@pytest.mark.parametrize("all_paths", [False, True])
@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_trees_match_reference(path, all_paths):
    g = parse_graph_file(path.read_text())
    assert_same_tree(g, all_paths)
    assert_same_moves(g)


@pytest.mark.parametrize("all_paths", [False, True])
def test_big_path_tree_matches_reference(all_paths):
    assert_same_tree(signed_path("+-0+-0+-0+-0"), all_paths)


def test_big_path_node_moves_match_reference():
    tree = reduction.reduce_to_tree(signed_path("+-0+-0+-0+-0"))
    for node in tree.nodes.values():
        assert_same_moves(node.graph)


@st.composite
def theta_graphs(draw):
    """Two vertices joined by three disjoint paths, at most one of them a
    single edge: cycle rank 2, so a node can keep a cycle after a deletion,
    which no graph from valid_graphs does."""
    lengths = draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))
    if lengths.count(0) > 1:
        lengths = [max(1, x) for x in lengths]
    edges, n = [], 2
    for length in lengths:
        chain = [0] + list(range(n, n + length)) + [1]
        n += length
        edges += zip(chain, chain[1:])
    vertices = {}
    for v in range(n):
        b = draw(st.integers(-5, -3 if v < 2 else -2))
        vertices[v] = (b, draw(st.sampled_from([b + 2, -b - 2] + [0] * (b % 2 == 0))))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(edges), max_size=len(edges)))
    return PlumbingGraph(vertices, [(u, v, s) for (u, v), s in zip(edges, signs)])


@given(valid_graphs(), st.booleans())
def test_random_trees_match_reference(g, all_paths):
    assert_same_tree(g, all_paths)


@given(theta_graphs(), st.booleans())
def test_theta_trees_match_reference(g, all_paths):
    assert_same_tree(g, all_paths)
    assert_same_moves(g)
    assert_paths_filter_exactly(g, all_paths)


@given(valid_graphs())
def test_random_moves_match_reference(g):
    assert_same_moves(g)

"""The reduction tree's internals on a tree of more than a thousand nodes,
and validation at each public entry point."""

import pytest

from plumbjsj import graph
from plumbjsj.graph import PlumbingGraph, is_consistent
from plumbjsj.reduction import (
    maximal_consistent_subgraphs,
    minimal_inconsistent_paths,
    non_extreme_vertices,
    reduce_to_tree,
    reduction_children,
)
from plumbjsj.report import _layout

ENTRY_POINTS = (
    reduce_to_tree,
    is_consistent,
    non_extreme_vertices,
    minimal_inconsistent_paths,
    maximal_consistent_subgraphs,
)


def signed_path(pattern: str) -> PlumbingGraph:
    """A path with one vertex per character: '+' is (-3, 1), '-' is (-3, -1)
    and '0' is (-2, 0); all edges positive."""
    deco = {"+": (-3, 1), "-": (-3, -1), "0": (-2, 0)}
    return PlumbingGraph(
        {i: deco[c] for i, c in enumerate(pattern)},
        [(i, i + 1, 1) for i in range(len(pattern) - 1)],
    )


@pytest.fixture(scope="module")
def big_graph():
    return signed_path("+-0+-0+-0+-0")


@pytest.fixture(scope="module")
def big_tree(big_graph):
    tree = reduce_to_tree(big_graph, explore_all_paths=True)
    assert len(tree.nodes) >= 1000
    return tree


def test_grouping_matches_naive_scan(big_tree):
    grouped = _layout(big_tree)[2]
    for vertex_set in big_tree.nodes:
        naive = sorted(
            (e for e in big_tree.edges if e.parent == vertex_set),
            key=lambda e: tuple(sorted(e.child)),
        )
        assert grouped.get(vertex_set, []) == naive
    assert sum(len(edges) for edges in grouped.values()) == len(big_tree.edges)


def test_tree_edges_match_reduction_children(big_graph):
    tree = reduce_to_tree(big_graph)
    inconsistent = [s for s, node in tree.nodes.items() if not node.consistent]
    assert inconsistent
    for vertex_set in inconsistent:
        node = tree.nodes[vertex_set]
        out = [e for e in tree.edges if e.parent == vertex_set]
        children = reduction_children(node.graph)
        assert [(e.child, e.datum) for e in out] == [
            (frozenset(child.vertices), datum) for child, datum in children
        ]
        for child, _ in children:
            assert tree.nodes[frozenset(child.vertices)].graph == child


def test_node_graphs_are_built_on_first_read(big_graph, monkeypatch):
    calls = []
    original = PlumbingGraph.induced_subgraph

    def counting(g, keep):
        calls.append(keep)
        return original(g, keep)

    monkeypatch.setattr(PlumbingGraph, "induced_subgraph", counting)
    tree = reduce_to_tree(big_graph, explore_all_paths=True)
    assert calls == []
    assert tree.nodes[frozenset(big_graph.vertices)].graph is big_graph
    vertex_set, node = list(tree.nodes.items())[-1]
    first = node.graph
    assert len(calls) == 1
    assert first == original(big_graph, vertex_set)
    assert node.graph is first
    assert len(calls) == 1


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
def test_entry_point_rejects_invalid_graph(entry):
    # b = -1 breaks the decoration rule; r = b + 2 keeps the vertex extreme,
    # so the path search cannot refuse it for another reason first.
    with pytest.raises(ValueError, match="invalid plumbing graph"):
        entry(PlumbingGraph({0: (-1, 1)}, []))


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
def test_entry_point_validates_once(entry, big_graph, monkeypatch):
    calls = []
    original = graph.validate_graph

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(graph, "validate_graph", counting)
    entry(big_graph)
    assert calls == [big_graph]

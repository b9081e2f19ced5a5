"""The reduction tree's internals on a tree of more than a thousand nodes,
and validation at each public entry point."""

from pathlib import Path

import pytest

import brute_reduce
from plumbjsj import _kernel, graph, reduction
from plumbjsj.graph import PlumbingGraph, is_consistent
from plumbjsj.graphfile import parse_graph_file
from plumbjsj.reduction import (
    maximal_consistent_subgraphs,
    minimal_inconsistent_paths,
    non_extreme_vertices,
    reduce_to_tree,
    reduction_children,
)
from plumbjsj.report import _layout

FIXTURES = Path(__file__).parent / "fixtures"

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


def assert_paths_filter_exactly(g, all_paths):
    """On every all-extreme node of g's tree, the path entries the node
    carries equal a fresh search on its mask, and the node is consistent
    exactly when that search finds none; each entry's mask is the set of its
    path's vertices, and its breaks name each vertex once, at its first
    position.  A node's carried entries are read where it is expanded, so a
    consistent node, which is never expanded, carries none."""
    carried = {}
    original = reduction._moves

    def recording(enc, mask, paths, all_paths):
        assert mask not in carried
        carried[mask] = paths
        return original(enc, mask, paths, all_paths)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "_moves", recording)
        tree = reduce_to_tree(g, explore_all_paths=all_paths)
    enc = reduction._Encoding(g)
    for vertex_set, node in tree.nodes.items():
        mask = sum(1 << enc.index[v] for v in vertex_set)
        assert (mask in carried) == (not node.consistent)
        if mask & enc.non_extreme:
            continue
        entries = carried.get(mask, [])
        fresh = reduction._minimal_paths(enc, mask)
        assert node.consistent == (not fresh)
        assert [path for _, path, _ in entries] == fresh
        for bits, path, breaks in entries:
            assert bits == sum(1 << enc.index[v] for v in set(path.vertices))
            assert breaks == tuple(
                (v, reduction.PathBreak(path, path.vertices.index(v) + 1))
                for v in dict.fromkeys(path.vertices)
            )


def test_filtered_paths_match_fresh_search(big_graph):
    assert_paths_filter_exactly(big_graph, True)


def test_filtered_paths_match_fresh_search_on_a_cycle():
    g = parse_graph_file((FIXTURES / "cycle3.txt").read_text())
    assert any(p.closed for p in reduction.minimal_inconsistent_paths(g))
    for all_paths in (False, True):
        assert_paths_filter_exactly(g, all_paths)


@pytest.mark.parametrize("all_paths", [False, True])
def test_paths_are_enumerated_once_per_tree(big_graph, all_paths, monkeypatch):
    calls = []
    original = reduction._minimal_paths

    def counting(enc, mask):
        calls.append(mask)
        return original(enc, mask)

    monkeypatch.setattr(reduction, "_minimal_paths", counting)
    tree = reduce_to_tree(big_graph, explore_all_paths=all_paths)
    assert len(tree.nodes) > 1 and len(calls) == 1


@pytest.mark.parametrize("all_paths", [False, True])
@pytest.mark.parametrize("name", ["big", "cycle3"])
def test_root_check_is_the_only_kernel_call(name, all_paths, big_graph, monkeypatch):
    """Below the root's propagation check, every node is decided from the
    path entries it carries, with no kernel call."""
    g = big_graph if name == "big" else parse_graph_file((FIXTURES / "cycle3.txt").read_text())
    calls = []
    for routine in _kernel.__all__:
        if routine not in ("BACKEND", "pure"):
            original = getattr(_kernel, routine)

            def counting(*args, _routine=routine, _original=original):
                calls.append(_routine)
                return _original(*args)

            monkeypatch.setattr(_kernel, routine, counting)
    tree = reduce_to_tree(g, explore_all_paths=all_paths)
    assert len(tree.nodes) > 1 and calls == ["propagation_consistent"]


def test_edges_share_data(big_tree):
    data = [edge.datum for edge in big_tree.edges]
    distinct = {id(d): d for d in data}
    # One object per distinct value, and far fewer than the edges (26 data
    # for 4,232 edges).
    assert len(distinct) == len(set(data))
    assert len(distinct) * 100 < len(data)
    for edge in big_tree.edges:
        d = edge.datum
        parent = big_tree.nodes[edge.parent].graph
        assert d == brute_reduce._datum(parent, d.deleted_vertex, d.rule)


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

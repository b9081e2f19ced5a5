"""The library's subset oracle against the exhaustive 2^n reference."""

import random
from itertools import product

import pytest
from hypothesis import given

import brute_oracle
from test_properties import valid_graphs

from plumbjsj import _kernel
from plumbjsj.graph import PlumbingGraph, validate_graph
from plumbjsj.reduction import maximal_consistent_subgraphs


def random_instance(rng, n):
    signs = [rng.choice((-1, 0, 1)) for _ in range(n)]
    extreme = [1 if rng.random() < 0.8 else 0 for _ in range(n)]
    density = rng.random()
    edges = [
        (u, v, rng.choice((1, -1)))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    ]
    rng.shuffle(edges)
    return extreme, signs, edges


@pytest.mark.parametrize(
    "n, extreme, signs, edges",
    [
        (0, [], [], []),
        (3, [0, 0, 0], [1, -1, 0], [(0, 1, 1), (1, 2, 1)]),
        # A negative cycle without a signed vertex is no obstruction ...
        (3, [1, 1, 1], [0, 0, 0], [(0, 1, 1), (1, 2, 1), (0, 2, -1)]),
        # ... but one signed vertex on it is.
        (4, [1, 1, 1, 1], [0, 0, 0, 1], [(0, 1, 1), (1, 2, 1), (0, 2, -1), (2, 3, 1)]),
        # Two inconsistent components and an isolated vertex.
        (7, [1] * 7, [1, 0, -1, 1, -1, 0, 1], [(0, 1, 1), (1, 2, 1), (3, 4, 1)]),
        # A non-extreme vertex splits an inconsistent chain.
        (5, [1, 1, 0, 1, 1], [1, -1, 0, 1, -1], [(0, 1, -1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]),
    ],
    ids=["empty", "no-extreme", "unsigned-negative-cycle", "signed-negative-cycle",
         "disconnected", "split-by-non-extreme"],
)
def test_hand_instances(n, extreme, signs, edges):
    assert _kernel.maximal_consistent_masks(n, extreme, signs, edges) == \
        brute_oracle.maximal_consistent_masks(n, extreme, signs, edges)


def test_random_kernel_instances():
    rng = random.Random(20261018)
    for _ in range(2000):
        n = rng.randint(0, 10)
        extreme, signs, edges = random_instance(rng, n)
        assert _kernel.maximal_consistent_masks(n, extreme, signs, edges) == \
            brute_oracle.maximal_consistent_masks(n, extreme, signs, edges), \
            (n, extreme, signs, edges)


@given(valid_graphs())
def test_valid_graphs(g):
    assert maximal_consistent_subgraphs(g) == brute_oracle.maximal_consistent_subgraphs(g)


def wide_graph(rng, shape, n, extreme_count):
    """A path, cycle or tree (maximum degree 3) on n vertices, extreme_count of
    them extreme and the rest non-extreme; degree-3 vertices are signed, as
    goodness requires, and a third of the others are."""
    if shape == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif shape == "cycle":
        pairs = [(i, (i + 1) % n) for i in range(n)]
    else:
        degree = [0] * n
        pairs = []
        for v in range(1, n):
            u = rng.choice([w for w in range(v) if degree[w] < 3])
            pairs.append((u, v))
            degree[u] += 1
            degree[v] += 1
    degree = [sum(v in p for p in pairs) for v in range(n)]
    non_extreme = set(rng.sample(range(n), n - extreme_count))
    vertices = {}
    for v in range(n):
        if v in non_extreme:
            vertices[v] = (-4, 0)
        elif degree[v] > 2 or rng.random() < 0.3:
            vertices[v] = (-3, rng.choice((1, -1)))
        else:
            vertices[v] = (-2, 0)
    g = PlumbingGraph(vertices, [(u, v, rng.choice((1, -1))) for u, v in pairs])
    assert validate_graph(g).is_valid
    return g


@pytest.mark.parametrize("shape, n, seed", [("path", 16, 1), ("cycle", 17, 2), ("tree", 18, 3)])
def test_wide_graphs(shape, n, seed):
    g = wide_graph(random.Random(seed), shape, n, extreme_count=15)
    assert maximal_consistent_subgraphs(g) == brute_oracle.maximal_consistent_subgraphs(g)


def test_disjoint_chains_multiply():
    # Each chain -1, 0, +1 on positive edges has the three maximal sets of
    # two vertices; 7 disjoint copies have every combination of them.
    copies = 7
    vertices, edges = {}, []
    for c in range(copies):
        a = 3 * c
        vertices.update({a: (-3, -1), a + 1: (-2, 0), a + 2: (-3, 1)})
        edges += [(a, a + 1, 1), (a + 1, a + 2, 1)]
    g = PlumbingGraph(vertices, edges)
    per_copy = [[(3 * c, 3 * c + 1), (3 * c, 3 * c + 2), (3 * c + 1, 3 * c + 2)]
                for c in range(copies)]
    expected = sorted(tuple(sorted(sum(pick, ()))) for pick in product(*per_copy))
    assert len(expected) == 3 ** copies == 2187
    assert maximal_consistent_subgraphs(g) == expected

"""Dual-route and hand-instance checks on the low-level kernels."""

import random

import plumbjsj
from plumbjsj import _kernel
from plumbjsj._kernel import pure


def random_instance(rng, n):
    signs = [rng.choice((-1, 0, 1)) for _ in range(n)]
    extreme = [1 if s != 0 else rng.choice((0, 1)) for s in signs]
    edges = [
        (u, v, rng.choice((1, -1)))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.4
    ]
    return signs, extreme, edges


def test_backend_selected():
    assert plumbjsj.KERNEL_BACKEND == _kernel.BACKEND == "pure"


def test_kernel_exports_are_the_pure_routines():
    for name in _kernel.__all__:
        if name not in ("BACKEND", "pure"):
            assert getattr(_kernel, name) is getattr(pure, name), name


def test_dual_routes_agree():
    rng = random.Random(99)
    for _ in range(600):
        n = rng.randint(1, 7)
        signs, _, edges = random_instance(rng, n)
        assert pure.propagation_consistent(n, signs, edges) == \
            pure.paths_consistent(n, signs, edges)


class TestHandCases:
    def test_opposed_pair(self):
        assert not pure.propagation_consistent(2, [1, -1], [(0, 1, 1)])
        assert not pure.paths_consistent(2, [1, -1], [(0, 1, 1)])
        assert pure.propagation_consistent(2, [1, -1], [(0, 1, -1)])

    def test_unsigned_vertices_never_obstruct(self):
        assert pure.propagation_consistent(3, [0, 0, 0], [(0, 1, -1), (1, 2, -1)])
        assert pure.paths_consistent(3, [0, 0, 0], [(0, 1, -1), (1, 2, -1)])

    def test_negative_cycle_at_signed_base(self):
        edges = [(0, 1, 1), (1, 2, 1), (2, 0, -1)]
        assert not pure.propagation_consistent(3, [1, 0, 0], edges)
        assert not pure.paths_consistent(3, [1, 0, 0], edges)
        # The same cycle with no signed vertex raises no objection.
        assert pure.paths_consistent(3, [0, 0, 0], edges)

    def test_two_edge_closed_walk_is_not_a_path(self):
        # Going out and back over one edge never counts as a closed path.
        assert pure.paths_consistent(2, [1, 0], [(0, 1, -1)])

    def test_maximal_masks_three_chain(self):
        masks = sorted(
            pure.maximal_consistent_masks(
                3, [1, 1, 1], [-1, 0, 1], [(0, 1, 1), (1, 2, 1)]
            )
        )
        assert masks == [0b011, 0b101, 0b110]

    def test_maximal_masks_consistent_graph(self):
        masks = pure.maximal_consistent_masks(2, [1, 1], [1, 1], [(0, 1, 1)])
        assert masks == [0b11]

    def test_maximal_masks_non_extreme_vertex_excluded(self):
        masks = sorted(pure.maximal_consistent_masks(2, [0, 1], [0, 1], [(0, 1, 1)]))
        assert masks == [0b10]

"""Seeded input generators for the four benchmark workloads.

Every generator takes a ``random.Random`` seeded from ``--seed``, so one seed
always yields the same inputs.  Graphs are plain ``(vertices, edges)`` pairs:
``vertices`` maps id -> (b, r) and ``edges`` lists (u, v, sign).  The library
only ever sees these through ``PlumbingGraph`` or a graph file.
"""

from __future__ import annotations

from itertools import product
from math import gcd

# ---------------------------------------------------------------------------
# family_sweep: the <= 6-vertex acceptance family
# ---------------------------------------------------------------------------

FAMILY_MAX_VERTICES = 6
FAMILY_B = (-2, -3, -4)


def family_shapes():
    """(name, n, unsigned edges) for path, cycle, star and path+pendant on
    up to six vertices -- the shapes of the acceptance sweeps."""
    out = []
    for n in range(1, FAMILY_MAX_VERTICES + 1):
        out.append((f"path{n}", n, [(i, i + 1) for i in range(n - 1)]))
    for n in range(3, FAMILY_MAX_VERTICES + 1):
        out.append((f"cycle{n}", n, [(i, (i + 1) % n) for i in range(n)]))
    for n in range(4, FAMILY_MAX_VERTICES + 1):
        out.append((f"star{n}", n, [(0, i) for i in range(1, n)]))
    for n in range(4, FAMILY_MAX_VERTICES + 1):
        base = [(i, i + 1) for i in range(n - 2)]
        for hub in range(1, n - 2):
            out.append((f"pendant{n}_{hub}", n, base + [(hub, n - 1)]))
    return out


def _degrees(n, edges):
    deg = [0] * n
    for u, v, *_ in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _sign(x):
    return (x > 0) - (x < 0)


def _extreme(b, r):
    return abs(r) == -b - 2


def _class_representatives(degree):
    """One decoration per (sign of r, extreme) class that is good at this
    degree, in a fixed order; empty when no decoration is good."""
    reps = {}
    for b in FAMILY_B:
        if b + degree > 0:
            continue
        for r in range(b + 2, -b - 1, 2):
            reps.setdefault((_sign(r), _extreme(b, r)), (b, r))
    return [reps[k] for k in sorted(reps)]


def family_sample(rng, count):
    """``count`` graphs drawn from the acceptance family.

    Shapes are taken in turn, so every seed gets the same shape mix; edge
    signs and each vertex's (sign, extreme) class are drawn at random, and a
    random switching (negate r at a vertex and the signs of its edges) is
    applied on top, as the acceptance sweep's invariance check does.
    """
    shapes = [
        (name, n, edges)
        for name, n, edges in family_shapes()
        if all(_class_representatives(d) for d in _degrees(n, edges))
    ]
    out = []
    for i in range(count):
        name, n, edges = shapes[i % len(shapes)]
        deg = _degrees(n, edges)
        verts = {v: rng.choice(_class_representatives(deg[v])) for v in range(n)}
        signed = [(u, v, rng.choice((1, -1))) for u, v in edges]
        out.append((name, *switch(rng, verts, signed)))
    return out


def switch(rng, verts, edges):
    """Apply a random switching: flipping vertex v negates r(v) and the sign
    of every edge at v.  All path products, hence consistency, the reduction
    tree's vertex sets and the maximal consistent subgraphs, are unchanged."""
    flip = {v: rng.choice((1, -1)) for v in verts}
    verts = {v: (b, r * flip[v]) for v, (b, r) in verts.items()}
    edges = [(u, v, s * flip[u] * flip[v]) for u, v, s in edges]
    return verts, edges


def relabel(rng, verts, edges):
    """Rename the vertices by a random permutation of their ids."""
    ids = list(verts)
    perm = dict(zip(ids, rng.sample(ids, len(ids))))
    verts = {perm[v]: d for v, d in verts.items()}
    edges = [(perm[u], perm[v], s) for u, v, s in edges]
    return verts, edges


def _signed_decoration(rng, sgn):
    b = rng.choice((-3, -4, -5))
    return b, sgn * (-b - 2)


# ---------------------------------------------------------------------------
# deep_reduce: paths and cycles whose --all-paths trees have 10^3 nodes
# ---------------------------------------------------------------------------

# (shape, n, signed positions, cycle sign).  Along the shape, consecutive
# signed vertices are made to disagree, so every stretch between them is a
# minimal inconsistent path.  Up to switching and relabelling (which the
# generator randomises) such a graph is fixed by these positions, and its
# tree size swings by 5x between neighbouring position sets; fixing the
# positions keeps the work per op, and so the run-to-run spread, steady while
# every seed still writes different files.
DEEP_TEMPLATES = (
    ("path", 12, (0, 2, 4, 5, 6, 10, 11), 1),
    ("path", 13, (0, 2, 4, 5, 6, 11, 12), 1),
    ("path", 14, (1, 4, 5, 6, 8, 10, 12), 1),
    ("path", 14, (0, 1, 2, 4, 10, 11, 12), 1),
    ("path", 15, (2, 4, 6, 7, 8, 12, 13), 1),
    ("path", 16, (1, 3, 5, 6, 7, 11, 12), 1),
    ("cycle", 13, (3, 4, 6, 7, 8, 10), 1),
    ("cycle", 13, (1, 4, 6, 8, 10, 11, 12), 1),
    ("cycle", 13, (0, 2, 4, 5, 7, 8, 12), 1),
    ("cycle", 14, (4, 6, 7, 8, 9, 13), 1),
)


def deep_graph(rng, template):
    """One randomised instance of a DEEP_TEMPLATES entry."""
    shape, n, signed, cycle_sign = template
    m = n - 1 if shape == "path" else n
    edges = [(i, (i + 1) % n, 1) for i in range(m)]
    if shape == "cycle":
        edges[-1] = (n - 1, 0, cycle_sign)
    verts = {v: (-2, 0) for v in range(n)}
    for k, v in enumerate(signed):
        verts[v] = _signed_decoration(rng, 1 if k % 2 == 0 else -1)
    return relabel(rng, *switch(rng, verts, edges))


# ---------------------------------------------------------------------------
# oracle_wide: mostly-extreme graphs on 16-20 vertices
# ---------------------------------------------------------------------------

# The pure oracle's cost is ~2^(extreme vertices) propagations plus a cheap
# 2^n scan, so every graph keeps ORACLE_EXTREME extreme vertices and the rest
# non-extreme: n grows the scan, not the propagation count.
ORACLE_EXTREME = 15
ORACLE_SIGNED_SHARE = 0.3  # of the extreme vertices of degree <= 2
ORACLE_STRATA = (
    ("path", 16), ("cycle", 17), ("tree", 18), ("path", 19),
    ("cycle", 20), ("tree", 16), ("path", 18), ("tree", 20),
)


def _random_tree(rng, n):
    """Edges of a random tree with maximum degree 3 (random attachment)."""
    deg = [0] * n
    edges = []
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < 3])
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    return edges


def oracle_graph(rng, shape, n):
    """A random path, cycle or tree on n vertices with ORACLE_EXTREME extreme
    ones; vertices of degree 3 are signed, as goodness requires."""
    if shape == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif shape == "cycle":
        pairs = [(i, (i + 1) % n) for i in range(n)]
    else:
        pairs = _random_tree(rng, n)
    deg = _degrees(n, pairs)
    non_extreme = set(rng.sample(range(n), n - ORACLE_EXTREME))
    verts = {}
    for v in range(n):
        if v in non_extreme:
            verts[v] = (-4, 0)
        elif deg[v] > 2 or rng.random() < ORACLE_SIGNED_SHARE:
            verts[v] = _signed_decoration(rng, rng.choice((1, -1)))
        else:
            verts[v] = (-2, 0)
    edges = [(u, v, rng.choice((1, -1))) for u, v in pairs]
    return relabel(rng, verts, edges)


# ---------------------------------------------------------------------------
# arith_roundtrip: continued-fraction rows and monodromy words
# ---------------------------------------------------------------------------

# The p of acceptance criterion 5's round-trip sweep.
ARITH_P_RANGE = (2, 501)
WORD_LENGTHS = (2, 3, 4, 5)


def arith_rows(count):
    """The first ``count`` p of ARITH_P_RANGE, each with its coprime q < p.

    Every p is kept rather than sampled: row sizes (about phi(p) pairs) swing
    by 2x between neighbouring p, so a sample would move the median op from
    seed to seed.  The seed shuffles their order and draws the words."""
    lo, hi = ARITH_P_RANGE
    return [(p, [q for q in range(1, p) if gcd(p, q) == 1]) for p in range(lo, min(hi, lo + count))]


def arith_words(rng, per_length=3):
    """(sign, exponents) words, ``per_length`` of each length in WORD_LENGTHS.

    The leading exponent is 3 and the rest are drawn from 2-4: the bounded
    search in ``factor_monodromy`` tries every shorter word first, so its
    cost is set by the length and stays within ~20% of that for any draw.
    """
    out = []
    for length, _ in product(WORD_LENGTHS, range(per_length)):
        tail = tuple(rng.randint(2, 4) for _ in range(length - 1))
        out.append((rng.choice((1, -1)), (3,) + tail))
    return out

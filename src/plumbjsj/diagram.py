"""Chain-level surgery-diagram bookkeeping: lens-space chains, cyclic
torus-bundle chains, inconsistent-chain recognition and breaking, tight
structure counts, and Stein-diagram descriptions."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from plumbjsj.arith import MonodromyWord, neg_cf_expand
from plumbjsj.graph import PlumbingGraph, cycle_rank, require_valid
from plumbjsj.unknot import MAX_TB_UNKNOT, UnknotDescriptor


class UnsupportedShapeError(ValueError):
    """The graph needs the general wrapped-up drawing algorithm (not built)."""


@dataclass(frozen=True)
class ChainDiagram:
    """Chain of Legendrian unknots with consecutive linking signs.

    Linear: len(link_signs) == len(components) - 1.  Closed: one sign per
    component, the last being the closing sign between the ends.
    """

    components: tuple[UnknotDescriptor, ...]
    link_signs: tuple[int, ...]
    closed: bool = False
    over_handle: tuple[int, int] | None = None

    def __post_init__(self):
        expected = len(self.components) - (0 if self.closed else 1)
        if self.components:
            if len(self.link_signs) != expected:
                raise ValueError(
                    f"expected {expected} link signs, got {len(self.link_signs)}"
                )
        elif self.link_signs:
            raise ValueError("empty chain cannot carry link signs")
        if any(s not in (1, -1) for s in self.link_signs):
            raise ValueError("link signs must be +1 or -1")

    def __len__(self) -> int:
        return len(self.components)

    @property
    def closing_sign(self) -> int:
        if not self.closed:
            raise ValueError("linear chain has no closing sign")
        return self.link_signs[-1]


EMPTY_CHAIN = ChainDiagram((), ())


@dataclass(frozen=True)
class BreakResult:
    pieces: tuple[ChainDiagram, ...]
    lambda_plus: UnknotDescriptor
    lambda_minus: UnknotDescriptor
    removed_index: int


@dataclass(frozen=True)
class SteinDescription:
    """Stein handlebody data: unknots as (vertex id, descriptor, 1-handle
    passes), and the off-diagonal linking matrix in vertex_order."""

    one_handles: int
    unknots: tuple[tuple[int, UnknotDescriptor, tuple[int, ...]], ...]
    vertex_order: tuple[int, ...]
    linking: tuple[tuple[int, ...], ...]


def lens_chain(p: int, q: int, rot) -> ChainDiagram:
    """The positive linear surgery chain for the lens space given by -p/q,
    with the k-th unknot at tb = 1 - a_k and the requested rotation number."""
    a = neg_cf_expand(p, q)
    rot = list(rot)
    if len(rot) != len(a):
        raise ValueError(f"need {len(a)} rotation numbers, got {len(rot)}")
    comps = []
    for k, (ak, rk) in enumerate(zip(a, rot)):
        if (rk - ak) % 2 != 0 or abs(rk) > ak - 2:
            raise ValueError(
                f"rotation {rk} invalid for tb={1 - ak} (component {k})"
            )
        comps.append(UnknotDescriptor.from_tb_rot(1 - ak, rk))
    return ChainDiagram(tuple(comps), (1,) * (len(comps) - 1))


def count_structures(a) -> tuple[int, int, int]:
    """(total, universally tight, virtually overtwisted) Legendrian
    realizations of the chain with framings -a_k."""
    a = list(a)
    if not a or min(a) < 2:
        raise ValueError("all framing exponents must be >= 2")
    total = prod(x - 1 for x in a)
    universally_tight = 1 if max(a) == 2 else 2
    return total, universally_tight, total - universally_tight


def is_universally_tight(c: ChainDiagram) -> bool:
    """True when every stabilization in the chain has the same side."""
    if c.closed:
        raise ValueError("universal tightness test applies to linear chains")
    if any(s != 1 for s in c.link_signs):
        raise ValueError("universal tightness test expects positive link signs")
    return all(u.s_minus == 0 for u in c.components) or all(
        u.s_plus == 0 for u in c.components
    )


def _interior_max_tb(c: ChainDiagram, interior) -> None:
    for k in interior:
        if c.components[k].tb != -1:
            raise ValueError(
                f"interior component {k} must be a max-tb unknot, has tb={c.components[k].tb}"
            )


def is_inconsistent_chain(c: ChainDiagram, self_link: int | None = None) -> bool:
    """Whether the chain admits endpoint stabilization signs making the total
    endpoint-sign / linking product equal to -1.

    A closed chain is read with coincident endpoints: both endpoint signs come
    from component 0.  A single closed component needs ``self_link`` (the
    linking number of its pinched halves), which the chain itself cannot know.
    """
    n = len(c.components)
    if n == 0:
        raise ValueError("empty chain")
    if not c.closed:
        if n == 1:
            u = c.components[0]
            return u.s_plus >= 1 and u.s_minus >= 1
        _interior_max_tb(c, range(1, n - 1))
        first = c.components[0].stabilization_signs()
        last = c.components[-1].stabilization_signs()
        if not first or not last:
            return False
        link_prod = prod(c.link_signs)
        return any(s1 * link_prod * s2 == -1 for s1 in first for s2 in last)
    # Closed: the chain wraps around, endpoints coincide at component 0.
    signs = c.components[0].stabilization_signs()
    if not signs:
        return False
    if n == 1:
        if self_link is None:
            raise ValueError("single-component closed chain needs self_link")
        link_prod = self_link
    else:
        _interior_max_tb(c, range(1, n))
        link_prod = prod(c.link_signs)
    return any(s1 * link_prod * s2 == -1 for s1 in signs for s2 in signs)


def break_linear(c: ChainDiagram, k: int) -> BreakResult:
    """Remove component k from a linear chain, leaving the left and right
    remainders (either possibly empty) and the pinched pair of the removed
    component."""
    if c.closed:
        raise ValueError("break_linear applies to linear chains")
    n = len(c.components)
    if not 0 <= k < n:
        raise IndexError(f"component index {k} out of range for chain of {n}")
    left = ChainDiagram(c.components[:k], c.link_signs[: max(k - 1, 0)])
    right = ChainDiagram(c.components[k + 1 :], c.link_signs[k + 1 :])
    lam_plus, lam_minus = c.components[k].split()
    return BreakResult((left, right), lam_plus, lam_minus, k)


def break_cyclic(w: MonodromyWord, k: int) -> tuple[list[int], BreakResult]:
    """Break the cyclic surgery chain of a torus-bundle monodromy word at
    component k, producing the exponent list of the resulting lens space
    (read cyclically, skipping k) and the removed component's pinched pair.

    The removed unknot is taken in its negative-extreme Legendrian
    realization (all stabilizations negative), matching the single-sign
    situation in which cyclic breaking is used.
    """
    a = w.exponents
    n = len(a)
    if not 0 <= k < n:
        raise IndexError(f"component index {k} out of range for word of {n}")
    lens = list(a[k + 1 :]) + list(a[:k])
    removed = UnknotDescriptor(0, a[k] - 2)
    lam_plus, lam_minus = removed.split()
    comps = tuple(UnknotDescriptor(0, ai - 2) for ai in lens)
    # The wrap-around link between the last and first original components
    # survives (with the sign of the word) unless an end was removed.
    link_signs = []
    for pos in range(len(lens) - 1):
        wraps = pos == n - k - 2 and 0 < k < n - 1
        link_signs.append(w.sign if wraps else 1)
    piece = ChainDiagram(comps, tuple(link_signs))
    return lens, BreakResult((piece,), lam_plus, lam_minus, k)


def bundle_counts(w: MonodromyWord) -> tuple[int, int]:
    """(tight, virtually overtwisted) counts for the torus bundle with this
    monodromy: the product of (a_i - 1), minus (1 + sign) for the virtually
    overtwisted count."""
    tight = prod(a - 1 for a in w.exponents)
    return tight, tight - (1 + w.sign)


def eligible_chain(g: PlumbingGraph, chain) -> bool:
    """Whether the vertex sequence can be routed over a 1-handle: interior
    vertices must have degree at most 2 (the ends are unrestricted)."""
    chain = list(chain)
    if not chain:
        raise ValueError("empty chain")
    if len(set(chain)) != len(chain):
        raise ValueError("chain vertices must be distinct")
    adj = g.adjacency()
    for u, v in zip(chain, chain[1:]):
        if all(w != v for w, _ in adj[u]):
            raise ValueError(f"({u},{v}) is not an edge")
    return all(g.degree(v) <= 2 for v in chain[1:-1])


def _cycle_vertices(g: PlumbingGraph) -> list[int]:
    """Vertices of the unique cycle of a graph of cycle rank 1: what is left
    after peeling leaves."""
    adj = g.adjacency()
    degree = {v: g.degree(v) for v in g.vertices}
    queue = [v for v, d in degree.items() if d <= 1]
    removed = set()
    while queue:
        v = queue.pop()
        removed.add(v)
        for w, _ in adj[v]:
            if w in removed:
                continue
            degree[w] -= 1
            if degree[w] == 1:
                queue.append(w)
    return sorted(set(g.vertices) - removed)


def stein_description(g: PlumbingGraph, chain=None) -> SteinDescription:
    """Stein handlebody data for a forest (a canceling 1-handle is introduced
    and the chain routed over it) or a graph with a single cycle (the cycle
    closes over the 1-handle).  Anything with two independent cycles needs
    the general wrapped-up drawing algorithm and is rejected."""
    require_valid(g)
    order = tuple(sorted(g.vertices))
    rank = cycle_rank(g)
    if rank >= 2:
        raise UnsupportedShapeError(
            "graph has two or more independent cycles; wrapped-up drawing not supported"
        )

    if rank == 1:
        cycle = _cycle_vertices(g)
        if chain is None:
            chain = cycle
        if not set(chain) <= set(cycle):
            raise UnsupportedShapeError(
                "chain must lie on the unique cycle of a single-cycle graph"
            )
        passes = tuple(sorted(chain))
    else:
        chain = [] if chain is None else list(chain)
        if chain and not eligible_chain(g, chain):
            raise ValueError("chain has an interior vertex of degree > 2")
        passes = tuple(sorted(chain))

    sign_of = {(min(u, v), max(u, v)): s for u, v, s in g.edges}
    index = {v: i for i, v in enumerate(order)}
    linking = [[0] * len(order) for _ in order]
    for (u, v), s in sign_of.items():
        linking[index[u]][index[v]] = s
        linking[index[v]][index[u]] = s
    unknots = tuple(
        (
            v,
            UnknotDescriptor.from_tb_rot(g.vertices[v][0] + 1, g.vertices[v][1]),
            (0,) if v in passes else (),
        )
        for v in order
    )
    return SteinDescription(
        one_handles=1,
        unknots=unknots,
        vertex_order=order,
        linking=tuple(tuple(row) for row in linking),
    )

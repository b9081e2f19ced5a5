"""Exhaustive reference for monodromy factoring.

``factor_monodromy`` tries every normal-form word within the bounds and
returns the first whose matrix equals A.  It is the library's former
``plumbjsj.arith.factor_monodromy`` kept verbatim, so tests can compare the
closed form against an independent route.  It is exponential in ``max_n``:
keep the bounds small.
"""

from __future__ import annotations

from itertools import product as iter_product

from plumbjsj.arith import IntMatrix2, MonodromyWord, monodromy_matrix


def factor_monodromy(
    A: IntMatrix2, max_n: int, max_a: int
) -> MonodromyWord | None:
    """Bounded exhaustive search for a word whose matrix equals A exactly.

    Candidates are tried with n ascending, exponent tuples in lexicographic
    order, positive sign before negative; the first (least) match is
    returned, None when the bounds are exhausted.
    """
    if A.det != 1:
        raise ValueError(f"monodromy must have determinant 1, got {A.det}")
    if abs(A.trace) <= 2:
        raise ValueError(f"monodromy must be hyperbolic, |trace| = {abs(A.trace)}")
    for n in range(max_n + 1):
        for a0 in range(3, max_a + 1):
            for tail in iter_product(range(2, max_a + 1), repeat=n):
                for sgn in (1, -1):
                    word = MonodromyWord(sgn, (a0,) + tail)
                    if monodromy_matrix(word) == A:
                        return word
    return None

"""Closed-form monodromy factoring against the exhaustive search."""

import random
import re
from itertools import product

import pytest
from hypothesis import given, strategies as st

import brute_factor

from plumbjsj.arith import IntMatrix2, MonodromyWord, factor_monodromy, monodromy_matrix

# Every word with at most 4 exponents, a_0 in 3-6 and tail entries in 2-6.
WORDS = [
    MonodromyWord(sgn, (a0,) + tail)
    for n in range(4)
    for a0 in range(3, 7)
    for tail in product(range(2, 7), repeat=n)
    for sgn in (1, -1)
]


def random_hyperbolic(rng, count, bound=40):
    """Seeded det-1 matrices with |trace| > 2, m11 != 0 and entries in
    [-bound, bound]."""
    out = []
    while len(out) < count:
        m11, m12, m21 = (rng.randint(-bound, bound) for _ in range(3))
        if m11 == 0 or (1 + m12 * m21) % m11:
            continue
        m22 = (1 + m12 * m21) // m11
        if abs(m22) <= bound and abs(m11 + m22) > 2:
            out.append(IntMatrix2(m11, m12, m21, m22))
    return out


# (3, 6) holds every word; the others cut off long words, large exponents or
# both, and the last two admit no word at all.
@pytest.mark.parametrize("max_n, max_a", [(3, 6), (2, 5), (1, 3), (0, 12), (-1, 12), (3, 2)])
def test_every_short_word_matches_the_search(max_n, max_a):
    for word in WORDS:
        m = monodromy_matrix(word)
        assert factor_monodromy(m, max_n, max_a) == brute_factor.factor_monodromy(m, max_n, max_a)


def test_random_hyperbolic_matrices_match_the_search():
    found = 0
    for m in random_hyperbolic(random.Random(4), 3000):
        expected = brute_factor.factor_monodromy(m, 2, 8)
        assert factor_monodromy(m, 2, 8) == expected
        found += expected is not None
    assert found > 0


@pytest.mark.parametrize(
    "m",
    [
        IntMatrix2(0, 1, -1, 5),  # m11 = 0
        IntMatrix2(0, -1, 1, -5),
        IntMatrix2(2, 1, 1, 1),  # first column (2, 1): q < 0
        IntMatrix2(3, 2, 4, 3),  # first column (3, 4): q < 0
        IntMatrix2(3, -2, -4, 3),  # p = 3 < q = 4
        IntMatrix2(5, -2, -2, 1),  # the first column of +[3,2], not the second
        IntMatrix2(5, 2, -3, -1),  # +[2,3]: leading exponent below 3
        IntMatrix2(-5, -2, 3, 1),
        IntMatrix2(5, 2, -2, 0),  # det 4: rejected
        IntMatrix2(1, 1, -1, 0),  # trace 1: rejected
        IntMatrix2(1, 0, 0, -1),  # det -1 and trace 0: the determinant is reported
    ],
)
def test_edge_matrices_agree_with_the_search(m):
    try:
        expected = brute_factor.factor_monodromy(m, 3, 6)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            factor_monodromy(m, 3, 6)
    else:
        assert factor_monodromy(m, 3, 6) == expected


words = st.builds(
    lambda sgn, a0, tail: MonodromyWord(sgn, (a0,) + tuple(tail)),
    st.sampled_from((1, -1)),
    st.integers(3, 40),
    st.lists(st.integers(2, 40), max_size=29),
)


@given(words)
def test_round_trip_up_to_30_exponents(word):
    m = monodromy_matrix(word)
    n, a = len(word.exponents) - 1, max(word.exponents)
    assert factor_monodromy(m, n, a) == word
    # The bounds are exact post-filters: one less on either gives None.
    assert factor_monodromy(m, n - 1, a) is None
    assert factor_monodromy(m, n, a - 1) is None

"""Exact slope and monodromy arithmetic.

Slopes live on a torus with a fixed (meridian, longitude) basis: the curve
a*mu + b*lam has slope b/a, the longitude lam has slope infinity.  All
computations are exact, over ``fractions.Fraction`` and 2x2 integer matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Union


class _Infinity:
    """The slope of a meridian-free curve; unequal to every finite value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INFINITY = _Infinity()
Slope = Union[Fraction, _Infinity]


def format_slope(s: Slope) -> str:
    """Render as p/q with q > 0, or "inf"."""
    if s is INFINITY:
        return "inf"
    return f"{s.numerator}/{s.denominator}"


@dataclass(frozen=True)
class TorusCurve:
    """Integer class mu_coeff * mu + lam_coeff * lam on a torus."""

    mu: int
    lam: int

    def slope(self) -> Slope:
        if self.mu == 0:
            if self.lam == 0:
                raise ValueError("the zero class has no slope")
            return INFINITY
        return Fraction(self.lam, self.mu)

    def is_primitive(self) -> bool:
        return gcd(self.mu, self.lam) == 1

    def normalized(self) -> "TorusCurve":
        """Representative with first nonzero coordinate positive."""
        lead = self.mu if self.mu != 0 else self.lam
        if lead < 0:
            return TorusCurve(-self.mu, -self.lam)
        return self


@dataclass(frozen=True)
class IntMatrix2:
    """Row-major 2x2 integer matrix [[m11, m12], [m21, m22]]."""

    m11: int
    m12: int
    m21: int
    m22: int

    @property
    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    @property
    def trace(self) -> int:
        return self.m11 + self.m22

    def __matmul__(self, other: "IntMatrix2") -> "IntMatrix2":
        return IntMatrix2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def __neg__(self) -> "IntMatrix2":
        return IntMatrix2(-self.m11, -self.m12, -self.m21, -self.m22)

    def apply(self, c: TorusCurve) -> TorusCurve:
        return TorusCurve(
            self.m11 * c.mu + self.m12 * c.lam,
            self.m21 * c.mu + self.m22 * c.lam,
        )

    def inverse(self) -> "IntMatrix2":
        d = self.det
        if d not in (1, -1):
            raise ValueError(f"matrix with det {d} has no integer inverse")
        return IntMatrix2(self.m22 * d, -self.m12 * d, -self.m21 * d, self.m11 * d)

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return (self.m11, self.m12), (self.m21, self.m22)


IDENTITY = IntMatrix2(1, 0, 0, 1)


def neg_cf_expand(p: int, q: int) -> list[int]:
    """Exponents a_1,...,a_n >= 2 of the negative continued fraction of -p/q,
    for coprime p > q >= 1.  Uses the ceiling recurrence a_1 = ceil(p/q)."""
    if q < 1 or p <= q:
        raise ValueError(f"need p > q >= 1, got p={p}, q={q}")
    if gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got p={p}, q={q}")
    out = []
    while q > 0:
        a = -(-p // q)  # ceil(p/q)
        out.append(a)
        p, q = q, a * q - p
    return out


def neg_cf_evaluate(a) -> Fraction:
    """Exact value of [-a_1, -a_2, ..., -a_n]."""
    a = list(a)
    if not a:
        raise ValueError("empty exponent list")
    if min(a) < 2:
        raise ValueError("all exponents must be >= 2")
    # value = num/den; one step is value <- -x - 1/value, in integers.
    num, den = -a[-1], 1
    for x in reversed(a[:-1]):
        num, den = -x * num - den, num
    return Fraction(num, den)


def meridian_after_surgeries(j: int) -> TorusCurve:
    """Meridian class after j successive Legendrian surgeries down the chain:
    (j+1)*mu - j*lam."""
    if j < 0:
        raise ValueError("surgery count must be non-negative")
    return TorusCurve(j + 1, -j)


def gluing_matrix(n: int) -> IntMatrix2:
    """The round-surgery identification for a chain of length n, written in
    the (mu, lam) bases of both sides.  Sends mu to (n-1)*lam - n*mu and
    lam - mu to lam - mu; determinant -1 (it reverses meridians)."""
    if n < 1:
        raise ValueError("chain length must be >= 1")
    return IntMatrix2(-n, -(n + 1), n - 1, n)


class MixedTorusSlopes(NamedTuple):
    raw: tuple[Slope, Slope, Slope]
    normalizer: IntMatrix2
    normalized: tuple[Slope, Slope, Slope]


# The three boundary curves of the mixed-torus neighbourhood, before
# normalization: n*lam - (n+1)*mu, lam - mu, and lam.
def _mixed_torus_curves(n: int) -> tuple[TorusCurve, TorusCurve, TorusCurve]:
    return TorusCurve(-(n + 1), n), TorusCurve(-1, 1), TorusCurve(0, 1)


def mixed_torus_slopes(n: int) -> MixedTorusSlopes:
    """Dividing-curve slopes on the mixed-torus neighbourhood for a chain of
    length n, raw and after the determinant-one normalization that puts them
    in the standard form (-1, inf, n)."""
    if n < 1:
        raise ValueError("chain length must be >= 1")
    curves = _mixed_torus_curves(n)
    normalizer = IntMatrix2(1, 1, n - 1, n)
    raw = tuple(c.slope() for c in curves)
    normalized = tuple(normalizer.apply(c).slope() for c in curves)
    return MixedTorusSlopes(raw, normalizer, normalized)


class SplitSlopes(NamedTuple):
    plus_side: Fraction
    minus_side: Fraction
    curve: TorusCurve
    preimage: TorusCurve


def split_slopes(n: int, s: int) -> SplitSlopes:
    """Meridional slopes of the two solid tori glued in when splitting along
    the belt torus with integral slope s, 0 <= s <= n-1."""
    if n < 1:
        raise ValueError("chain length must be >= 1")
    if not 0 <= s <= n - 1:
        raise ValueError(f"splitting slope must satisfy 0 <= s <= {n - 1}, got {s}")
    curve = TorusCurve(n - s, s + 1 - n)
    preimage = gluing_matrix(n).inverse().apply(curve)
    assert preimage == TorusCurve(-(s + 1), s)
    return SplitSlopes(
        Fraction(-s, s + 1),
        Fraction(-(n - 1 - s), n - s),
        curve,
        preimage,
    )


# Generators used by the hyperbolic-monodromy normal form.
S_MATRIX = IntMatrix2(0, 1, -1, 0)
T_MATRIX = IntMatrix2(1, 1, 0, 1)


@dataclass(frozen=True)
class MonodromyWord:
    """The normal form sign * T^{-a_0} S T^{-a_1} S ... T^{-a_n} S with
    a_0 >= 3 and a_i >= 2 for i >= 1; always hyperbolic."""

    sign: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not self.exponents:
            raise ValueError("at least one exponent required")
        if self.exponents[0] < 3:
            raise ValueError("leading exponent must be >= 3")
        if min(self.exponents) < 2:  # the leading one is already >= 3
            raise ValueError("all exponents must be >= 2")

    def __str__(self) -> str:
        body = ",".join(str(a) for a in self.exponents)
        return f"{'+' if self.sign > 0 else '-'}[{body}]"


def monodromy_matrix(w: MonodromyWord) -> IntMatrix2:
    """Product of the blocks T^{-a} S = [[a, 1], [-1, 0]], then the sign."""
    # Right-multiplying by a block maps the rows (x, y) to (a*x - y, x).
    m11, m12, m21, m22 = 1, 0, 0, 1
    for a in w.exponents:
        m11, m12, m21, m22 = a * m11 - m12, m11, a * m21 - m22, m21
    s = w.sign
    return IntMatrix2(s * m11, s * m12, s * m21, s * m22)


def factor_monodromy(
    A: IntMatrix2, max_n: int, max_a: int
) -> MonodromyWord | None:
    """The normal-form word whose matrix equals A exactly, or None.

    A block T^{-a} S = [[a, 1], [-1, 0]] sends a column (p', -q') to
    (a*p' - q', -p'), so the first column of the product over a_0, ..., a_n
    is (p, -q) with p/q = [a_0, a_1, ..., a_n], the negative (Hirzebruch-Jung)
    continued fraction a_0 - 1/(a_1 - 1/(...)), and p > q >= 1.  With every
    a_i >= 2 that expansion is unique and ``neg_cf_expand`` recovers it; the
    word's sign is the sign of m11.  So at most one word has matrix A, and
    one matrix comparison settles the second column.

    ``max_n`` and ``max_a`` bound the answer, not a search: they are applied
    after the expansion, and a word with more than max_n + 1 exponents or an
    exponent above max_a gives None.  The result equals the first match of
    the bounded exhaustive search kept in ``tests/brute_factor.py``.
    """
    if A.det != 1:
        raise ValueError(f"monodromy must have determinant 1, got {A.det}")
    if abs(A.trace) <= 2:
        raise ValueError(f"monodromy must be hyperbolic, |trace| = {abs(A.trace)}")
    sgn = 1 if A.m11 > 0 else -1
    p, q = sgn * A.m11, -sgn * A.m21
    if not p > q >= 1:
        return None
    # det 1 makes the first column primitive, so p and q are coprime.
    a = neg_cf_expand(p, q)
    if a[0] < 3 or len(a) - 1 > max_n or max(a) > max_a:
        return None
    word = MonodromyWord(sgn, tuple(a))
    return word if monodromy_matrix(word) == A else None

"""Special values: Bernoulli numbers, zeta at negative integers, and the
negative-index polylogarithm evaluated at roots of unity.

These supply the exact constant terms of the Eisenstein q-expansions:
for a = a/N nonzero mod 1 the value sum_{n>=1} e^{2 pi i a n} n^{k-1} is
Li_{1-k}(zeta^a), computed as the rational function (x d/dx)^{k-1} (x/(1-x))
evaluated in Q(zeta_N); for a = 0 it degenerates to zeta(1-k) = -B_k/k.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .poly import QQ, poly_add, poly_derivative, poly_eval, poly_mul

_BERNOULLI = [QQ(1)]


def bernoulli(n: int) -> Fraction:
    """B_n with the convention B_1 = -1/2."""
    while len(_BERNOULLI) <= n:
        k = len(_BERNOULLI)
        s = QQ(0)
        for j in range(k):
            s += comb(k + 1, j) * _BERNOULLI[j]
        _BERNOULLI.append(-s / (k + 1))
    return _BERNOULLI[n]


def zeta_negative(k: int) -> Fraction:
    """zeta(1-k) for k >= 2, via Bernoulli numbers."""
    if k < 2:
        raise ValueError("use k >= 2")
    return -bernoulli(k) / k


def _polylog_neg_ratfunc(m: int):
    """Li_{-m}(x) = num(x)/(1-x)^(m+1) as the dense numerator and m + 1."""
    # start from Li_0 = x/(1-x); apply x d/dx repeatedly, using
    # d/dx (num/(1-x)^power) = (num' (1-x) + power num) / (1-x)^(power+1)
    num = [QQ(0), QQ(1)]
    for power in range(1, m + 1):
        num = [QQ(0)] + poly_add(poly_mul(poly_derivative(num), [QQ(1), QQ(-1)]),
                                 [power * c for c in num])
    return num, m + 1


def polylog_negative(m: int, x):
    """Li_{-m}(x) for m >= 0 and x an exact ring element with x != 1.

    x may be a Fraction or any element supporting ring operations and
    division (e.g. a cyclotomic root of unity other than 1).
    """
    num, power = _polylog_neg_ratfunc(m)
    return poly_eval(num, x) / (1 - x) ** power


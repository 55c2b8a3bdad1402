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

from .poly import QQ, poly_mul, poly_add, poly_neg

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
    """Li_{-m}(x) = num(x)/(1-x)^(m+1) as dense numerator and denominator."""
    # start from Li_0 = x/(1-x); apply x d/dx repeatedly
    num = [QQ(0), QQ(1)]
    den = [QQ(1), QQ(-1)]  # (1 - x)
    power = 1  # den = (1-x)^power
    for _ in range(m):
        # d/dx (num/den^power) = (num' den - power num den') / den^(power+1)
        dnum = [QQ(i) * c for i, c in enumerate(num)][1:] or [QQ(0)]
        dden = [QQ(-1)]  # derivative of (1 - x)
        t1 = poly_mul(dnum, den)
        t2 = [QQ(power) * c for c in poly_mul(num, dden)]
        new_num = poly_add(t1, poly_neg(t2))
        num = poly_mul([QQ(0), QQ(1)], new_num)  # multiply by x
        power += 1
    return num, power


def polylog_negative(m: int, x):
    """Li_{-m}(x) for m >= 0 and x an exact ring element with x != 1.

    x may be a Fraction or any element supporting ring operations and
    division (e.g. a cyclotomic root of unity other than 1).
    """
    num, power = _polylog_neg_ratfunc(m)
    num_val = None
    for k, c in enumerate(num):
        if not c:
            continue
        xk = x ** k
        term = xk * c
        num_val = term if num_val is None else num_val + term
    return num_val / (1 - x) ** power


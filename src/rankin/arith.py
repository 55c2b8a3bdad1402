"""The exact arithmetic every layer shares: factorization, Euler's phi,
primes, the Chinese remainder theorem, square-and-multiply powers, inverses,
the coefficient-ring protocol, the base of the value types, the error a
failed internal certificate raises and the error of a bad eigenform file.

The ring protocol: a ring has zero(), one() and coerce() and compares
structurally; its elements subclass RingElt and carry it as ``.ring``; sums
and products across unequal rings raise TypeError.  RATIONALS is Q.

Stdlib only, and nothing from rankin, so any module may import it.
"""

from __future__ import annotations

import operator
from fractions import Fraction


class VerificationError(AssertionError):
    """An internal certificate failed: a computed result did not pass the
    independent check that guards it."""


class FormDataError(ValueError):
    """An eigenform file that does not parse or fails validation; forms
    raises it, and the CLI reports it as a data error without loading
    forms."""


def factor(n: int):
    """[(p, e), ...] with n = prod p^e and the primes increasing; [] when
    n <= 1."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def prime_factors(n: int):
    """The distinct primes dividing n, increasing; [n] exactly when n is
    prime."""
    return [p for p, _ in factor(n)]


def euler_phi(n: int) -> int:
    result = 1
    for p, e in factor(n):
        result *= (p - 1) * p ** (e - 1)
    return result


def primes_upto(B: int):
    """The primes p <= B, by the sieve of Eratosthenes."""
    if B < 2:
        return []
    sieve = bytearray([1]) * (B + 1)
    out = []
    for p in range(2, B + 1):
        if sieve[p]:
            out.append(p)
            for q in range(p * p, B + 1, p):
                sieve[q] = 0
    return out


def crt(pairs):
    """The x in [0, prod of the moduli) with x = r mod m for every (r, m) in
    ``pairs``; the moduli must be pairwise coprime (modulus 1 allowed)."""
    x, m = 0, 1
    for r, mod in pairs:
        g = pow(m, -1, mod)
        x = x + m * ((g * (r - x)) % mod)
        m *= mod
    return x


def power(x, n: int, one, mul=operator.mul):
    """x^n for n >= 0 by square-and-multiply with the product ``mul``.

    ``one`` for n = 0; otherwise the result starts as the square of x at
    the lowest set bit of n (x itself when n is odd), so no product with
    ``one`` is made.  Squares are mul(x, x) on one object; the other
    products are mul(result, square).
    """
    if not n:
        return one
    while not n & 1:
        x = mul(x, x)
        n >>= 1
    result = x
    n >>= 1
    while n:
        x = mul(x, x)
        if n & 1:
            result = mul(result, x)
        n >>= 1
    return result


def inverse(c):
    """1/c: an exact Fraction for int and Fraction, c.inverse() for ring
    elements (never 1 / c, which would cost a product more)."""
    if isinstance(c, (int, Fraction)):
        return 1 / Fraction(c)
    return c.inverse()


class RationalRing:
    """Q as a ring object whose elements are plain Fractions."""

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} to a rational")

    def __repr__(self):
        return "Q"


RATIONALS = RationalRing()


class RingElt:
    """The operators every ring element derives from its own +, unary -, *,
    bool and inverse(); subclasses declare their own __slots__."""

    __slots__ = ()

    def is_zero(self):
        return not self

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __truediv__(self, other):
        return self * inverse(other)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return power(self.inverse(), -n, self.ring.one())
        return power(self, n, self.ring.one())


class Record:
    """A value type whose fields are its __slots__: equal when of the same
    class with equal field tuples, hashed as that tuple, and shown as
    Class(field=value, ...).  Subclasses set the fields in __init__."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


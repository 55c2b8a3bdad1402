"""Truncated formal q-expansions q^e * (c_0 + c_1 q + ... + c_B q^B).

The leading exponent e is an exact rational; the tail is indexed by integers.
Coefficients live in any exact ring (Fractions, cyclotomic elements, quotient
ring elements, group-ring elements).  All operations track the order of
truncation: a series knows coefficients of q^x for e <= x < e + prec.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .arith import inverse, power
from .cyclo import CyclotomicField
from .poly import QQ


class QSeries:
    """q^lead * sum_{i=0}^{prec-1} coeffs[i] * q^i + O(q^(lead+prec))."""

    __slots__ = ("ring", "lead", "coeffs", "unit")

    def __init__(self, ring, lead, coeffs, unit=False, normalize=True):
        self.ring = ring
        lead = QQ(lead)
        coeffs = list(coeffs)
        if normalize:
            # strip leading zeros so lead points at a nonzero coefficient
            # (unless the series is identically zero to this precision)
            shift = 0
            while shift < len(coeffs) and not coeffs[shift]:
                shift += 1
            # a zero series keeps its window position for precision bookkeeping
            if shift and shift < len(coeffs):
                lead += shift
                coeffs = coeffs[shift:]
        self.lead = lead
        self.coeffs = coeffs
        self.unit = unit
        if unit and coeffs and not coeffs[0]:
            raise ValueError("unit series must have nonzero leading coefficient")

    # -- helpers -------------------------------------------------------------

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    @property
    def order_bound(self) -> Fraction:
        """Exponent x such that the series is known modulo O(q^x)."""
        return self.lead + len(self.coeffs)

    @classmethod
    def zero(cls, ring, prec: int, lead=0):
        return cls(ring, lead, [ring.zero()] * prec)

    @classmethod
    def one(cls, ring, prec: int):
        return cls(ring, 0, [ring.one()] + [ring.zero()] * (prec - 1), unit=True)

    def coefficient(self, x) -> object:
        """Coefficient of q^x (x rational); raises if beyond known precision."""
        x = QQ(x)
        i = x - self.lead
        if i != int(i):
            return self.ring.zero()
        i = int(i)
        if i < 0:
            return self.ring.zero()
        if i >= len(self.coeffs):
            raise PrecisionError(f"coefficient of q^{x} beyond O(q^{self.order_bound})")
        return self.coeffs[i]

    def truncate(self, prec: int) -> "QSeries":
        return QSeries(self.ring, self.lead, self.coeffs[:prec], unit=self.unit,
                       normalize=False)

    # -- ring operations ------------------------------------------------------

    def _check_ring(self, ring):
        if ring is not self.ring and ring != self.ring:
            raise TypeError(f"operand over {ring}, expected {self.ring}")

    def __add__(self, other):
        if not isinstance(other, QSeries):
            # a scalar: coerce raises TypeError for another ring, a float or
            # a string
            other = QSeries(self.ring, 0, [self.ring.coerce(other)] +
                            [self.ring.zero()] * (self.prec - 1))
        self._check_ring(other.ring)
        lead = min(self.lead, other.lead)
        bound = min(self.order_bound, other.order_bound)
        n = bound - lead
        if n != int(n):
            raise ValueError(
                f"incompatible exponent lattices: leads {self.lead}, {other.lead}")
        s1, s2 = self.lead - lead, other.lead - lead
        if s1 != int(s1) or s2 != int(s2):
            raise ValueError(
                f"incompatible exponent lattices: leads {self.lead}, {other.lead}")
        n, s1, s2 = int(n), int(s1), int(s2)
        out = [self.ring.zero()] * n
        for i, c in enumerate(self.coeffs):
            if s1 + i < n:
                out[s1 + i] = out[s1 + i] + c
        for i, c in enumerate(other.coeffs):
            if s2 + i < n:
                out[s2 + i] = out[s2 + i] + c
        return QSeries(self.ring, lead, out)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.ring, self.lead, [-c for c in self.coeffs],
                       unit=self.unit, normalize=False)

    def __sub__(self, other):
        if isinstance(other, QSeries):
            return self + (-other)
        return self + (-self.ring.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSeries(self.ring, self.lead,
                           [c * QQ(other) for c in self.coeffs], normalize=True)
        if not isinstance(other, QSeries):
            # scalar from the coefficient ring
            self._check_ring(getattr(other, "ring", None))
            return QSeries(self.ring, self.lead, [c * other for c in self.coeffs])
        self._check_ring(other.ring)
        n = min(self.prec, other.prec)
        if type(self.ring) is CyclotomicField and other.ring is self.ring:
            out = _packed_mul(self.ring, self.coeffs, other.coeffs, n)
        else:
            out = _schoolbook_mul(self.ring, self.coeffs, other.coeffs, n)
        return QSeries(self.ring, self.lead + other.lead, out,
                       unit=self.unit and other.unit)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _normalized(power(self, n, QSeries.one(self.ring, self.prec),
                                 _chain_mul))

    def inverse(self) -> "QSeries":
        if not self.coeffs or not self.coeffs[0]:
            raise ValueError("inverse requires a unit series (nonzero lead coefficient)")
        if type(self.ring) is CyclotomicField:
            out = _newton_inverse(self.ring, self.coeffs)
        else:
            out = _recurrence_inverse(self.ring, self.coeffs)
        return QSeries(self.ring, -self.lead, out, unit=True, normalize=False)

    def __truediv__(self, other):
        if isinstance(other, QSeries):
            return self * other.inverse()
        if not isinstance(other, (int, Fraction)):
            other = self.ring.coerce(other)
        return self * inverse(other)

    def __eq__(self, other):
        """Equality on the overlap of the known windows, after stripping
        leading zero coefficients from both sides."""
        if not isinstance(other, QSeries):
            return NotImplemented

        def normalized(s):
            k = 0
            while k < len(s.coeffs) and not s.coeffs[k]:
                k += 1
            return s.lead + k, s.coeffs[k:]

        la, ca = normalized(self)
        lb, cb = normalized(other)
        if not ca and not cb:
            return True
        if not ca or not cb:
            return False
        if la != lb:
            return False
        n = min(len(ca), len(cb))
        return all(ca[i] == cb[i] for i in range(n))

    def __hash__(self):
        raise TypeError("QSeries is unhashable")

    # -- operators -------------------------------------------------------------

    def subst_power(self, t: int) -> "QSeries":
        """q -> q^t for a positive integer t."""
        if t < 1:
            raise ValueError("substitution power must be >= 1")
        if t == 1:
            return self
        out = [self.ring.zero()] * ((self.prec - 1) * t + 1 if self.coeffs else 0)
        for i, c in enumerate(self.coeffs):
            out[i * t] = c
        return QSeries(self.ring, self.lead * t, out, unit=self.unit, normalize=False)

    def mul_one_minus(self, x, t: int) -> "QSeries":
        """Multiply by the binomial (1 - x q^t), t >= 1, in O(B) operations."""
        out = list(self.coeffs)
        for i in range(len(out) - 1, t - 1, -1):
            out[i] = out[i] - x * self.coeffs[i - t]
        return QSeries(self.ring, self.lead, out, unit=self.unit, normalize=False)

    def qdq(self) -> "QSeries":
        """q d/dq (exact; multiplies coefficient of q^x by x)."""
        out = [c * (self.lead + i) for i, c in enumerate(self.coeffs)]
        return QSeries(self.ring, self.lead, out)

    def dlog(self) -> "QSeries":
        """Logarithmic derivative q (d/dq) log(series), for unit series."""
        return self.qdq() / self

    def __str__(self):
        inner = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = str(c)
            if any(op in cs for op in (" + ", " - ")) or cs.startswith("-"):
                cs = f"({cs})"
            if i == 0:
                inner.append(cs)
            elif i == 1:
                inner.append(f"{cs}*q")
            else:
                inner.append(f"{cs}*q^{i}")
        body = " + ".join(inner) if inner else "0"
        if self.lead == 0:
            return f"{body} + O(q^{self.order_bound})"
        return f"q^({self.lead}) * ({body}) + O(q^{self.order_bound})"

    __repr__ = __str__


class PrecisionError(ValueError):
    pass


def _schoolbook_mul(ring, a, b, n: int) -> list:
    """The first n coefficients of the product, over any coefficient ring."""
    out = [ring.zero()] * n
    for i, x in enumerate(a[:n]):
        if not x:
            continue
        for j, y in enumerate(b[:n - i]):
            if y:
                out[i + j] = out[i + j] + x * y
    return out


def _packed_mul(field, a, b, n: int) -> list:
    """The first n coefficients of the product over Q(zeta_L), as one
    Kronecker-packed integer product with the denominators cleared."""
    da, ra = field.rows(a[:n])
    db, rb = (da, ra) if b is a else field.rows(b[:n])
    return field.elements(field.mul_rows(ra, rb, n), da * db)


def _normalized(s):
    """s with its leading zero coefficients stripped, as by the constructor."""
    if not s.coeffs or s.coeffs[0]:
        return s
    return QSeries(s.ring, s.lead, s.coeffs, unit=s.unit)


def _chain_mul(a, b):
    """A product in the power chain of a series.  A chain that starts from
    one makes one * x first, which strips the leading zeros of x; so a
    product into the result strips those of its left operand, while a
    square takes x as it stands.  The precision of x^n then does not depend
    on how the chain starts."""
    return (a if a is b else _normalized(a)) * b


def _recurrence_inverse(ring, coeffs) -> list:
    """Inverse of a unit series by the O(n^2) coefficient recurrence."""
    n = len(coeffs)
    c0inv = inverse(coeffs[0])
    out = [c0inv] + [ring.zero()] * (n - 1)
    for k in range(1, n):
        s = ring.zero()
        for j in range(1, k + 1):
            if coeffs[j]:
                s = s + coeffs[j] * out[k - j]
        out[k] = -(c0inv * s)
    return out


def _lowest_terms(d: int, rows: list) -> tuple:
    """(d, rows) for the rows / d, with the gcd of d and every entry removed."""
    g = gcd(d, *(c for r in rows for c in r)) if d > 1 else 1
    if g > 1:
        return d // g, [[c // g for c in r] for r in rows]
    return d, rows


def _newton_inverse(field, coeffs) -> list:
    """Inverse of a unit series over Q(zeta_L).

    The series is scaled to constant term 1, so that a Siegel product
    c_0 (1 + q Z[zeta][[q]]) inverts over Z[zeta].  Newton's iteration
    y <- y - y (x y - 1) then doubles the number of known coefficients with
    two packed products per step; rows are integers over a common
    denominator.
    """
    n = len(coeffs)
    # one-row products scale by c_0^-1 on the way in and out
    d0, inv0 = field.rows([inverse(coeffs[0])])
    dx, x = field.rows(coeffs)
    dx, x = _lowest_terms(dx * d0, field.mul_rows(inv0, x, n))
    dy, y = 1, [[1] + [0] * (field.phi - 1)]
    m = 1
    while m < n:
        k = min(2 * m, n)
        # x y = 1 + O(q^m): its rows m..k-1 are those of x y - 1
        e = field.mul_rows(x, y, k)[m:]
        t = field.mul_rows(y, e, k - m)
        # y has denominator dy, t (rows m..k-1 of y (x y - 1)) dx dy^2
        dy, y = _lowest_terms(dx * dy * dy, [[c * dx * dy for c in r] for r in y]
                              + [[-c for c in r] for r in t])
        m = k
    return field.elements(field.mul_rows(inv0, y, n), d0 * dy)


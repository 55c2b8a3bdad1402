"""Cyclotomic fields Q(zeta_L) with exact arithmetic.

Elements are stored reduced modulo the L-th cyclotomic polynomial, so equality
is a structural check on coefficient vectors.  An inverse in Z[zeta] gets
int coordinates (ints), so that integral arithmetic stays on ints.  The
fixed complex embedding sends the generator to exp(2*pi*i/L).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import compress

from .arith import RingElt, euler_phi
from .poly import QQ, cyclotomic_polynomial, poly_trim, poly_xgcd, power_rows


def ints(coeffs) -> tuple:
    """The rationals coeffs, each one of denominator 1 as an int."""
    return tuple(c.numerator if c.denominator == 1 else c for c in coeffs)


# most entries L * phi(L) of a field's dense power table; its image table holds
# the nonzero ones of these, as index and value tuples
CONDUCTOR_BOUND = 10 ** 6


def check_conductor(L: int):
    """Raise ValueError unless Q(zeta_L) may be built: L >= 1 and its power
    table of L * phi(L) ints within CONDUCTOR_BOUND.  An L above the bound is
    refused before it is factored."""
    if L < 1:
        raise ValueError("conductor must be positive")
    if L > CONDUCTOR_BOUND or L * euler_phi(L) > CONDUCTOR_BOUND:
        raise ValueError(f"conductor {L} needs a power table of L * phi(L) > "
                         f"{CONDUCTOR_BOUND} entries")


class CyclotomicField:
    """Q(zeta_L), represented as Q[x]/(Phi_L(x))."""

    _cache: dict = {}

    def __new__(cls, L: int):
        if L in cls._cache:
            return cls._cache[L]
        check_conductor(L)
        self = super().__new__(cls)
        cls._cache[L] = self
        return self

    def __init__(self, L: int):
        if getattr(self, "_ready", False):
            return
        self.L = L
        self.modulus = cyclotomic_polynomial(L)
        self.phi = len(self.modulus) - 1
        # x^k mod Phi_L (0 <= k < L) as int vectors of length phi, and the image
        # table of their nonzero coordinates; reductions read row k mod L
        self._powers = power_rows(self.modulus, L)
        ints = list(range(self.phi))
        self._images = [(tuple(compress(ints, row)), tuple(filter(None, row)))
                        for row in self._powers]
        self._ready = True

    def __repr__(self):
        return f"Q(zeta_{self.L})"

    # -- constructors --------------------------------------------------------

    def zero(self):
        return CycloElt(self, (0,) * self.phi)

    def one(self):
        return self.zeta(0)

    def coerce(self, x):
        if isinstance(x, CycloElt):
            if x.ring is self:
                return x
            raise TypeError(f"element of {x.ring}, expected {self}")
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"cannot coerce {x!r} to {self}")
        v = [0] * self.phi
        v[0] = x
        return CycloElt(self, tuple(v))

    def zeta(self, k: int = 1):
        """zeta_L^k."""
        return CycloElt(self, self._powers[k % self.L])

    def from_coeffs(self, coeffs):
        """sum_j coeffs[j] zeta^j, the exponents folded mod L."""
        row = [0] * self.L
        for j, c in enumerate(coeffs):
            row[j % self.L] += QQ(c)
        return CycloElt(self, tuple(self.reduce_powers(row)))

    def reduce_powers(self, row) -> list:
        """The coordinates of sum_j row[j] zeta^j, row of length L (j < phi: as given)."""
        phi = self.phi
        out = [x or 0 for x in row[:phi]]
        for x, (index, value) in zip(row[phi:], self._images[phi:]):
            if x:
                for i, r in zip(index, value):
                    out[i] += x * r
        return out


class CycloElt(RingElt):
    """Element of a CyclotomicField, reduced mod Phi_L."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CyclotomicField, coeffs: tuple):
        self.ring = ring
        self.coeffs = coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.coerce(other)
        if not isinstance(other, CycloElt):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring.L, self.coeffs))

    def __add__(self, other):
        if not isinstance(other, (CycloElt, int, Fraction)):
            return NotImplemented
        other = self.ring.coerce(other)
        return CycloElt(self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloElt(self.ring, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElt(self.ring, tuple(a * other for a in self.coeffs))
        if not isinstance(other, CycloElt):
            return NotImplemented
        if other.ring is not self.ring:
            raise TypeError(f"element of {other.ring}, expected {self.ring}")
        phi = self.ring.phi
        conv = [0] * (2 * phi - 1)
        bs = other.coeffs
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(bs):
                    if b:
                        conv[i + j] += a * b
        out = conv[:phi]
        L, images = self.ring.L, self.ring._images
        for k, c in enumerate(conv[phi:], phi):
            if c:
                for i, r in zip(*images[k % L]):
                    out[i] += c * r
        return CycloElt(self.ring, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "CycloElt":
        if self.is_zero():
            raise ZeroDivisionError(f"0 is not invertible in {self.ring}")
        g, u, _ = poly_xgcd(poly_trim(list(self.coeffs)), self.ring.modulus)
        if len(g) != 1:
            raise ZeroDivisionError(
                f"non-unit {self} in {self.ring}: gcd with modulus is {g}")
        # deg u < phi; the inverse of a unit of Z[zeta] gets int coordinates,
        # so that its products run on ints
        return CycloElt(self.ring, ints(u + [0] * (self.ring.phi - len(u))))

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.ring.L)
        return sum(float(c) * z ** k for k, c in enumerate(self.coeffs))

    def __str__(self):
        name = f"z_{self.ring.L}"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                v = name if k == 1 else f"{name}^{k}"
                if c == 1:
                    parts.append(v)
                elif c == -1:
                    parts.append(f"-{v}")
                else:
                    parts.append(f"{c}*{v}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    __repr__ = __str__

"""Cyclotomic fields Q(zeta_L) with exact arithmetic.

Elements are stored reduced modulo the L-th cyclotomic polynomial, so equality
is a structural check on coefficient vectors.  The fixed complex embedding
sends the generator to exp(2*pi*i/L).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import compress
from math import lcm

from .arith import RingElt, euler_phi
from .poly import (QQ, _div, cyclotomic_polynomial, poly_trim, poly_xgcd,
                   power_rows)


def slot_bytes(bound: int) -> int:
    """Bytes per slot for packed signed integers of absolute value <= bound."""
    return (bound.bit_length() + 8) // 8


def pack_slots(values, wb: int) -> int:
    """sum_k values[k] * 2^(8 wb k) for ints with |v| < 2^(8 wb - 1), built
    from bytes in linear time; to_bytes raises OverflowError on a value that
    does not fit its slot."""
    h = 1 << (8 * wb - 1)
    raw = b"".join((v + h).to_bytes(wb, "little") for v in values)
    return int.from_bytes(raw, "little") - _slot_offset(len(values), wb)


def unpack_slots(x: int, count: int, wb: int) -> list:
    """Slots 0..count-1 of x = sum_k s_k 2^(8 wb k), valid when those slots
    satisfy |s_k| < 2^(8 wb - 1); higher slots may hold anything."""
    h = 1 << (8 * wb - 1)
    nbytes = count * wb
    # adding h to every low slot makes each one a byte field in [0, 2^(8 wb))
    low = (x + _slot_offset(count, wb)) & ((1 << (8 * nbytes)) - 1)
    raw = low.to_bytes(nbytes, "little")
    return [int.from_bytes(raw[i:i + wb], "little") - h
            for i in range(0, nbytes, wb)]


def truncate_slots(x: int, count: int, wb: int) -> int:
    """sum_(k < count) s_k 2^(8 wb k) for x as in unpack_slots (count >= 1)."""
    bits = 8 * wb * count
    low = x & ((1 << bits) - 1)
    # the true low part lies in (-2^(bits-1), 2^(bits-1)); the mask returned
    # it modulo 2^bits
    return low - (1 << bits) if low.bit_length() == bits else low


def _slot_offset(count: int, wb: int) -> int:
    return int.from_bytes((1 << (8 * wb - 1)).to_bytes(wb, "little") * count,
                          "little")


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

    def rows(self, elts):
        """(d, rows): the least d >= 1 with d*x integral for every x in elts,
        and the coordinate vectors of the d*x as lists of ints."""
        vecs = [self.coerce(x).coeffs for x in elts]
        d = lcm(*{c.denominator for v in vecs for c in v})
        return d, [[c.numerator * (d // c.denominator) for c in v] for v in vecs]

    def elements(self, rows, d: int = 1):
        """The elements with coordinate vectors row / d, for integer rows."""
        if d == 1:
            return [CycloElt(self, tuple(r)) for r in rows]
        return [CycloElt(self, tuple(_div(c, d) for c in r))
                for r in rows]

    def mul_rows(self, a, b, n: int):
        """The first n coefficient rows of the product of two q-series over
        Z[zeta_L] given by their integer coefficient rows a and b.

        Kronecker substitution: coordinate j of the coefficient of q^i goes
        to slot i(2 phi - 1) + j of one int, so a single bigint product
        yields every convolution sum without carries between slots; the
        slots are then reduced modulo Phi_L.
        """
        if n <= 0:
            return []
        phi = self.phi
        stride = 2 * phi - 1
        square = b is a
        a, b = a[:n], b[:n]
        ma = max((abs(c) for r in a for c in r), default=0)
        mb = ma if square else max((abs(c) for r in b for c in r), default=0)
        # a product slot sums at most n * phi terms a_(i1,j1) * b_(i2,j2)
        wb = slot_bytes(max(n * phi * ma * mb, ma, mb))
        gap = [0] * (phi - 1)
        x = pack_slots([c for r in a for c in r + gap], wb)
        y = x if square else pack_slots([c for r in b for c in r + gap], wb)
        slots = unpack_slots(x * y, n * stride, wb)
        L, images = self.L, self._images
        out = []
        for i in range(0, n * stride, stride):
            row = slots[i:i + phi]
            for k, c in enumerate(slots[i + phi:i + stride], phi):
                if c:
                    for j, r in zip(*images[k % L]):
                        row[j] += c * r
            out.append(row)
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
        return self.ring.from_coeffs(u)

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

"""Group rings of (Z/mZ)^* over an arbitrary exact coefficient ring.

Multiplication is the convolution [a]*[b] = [ab].  The augmentation map sends
every bracket to 1 and is a ring homomorphism.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .arith import RATIONALS, RationalRing, RingElt, inverse
from .poly import QQ


class GroupRing:
    """R[(Z/mZ)^*] for a coefficient ring R."""

    def __init__(self, m: int, base=RATIONALS):
        if m < 1:
            raise ValueError("modulus must be positive")
        self.m = m
        self.base = base
        self.units = tuple(a for a in range(1, m + 1) if gcd(a, m) == 1) if m > 1 else (1,)

    def __repr__(self):
        return f"{self.base}[(Z/{self.m})^*]"

    def __eq__(self, other):
        return self is other or (isinstance(other, GroupRing) and self.m == other.m
                                 and self.base == other.base)

    def __hash__(self):
        return hash((self.m, self.base))

    def zero(self):
        return GroupRingElt(self, {})

    def one(self):
        return self.bracket(1)

    def bracket(self, a: int, coeff=None):
        """coeff * [a]."""
        a = a % self.m if self.m > 1 else 1
        if self.m > 1 and gcd(a, self.m) != 1:
            raise ValueError(f"{a} is not a unit modulo {self.m}")
        c = self.base.one() if coeff is None else self.base.coerce(coeff)
        return GroupRingElt(self, {a: c} if c else {})

    def coerce(self, x):
        if isinstance(x, GroupRingElt):
            if x.ring == self:
                return x
            raise TypeError(f"element of {x.ring}, expected {self}")
        return self.bracket(1, x)


class GroupRingElt(RingElt):
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: GroupRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.coerce(other)
        if not isinstance(other, GroupRingElt):
            return NotImplemented
        if self.ring != other.ring:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        z = self.ring.base.zero()
        return all(self.coeffs.get(k, z) == other.coeffs.get(k, z) for k in keys)

    def __add__(self, other):
        other = self.ring.coerce(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            s = out.get(a)
            s = c if s is None else s + c
            if not s:
                out.pop(a, None)
            else:
                out[a] = s
        return GroupRingElt(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return GroupRingElt(self.ring, {a: -c for a, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, GroupRingElt):
            other = self.ring.coerce(other)
            m = self.ring.m
            out = {}
            for a, c in self.coeffs.items():
                for b, d in other.coeffs.items():
                    k = (a * b) % m if m > 1 else 1
                    s = out.get(k)
                    prod = c * d
                    s = prod if s is None else s + prod
                    if not s:
                        out.pop(k, None)
                    else:
                        out[k] = s
            return GroupRingElt(self.ring, out)
        # scalar from the base ring (or coercible)
        other = self.ring.base.coerce(other)
        out = {}
        for a, c in self.coeffs.items():
            s = c * other
            if s:
                out[a] = s
        return GroupRingElt(self.ring, out)

    __rmul__ = __mul__

    def inverse(self) -> "GroupRingElt":
        """The inverse of a unit multiple c*[a] of a bracket; other elements
        raise ValueError."""
        if len(self.coeffs) != 1:
            raise ValueError("only multiples of a bracket are inverted")
        (a, c), = self.coeffs.items()
        return self.ring.bracket(pow(a, -1, self.ring.m), inverse(c))

    def augmentation(self):
        """Image under [a] -> 1, landing in the base ring."""
        total = self.ring.base.zero()
        for c in self.coeffs.values():
            total = total + c
        return total

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for a in sorted(self.coeffs):
            c = self.coeffs[a]
            cs = str(c)
            if any(op in cs for op in (" + ", " - ")):
                cs = f"({cs})"
            parts.append(f"{cs}*[{a}]")
        return " + ".join(parts)

    __repr__ = __str__


def augment_mod(e: GroupRingElt, ell: int):
    """Augmentation of an integral group-ring element together with its class
    modulo ell - 1.

    Coefficients must be integers (integral Fractions); the returned pair is
    (augmentation, augmentation mod ell - 1).
    """
    total = 0
    for c in e.coeffs.values():
        c = QQ(c) if isinstance(c, (int, Fraction)) else c
        if not isinstance(c, Fraction):
            raise TypeError("augment_mod needs rational integer coefficients")
        if c.denominator != 1:
            raise ValueError(f"non-integral coefficient {c}")
        total += c.numerator
    return total, total % (ell - 1)

"""Exact multivariate (Laurent) polynomials and rational functions over Q.

Coefficients are ``int`` when integral and ``fractions.Fraction`` otherwise:
integer arithmetic runs on Python ints, and a Fraction is built only where a
division makes a non-integral value (``_div``; a sum or product of Fractions
may still leave an integral Fraction, which compares and hashes as the int).
Coefficients leave as Fractions wherever the caller may divide them: ``subs``
to a rational and ``constant_value``, because int / int and int ** -k give
floats.  Variables flagged as invertible may carry negative exponents; all
other exponents are >= 0.  Equality of rational functions is decided by
cross-multiplication, so it never depends on gcd reduction.

``MPoly.__mul__`` dispatches in this order: an MPoly of the same ring object
goes straight to the product; an int or Fraction scales the coefficients with
no exponent arithmetic (0 gives the zero polynomial, 1 gives the operand
itself); a RatFunc returns NotImplemented; anything else goes through
``PolyRing.coerce``, which raises TypeError for another ring or a float.  In
the product, a one-term operand with exponent zero is that scalar, and one
with coefficient 1 only shifts the exponents; the double loop is left for
operands of several terms.  A product may therefore share its operand's
``terms``: values are never mutated after construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add, sub

from .arith import RingElt, VerificationError

QQ = Fraction


def _frac(x):
    """``x`` as a coefficient: an int stays an int, and so does a Fraction
    with denominator 1."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"cannot coerce {x!r} to a rational")


def _div(a, b):
    """The coefficient a / b: a Fraction, or an int when it is integral (never
    the float of int / int); an exact int quotient builds no Fraction."""
    if a.__class__ is int and b.__class__ is int and b and not a % b:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


class PolyRing:
    """A polynomial ring Q[x1, ..., xn] with a set of invertible variables."""

    def __init__(self, names, invertible=()):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.invertible = frozenset(invertible)
        unknown = self.invertible - set(self.names)
        if unknown:
            raise ValueError(f"invertible names not in ring: {sorted(unknown)}")
        self.index = {n: i for i, n in enumerate(self.names)}
        self.nvars = len(self.names)
        self._bounded = tuple(i for i, n in enumerate(self.names) if n not in self.invertible)
        self._zero_exp = (0,) * self.nvars

    def __repr__(self):
        inv = f", invertible={sorted(self.invertible)}" if self.invertible else ""
        return f"PolyRing({list(self.names)}{inv})"

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.names == other.names
                and self.invertible == other.invertible)

    def __hash__(self):
        return hash((self.names, self.invertible))

    # -- constructors ------------------------------------------------------

    def zero(self) -> "MPoly":
        return MPoly(self, {})

    def one(self) -> "MPoly":
        return MPoly(self, {self._zero_exp: 1})

    def const(self, c) -> "MPoly":
        c = _frac(c)
        return MPoly(self, {self._zero_exp: c} if c else {})

    def var(self, name, power: int = 1) -> "MPoly":
        i = self.index[name]
        if power < 0 and name not in self.invertible:
            raise ValueError(f"{name} is not invertible")
        e = [0] * self.nvars
        e[i] = power
        return MPoly(self, {tuple(e): 1})

    def vars(self):
        return tuple(self.var(n) for n in self.names)

    def from_terms(self, terms) -> "MPoly":
        out = {}
        for e, c in terms.items():
            c = _frac(c)
            if c:
                out[tuple(e)] = out.get(tuple(e), 0) + c
        return MPoly(self, {e: c for e, c in out.items() if c})

    def coerce(self, x) -> "MPoly":
        if isinstance(x, MPoly):
            if x.ring is not self and x.ring != self:
                raise TypeError("MPoly from a different ring")
            return x
        return self.const(x)


class MPoly(RingElt):
    """Sparse multivariate polynomial; ``terms`` maps exponent tuples to
    nonzero coefficients, ints when integral and Fractions otherwise."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- basics ------------------------------------------------------------

    def is_one(self) -> bool:
        return self.terms == {self.ring._zero_exp: 1}

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {self.ring._zero_exp}

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return QQ(self.terms.get(self.ring._zero_exp, 0))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not (isinstance(other, MPoly) and other.ring is self.ring):
            other = self.ring.coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MPoly(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        if not (isinstance(other, MPoly) and other.ring is self.ring):
            other = self.ring.coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MPoly(self.ring, out)

    def __neg__(self):
        return MPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not (isinstance(other, MPoly) and other.ring is self.ring):
            if isinstance(other, (int, Fraction)):
                return self._scale(_frac(other))
            if isinstance(other, RatFunc):
                return NotImplemented
            other = self.ring.coerce(other)
        many, one = self.terms, other.terms
        if len(many) == 1:
            many, one = one, many
        if len(one) == 1:
            # one term c x^e: a product of nonzero rationals is nonzero and
            # the shift by e is injective, so no term cancels
            (e2, c2), = one.items()
            if e2 == self.ring._zero_exp:
                return (other if one is self.terms else self)._scale(c2)
            if c2 == 1:
                return MPoly(self.ring, {tuple(map(add, e1, e2)): c1
                                         for e1, c1 in many.items()})
            return MPoly(self.ring, {tuple(map(add, e1, e2)): c1 * c2
                                     for e1, c1 in many.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MPoly(self.ring, out)

    __rmul__ = __mul__

    def _scale(self, c) -> "MPoly":
        """self * c for a coefficient c: no exponent arithmetic, and self
        itself when c is 1."""
        if c == 1:
            return self
        if not c:
            return MPoly(self.ring, {})
        return MPoly(self.ring, {e: v * c for e, v in self.terms.items()})

    def inverse(self) -> "MPoly":
        """Inverse of a single-term polynomial whose variables are invertible."""
        if not self.terms:
            raise ZeroDivisionError("inverse of zero")
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible in a polynomial ring")
        (e, c), = self.terms.items()
        for i, k in enumerate(e):
            if k and self.ring.names[i] not in self.ring.invertible:
                raise ValueError(f"variable {self.ring.names[i]} is not invertible")
        return MPoly(self.ring, {tuple(-k for k in e): _div(1, c)})

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly(self.ring, {e: _div(v, other) for e, v in self.terms.items()})
        other = self.ring.coerce(other)
        return RatFunc(self, other)

    def __rtruediv__(self, other):
        return RatFunc(self.ring.coerce(other), self)

    # -- structure ----------------------------------------------------------

    def degree(self, name: str) -> int:
        i = self.ring.index[name]
        return max((e[i] for e in self.terms), default=0)

    def coefficients_in(self, name: str) -> dict:
        """Split into {exponent of ``name``: MPoly not involving ``name``}."""
        i = self.ring.index[name]
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            e0 = e[:i] + (0,) + e[i + 1:]
            d = out.setdefault(k, {})
            d[e0] = d.get(e0, 0) + c
        return {k: MPoly(self.ring, {e: c for e, c in d.items() if c})
                for k, d in out.items()}

    def shift(self, name: str, k: int) -> "MPoly":
        i = self.ring.index[name]
        return MPoly(self.ring, {e[:i] + (e[i] + k,) + e[i + 1:]: c
                                 for e, c in self.terms.items()})

    def clear_laurent(self):
        """Multiply by a monomial so all exponents are >= 0; return (poly, shifts)."""
        shifts = [0] * self.ring.nvars
        for e in self.terms:
            for i, k in enumerate(e):
                shifts[i] = min(shifts[i], k)
        if not any(shifts):
            return self, tuple(shifts)
        out = {tuple(a - s for a, s in zip(e, shifts)): c for e, c in self.terms.items()}
        return MPoly(self.ring, out), tuple(shifts)

    def leading(self):
        """Lex-leading (exponent, coefficient) pair."""
        e = max(self.terms)
        return e, self.terms[e]

    def content(self) -> Fraction:
        if not self.terms:
            return QQ(0)
        num = reduce(gcd, (abs(c.numerator) for c in self.terms.values()))
        den = reduce(lambda a, b: a * b // gcd(a, b),
                     (c.denominator for c in self.terms.values()))
        return QQ(num, den)

    def exact_div(self, other: "MPoly") -> "MPoly":
        """Exact division; raises ValueError if the quotient is not polynomial."""
        other = self.ring.coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        if len(other.terms) != 1:
            return _exact_div_laurent(self, other)
        # by c x^e: every term shifts by -e, unless an exponent of a variable
        # that is not invertible (``_bounded``) goes below 0
        (eb, cb), = other.terms.items()
        bound = [(i, eb[i]) for i in self.ring._bounded if eb[i] > 0]
        if any(e[i] < k for e in self.terms for i, k in bound):
            raise ValueError("not divisible")
        return MPoly(self.ring, {tuple(map(sub, e, eb)): _div(c, cb)
                                 for e, c in self.terms.items()})

    def subs(self, values: dict):
        """Evaluate with ``values`` mapping names to int/Fraction/MPoly/RatFunc.

        Unmapped variables stay themselves, so every MPoly or RatFunc value
        must then lie in self.ring; all of them must lie in one ring.  The
        result is a RatFunc when some value is a RatFunc, a Fraction when self
        is constant or every value is a scalar, and an MPoly otherwise.
        """
        (num,), den, kind = _subs_image((self,), values)
        if kind is RatFunc:
            return RatFunc(num, den)
        if kind is Fraction or self.is_constant():
            return num.constant_value()     # den is 1
        return num.exact_div(den)   # den is prod num_i^(-lo_i): a shift for units

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            facs = []
            for i, k in enumerate(e):
                if k == 0:
                    continue
                v = self.ring.names[i]
                facs.append(v if k == 1 else f"{v}^{k}")
            mono = "*".join(facs)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    __repr__ = __str__


def _power_table(x: MPoly, n: int) -> list:
    """[x^0, x^1, ..., x^n]."""
    out = [x.ring.one(), x][:n + 1]
    while len(out) <= n:
        out.append(out[-1] * x)
    return out


def _exact_div_laurent(a: MPoly, b: MPoly) -> MPoly:
    """``a.exact_div(b)`` for any nonzero b, through ``_exact_div_poly``."""
    a, sa = a.clear_laurent()
    # a monomial in the invertible variables is a unit: take b's out, so
    # that the honest division sees the rest
    names, invertible = b.ring.names, b.ring.invertible
    sb = [min(e[i] for e in b.terms) for i in range(len(names))]
    sb = tuple(k if n in invertible else min(k, 0) for k, n in zip(sb, names))
    if any(sb):
        b = MPoly(b.ring, {tuple(x - y for x, y in zip(e, sb)): c for e, c in b.terms.items()})
    q = _exact_div_poly(a, b)
    for i, k in enumerate(x - y for x, y in zip(sa, sb)):
        if k:
            q = q.shift(names[i], k)
    return q


def _subs_image(polys: tuple, values: dict):
    """(nums, den, kind): each of ``polys`` (over one ring) under ``values``
    as a numerator over one shared denominator, and the type of the result.

    A scalar value v scales c_e by v^e_i; an MPoly value v is v/1, and an
    unmapped variable maps to itself.  With value i = num_i/den_i,
    lo_i = min(0, min e_i) and hi_i = max(0, max e_i) over the terms of all
    of ``polys``, the image of a polynomial is
    sum_e c_e prod_i num_i^(e_i - lo_i) den_i^(hi_i - e_i)  over
    den = prod_i num_i^(-lo_i) den_i^hi_i.  ``kind`` is RatFunc when some
    value is a RatFunc, Fraction when every value is a scalar (the target is
    then the source ring and den is 1), and MPoly otherwise.
    """
    source = polys[0].ring
    ring, scalars, pairs = None, {}, []
    for i, name in enumerate(source.names):
        v = values[name] if name in values else source.var(name)
        if isinstance(v, (int, Fraction)):
            scalars[i] = QQ(v)   # a Fraction, so that v ** -k stays exact
            continue
        if not isinstance(v, (MPoly, RatFunc)):
            raise TypeError(f"cannot substitute {v!r}")
        if ring is None:
            ring = v.ring
        elif v.ring is not ring and v.ring != ring:
            raise TypeError("substitution values from different rings")
        pairs.append((i, v))
    kind = (RatFunc if any(isinstance(v, RatFunc) for _, v in pairs)
            else MPoly if pairs else Fraction)
    exps = [e for p in polys for e in p.terms]
    factors = []    # (i, off, sign, f, n): f to the power sign * e_i + off <= n
    for i, v in pairs:
        num, den = (v.num, v.den) if isinstance(v, RatFunc) else (v, ring.one())
        lo = min(0, min((e[i] for e in exps), default=0))
        hi = max(0, max((e[i] for e in exps), default=0))
        factors.append((i, -lo, 1, num, hi - lo))
        if not den.is_one():
            factors.append((i, hi, -1, den, hi - lo))
    ring = ring or source
    image = (_monomial_image if all(len(f.terms) == 1 for _, _, _, f, _ in factors)
             else _table_image)(ring, scalars, factors)
    out = []
    for terms in [p.terms for p in polys] + [{source._zero_exp: 1}]:
        acc = {}
        for e, c in terms.items():
            image(acc, e, c)
        out.append(MPoly(ring, {x: _frac(c) for x, c in acc.items() if c}))
    return out[:-1], out[-1], kind


def _table_image(ring, scalars, factors):
    """The term image of ``_subs_image`` from power tables of the factors:
    any values."""
    tables = [(i, off, sign, _power_table(f, n)) for i, off, sign, f, n in factors]

    def image(acc, e, c):
        for i, v in scalars.items():
            if e[i]:
                c = c * v ** e[i]
        if not c:
            return
        t = None
        for i, off, sign, table in tables:
            m = sign * e[i] + off
            if m:
                t = table[m] if t is None else t * table[m]
        for x, cx in (ring.one() if t is None else t).terms.items():
            acc[x] = acc.get(x, 0) + c * cx
    return image


def _monomial_image(ring, scalars, factors):
    """``_table_image`` when every factor is one term c x^a: to the power m
    it scales a term by c^m and shifts it by m a; a scalar v is the factor
    v x^0."""
    factors = [(i, 0, 1, ring._zero_exp, v) for i, v in scalars.items()] + [
        (i, off, sign, *next(iter(f.terms.items()))) for i, off, sign, f, _ in factors]

    def image(acc, e, c):
        x = ring._zero_exp
        for i, off, sign, a, ca in factors:
            m = sign * e[i] + off
            if m:
                c = c * ca ** m
                x = tuple(u + m * v for u, v in zip(x, a))
        acc[x] = acc.get(x, 0) + c
    return image


def _exact_div_poly(a: MPoly, b: MPoly) -> MPoly:
    """Exact division of honest polynomials (no negative exponents)."""
    ring = a.ring
    q = {}
    rem = dict(a.terms)
    eb, cb = b.leading()
    while rem:
        ea = max(rem)
        ca = rem[ea]
        eq = tuple(x - y for x, y in zip(ea, eb))
        if any(k < 0 for k in eq):
            raise ValueError("not divisible")
        cq = _div(ca, cb)
        q[eq] = q.get(eq, 0) + cq
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(eq, e2))
            s = rem.get(e, 0) - cq * c2
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return MPoly(ring, q)


class RatFunc(RingElt):
    """Quotient of two MPoly.  Canonical form: denominator content 1 and
    lex-leading denominator coefficient positive; invertible-variable monomial
    factors are moved out of the denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly, normalize: bool = True):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if normalize:
            num, den = _normalize_ratfunc(num, den)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: MPoly) -> "RatFunc":
        return cls(p, p.ring.one(), normalize=False)

    @property
    def ring(self):
        return self.num.ring

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, MPoly):
            return RatFunc.from_poly(other)
        return RatFunc.from_poly(self.num.ring.const(other))

    def __add__(self, other):
        o = self._coerce(other)
        if self.den == o.den:
            return RatFunc(self.num + o.num, self.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, normalize=False)

    def __mul__(self, other):
        o = self._coerce(other)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return (self.inverse()) ** (-n)
        return RatFunc(self.num ** n, self.den ** n)

    def inverse(self) -> "RatFunc":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MPoly)):
            other = self._coerce(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RatFunc is unhashable")

    def subs(self, values: dict):
        """``self.num.subs(values) / self.den.subs(values)``, with both over
        one common denominator, which cancels."""
        (num, den), _, kind = _subs_image((self.num, self.den), values)
        if kind is Fraction:
            return num.constant_value() / den.constant_value()
        return RatFunc(num, den)

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


def _normalize_ratfunc(num: MPoly, den: MPoly):
    ring = num.ring
    if not num:
        return num, ring.one()
    # move invertible-variable monomial content of the denominator into num
    for i, n in enumerate(ring.names):
        if n in ring.invertible:
            k = min(e[i] for e in den.terms)
            if k:
                den = den.shift(n, -k)
                num = num.shift(n, -k)
    # full cancellation when one divides the other
    try:
        q = num.exact_div(den)
        return q, ring.one()
    except (ValueError, ZeroDivisionError):
        pass
    # content + sign normalization
    c = den.content()
    e, lead = den.leading()
    if lead < 0:
        c = -c
    if c != 1:
        den = MPoly(ring, {e2: _div(v, c) for e2, v in den.terms.items()})
        num = MPoly(ring, {e2: _div(v, c) for e2, v in num.terms.items()})
    return num, den


# ---------------------------------------------------------------------------
# dense univariate helpers (lists, index = degree); the coefficients may be
# ints, Fractions or ring elements.  Sums, products and values start from the
# int 0, so int lists give ints and the other types are kept
# ---------------------------------------------------------------------------

def poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    r = list(p)
    for i, c in enumerate(q):
        r[i] += c
    return poly_trim(r)


def poly_neg(p):
    return [-c for c in p]


def poly_mul(p, q):
    if not p or not q:
        return []
    r = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                r[i + j] += a * b
    return poly_trim(r)


def poly_derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def poly_eval(p, x):
    total = 0
    for c in reversed(p):
        total = total * x + c
    return total


def power_rows(f, n: int) -> list:
    """x^k mod the monic polynomial f for 0 <= k < n, as tuples of length
    deg f (ints for an integer f): x times the row before, less its lead
    times f."""
    rows, row = [], [1] + [0] * (len(f) - 1)   # x^0, one slot too long
    for _ in range(n):
        lead = row[-1]
        if lead:
            row = [a - lead * b for a, b in zip(row, f)]
        rows.append(tuple(row[:-1]))
        row = [0] + row[:-1]
    return rows


def _zdiv(f, g):
    """(q, r) with f = q g + r in ints, for f and g whose long division over
    Q divides exactly at each step: g monic, g primitive and dividing f
    (Gauss), or f scaled as for a pseudo-remainder."""
    d, lead = len(g) - 1, g[-1]
    r, q = list(f), [0] * max(0, len(f) - d)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + d] // lead
        if c:
            for j, b in enumerate(g):
                r[k + j] -= c * b
    return q, poly_trim(r[:d])


def poly_divmod(p, q):
    """Division with remainder in Q[x]."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = [QQ(x) for x in p]
    d = len(q) - 1
    lead = q[-1]
    quot = [QQ(0)] * max(0, len(r) - d)
    while len(r) - 1 >= d and r:
        if not r[-1]:
            r.pop()
            continue
        k = len(r) - 1 - d
        c = r[-1] / lead
        quot[k] = c
        for j, b in enumerate(q):
            r[k + j] -= c * b
        r = poly_trim(r)
    return poly_trim(quot), poly_trim(r)


def poly_xgcd(p, q):
    """Return (g, u, v) with u*p + v*q = g, g monic."""
    a, b = [QQ(x) for x in p], [QQ(x) for x in q]
    ua, va = [QQ(1)], []
    ub, vb = [], [QQ(1)]
    while b:
        qt, r = poly_divmod(a, b)
        a, b = b, r
        ua, ub = ub, poly_add(ua, poly_neg(poly_mul(qt, ub)))
        va, vb = vb, poly_add(va, poly_neg(poly_mul(qt, vb)))
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
        ua = [c / lead for c in ua]
        va = [c / lead for c in va]
    return a, ua, va


_CYCLO_CACHE = {}


def cyclotomic_polynomial(n: int):
    """The n-th cyclotomic polynomial as a dense int list: x^n - 1 divided
    exactly by the monic Phi_d of each proper divisor d of n.  Raises
    ValueError for n < 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n in _CYCLO_CACHE:
        return list(_CYCLO_CACHE[n])
    p = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            p, r = _zdiv(p, cyclotomic_polynomial(d))
            if r:
                raise VerificationError(f"Phi_{d} does not divide x^{n} - 1")
    _CYCLO_CACHE[n] = list(p)
    return p

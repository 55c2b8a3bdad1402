"""Finite-dimensional quotient rings Q[g1, ..., gr]/(h1, ..., hr).

Each generator g_i carries a monic defining polynomial h_i whose lower-order
coefficients may involve earlier generators, so towers like
Q[i][s]/(s^2 - a*s + c) are supported.  No irreducibility is assumed: an
element x with minimal polynomial m is inverted through m(x) = 0, which
fails exactly when m(0) = 0, that is on zero divisors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, product
from math import gcd, lcm
from operator import add

from .arith import RingElt
from .poly import MPoly, PolyRing, QQ, poly_eval


class ZeroDivisor(ZeroDivisionError):
    """Raised when inverting a genuine zero divisor in a quotient ring."""


class QuotRing:
    """Quotient ring with ordered generators and monic defining polynomials."""

    def __init__(self, gens):
        """``gens``: list of (name, degree, lower) where the relation is
        name**degree = lower, and ``lower`` is given as {exponent tuple over
        all PREVIOUS generators and this one: Fraction} with this generator's
        exponent < degree.  For convenience ``lower`` may also be a dense list
        of Fractions [c0, c1, ...] meaning c0 + c1*g + ... (coefficients
        rational)."""
        names = [g[0] for g in gens]
        self.poly_ring = PolyRing(tuple(names))
        self.gen_names = tuple(names)
        self.degrees = {}
        self.rewrites = {}
        for idx, (name, degree, lower) in enumerate(gens):
            if degree < 1:
                raise ValueError(f"degree of {name} must be >= 1")
            self.degrees[name] = degree
            if isinstance(lower, list):
                terms = {}
                for k, c in enumerate(lower):
                    if QQ(c):
                        e = [0] * len(names)
                        e[idx] = k
                        terms[tuple(e)] = QQ(c)
                low = self.poly_ring.from_terms(terms)
            else:
                low = self.poly_ring.from_terms(lower)
            if low.degree(name) >= degree:
                raise ValueError(f"relation for {name} is not reduced")
            for later in names[idx + 1:]:
                if low.degree(later) > 0:
                    raise ValueError(f"relation for {name} involves later generator {later}")
            self.rewrites[name] = low
        self.dimension = 1
        for name in self.gen_names:
            self.dimension *= self.degrees[name]
        self._basis = None
        self._rows = [[self.rewrites[n].terms] for n in names]

    def __repr__(self):
        rels = ", ".join(f"{n}^{self.degrees[n]}" for n in self.gen_names)
        return f"QuotRing(Q[{', '.join(self.gen_names)}]; {rels})" if self.gen_names else "QuotRing(Q)"

    def __eq__(self, other):
        return self is other or (
            isinstance(other, QuotRing) and self.gen_names == other.gen_names
            and self.degrees == other.degrees and self.rewrites == other.rewrites)

    def __hash__(self):
        return hash((self.gen_names, tuple(self.degrees.values())))

    # -- constructors --------------------------------------------------------

    def zero(self):
        return QuotElt(self, self.poly_ring.zero())

    def one(self):
        return QuotElt(self, self.poly_ring.one())

    def coerce(self, x):
        if isinstance(x, QuotElt):
            if x.ring == self:
                return x
            raise TypeError(f"element of {x.ring}, expected {self}")
        return QuotElt(self, self.poly_ring.const(x))

    def gen(self, name):
        return QuotElt(self, self.poly_ring.var(name))

    def from_poly(self, p: MPoly):
        return QuotElt(self, self._reduce(p))

    def adjoin(self, name, lower):
        """Extend by a new last generator with name^d = lower[0] + lower[1]*name
        + ... + lower[d-1]*name^(d-1), the lower[i] in this ring; returns
        (ext, lift) with lift the inclusion of this ring into ext."""
        if name in self.gen_names:
            raise ValueError(f"generator {name} already exists")

        def pad(p: MPoly, k=0):
            return {e + (k,): c for e, c in p.terms.items()}

        gens = [(n, self.degrees[n], pad(self.rewrites[n]))
                for n in self.gen_names]
        rel = {}
        for k, c in enumerate(lower):
            rel.update(pad(self.coerce(c).rep, k))
        ext = QuotRing(gens + [(name, len(lower), rel)])
        return ext, lambda x: QuotElt(ext, ext.poly_ring.from_terms(
            pad(self.coerce(x).rep)))

    def from_dense(self, name, coeffs):
        """c0 + c1*g + c2*g^2 + ... for a single generator ``name``."""
        i = self.poly_ring.index[name]
        zero = (0,) * len(self.gen_names)
        return self.from_poly(self.poly_ring.from_terms(
            {zero[:i] + (k,) + zero[i + 1:]: c for k, c in enumerate(coeffs)}))

    # -- reduction -----------------------------------------------------------

    def _reduce(self, p: MPoly) -> MPoly:
        """The normal form of p: one pass per generator, last first."""
        terms = p.terms
        for i in reversed(range(len(self.gen_names))):
            terms = self._pass(i, terms)
        return p if terms is p.terms else MPoly(p.ring, terms)

    def _pass(self, i: int, terms: dict) -> dict:
        """``terms`` with each g_i^k (k >= d_i) replaced by its row."""
        d = self.degrees[self.gen_names[i]]
        if all(e[i] < d for e in terms):
            return terms
        out = {}
        for e, c in terms.items():
            if e[i] < d:
                out[e] = out.get(e, 0) + c
                continue
            e0 = e[:i] + (0,) + e[i + 1:]
            for e2, c2 in self._row(i, e[i]).items():
                x = tuple(map(add, e0, e2))
                out[x] = out.get(x, 0) + c * c2
        return {e: c for e, c in out.items() if c}

    def _row(self, i: int, k: int) -> dict:
        """The terms of g_i^k reduced in g_i alone (k >= d_i), built from
        g_i^(k-1) * g_i, whose pass needs only the row of g_i^d_i, and kept."""
        rows, d = self._rows[i], self.degrees[self.gen_names[i]]
        while len(rows) <= k - d:
            rows.append(self._pass(i, {e[:i] + (e[i] + 1,) + e[i + 1:]: c
                                       for e, c in rows[-1].items()}))
        return rows[k - d]

    def basis(self):
        """Monomial basis as exponent tuples, in a fixed order."""
        if self._basis is None:
            ranges = [range(self.degrees[n]) for n in self.gen_names]
            self._basis = [tuple(e) for e in product(*ranges)]
        return self._basis


class QuotElt(RingElt):
    """Element of a QuotRing, stored as a reduced MPoly in the generators."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring: QuotRing, rep: MPoly):
        self.ring = ring
        self.rep = rep

    def __bool__(self):
        return bool(self.rep)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.coerce(other)
        if not isinstance(other, QuotElt):
            return NotImplemented
        return self.ring == other.ring and self.rep == other.rep

    def __hash__(self):
        return hash((self.ring, frozenset(self.rep.terms.items())))

    def __add__(self, other):
        if not (isinstance(other, QuotElt) and other.ring is self.ring):
            other = self.ring.coerce(other)
        return QuotElt(self.ring, self.rep + other.rep)

    __radd__ = __add__

    def __sub__(self, other):
        if not (isinstance(other, QuotElt) and other.ring is self.ring):
            other = self.ring.coerce(other)
        return QuotElt(self.ring, self.rep - other.rep)

    def __neg__(self):
        return QuotElt(self.ring, -self.rep)

    def __mul__(self, other):
        if isinstance(other, QuotElt):
            if other.ring is not self.ring:
                other = self.ring.coerce(other)
            return QuotElt(self.ring, self.ring._reduce(self.rep * other.rep))
        if isinstance(other, (int, Fraction)):
            return QuotElt(self.ring, self.rep * other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "QuotElt":
        """x^-1 = -(m(x) - m(0)) / (m(0) x) for the minimal polynomial m of
        x; when m(0) = 0, (m / X)(x) is nonzero (m is minimal) and x times it
        is 0, so x is a zero divisor."""
        m = self.minpoly()
        if not m[0]:
            raise ZeroDivisor(f"{self} is a zero divisor in {self.ring}")
        return poly_eval(m[1:], self) * (-1 / m[0])

    def minpoly(self):
        """Monic minimal polynomial over Q of multiplication by this element,
        as a dense Fraction list (constant first).  With zero divisors in the
        ring this is the least common annihilator across the components, so
        it may factor; the element is always a root.

        Fraction-free incremental echelon: each power's coordinates are an int
        row over one denominator, recorded in its combination of powers; the
        row is reduced against the stored pivot rows by cross-multiplication
        and made primitive together with its combination.  One row reduces to
        zero by degree n, and its combination, divided by its last entry, is
        the monic relation.
        """
        ring = self.ring
        idx = {e: i for i, e in enumerate(ring.basis())}
        rows = []   # (pivot, primitive int row, its combination of powers)
        xd = ring.one()
        for d in count():
            terms = xd.rep.terms
            den = lcm(*(c.denominator for c in terms.values()))
            v = [0] * ring.dimension
            for e, c in terms.items():
                v[idx[e]] = c.numerator * (den // c.denominator)
            comb = [0] * d + [den]
            for p, row, rc in rows:
                c = v[p]
                if c:
                    a = row[p]
                    v = [a * x - c * y for x, y in zip(v, row)]
                    comb = ([a * x - c * y for x, y in zip(comb, rc)]
                            + [a * x for x in comb[len(rc):]])
            g = gcd(*v, *comb)
            if g > 1:
                v, comb = [x // g for x in v], [x // g for x in comb]
            p = next((i for i, a in enumerate(v) if a), None)
            if p is None:
                return [Fraction(c, comb[-1]) for c in comb]
            rows.append((p, v, comb))
            xd = xd * self

    def __str__(self):
        return str(self.rep)

    __repr__ = __str__


minpoly = QuotElt.minpoly


def join(r1: QuotRing, r2: QuotRing, prefix1: str = "", prefix2: str = ""):
    """Tensor two quotient rings over Q; returns (ring, map1, map2).

    Second-ring generator names are prefixed on collision.
    """
    rename1 = {n: prefix1 + n for n in r1.gen_names}
    taken = set(rename1.values())
    rename2 = {}
    for n in r2.gen_names:
        new = prefix2 + n
        k = 0
        while new in taken:
            k += 1
            new = f"{prefix2 or 'g'}{k}_{n}"
        rename2[n] = new
        taken.add(new)
    gen_order = [rename1[n] for n in r1.gen_names] + [rename2[n] for n in r2.gen_names]
    gens = []
    for n in r1.gen_names:
        gens.append((rename1[n], r1.degrees[n],
                     _terms_as_named(r1.rewrites[n], r1, rename1, gen_order)))
    for n in r2.gen_names:
        gens.append((rename2[n], r2.degrees[n],
                     _terms_as_named(r2.rewrites[n], r2, rename2, gen_order)))
    joint = QuotRing(gens)

    def transport(x, src, rename):
        terms = _terms_as_named(x.rep, src, rename, gen_order)
        return QuotElt(joint, joint.poly_ring.from_terms(terms))

    return joint, (lambda x: transport(x, r1, rename1)), (lambda x: transport(x, r2, rename2))


def _terms_as_named(p: MPoly, src: QuotRing, rename: dict, gen_order: list):
    """Re-key an MPoly's terms into the exponent layout of ``gen_order``."""
    pos = {n: i for i, n in enumerate(gen_order)}
    out = {}
    for e, c in p.terms.items():
        new_e = [0] * len(gen_order)
        for n, k in zip(src.gen_names, e):
            if k:
                new_e[pos[rename[n]]] = k
        out[tuple(new_e)] = out.get(tuple(new_e), 0) + c
    return {e: c for e, c in out.items() if c}

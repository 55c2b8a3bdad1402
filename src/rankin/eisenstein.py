"""Eisenstein q-expansions over cyclotomic fields.

Three families, indexed by a weight k and a cusp parameter alpha = a/N mod 1:

* ``E``      -- coefficient of q^n is sum_{d|n} d^(k-1-j) (n/d)^j
                (zeta^(ad) + (-1)^k zeta^(-ad)), with an optional twist index
                j in [0, k-1] coming from the weight-raising operator;
* ``F``      -- the same with the divisor weights (n/d)^(k-1), kept as one
                table of (b, e) -> x (f_table) in the shape of a logarithmic
                derivative of binomials;
* ``Etilde`` -- weight 2 only, sum_{d|n} d (zeta^(ad) + zeta^(-ad) - 2).

Constant terms are computed exactly: Li_(1-k)(zeta^a) for a nonzero parameter
and -B_k/k for a zero one (and the k = 1 antisymmetrization).
"""

from __future__ import annotations

from fractions import Fraction

from .arith import Record, VerificationError
from .cyclo import CycloElt, CyclotomicField, check_conductor
from .groupring import GroupRing
from .poly import QQ, cyclotomic_polynomial
from .qseries import QSeries
from .quotring import QuotRing, join
from .zeta import polylog_negative, zeta_negative

FAMILIES = ("E", "F", "Etilde")


class EisensteinSpec(Record):
    __slots__ = ("family", "k", "alpha", "j")

    def __init__(self, family: str, k: int, alpha: Fraction, j: int = 0):
        self.family = family
        self.k = k
        check_rational(alpha, "alpha")
        self.alpha = QQ(alpha) % 1
        self.j = j
        validate_spec(self)

    @property
    def conductor(self) -> int:
        return self.alpha.denominator


def validate_spec(spec: EisensteinSpec):
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}; use one of {FAMILIES}")
    if spec.k < 1:
        raise ValueError(f"weight must be >= 1, got {spec.k}")
    if spec.family == "Etilde":
        if spec.k != 2:
            raise ValueError("Etilde family exists only in weight 2")
        if spec.j:
            raise ValueError("Etilde family takes no twist index")
    if spec.family == "F":
        if spec.j:
            raise ValueError("F family takes no twist index")
        if spec.k == 2 and spec.alpha == 0:
            raise ValueError("weight-2 F series requires a nonzero cusp parameter")
    if spec.family == "E":
        if not (0 <= spec.j <= spec.k - 1):
            raise ValueError(
                f"twist index {spec.j} outside the allowed range [0, {spec.k - 1}]")
        if spec.k == 2 and spec.j == 1 and spec.alpha == 0:
            raise ValueError("weight-2 twist-1 E series at parameter 0 is not holomorphic")
    check_conductor(spec.conductor)


def check_prec(prec: int):
    if not isinstance(prec, int) or isinstance(prec, bool):
        raise TypeError(f"prec must be an int, got {prec!r}")
    if prec < 0:
        raise ValueError(f"prec must be >= 0, got {prec}")


def check_rational(x, name: str):
    """Raise TypeError naming the parameter unless x is an int or a Fraction."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"{name} must be an int or a Fraction, got {x!r}")


def sieve_rows(rows, pairs, L: int):
    """Add sum_(j>=1) x zeta^(bj) q^(ej) to rows (row n the coefficients of
    zeta^0 .. zeta^(L-1) in q^n) for each ((b, e), x) in pairs, walked over
    the rows of the multiples of e with bj a running sum read mod L."""
    for (b, e), x in pairs:
        j = 0
        for row in rows[e::e]:
            j += b
            row[j % L] += x


def f_table(N: int, a: int, k: int, prec: int, w: int = 1) -> dict:
    """w times the divisor sums c_1 .. c_prec of the weight-k F series at
    a/N, as {(b, e): x}: c_n = sum_{e|n} e^(k-1) (zeta^(a n/e) + (-1)^k
    zeta^(-a n/e)) is the sum of x zeta^(b n/e) over the entries with e | n,
    the sum sieve_rows adds.  The d-weight is 0, so x depends on e alone, as
    in the logarithmic derivative of a product of binomials (1 - zeta^b q^e).
    Only the F family has such a table; eisenstein_rows and siegel's dlog
    check both read it here."""
    table, s = {}, (-1) ** k
    for e in range(1, prec + 1):
        x = w * e ** (k - 1)
        table[(a % N, e)] = x
        f = (-a % N, e)
        table[f] = table.get(f, 0) + s * x
    return table


def _divisor_rows(N: int, a: int, sign: int, wd: int, wq: int, prec: int,
                  shift: int = 0) -> list:
    """Rows 0 .. prec, row n the coefficients of zeta^0 .. zeta^(N-1) in c_n =
    sum_{d|n} d^wd (n/d)^wq (zeta^(ad) + sign zeta^(-ad) + shift), zeta =
    zeta_N, as ints (or Fractions) from a sieve over d; row 0 is zero."""
    # int powers keep integral coefficients ints; a negative exponent needs
    # Fraction powers, since int ** -k is a float
    num = int if wd >= 0 and wq >= 0 else QQ
    mpow = [num(m) ** wq for m in range(1, prec + 1)]
    rows = [[0] * N for _ in range(prec + 1)]
    for d in range(1, prec + 1):
        dw, i, j = num(d) ** wd, a * d % N, -a * d % N
        # rows[d::d] are the rows of d m, m = 1 .. prec // d
        for row, mw in zip(rows[d::d], mpow):
            w = dw * mw
            row[i] += w
            row[j] += sign * w
            if shift:
                row[0] += shift * w
    return rows


def eisenstein_rows(spec: EisensteinSpec, prec: int):
    """(field, c_0, rows of c_1 .. c_prec) of the q-expansion: the F family's
    rows sieved from its table (f_table), the others' from _divisor_rows,
    whose d-weight varies along the stride."""
    N, k = spec.conductor, spec.k
    a = spec.alpha.numerator
    if spec.family == "F":
        rows = [[0] * N for _ in range(prec + 1)]
        sieve_rows(rows, f_table(N, a, k, prec).items(), N)
    elif spec.family == "Etilde":
        rows = _divisor_rows(N, a, 1, 1, 0, prec, shift=-2)
    else:
        rows = _divisor_rows(N, a, (-1) ** k, k - 1 - spec.j, spec.j, prec)
    F = CyclotomicField(N)
    return F, eisenstein_constant(spec, F), rows


def eisenstein_qexp(spec: EisensteinSpec, prec: int) -> QSeries:
    """q-expansion with coefficients c_0 .. c_prec in Q(zeta_N)."""
    check_prec(prec)
    F, c0, rows = eisenstein_rows(spec, prec)
    return QSeries(F, 0, [c0] + [CycloElt(F, tuple(F.reduce_powers(r))) for r in rows[1:]],
                   normalize=False)


def eisenstein_constant(spec: EisensteinSpec, field=None):
    """Exact constant term of the q-expansion."""
    N = spec.conductor
    F = field if field is not None else CyclotomicField(N)
    a = spec.alpha.numerator
    k, j = spec.k, spec.j

    def zs(kk, sgn=1):
        # sum_{n>=1} zeta^(sgn * a n) n^(kk-1), regularized
        if not a:
            return F.coerce(zeta_negative(kk)) if kk >= 2 else None
        return polylog_negative(kk - 1, F.zeta(sgn * a))

    if spec.family == "Etilde":
        if not a:
            return F.zero()
        return zs(2) + QQ(1, 12)

    if k == 1:
        if not a:
            return F.zero()
        return (zs(1) - zs(1, -1)) * QQ(1, 2)

    if spec.family == "F" or (spec.family == "E" and j == k - 1 and k >= 2):
        return F.coerce(zeta_negative(k))
    if spec.family == "E" and 0 < j < k - 1:
        return F.zero()
    # E family, j = 0, k >= 2
    if not a:
        return F.coerce(zeta_negative(k))
    return zs(k)


def two_param_eisenstein(alpha, k1: int, k2: int, p: int, prec: int) -> QSeries:
    """The two-parameter family at integer weights (k1, k2): coefficient of
    q^n is sum_{d|n} d^k1 (n/d)^k2 (zeta^(ad) + eps zeta^(-ad)) for p not
    dividing n, and 0 otherwise; eps = -(-1)^(k1+k2).  No constant term."""
    check_prec(prec)
    check_rational(alpha, "alpha")
    alpha = QQ(alpha) % 1
    N = alpha.denominator
    if p < 2:
        raise ValueError("p must be a prime")
    if N % p == 0:
        raise ValueError(f"p = {p} must not divide the parameter denominator {N}")
    F = CyclotomicField(N)
    a = alpha.numerator
    eps = 1 if (k1 + k2) % 2 else -1
    rows = _divisor_rows(N, a, eps, k1, k2, prec)
    coeffs = [F.zero()] + [F.zero() if n % p == 0 else CycloElt(F, tuple(F.reduce_powers(r)))
                           for n, r in enumerate(rows[1:], 1)]
    return QSeries(F, 0, coeffs, normalize=False)


def maass_raise(s: QSeries) -> QSeries:
    """Weight-raising on q-expansions: coefficient of q^n is multiplied by n."""
    return s.qdq()


# ---------------------------------------------------------------------------
# Hecke operators on q-expansions
# ---------------------------------------------------------------------------

def _char_value(character, n):
    return QQ(1) if character is None else character(n)


def _int_series(s: QSeries):
    if s.lead != int(s.lead):
        raise ValueError("Hecke operators need an integral exponent lattice")
    return int(s.lead)


def hecke_T(s: QSeries, ell: int, weight: int, character, level=None) -> QSeries:
    """a_n -> a_(n ell) + ell^(weight-1) chi(ell) a_(n/ell); output precision
    shrinks to floor(B/ell)."""
    if level is not None and level % ell == 0:
        raise ValueError(
            f"{ell} divides the level {level}; use the U operator instead")
    shift = _int_series(s)
    if shift != 0:
        raise ValueError("T operator implemented for series starting at q^0")
    B = s.prec - 1
    n_out = B // ell
    scale = QQ(ell) ** (weight - 1) * _char_value(character, ell)
    out = []
    for n in range(n_out + 1):
        c = s.coeffs[n * ell]
        if n % ell == 0 and n > 0:
            c = c + s.coeffs[n // ell] * scale
        out.append(c)
    return QSeries(s.ring, 0, out, normalize=False)


def hecke_U(s: QSeries, ell: int) -> QSeries:
    """a_n -> a_(n ell)."""
    if _int_series(s) != 0:
        raise ValueError("U operator implemented for series starting at q^0")
    B = s.prec - 1
    return QSeries(s.ring, 0, [s.coeffs[n * ell] for n in range(B // ell + 1)],
                   normalize=False)


def hecke_V(s: QSeries, ell: int) -> QSeries:
    """q -> q^ell."""
    return s.subst_power(ell)


def diamond(s: QSeries, d: int, character) -> QSeries:
    """Nebentypus action: multiply by chi(d).  diamond(1) is the identity."""
    if d == 1:
        return s
    return s * _char_value(character, d)


def p_depletion(s: QSeries, p: int) -> QSeries:
    """Remove all coefficients with index divisible by p (1 - V_p U_p)."""
    if _int_series(s) != 0:
        raise ValueError("depletion implemented for series starting at q^0")
    out = [c if n % p else s.ring.zero() for n, c in enumerate(s.coeffs)]
    out[0] = s.ring.zero()
    return QSeries(s.ring, 0, out, normalize=False)


# ---------------------------------------------------------------------------
# the group-ring-valued twisted form and the universal Gauss sum
# ---------------------------------------------------------------------------

def universal_gauss_sum(n: int, m: int, ring):
    """tau(n, m) = sum over units a mod m of [a]^(-1) zeta_m^(n a), in the
    group ring ``ring`` whose base contains a designated m-th root of unity
    exposed as ``ring.base_zeta(k)``."""
    total = ring.zero()
    for a in ring.units:
        total = total + ring.bracket(pow(a, -1, m) if m > 1 else 1,
                                     ring.base_zeta(n * a))
    return total


class _GmRing(GroupRing):
    """Group ring of (Z/m)^* over Q(zeta_m) tensor the coefficient field of a
    form, with a helper for powers of zeta_m."""

    def __init__(self, m: int, form_ring):
        phi_m = cyclotomic_polynomial(m)
        deg = len(phi_m) - 1
        lower = [-c for c in phi_m[:-1]]
        zring = QuotRing([("zm", deg, lower)])
        joint, self.embed_z, self.embed_f = join(zring, form_ring, "", "")
        super().__init__(m, joint)
        self._zm = joint.gen("zm")

    def base_zeta(self, k: int):
        return self._zm ** (k % self.m)


def equivariant_gm(form, m: int, prec: int):
    """Group-ring-valued q-expansion with a_n = a_n(form) * tau(n, m).

    Returns (series, ring); the ring is also usable for universal_gauss_sum.
    Built from the defining sum of translates, then cross-checked against the
    Gauss-sum formula coefficient by coefficient.
    """
    ring = _GmRing(m, form.ring)
    coeffs = [ring.zero()]
    for n in range(1, prec + 1):
        an = ring.embed_f(form.a(n))
        # sum over units: [a^-1] * a_n(form) * zeta_m^(n a)
        total = ring.zero()
        for a in ring.units:
            total = total + ring.bracket(pow(a, -1, m) if m > 1 else 1,
                                         an * ring.base_zeta(n * a))
        tau = universal_gauss_sum(n, m, ring)
        if total != tau * ring.coerce(an):
            raise VerificationError(f"Gauss-sum factorization fails at n={n}")
        coeffs.append(total)
    return QSeries(ring, 0, coeffs, normalize=False), ring

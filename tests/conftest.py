"""Shared fixtures."""

from fractions import Fraction

import pytest

import rankin.eisenstein
import rankin.euler
import rankin.normrel
import rankin.operators
import rankin.qseries
import rankin.siegel
from rankin.cyclo import CyclotomicField
from rankin.eisenstein import EisensteinSpec, eisenstein_qexp
from rankin.euler import SYM_RING, _dual_form_sides, interpolation_factors
from rankin.poly import QQ, RatFunc, poly_divmod
from rankin.siegel import siegel_unit_qexp, unit_factors

SERIES_KERNELS = ("_schoolbook_mul", "_recurrence_inverse")


@pytest.fixture
def refuse_series_kernels(monkeypatch):
    """A function that makes every series product and inverse kernel raise
    from the moment it is called."""
    def install():
        def refuse(*args, **kwargs):
            raise RuntimeError("a series product or inverse was computed")
        for name in SERIES_KERNELS:
            monkeypatch.setattr(rankin.qseries, name, refuse)
    return install


# the symbolic derivations that rankin builds once per process
DERIVATION_CACHES = (rankin.operators.second_norm_operator,
                     rankin.normrel._composed_norms,
                     rankin.normrel.local_factor_coeffs_eigen,
                     rankin.normrel._pstab_numerator_and_target,
                     rankin.normrel._corestriction_displays,
                     rankin.normrel._solved_coefficients,
                     rankin.euler._dual_form_images)


@pytest.fixture
def fresh_derivations():
    """Empty every derivation cache before the test and again after it, so
    that the test builds the derivations under its own patches and leaves
    none of what it built behind."""
    for cached in DERIVATION_CACHES:
        cached.cache_clear()
    yield
    for cached in DERIVATION_CACHES:
        cached.cache_clear()


# the weights and twists of the dual-form symmetry checked one at a time:
# 1 <= l <= k <= 5 and 0 <= j <= k, 70 instances
SYMMETRY_BOX = tuple((k, l, j) for k in range(1, 6) for l in range(1, k + 1)
                     for j in range(k + 1))


def oracle_symmetry_sides(k, l, j, mutate_shift=0):
    """The (image, expected) pairs of the dual-form symmetry at weights
    (k, l) and twist j, one instance at a time: the factors at p ** j under
    al -> p^(k-1)/be, be -> p^(k-1)/al, ga -> p^(l-1)/de, de -> p^(l-1)/ga,
    against the same factors and the convolution factor at
    p^(k+l-1-j+mutate_shift)."""
    al, be, ga, de, p = (SYM_RING.var(n) for n in ("al", "be", "ga", "de", "p"))
    pk, pl = p ** (k - 1), p ** (l - 1)
    star = {"al": RatFunc(pk, be), "be": RatFunc(pk, al),
            "ga": RatFunc(pl, de), "de": RatFunc(pl, ga)}
    fac = interpolation_factors(p ** j)
    dual = interpolation_factors(p ** (k + l - 1 - j + mutate_shift))
    return ((fac.modification.subs(star), fac.modification),
            (fac.modification_star.subs(star), fac.modification_star),
            (fac.convolution.subs(star), dual.convolution))


def general_sides_specialize(k, l, j):
    """Whether the sides of the every-weight check, at K, L, J = p^(k-1),
    p^(l-1), p^j, equal the oracle's sides at (k, l, j)."""
    p = SYM_RING.var("p")
    at = {"K": p ** (k - 1), "L": p ** (l - 1), "J": p ** j}
    return all(side.subs(at) == want
               for pair, want_pair in zip(_dual_form_sides(), oracle_symmetry_sides(k, l, j))
               for side, want in zip(pair, want_pair))


# the Fraction routes that the package replaced, kept as oracles

def solve(mat, rhs, zero):
    """A solution x of mat * x = rhs by Gauss-Jordan elimination, or None when
    the system is inconsistent.

    ``mat`` is an n x d list of rows of Fractions (int pivots would divide
    to floats).  The entries of ``rhs`` are
    Fractions or vectors over Q such as MPoly (anything with v * Fraction,
    v - w and truth as "nonzero").  Free coordinates are set to ``zero``.
    """
    n = len(rhs)
    d = len(mat[0]) if mat else 0
    a = [list(row) for row in mat]
    work = list(rhs)
    pivots = []
    row = 0
    for col in range(d):
        piv = next((r for r in range(row, n) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        work[row], work[piv] = work[piv], work[row]
        pv = a[row][col]
        a[row] = [x / pv for x in a[row]]
        work[row] = work[row] * (1 / pv)
        for r in range(n):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
                work[r] = work[r] - work[row] * f
        pivots.append(col)
        row += 1
    if any(work[row:]):
        return None
    sol = [zero] * d
    for r, col in enumerate(pivots):
        sol[col] = work[r]
    return sol


def poly_gcd(p, q):
    """The monic gcd in Q[x], by the remainder sequence alone."""
    a, b = [QQ(x) for x in p], [QQ(x) for x in q]
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else a


# -- the dlog identity: its oracles and mutants ------------------------------------

# the parameters of the catalog's dlog entry
CATALOG_ALPHAS = [Fraction(a, N) for N in (3, 4, 5, 12) for a in range(1, N)]


def dlog_by_series(alpha, prec):
    """dlog_matches_weight_two on series: q dg/dq against -F * g."""
    g = siegel_unit_qexp(alpha, None, prec)
    lhs = g.qdq()
    rhs = (-eisenstein_qexp(EisensteinSpec("F", 2, alpha), prec) * g).truncate(g.prec)
    if lhs == rhs:
        return True, None
    for n, (x, y) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if x != y:
            return False, {"exponent": n, "lhs": str(x), "rhs": str(y)}
    return False, None


def dlog_mismatch_by_rows(alpha, prec, sign=1):
    """_dlog_mismatch on two full row tables: F's rows (negated for sign =
    -1), then theta added to them binomial by binomial, each with exponent
    1; the first n whose row does not reduce to 0, or None."""
    alpha = QQ(alpha) % 1
    lead, _, factors = rankin.siegel.unit_factors(
        0, alpha, CyclotomicField(alpha.denominator), prec)
    field, c0, rows = rankin.eisenstein.eisenstein_rows(EisensteinSpec("F", 2, alpha), prec)
    if sign < 0:
        c0, rows = -c0, [[-x for x in r] for r in rows]
    for b, e in factors:
        j = 0
        for row in rows[e::e]:
            j = (j + b) % field.L
            row[j] -= e
    return 0 if lead + c0 else next((n for n in range(1, prec + 1) if any(rows[n])
                                     and any(field.reduce_powers(rows[n]))), None)


def moved_binomial(position):
    """unit_factors with the binomial at ``position`` moved from q^e to
    q^(e+1) (and dropped when e + 1 exceeds the precision)."""
    def mutant(alpha, beta, field, prec, scale=1):
        lead, a0, factors = unit_factors(alpha, beta, field, prec, scale)
        if factors:
            b, e = factors[position]
            del factors[position]
            if e < prec:
                factors.append((b, e + 1))
        return lead, a0, factors
    return mutant


def lead_plus_one(alpha, beta, field, prec, scale=1):
    lead, a0, factors = unit_factors(alpha, beta, field, prec, scale)
    return lead + 1, a0, factors


def f_table_sign_flipped(N, a, k, prec, w=1):
    """F's table with the sign of zeta^(-ad) flipped: the entry (-a, e) is
    -(-1)^k w e^(k-1)."""
    table = {}
    for e in range(1, prec + 1):
        x = w * e ** (k - 1)
        for f, y in (((a % N, e), x), ((-a % N, e), -(-1) ** k * x)):
            table[f] = table.get(f, 0) + y
    return table


# Mutants of the dlog identity, as (module, helper, replacement); each helper
# is read by both the row check and the series path.
DLOG_MUTANTS = {
    "binomial-moved": (rankin.siegel, "unit_factors", moved_binomial(0)),
    "last-binomial-moved": (rankin.siegel, "unit_factors", moved_binomial(-1)),
    "zeta-minus-ad-sign": (rankin.eisenstein, "f_table", f_table_sign_flipped),
    "lead-plus-one": (rankin.siegel, "unit_factors", lead_plus_one),
}

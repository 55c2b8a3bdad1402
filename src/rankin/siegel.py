"""Siegel units as exact q-products, their logarithmic derivatives, and the
distribution relations under diagonal matrix actions.

A unit with parameters (alpha, beta) of order dividing L is the product

    q^(B2(<alpha>)/2) * prod_{n>=0} (1 - q^(n+<alpha>) zeta^b)
                      * prod_{n>=1} (1 - q^(n-<alpha>) zeta^(-b))

with zeta = zeta_L, b = L*beta and B2 the second Bernoulli polynomial.  The
leading exponent is pinned by requiring dlog of the parameter-(0, beta) unit
to equal minus the weight-2 divisor-sum series including constant terms.

Only an integral exponent lattice is materialized: the series is built for
g(scale * z), and callers choose ``scale`` so that scale * <alpha> is an
integer.  That is all the distribution relations need.

A unit is kept as its leading exponent, constant and binomials
(unit_factors).  The distribution relations and the dlog identity are
decided on that data: two such products agree to a precision exactly when
their leading exponents, constants and logarithmic derivatives do.  The
witness of a failing check comes from the same data, and no check
multiplies, divides or raises a series to a power.

Where coefficients are wanted (siegel_scaled, siegel_scaled_c, the
coefficient a failing check names), they are the integer rows of a product
of binomials (b, e)^w, by the recursion m b_m = sum theta_k b_(m-k) of its
logarithmic derivative theta (_product_rows).

Parameters are read as int numerators and denominators, with no Fraction
arithmetic: unit_factors builds one Fraction, its leading exponent, and
none per binomial, and a side of a distribution relation sums its leading
exponents over one int denominator.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, prod

from .cyclo import CycloElt, CyclotomicField, check_conductor, ints
from . import eisenstein
from .eisenstein import (EisensteinSpec, check_int, check_prec, check_rational,
                         eisenstein_constant, eisenstein_qexp, sieve_rows)
from .poly import QQ
from .qseries import QSeries


def _num_den(x: int | Fraction, name: str = "parameter") -> tuple:
    """(numerator, denominator) of the rational x in lowest terms, read off an
    int or a Fraction with no arithmetic; anything else raises TypeError
    naming the parameter (check_rational)."""
    check_rational(x, name)
    return x.numerator, x.denominator


def unit_factors(alpha, beta, field: CyclotomicField, prec: int, scale: int = 1):
    """(lead, a0, binomials) of the Siegel unit with parameters (alpha, beta)
    evaluated at scale*z, over ``field`` = Q(zeta_L) with L divisible by the
    orders of alpha and beta; requires scale * <alpha> integral.  To
    O(q^(lead + prec + 1)) the unit is q^lead * a0 * prod (1 - zeta^c q^e)
    over the pairs (c, e) in binomials, 1 <= e <= prec.

    With <alpha> = a/d and <beta> = bn/bd in lowest terms, c is b = bn (L/bd)
    or -b mod L, and lead = scale B2(a/d) / 2 = scale (6a^2 - 6ad + d^2) /
    (12 d^2), the one Fraction built."""
    if scale < 1:
        raise ValueError(f"scale must be a positive integer, got {scale}")
    a, d = _num_den(alpha, "alpha")
    bn, bd = _num_den(beta, "beta")
    a %= d
    bn %= bd
    if a == 0 and bn == 0:
        raise ValueError("Siegel unit undefined at zero parameter")
    L = field.L
    if L % bd:
        raise ValueError(f"second parameter not of order dividing {L}")
    b = bn * (L // bd)
    t, r = divmod(scale * a, d)
    if r:
        raise ValueError(f"scale {scale} does not clear the fractional exponent {QQ(a, d)}")
    lead = QQ(scale * (6 * a * a - 6 * a * d + d * d), 12 * d * d)
    # the n = 0 factor (1 - q^(scale*alpha) zeta^b) is a constant when t = 0
    a0 = field.one() - field.zeta(b) if t == 0 else field.one()
    factors = [(b, t)] if 0 < t <= prec else []
    # n >= 1 gives (b, scale n + t), then (-b, scale n - t); 0 <= t < scale
    nb = -b % L
    for e in range(scale - t, prec + 1, scale):
        if e + 2 * t <= prec:
            factors += (b, e + 2 * t), (nb, e)
        else:
            factors.append((nb, e))
    return lead, a0, factors


def siegel_scaled(alpha, beta, field: CyclotomicField, prec: int,
                  scale: int = 1) -> QSeries:
    """q-expansion of the Siegel unit with parameters (alpha, beta), evaluated
    at scale*z, to O(q^(lead + prec + 1)); see unit_factors."""
    check_prec(prec)
    lead, a0, factors = unit_factors(alpha, beta, field, prec, scale)
    return _product_series(field, lead, a0, Counter(factors), prec)


def _product_series(field, lead, a0, net, n: int) -> QSeries:
    """q^lead * a0 * prod (1 - zeta^b q^e)^w over the entries (b, e): w of
    net, to O(q^(lead + n + 1))."""
    rows = _product_rows(field, net, n)
    return QSeries(field, lead, [a0 * CycloElt(field, tuple(r)) for r in rows],
                   unit=True, normalize=False)


def _product_rows(field, net, n: int) -> list:
    """The integer coordinate rows b_0 .. b_n of b = prod (1 - zeta^b q^e)^w
    over the entries (b, e): w of net, in the integral basis 1, zeta, ..,
    zeta^(phi-1).

    b_0 = 1, and m b_m = sum_(k=1..m) theta_k b_(m-k) for the logarithmic
    derivative theta of b, sieved from net as the entries ((b, e), -w e).
    When b lies in Z[zeta][[q]], as it does for integral w, every step
    divides exactly by m; otherwise ArithmeticError is raised.
    """
    L = field.L
    rows = [[0] * L for _ in range(n + 1)]
    sieve_rows(rows, ((f, -w * f[1]) for f, w in net.items() if w), L)
    theta = [[(j, t) for j, t in enumerate(r) if t] for r in rows]
    out = [[1] + [0] * (field.phi - 1)]
    b = [[(0, 1)]]  # the nonzero coordinates (i, x) of each b_m
    for m in range(1, n + 1):
        # sum_k theta_k b_(m-k) with zeta^L = 1, then in the integral basis
        s = [0] * L
        for k in range(1, m + 1):
            for j, t in theta[k]:
                for i, x in b[m - k]:
                    s[(i + j) % L] += t * x
        s = field.reduce_powers(s)
        if any(x % m for x in s):
            raise ArithmeticError(f"coefficient {m} of a Siegel product is not integral")
        out.append([x // m for x in s])
        b.append([(i, x) for i, x in enumerate(out[m]) if x])
    return out


def _check_c(c):
    """Raise TypeError unless c is an int, ValueError unless c > 1: with c = 1
    or -1 the c-modified unit is a constant, and no relation of them fails."""
    check_int(c, "c")
    if c <= 1:
        raise ValueError(f"c must be > 1, got {c}")


def modified_unit_factors(alpha, beta, field, prec, scale, c: int):
    """The c-modified unit g(alpha,beta)^(c^2) / g(c*alpha, c*beta) at scale*z
    as [(c^2, g), (-1, g_c)]: each unit with its exponent, given by
    unit_factors.  c must be an int > 1 (_check_c) coprime to 6 and the
    parameter orders."""
    _check_c(c)
    a, d = _num_den(alpha, "alpha")
    bn, bd = _num_den(beta, "beta")
    if gcd(c, 6 * d * bd) != 1:
        raise ValueError(f"c = {c} must be coprime to 6 and the parameter orders")
    return [(c * c, unit_factors(alpha, beta, field, prec, scale)),
            (-1, unit_factors(QQ(c * a, d), QQ(c * bn, bd), field, prec, scale))]


def siegel_scaled_c(alpha, beta, field, prec, scale, c: int) -> QSeries:
    """The integral modification g(alpha,beta)^(c^2) / g(c*alpha, c*beta),
    read off its net table of binomials and its constant (_side), with no
    series power or inverse."""
    check_prec(prec)
    net, consts = {}, {}
    lead = _side(field, prec, c, [(alpha, beta, scale)], net, consts, 1)
    num, den = _constants(field, consts)
    return _product_series(field, lead, CycloElt(field, ints((num / den).coeffs)), net, prec)


def siegel_unit_qexp(alpha, c: int | None = None, prec: int = 50) -> QSeries:
    """The unit with parameter pair (0, alpha) on the standard exponent
    lattice, over Q(zeta_N) with N the order of alpha; with ``c`` given,
    returns the c-modified unit."""
    check_prec(prec)
    check_rational(alpha, "alpha")
    alpha = QQ(alpha) % 1
    if alpha == 0:
        raise ValueError("Siegel unit undefined at zero parameter")
    N = alpha.denominator
    field = CyclotomicField(N)
    if c is None:
        return siegel_scaled(0, alpha, field, prec, 1)
    return siegel_scaled_c(0, alpha, field, prec, 1, c)


def dlog_matches_weight_two(alpha, prec: int = 200):
    """Check dlog g_(0,alpha) = -F^(2)_alpha, with constant terms, as q dg/dq
    = -F * g to O(q^(lead + prec + 1)); returns (bool, witness).

    _dlog_mismatch decides on one table that nets the binomials of g
    against F's divisor sums, with no series built; on a PASS nothing is
    sieved.  At the first mismatch n the witness gives both sides'
    coefficients of q^(lead + n), (lead + n) g_n and -sum_(k=0..n) F_k
    g_(n-k), with g_0 .. g_n the rows 0 .. n of the binomial product of g.
    """
    check_prec(prec)
    n = _dlog_mismatch(alpha, prec)
    if n is None:
        return True, None
    alpha = QQ(alpha) % 1
    field = CyclotomicField(alpha.denominator)
    lead, a0, factors = unit_factors(0, alpha, field, prec)
    g = _product_series(field, lead, a0, Counter(factors), n)
    f = eisenstein_qexp(EisensteinSpec("F", 2, alpha), n).coeffs
    rhs = -sum((f[k] * g.coeffs[n - k] for k in range(n + 1)), field.zero())
    return False, {"exponent": n, "lhs": str(g.coeffs[n] * (g.lead + n)), "rhs": str(rhs)}


def _dlog_mismatch(alpha, prec, sign=1):
    """The first n at which q dg/dq and -sign * F * g differ at q^(lead + n),
    or None; sign = -1 is the identity with the sign of F dropped, which
    must fail.  For g = q^lead * a0 * prod (1 - zeta^b q^e) (unit_factors)
    with a0 != 0, q dg/dq + sign * F * g = g * (lead + theta + sign * F),
    theta the logarithmic derivative of the binomials; n is where
    lead + theta + sign * F first is not 0.

    The constant term is compared first, as sign * lead + F_0.  Then
    theta's entries, -e at each binomial (b, e), are netted into the table
    of sign * F (eisenstein.f_table); on a PASS every entry nets to 0 and
    nothing is sieved, else the nonzero entries are sieved into rows of L
    ints.
    """
    check_rational(alpha, "alpha")
    alpha = QQ(alpha) % 1
    field = CyclotomicField(alpha.denominator)
    lead, _, factors = unit_factors(0, alpha, field, prec)
    spec = EisensteinSpec("F", 2, alpha)
    if sign * lead + eisenstein_constant(spec, field):
        return 0
    net = eisenstein.f_table(field.L, alpha.numerator, 2, prec, sign)
    for f in factors:
        net[f] = net.get(f, 0) - f[1]
    pairs = [(f, x) for f, x in net.items() if x]
    if not pairs:
        return None
    rows = [[0] * field.L for _ in range(prec + 1)]
    sieve_rows(rows, pairs, field.L)
    return next((n for n in range(1, prec + 1)
                 if any(rows[n]) and any(field.reduce_powers(rows[n]))), None)


_SUPPORTED_SHAPES = "diagonal matrices diag(u, v) with positive integer entries (including scalars)"


def distribution_check(alpha, beta, M, c: int, prec: int = 60):
    """Check the unit-distribution identity for the action of a 2x2 matrix.

    M must be diag(u, v) with positive integer entries; the identity checked
    (after clearing denominators in the exponent lattice by z -> v z) is

        cg_(alpha,beta)(u z) = prod cg_(alpha', beta')(v z)

    to O(q^(lead + prec + 1)), prec >= 0, over the uv pairs with
    (v alpha', u beta') = (alpha, beta).  Only alpha = 0 is supported (the
    q-model of the units at the zero cusp).  Returns (bool, witness).

    _first_mismatch decides from the leading exponents and one table of
    the net exponents of the constants and binomials, with no series built.
    At a mismatch the witness names it; at a coefficient, _coefficient gives
    each side's coefficient there from that side's own table, or the text
    saying that it is not integral.
    """
    u, v, N, bnum = distribution_args(alpha, beta, M, c, prec)
    field = CyclotomicField(u * N)
    # (alpha, beta, scale) of the c-modified units on each side
    lhs = [(0, QQ(bnum, N), u)]
    rhs = [(QQ(i, v), QQ(bnum + j * N, u * N), v) for i in range(v) for j in range(u)]
    index, lead_lhs, lead_rhs = _first_mismatch(field, prec, c, lhs, rhs)
    witness = {"factors": u * v, "lead_lhs": str(lead_lhs), "lead_rhs": str(lead_rhs)}
    if index == "leading exponent":
        witness["mismatch"] = index
    elif index is not None:
        witness["mismatch"] = mismatch = {"index": index}
        for side, units in (("lhs", lhs), ("rhs", rhs)):
            try:
                mismatch[side] = str(_coefficient(field, prec, c, units, index))
            except ArithmeticError as e:    # the side's coefficient is not integral
                mismatch[side] = str(e)
    return index is None, witness


def _side(field, prec, c, units, net, consts, sign):
    """Add sign * w to net[(b, e)] for each binomial (1 - zeta^b q^e)^w, and
    to consts[a0] for each constant a0^w with a0 != 1, of the product of the
    c-modified units, each given as (alpha, beta, scale); returns its leading
    exponent, summed as an int numerator over an int denominator."""
    n, d = 0, 1
    for alpha, beta, scale in units:
        for w, (unit_lead, a0, factors) in modified_unit_factors(
                alpha, beta, field, prec, scale, c):
            wn, wd = _num_den(w)
            ln, ld = _num_den(unit_lead)
            n, d = n * wd * ld + wn * ln * d, d * wd * ld
            w *= sign
            if a0 != 1:
                consts[a0] = consts.get(a0, 0) + w
            for f in factors:
                net[f] = net.get(f, 0) + w
    return QQ(n, d)


def _constants(field, consts):
    """(num, den): prod a0^w over the entries a0: w of consts with w > 0,
    and prod a0^-w over those with w < 0."""
    return [prod((a0 ** (s * w) for a0, w in consts.items() if s * w > 0), start=field.one())
            for s in (1, -1)]


def _first_mismatch(field, prec, c, lhs, rhs):
    """(index, lead_lhs, lead_rhs) for the products of the c-modified units
    lhs and rhs, each given as (alpha, beta, scale).  index is None when the
    sides agree to O(q^(lead + prec + 1)), "leading exponent" when the
    leading exponents differ, else the first n at which the coefficients of
    q^(lead + n) differ.

    The sides are netted, lhs minus rhs, into one table (_side).  Each a0 =
    1 - zeta^b is nonzero, so the constants agree exactly when num = den
    (_constants).  Over Q, n a_n = sum_(k=1..n) theta_k a_(n-k) for f = a_0
    + a_1 q + ... and theta = q d/dq log f.  So, with equal a_0, a_n is the
    first coefficient to differ exactly when theta_n is; theta is additive,
    so each nonzero net exponent w at (b, e) is sieved once into rows of L
    integers, as the entry -w e of theta = -sum_(k>=1) w e zeta^(bk) q^(ek),
    dlog of (1 - zeta^b q^e)^w.
    """
    net, consts = {}, {}
    lead_lhs = _side(field, prec, c, lhs, net, consts, 1)
    lead_rhs = _side(field, prec, c, rhs, net, consts, -1)
    if lead_lhs != lead_rhs:
        return "leading exponent", lead_lhs, lead_rhs
    num, den = _constants(field, consts)
    if num != den:
        return 0, lead_lhs, lead_rhs
    rows = [[0] * field.L for _ in range(prec + 1)]
    sieve_rows(rows, ((f, -w * f[1]) for f, w in net.items() if w), field.L)
    index = next((i for i in range(1, prec + 1)
                  if any(rows[i]) and any(field.reduce_powers(rows[i]))), None)
    return index, lead_lhs, lead_rhs


def _coefficient(field, prec, c, units, n):
    """The coefficient of q^(lead + n) in the product of the c-modified
    units, each (alpha, beta, scale), built to O(q^(lead + prec + 1)).

    With its constant num / den divided out, the product is 1 + b_1 q + ...
    over Z[zeta], and b_n is row n of the product of its table (_side,
    _product_rows); a b_m that is not integral raises ArithmeticError.
    """
    net, consts = {}, {}
    _side(field, prec, c, units, net, consts, 1)
    num, den = _constants(field, consts)
    return num * CycloElt(field, tuple(_product_rows(field, net, n)[n])) / den


def _dist_shapes(m):
    """The matrices of the three distribution relations at m, by name."""
    return {"dist1": ((m, 0), (0, 1)), "dist2": ((1, 0), (0, m)),
            "dist3": ((m, 0), (0, m))}


def distribution_args(alpha, beta, M, c: int, prec: int = 0):
    """(u, v, N, b) for M = diag(u, v) and beta = b/N in lowest terms, after
    checking that distribution_check supports its arguments; raises
    TypeError for a parameter of the wrong type (c must be an int) and
    ValueError for one out of range (c must be > 1)."""
    check_prec(prec)
    a, d = _num_den(alpha, "alpha")
    b, N = _num_den(beta, "beta")
    u, v = _diag_entries(M)
    if a % d:
        raise ValueError("only alpha = 0 is supported in the q-expansion model")
    if b % N == 0:
        raise ValueError("Siegel unit undefined at zero parameter")
    _check_c(c)
    if gcd(c, 6 * u * v * N) != 1:
        raise ValueError(f"c = {c} must be coprime to 6 and the orders involved")
    check_conductor(u * N)
    return u, v, N, b % N


def _diag_entries(M):
    if isinstance(M, int):
        return M, M
    rows = list(M)
    if len(rows) == 2 and all(len(list(r)) == 2 for r in rows):
        (a, b), (cc, d) = [list(r) for r in rows]
        if b == 0 and cc == 0 and a >= 1 and d >= 1:
            return int(a), int(d)
    raise ValueError(f"unsupported matrix shape; supported: {_SUPPORTED_SHAPES}")

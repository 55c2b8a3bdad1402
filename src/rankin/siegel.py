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

Parameters are read as int numerators and denominators, with no Fraction
arithmetic: unit_factors builds one Fraction, its leading exponent, and
none per binomial, and a side of a distribution relation sums its leading
exponents over one int denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from operator import add

from .cyclo import (CycloElt, CyclotomicField, check_conductor, slot_bytes, truncate_slots,
                    unpack_slots)
from . import eisenstein
from .eisenstein import (EisensteinSpec, check_prec, check_rational, eisenstein_constant,
                         eisenstein_qexp, sieve_rows)
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
    return _unit_series(field, prec, *unit_factors(alpha, beta, field, prec, scale))


def _unit_series(field, prec, lead, a0, factors) -> QSeries:
    s = QSeries(field, 0, field.elements(
        _binomial_product(field, factors, prec + 1)), normalize=False)
    if a0 != 1:
        s = s * a0
    return QSeries(field, lead, s.coeffs, unit=True, normalize=False)


def _binomial_product(field: CyclotomicField, factors, n: int) -> list:
    """Integer coefficient rows of prod (1 - zeta^c q^e) over the pairs
    (c, e) in factors (1 <= e < n), to n terms.

    The product is kept as phi packed ints S_0 .. S_(phi-1), S_j holding the
    coefficients of zeta^j with one q-power per slot.  Multiplying by zeta^c
    sends zeta^j to the reduced vector of zeta^(j+c), a fixed integer map,
    so a binomial costs about phi^2 bigint additions and shifts.

    Slot width: every partial product, and zeta^c times one, has as
    coefficient of q^i a signed sum of at most P_i = [q^i] prod (1 + q^e)
    powers of zeta, each reducing to a vector with entries of absolute value
    at most C; so no coordinate exceeds C * max P_i.
    """
    L, phi, images = field.L, field.phi, field._images
    count = [1] + [0] * (n - 1)
    for _, e in factors:
        count[e:] = map(add, count[e:], count[:n - e])
    wb = slot_bytes(max(abs(v) for _, value in images for v in value) * max(count))
    width = 8 * wb
    S = [1] + [0] * (phi - 1)
    for c, e in factors:
        T = [0] * phi
        for j, s in enumerate(S):
            if s:
                for k, v in zip(*images[(j + c) % L]):
                    T[k] += v * s
        for k, t in enumerate(T):
            if t:
                S[k] -= truncate_slots(t, n - e, wb) << (width * e)
    return [list(r) for r in zip(*(unpack_slots(s, n, wb) for s in S))]


def modified_unit_factors(alpha, beta, field, prec, scale, c: int):
    """The c-modified unit g(alpha,beta)^(c^2) / g(c*alpha, c*beta) at scale*z
    as [(c^2, g), (-1, g_c)]: each unit with its exponent, given by
    unit_factors."""
    a, d = _num_den(alpha, "alpha")
    bn, bd = _num_den(beta, "beta")
    if gcd(c, 6 * d * bd) != 1:
        raise ValueError(f"c = {c} must be coprime to 6 and the parameter orders")
    return [(c * c, unit_factors(alpha, beta, field, prec, scale)),
            (-1, unit_factors(QQ(c * a, d), QQ(c * bn, bd), field, prec, scale))]


def siegel_scaled_c(alpha, beta, field, prec, scale, c: int) -> QSeries:
    """The integral modification: g(alpha,beta)^(c^2) / g(c*alpha, c*beta)."""
    check_prec(prec)
    (w, g), (_, gc) = modified_unit_factors(alpha, beta, field, prec, scale, c)
    return _unit_series(field, prec, *g) ** w / _unit_series(field, prec, *gc)


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
    g_(n-k), with g_0 .. g_n read from the binomial product of g.
    """
    check_prec(prec)
    n = _dlog_mismatch(alpha, prec)
    if n is None:
        return True, None
    g = siegel_unit_qexp(alpha, None, prec)
    f = eisenstein_qexp(EisensteinSpec("F", 2, alpha), n).coeffs
    rhs = -sum((f[k] * g.coeffs[n - k] for k in range(n + 1)), g.ring.zero())
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

    With its constant num / den divided out, the product is b = 1 + b_1 q +
    ... over Z[zeta], and m b_m = sum_(k=1..m) theta_k b_(m-k) for its
    logarithmic derivative theta, sieved from the product's table (_side).
    Each b_m is kept in the integral basis 1, zeta, .., zeta^(phi-1), so
    every step divides exactly by m, or raises ArithmeticError.
    """
    L, net, consts = field.L, {}, {}
    _side(field, prec, c, units, net, consts, 1)
    rows = [[0] * L for _ in range(n + 1)]
    sieve_rows(rows, ((f, -w * f[1]) for f, w in net.items() if w), L)
    num, den = _constants(field, consts)
    theta = [[(j, t) for j, t in enumerate(r) if t] for r in rows]
    bm = [1] + [0] * (field.phi - 1)
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
        bm = [x // m for x in s]
        b.append([(i, x) for i, x in enumerate(bm) if x])
    return num * CycloElt(field, tuple(bm)) / den


def _dist_shapes(m):
    """The matrices of the three distribution relations at m, by name."""
    return {"dist1": ((m, 0), (0, 1)), "dist2": ((1, 0), (0, m)),
            "dist3": ((m, 0), (0, m))}


def distribution_args(alpha, beta, M, c: int, prec: int = 0):
    """(u, v, N, b) for M = diag(u, v) and beta = b/N in lowest terms, after
    checking that distribution_check supports its arguments; raises
    ValueError when it does not."""
    check_prec(prec)
    a, d = _num_den(alpha, "alpha")
    b, N = _num_den(beta, "beta")
    u, v = _diag_entries(M)
    if a % d:
        raise ValueError("only alpha = 0 is supported in the q-expansion model")
    if b % N == 0:
        raise ValueError("Siegel unit undefined at zero parameter")
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

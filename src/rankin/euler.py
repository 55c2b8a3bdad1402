"""Local factors of the convolution of two eigenforms: the good-prime
degree-4 polynomial, exact Weil bounds, the ordinary interpolation factors
with their functional-equation symmetry, and the bad-level Dirichlet
correction polynomial.
"""

from __future__ import annotations

import functools
from math import gcd, lcm

from .arith import RATIONALS, Record, VerificationError, prime_factors
from .poly import (MPoly, PolyRing, QQ, RatFunc, _zdiv, poly_add,
                   poly_derivative, poly_eval, poly_mul, poly_neg, poly_trim)
from .quotring import join


class BadPrimeError(ValueError):
    pass


class EulerFactor:
    """1 + c1 X + ... + c_d X^d with coefficients in an exact ring."""

    def __init__(self, coefficients: list, ring=None):
        if not coefficients[0] == 1:
            raise ValueError("constant term of a local factor must be 1")
        self.coefficients = coefficients
        self.ring = ring

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __eq__(self, other):
        if not isinstance(other, EulerFactor):
            return NotImplemented
        return (poly_trim(list(self.coefficients))
                == poly_trim(list(other.coefficients)))

    def __call__(self, x):
        return poly_eval(self.coefficients, x)

    def __str__(self):
        parts = ["1"]
        for i, c in enumerate(self.coefficients[1:], start=1):
            parts.append(f"({c})*X^{i}")
        return " + ".join(parts)


def hecke_polynomial(form, p: int):
    """X^2 - a_p X + p^(k-1) eps(p), as [c0, c1, c2] over the coefficient
    ring of the form; rejects p dividing the level."""
    if form.level % p == 0:
        raise BadPrimeError(
            f"p = {p} divides the level {form.level}: the quadratic is not "
            "defined (that slot carries a U-eigenvalue, not a factor)")
    ap = form.a(p)
    eps = form.char_value(p)
    c0 = eps * QQ(p) ** (form.weight - 1)
    return [c0, -ap, form.ring.one()]


def joint_coefficient_ring(f, g):
    """The tensor of the two coefficient rings with transport maps."""
    return join(f.ring, g.ring, "f_", "g_")


def check_good_prime(f, g, p: int):
    """Check that p is a prime dividing neither level, as the good-prime
    factor needs; raises BadPrimeError when it is not."""
    if prime_factors(p) != [p]:
        raise BadPrimeError(f"p = {p} is not a prime")
    if (f.level * g.level) % p == 0:
        raise BadPrimeError(
            f"p = {p} divides the level of one of the forms; bad factors must "
            "be supplied by the caller")


def rankin_euler_factor(f, g, p: int) -> EulerFactor:
    """The degree-4 good-prime factor of the pair, over the joint ring:

        1 - A B X + (p^(l-1) A^2 eg + p^(k-1) ef B^2 - 2 p^(k+l-2) ef eg) X^2
          - p^(k+l-2) ef A eg B X^3 + p^(2k+2l-4) ef^2 eg^2 X^4

    with A = a_p(f), B = a_p(g), ef = eps_f(p), eg = eps_g(p).
    """
    check_good_prime(f, g, p)
    joint, mf, mg = joint_coefficient_ring(f, g)
    k, l = f.weight, g.weight
    A, B = mf(f.a(p)), mg(g.a(p))
    ef, eg = mf(f.char_value(p)), mg(g.char_value(p))
    pk, pl, pkl = QQ(p) ** (k - 1), QQ(p) ** (l - 1), QQ(p) ** (k + l - 2)
    coeffs = [joint.one(),
              -(A * B),
              A * A * eg * pl + ef * B * B * pk - ef * eg * (2 * pkl),
              -(ef * A * eg * B) * pkl,
              (ef * ef * eg * eg) * pkl ** 2]
    fac = EulerFactor(coeffs, joint)
    if not _power_sums_agree(f, g, p, fac):
        raise VerificationError("dual-path factor check failed")
    return fac


def _power_sum_coefficients(f, g, p: int) -> list:
    """The coefficients [c0, ..., c4] = [1, -e1, e2, -e3, e4] of the
    good-prime factor prod (1 - lambda X) over its four reciprocal roots
    lambda, over a new join of the coefficient rings, from the power sums of
    the roots by Newton's identities.

    With alpha, beta the roots of X^2 - a_p(f) X + eps_f(p) p^(k-1), the sums
    t_f(r) = alpha^r + beta^r follow t(0) = 2, t(1) = a_p and
    t(r) = a_p t(r-1) - eps_f(p) p^(k-1) t(r-2); t_g likewise.  The roots
    alpha gamma, alpha delta, beta gamma, beta delta have the power sums
    s_r = t_f(r) t_g(r), and Newton's identities
    r e_r = sum_(i=1..r) (-1)^(i-1) e_(r-i) s_i read r c_r = -sum_(i=1..r)
    c_(r-i) s_i (Cohen, A Course in Computational Algebraic Number Theory,
    4.3)."""
    joint, mf, mg = joint_coefficient_ring(f, g)

    def traces(form, transport):
        ap = transport(form.a(p))
        scale = transport(form.char_value(p)) * QQ(p) ** (form.weight - 1)
        t = [2, ap]
        for _ in range(3):
            t.append(ap * t[-1] - scale * t[-2])
        return t

    s = [x * y for x, y in zip(traces(f, mf), traces(g, mg))]
    c = [joint.one()]
    for r in range(1, 5):
        total = sum((c[r - i] * s[i] for i in range(2, r + 1)), c[r - 1] * s[1])
        c.append(total * QQ(-1, r))
    return c


def _power_sums_agree(f, g, p, fac) -> bool:
    """The second path of rankin_euler_factor: the factor from Newton's
    identities equals ``fac`` coefficient by coefficient."""
    return _power_sum_coefficients(f, g, p) == list(fac.coefficients)


def weil_check(factor: EulerFactor, p: int, k: int, l: int) -> bool:
    """All reciprocal roots satisfy |lambda|^2 <= p^(k+l-2) at every complex
    embedding of the coefficient ring, decided exactly.

    The reciprocal roots at all embeddings are the roots of the minimal
    polynomial N over Q of X in ring[X]/(X^d P(1/X)).  With G(z^2) =
    N(z) N(-z) and H(w) = G(p^(k+l-2) w), the bound says that every root of H
    lies in the closed unit disc.  The roots w of H with 1/w also a root, those
    of g = gcd(H, reversed H), must lie on the circle: after removing w -+ 1,
    g is palindromic of degree 2m, g(w) = w^m M(w + 1/w), and M must have m
    distinct roots in [-2, 2] (a Sturm count).  The other roots, those of
    h = H/g, come in no such pairs and lie on no circle point, so the
    Schur-Cohn recursion decides them without a singular case.

    Every step runs on primitive integer polynomials: the denominators of N
    are cleared once, gcds come from primitive remainder sequences, the
    Schur-Cohn step h <- h_d h - h_0 (reversed h) is made primitive, and the
    Sturm sequence is built from pseudo-remainders times a positive power of
    the divisor's |lc|.  None of these scalings moves a root or a sign
    change, so the verdict is that of the same steps over Q.
    """
    if factor.degree < 1:
        return True
    rev = factor.coefficients[::-1]
    if factor.ring is None:
        norm = [QQ(c) for c in rev]
    else:
        ext, _ = factor.ring.adjoin("X", [-c for c in rev[:-1]])
        norm = ext.gen("X").minpoly()
    den = lcm(*(c.denominator for c in norm))
    norm = [c.numerator * (den // c.denominator) for c in norm]
    # H(w) = G(rho w), times p^(-e deg G) when e = k + l - 2 is negative
    e, top = k + l - 2, len(norm) - 1
    squares = poly_mul(norm, [-c if i % 2 else c for i, c in enumerate(norm)])
    H = [c * p ** (e * i - min(e, 0) * top) for i, c in enumerate(squares[::2])]
    while not H[0]:
        H.pop(0)
    H = _primitive(H)
    H = _zdiv(H, _zgcd(H, poly_derivative(H)))[0]
    g = _zgcd(H, H[::-1])
    h = _zdiv(H, g)[0]
    while len(h) > 1:
        if abs(h[0]) >= abs(h[-1]):
            return False
        h = _primitive([h[-1] * x - h[0] * y for x, y in zip(h, h[::-1])][1:])
    for r in (1, -1):
        if not poly_eval(g, r):
            g = _zdiv(g, [-r, 1])[0]
    m = (len(g) - 1) // 2
    M, dickson, prev = [g[m]], [0, 1], [2]
    for c in g[m + 1:]:
        # dickson = w^j + w^-j as a polynomial in s = w + 1/w
        M = poly_add(M, [c * x for x in dickson])
        dickson, prev = poly_add([0] + dickson, poly_neg(prev)), dickson
    return _zsturm_count(M, -2, 2) == m


# primitive parts, pseudo-remainders, gcds and Sturm counts of dense
# polynomials over Z (constant first) for the Weil check; its sums, products,
# values and exact divisions are the generic poly helpers, which keep ints

def _primitive(f):
    """f divided by the (positive) gcd of its coefficients."""
    c = gcd(*f)
    return f if c == 1 else [x // c for x in f]


def _zprem(f, g):
    """The remainder of |lc(g)|^(deg f - deg g + 1) f on division by g, which
    is integral and a positive multiple of the remainder over Q."""
    scale = abs(g[-1]) ** max(0, len(f) - len(g) + 1)
    return _zdiv([c * scale for c in f], g)[1]


def _zgcd(f, g):
    """A primitive gcd of f and g over Q, by the primitive remainder
    sequence (Collins 1967)."""
    while g:
        f, g = g, _primitive(_zprem(f, g))
    return _primitive(f)


def _zsturm_count(f, a, b) -> int:
    """The number of distinct real roots of f in (a, b]: a Sturm sequence of
    positive multiples of the remainders over Q, so the signs are theirs."""
    seq = [f, poly_derivative(f)]
    while seq[-1]:
        seq.append(_primitive(poly_neg(_zprem(seq[-2], seq[-1]))))

    def changes(x):
        signs = [v for v in (poly_eval(q, x) for q in seq[:-1]) if v]
        return sum(1 for u, v in zip(signs, signs[1:]) if (u < 0) != (v < 0))

    return changes(a) - changes(b)


# ---------------------------------------------------------------------------
# interpolation factors and the functional-equation symmetry
# ---------------------------------------------------------------------------

# K, L and J stand for p^(k-1), p^(l-1) and p^j: the weights k, l and the
# twist j enter the factors and the dual-form map only through these
SYM_RING = PolyRing(("al", "be", "ga", "de", "p", "K", "L", "J"),
                    invertible={"p", "K", "L", "J"})
_AL, _BE, _GA, _DE, _P, _K, _L, _J = SYM_RING.vars()


class InterpFactors(Record):
    __slots__ = ("modification", "modification_star", "convolution")

    def __init__(self, modification: RatFunc, modification_star: RatFunc,
                 convolution: RatFunc):
        self.modification = modification              # 1 - beta/(p alpha)
        self.modification_star = modification_star    # 1 - beta/alpha
        self.convolution = convolution                # four-binomial factor at the twist


def _binom(num: MPoly, den: MPoly) -> RatFunc:
    return RatFunc(den - num, den)


def interpolation_factors(twist: MPoly) -> InterpFactors:
    """The three ordinary interpolation factors, symbolic in the four Hecke
    roots, at the twist given as a monomial of SYM_RING standing for p^j:
    ``J`` for a general twist, ``p ** j`` for twist j.  The weights do not
    enter."""
    al, be, ga, de, p = _AL, _BE, _GA, _DE, _P
    e_f = _binom(be, p * al)
    e_star = _binom(be, al)
    e_conv = (_binom(be * ga, twist) * _binom(be * de, twist)
              * _binom(twist, p * al * ga) * _binom(twist, p * al * de))
    return InterpFactors(e_f, e_star, e_conv)


@functools.cache
def _dual_form_images():
    """(image, factor) for the modification factor, its level-lowering
    variant and the convolution factor at twist J, the image taken under
    the dual-form map al -> K/be, be -> K/al, ga -> L/de, de -> L/ga; built
    once per process."""
    star = {"al": RatFunc(_K, _BE), "be": RatFunc(_K, _AL),
            "ga": RatFunc(_L, _DE), "de": RatFunc(_L, _GA)}
    fac = interpolation_factors(_J)
    return tuple((r.subs(star), r)
                 for r in (fac.modification, fac.modification_star, fac.convolution))


def _dual_form_sides(mutate_shift: int = 0):
    """The (image, expected) pairs of the dual-form symmetry, for every
    weight k, l and twist j at once: the images of _dual_form_images against
    the same factor, except that the convolution factor's image is set
    against the convolution factor at the dual twist p^(k+l-1-j) = K L p / J,
    times p^mutate_shift."""
    mod, mod_star, (conv_star, _) = _dual_form_images()
    fac_dual = interpolation_factors(_K * _L * _P ** (1 + mutate_shift) * _J.inverse())
    return mod, mod_star, (conv_star, fac_dual.convolution)


def functional_symmetry_check(literal_reading: bool = False,
                              mutate_shift: int = 0) -> bool:
    """Symbol-level symmetry under passing to the dual forms, for every
    weight and twist (see ``_dual_form_sides``):

    * the ordinary modification factor is invariant;
    * its level-lowering variant is invariant;
    * the convolution factor at twist J maps to the one at the dual twist;
    * hence the interpolation ratio built from them is identically 1.

    The closing ratio cannot fail on its own once the three equalities hold,
    since its two cross-multiplied products then have pairwise equal
    factors; it carries the ZeroDivisionError guard for a zero numerator
    among the factors it divides by.

    ``literal_reading`` instead tests the (false) claim that the starred
    variant equals the unstarred modification factor; ``mutate_shift``
    multiplies the dual twist by p^mutate_shift.
    """
    if literal_reading:
        (_, e_f), (e_star_star, _), _ = _dual_form_images()
        return e_star_star == e_f
    (e_f_star, e_f), (e_star_star, e_star), (conv_star, conv_dual) = \
        _dual_form_sides(mutate_shift)
    if not (e_f_star == e_f and e_star_star == e_star and conv_star == conv_dual):
        return False
    # the full ratio conv(dual) * mod^* * mod_star^* / (mod * mod_star * conv^*)
    # is 1: cross-multiply its three numerators and three denominators
    tops = (conv_dual, e_f_star, e_star_star)
    bottoms = (e_f, e_star, conv_star)
    if not all(r.num for r in bottoms):
        raise ZeroDivisionError("division by zero rational function")
    return (functools.reduce(MPoly.__mul__, [r.num for r in tops] + [r.den for r in bottoms])
            == functools.reduce(MPoly.__mul__, [r.den for r in tops] + [r.num for r in bottoms]))


# ---------------------------------------------------------------------------
# the Dirichlet correction polynomial at bad levels
# ---------------------------------------------------------------------------

class CorrectionPolynomial:
    """A polynomial in the variables {x_p : p | N} with coefficients in the
    joint coefficient ring; stored as {exponent tuple: element}."""

    def __init__(self, primes, terms, one):
        self.primes = tuple(primes)
        self.terms = terms
        self._one = one

    def is_one(self):
        z = tuple(0 for _ in self.primes)
        return set(self.terms) == {z} and self.terms[z] == self._one

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "*".join(f"x{p}^{k}" if k > 1 else f"x{p}"
                            for p, k in zip(self.primes, e) if k)
            cs = str(c)
            if any(op in cs for op in (" + ", " - ")):
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    __repr__ = __str__


def local_correction(fstream, gstream, N: int, bad_factors: dict,
                     guard: int = 8, ring=RATIONALS):
    """Certify that the bad-level correction is a polynomial.

    ``fstream``/``gstream`` map (p, r) to a_(p^r) of the two test vectors in a
    common ring (``ring``, defaulting to the rationals); ``bad_factors`` maps
    each prime p | N to the local-factor coefficient list [1, c1, ...] in that
    ring.  For each p the series sum_r a_(p^r)(f) a_(p^r)(g) x^r is multiplied
    by the factor; the result must vanish in degrees
    (deg(factor) + dilation shifts, guard].

    Returns (CorrectionPolynomial, certified: bool, residuals: dict).
    """
    one = ring.one()
    primes = prime_factors(N)
    certified = True
    residuals = {}
    local_polys = []
    for p in primes:
        if p not in bad_factors:
            raise ValueError(f"no local factor supplied for p = {p}")
        fac = bad_factors[p]
        series = [fstream(p, r) * gstream(p, r) for r in range(guard + 1)]
        # poly_mul trims trailing zeros
        prod = poly_mul(fac, series)[:guard + 1]
        prod += [ring.zero()] * (guard + 1 - len(prod))
        shift = _stream_shift(fstream, p, guard) + _stream_shift(gstream, p, guard)
        dbound = (len(fac) - 1) + shift
        if dbound + 1 > guard:
            raise ValueError(f"guard {guard} too small at p = {p}: "
                             f"need at least {dbound + 2}")
        tail = [i for i in range(dbound + 1, guard + 1) if prod[i]]
        if tail:
            certified = False
            residuals[p] = {
                "error": "polynomiality not certified",
                "first_nonzero_degree": tail[0],
                "series_head": [str(prod[i]) for i in range(tail[0] + 1)]}
        local_polys.append({i: prod[i] for i in range(dbound + 1) if prod[i]})
    terms = {tuple([0] * len(primes)): one}
    for idx, loc in enumerate(local_polys):
        new = {}
        for e1, v1 in terms.items():
            for k, v2 in loc.items():
                e = list(e1)
                e[idx] += k
                e = tuple(e)
                v = v1 * v2
                new[e] = new[e] + v if e in new else v
        terms = {e: v for e, v in new.items() if v}
    return CorrectionPolynomial(primes, terms, one), certified, residuals


def _stream_shift(stream, p, guard):
    """Index of the first nonzero prime-power coefficient (oldform dilation)."""
    for r in range(guard + 1):
        if stream(p, r):
            return r
    return 0

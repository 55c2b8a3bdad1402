"""Mechanical derivation of the composite norm relations, their eigenvalue
specializations, the projection formula for stabilized classes, the twisted
local polynomial congruence, and compatible twist systems.

Formal classes live in a cyclotomic tower with layers 0..3 (conductors m,
mp, mp^2, mp^3).  A class expression at layer L is a map
{native layer r <= L: operator coefficient}; classes of lower native layer
are implicitly restricted upward.  Pushing a norm down one layer applies:

* the one-step norm rule to the top-layer class;
* multiplication by the relative field degree (p - 1 from layer 1 to 0,
  p from layer r+1 to r for r >= 1) to restricted lower classes,

since norm composed with restriction is the field degree.
"""

from __future__ import annotations

import functools
from functools import reduce
from math import gcd

from .arith import VerificationError, crt, factor, prime_factors
from .operators import (ONE, OP_RING, P, composite_norm_p2_closed,
                        composite_norm_p3_closed, higher_norm_step2,
                        higher_norm_step3, is_canonical_operator,
                        operator_euler_coeffs, second_norm_operator)
from .poly import MPoly, PolyRing, QQ, RatFunc, poly_eval, poly_mul


def norm_rules() -> dict:
    """One-step norm rules: layer r -> expression at layer r-1."""
    return {
        1: {0: second_norm_operator()},
        2: higher_norm_step2(),
        3: higher_norm_step3(),
    }


def _degree_factor(target_layer: int) -> MPoly:
    """[Q(mu at layer t+1) : Q(mu at layer t)] as an operator scalar."""
    return (P - 1) if target_layer == 0 else P


def _norm_down(expr: dict, layer: int, rules: dict) -> dict:
    """Apply the norm from ``layer`` to ``layer - 1`` to a class expression,
    with the one-step rules of norm_rules()."""
    out: dict = {}

    def add(r, op):
        out[r] = out.get(r, OP_RING.zero()) + op

    for r, op in expr.items():
        if r == layer:
            for r2, op2 in rules[layer].items():
                add(r2, op * op2)
        else:
            add(r, op * _degree_factor(layer - 1))
    return out


@functools.cache
def _composed_norms():
    """(derived_p2, derived_p3, closed_p2, closed_p3): the p^2 and p^3
    classes normed down to the base layer, and the closed forms.  Built once
    per process; a derivation that fails its shape checks raises on every
    call, since nothing is cached then."""
    rules = norm_rules()
    expr2 = _norm_down(_norm_down({2: ONE}, 2, rules), 1, rules)
    expr3 = _norm_down(_norm_down(_norm_down({3: ONE}, 3, rules), 2, rules), 1, rules)
    if set(expr2) != {0} or set(expr3) != {0}:
        raise VerificationError("composite norms did not reach the base layer")
    derived2, derived3 = expr2[0], expr3[0]
    if not (is_canonical_operator(derived2) and is_canonical_operator(derived3)):
        raise VerificationError("derived composite norms are not canonical")
    return derived2, derived3, composite_norm_p2_closed(), composite_norm_p3_closed()


def derive_composite_norms():
    """Compose one-step norms down to the base layer for the p^2 and p^3
    classes, compare against the closed forms, and return

        (derived_p2, derived_p3, closed_p2, closed_p3, match2, match3).

    The operators are built once per process; the comparisons run on each
    call.
    """
    derived2, derived3, closed2, closed3 = _composed_norms()
    return (derived2, derived3, closed2, closed3,
            derived2 == closed2, derived3 == closed3)


# ---------------------------------------------------------------------------
# eigenvalue specializations
# ---------------------------------------------------------------------------

EIG_RING = PolyRing(("af", "ag", "ef", "eg", "s", "p"),
                    invertible={"ef", "eg", "s", "p"})
AF, AG, EF, EG, SE, PE = EIG_RING.vars()

ROOT_RING = PolyRing(("al", "be", "ga", "de", "s", "p"),
                     invertible={"s", "p"})
AL, BE, GA, DE, SR, PR = ROOT_RING.vars()


def specialize_eigen(op: MPoly, invert_diamond: bool = False) -> MPoly:
    """a -> a_p(f), b -> a_p(g), df -> eps_p(f), dg -> eps_p(g) (weight 2).

    ``invert_diamond`` tests the rejected convention df -> eps_p(f)^-1.
    """
    ef = EF ** -1 if invert_diamond else EF
    eg = EG ** -1 if invert_diamond else EG
    return op.subs({"a": AF, "b": AG, "df": ef, "dg": eg, "s": SE, "p": PE})


def specialize_roots(op: MPoly) -> MPoly:
    """a -> al+be, b -> ga+de, df -> al*be/p, dg -> ga*de/p (weight 2 roots)."""
    return op.subs({"a": AL + BE, "b": GA + DE,
                    "df": AL * BE * PR ** -1, "dg": GA * DE * PR ** -1,
                    "s": SR, "p": PR})


@functools.cache
def local_factor_coeffs_eigen(ring=EIG_RING) -> tuple:
    """(X^0..X^4) of the weight-(2,2) local factor in the eigenvalue symbols,
    built once per process and ring."""
    af, ag, ef, eg, _, p = ring.vars()
    return (ring.one(),
            -af * ag,
            p * af * af * eg + p * ef * ag * ag - 2 * p ** 2 * ef * eg,
            -p ** 2 * ef * af * eg * ag,
            p ** 4 * ef ** 2 * eg ** 2)


def corestriction_display(mutate_degree: bool = False) -> MPoly:
    """s [ (p-1)(1 - ef eg s^-2) - p * LocalFactor(p^-1 s^-1) ], the closed
    form of the degree-(p-1) corestriction on the (f, g)-eigenspace.

    ``mutate_degree`` replaces (p-1) by p for non-vacuity testing.
    """
    return _corestriction_displays()[bool(mutate_degree)]


@functools.cache
def _corestriction_displays() -> tuple:
    """The corestriction display and its degree mutant, built once per
    process."""
    lf = poly_eval(local_factor_coeffs_eigen(), PE ** -1 * SE ** -1)
    return tuple(SE * (deg * (EIG_RING.one() - EF * EG * SE ** -2) - PE * lf)
                 for deg in (PE - 1, PE))


def specialize_to_corestriction(invert_diamond: bool = False,
                                mutate_degree: bool = False) -> bool:
    """The eigenvalue specialization of the degree-(p-1) norm operator equals
    the closed corestriction display."""
    lhs = specialize_eigen(second_norm_operator(), invert_diamond)
    return lhs == corestriction_display(mutate_degree)


def operator_euler_specializes() -> bool:
    """Coefficientwise match of the operator local factor with the
    weight-(2,2) eigenvalue local factor, plus the root-symbol factorization

        prod over (r, s) in {al, be} x {ga, de} of (1 - r s X)."""
    eig = local_factor_coeffs_eigen()
    for c_op, c_eig in zip(operator_euler_coeffs(), eig):
        if specialize_eigen(c_op) != c_eig:
            return False
    # factorization over the roots: compare coefficient lists
    prod_coeffs = reduce(poly_mul, ([ROOT_RING.one(), -r]
                                    for r in (AL * GA, AL * DE, BE * GA, BE * DE)))
    eig_in_roots = [c.subs({"af": AL + BE, "ag": GA + DE,
                            "ef": AL * BE * PR ** -1, "eg": GA * DE * PR ** -1,
                            "s": SR, "p": PR}) for c in eig]
    return prod_coeffs == eig_in_roots


# ---------------------------------------------------------------------------
# the projection formula for stabilized classes
# ---------------------------------------------------------------------------

def pstab_projection_formula(drop_denominator_term: bool = False):
    """Derive the projection of the stabilized class to the unstabilized one.

    Steps: expand the cubic interpolation polynomial j0 + j1 X + j2 X^2
    + j3 X^3 with value 1 at al*ga and 0 at the other three products of
    stabilization roots; expand powers of the layer operator through the
    one-step norm at a level divisible by p (U^r = sum_i s^i N_{r-i}); push
    through the degeneracy map (the r = 0 term acquires 1 - ef eg s^-2);
    substitute the derived composite norms; and compare with

        al ga (1 - be de s^-1/p)(1 - al de s^-1/p)(1 - be ga s^-1/p)
            / ((ga - de)(al - be)).

    Returns (RatFunc result, bool match).  ``drop_denominator_term`` removes
    the (al ga - al de) factor from the interpolation denominator, a mutation
    that must break the match.  Only the denominator is built on each call;
    the composite norms are compared on each call too.
    """
    denom_factors = [AL * GA - AL * DE, AL * GA - BE * GA, AL * GA - BE * DE]
    if drop_denominator_term:
        denom_factors = denom_factors[1:]
    D = ROOT_RING.one()
    for f in denom_factors:
        D = D * f
    *_, ok2, ok3 = derive_composite_norms()
    if not (ok2 and ok3):
        raise VerificationError("composite norms failed; projection derivation unsound")
    total, target = _pstab_numerator_and_target()
    result = RatFunc(total, D)
    return result, result == target


@functools.cache
def _pstab_numerator_and_target():
    """The numerator of the projection and the target RatFunc of
    pstab_projection_formula, built once per process."""
    R = ROOT_RING
    one = R.one()
    # interpolation cubic numerator: (X - al de)(X - be ga)(X - be de)
    num_coeffs = reduce(poly_mul, ([-r, one] for r in (AL * DE, BE * GA, BE * DE)))
    # specialized norm operators (layer expressions pushed to the base)
    d2, d3, _, _ = _composed_norms()
    n1 = specialize_roots(second_norm_operator())
    n2 = specialize_roots(d2)
    n3 = specialize_roots(d3)
    p0 = one - (AL * BE * PR ** -1) * (GA * DE * PR ** -1) * SR ** -2
    pieces = {0: p0, 1: n1, 2: n2, 3: n3}
    # result numerator: sum_r j_r sum_{i<=r} s^i pieces[r-i]
    total = R.zero()
    for r in range(4):
        jr = num_coeffs[r]
        for i in range(r + 1):
            total = total + jr * SR ** i * pieces[r - i]
    target_num = AL * GA
    for prod_term in (BE * DE, AL * DE, BE * GA):
        target_num = target_num * (one - prod_term * PR ** -1 * SR ** -1)
    return total, RatFunc(target_num, (GA - DE) * (AL - BE))


# ---------------------------------------------------------------------------
# the twisted local polynomial and its congruence
# ---------------------------------------------------------------------------

def corestriction_solved_polynomial():
    """Coefficients [X^0..X^4] of the polynomial A with
    -s A(s^-1) = corestriction display, read off the display; equals

        ell * LocalFactor(ell^-1 X) - (ell - 1)(1 - ef eg X^2).

    Returns (coeffs_from_display, coeffs_closed, match).  The coefficients
    are built once per process; match is compared on each call.
    """
    from_display, closed = _solved_coefficients()
    match = all(x == y for x, y in zip(from_display, closed))
    return list(from_display), list(closed), match


@functools.cache
def _solved_coefficients():
    """(coeffs_from_display, coeffs_closed) of
    corestriction_solved_polynomial, as tuples."""
    disp = corestriction_display()
    # -s A(s^-1) = disp  ->  A's X^i coefficient = -(coefficient of s^(1-i))
    by_s = disp.coefficients_in("s")
    coeffs_from_display = []
    for i in range(5):
        c = by_s.get(1 - i, EIG_RING.zero())
        coeffs_from_display.append(-c.subs({"s": EIG_RING.one()}))
    if set(by_s) - {1 - i for i in range(5)}:
        raise VerificationError("unexpected Frobenius powers in the display")
    lf = local_factor_coeffs_eigen()
    closed = []
    for i, c in enumerate(lf):
        term = PE * c * PE ** -i
        if i == 0:
            term = term - (PE - 1)
        if i == 2:
            term = term + (PE - 1) * EF * EG
        closed.append(term)
    return tuple(coeffs_from_display), tuple(closed)


def derive_A_ell(mutate: bool = False):
    """Certify A(X) = ell P(ell^-1 X) - (ell-1)(1 - ef eg X^2) is congruent to
    P(ell^-1 X) coefficientwise modulo (ell - 1), with ell symbolic.

    Each coefficient difference, after clearing the ell-power denominator,
    must be divisible by (ell - 1) in the polynomial ring.  Returns
    (A_coeffs, quotient_certificate, bool).  ``mutate`` perturbs one
    coefficient and must break the congruence.
    """
    a_coeffs, closed, match = corestriction_solved_polynomial()
    if not match:
        return a_coeffs, None, False
    if mutate:
        a_coeffs = list(a_coeffs)
        a_coeffs[1] = a_coeffs[1] + 1
    p_coeffs = [c * PE ** -i for i, c in enumerate(local_factor_coeffs_eigen())]
    ell_minus_1 = PE - 1
    certificate = []
    for ca, cp in zip(a_coeffs, p_coeffs):
        diff = ca - cp
        cleared, shifts = diff.clear_laurent()
        try:
            q = cleared.exact_div(ell_minus_1)
        except ValueError:
            return a_coeffs, None, False
        certificate.append((q, shifts))
    return a_coeffs, certificate, True


def a_ell_concrete(ell: int, af, ag, ef, eg):
    """A and the untwisted local polynomial at concrete data; returns
    (A_coeffs, p_coeffs) as Fractions (or field elements)."""
    lf = [1,
          -af * ag,
          ell * af * af * eg + ell * ef * ag * ag - 2 * ell ** 2 * ef * eg,
          -ell ** 2 * ef * af * eg * ag,
          ell ** 4 * ef * ef * eg * eg]
    p_coeffs = [c / QQ(ell) ** i for i, c in enumerate(lf)]
    a_coeffs = [ell * c for c in p_coeffs]
    a_coeffs[0] = a_coeffs[0] - (ell - 1)
    a_coeffs[2] = a_coeffs[2] + (ell - 1) * ef * eg
    return a_coeffs, p_coeffs


def a_ell_congruence_concrete(ell: int, af, ag, ef, eg) -> bool:
    """Check A = p_ell mod (ell - 1) with concrete rational data: every
    difference divided by (ell - 1) must have only ell-power denominators."""
    a_coeffs, p_coeffs = a_ell_concrete(ell, af, ag, ef, eg)
    for ca, cp in zip(a_coeffs, p_coeffs):
        d = QQ(ca - cp) / (ell - 1)
        den = d.denominator
        while den % ell == 0:
            den //= ell
        if den != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# compatible twist systems
# ---------------------------------------------------------------------------

def build_twist_system(m_max: int):
    """Choose gamma_m in (Z/m)^* for squarefree m <= m_max, with
    gamma_(m ell) = ell^-1 gamma_m mod m whenever ell is prime, ell | m and
    m/ell > 1.  Built by induction on the number of prime factors via the
    Chinese remainder theorem; single-prime values are 1.
    Returns {m: gamma_m}.
    """
    gammas = {1: 1}
    ms = [m for m in range(2, m_max + 1) if all(e == 1 for _, e in factor(m))]
    ms.sort(key=lambda m: (len(prime_factors(m)), m))
    for m in ms:
        primes = prime_factors(m)
        if len(primes) == 1:
            gammas[m] = 1 % m
            continue
        # constraints: gamma_m = ell^-1 gamma_(m/ell) mod m/ell, for each ell|m
        pairs = []
        for ell in primes:
            rest = m // ell
            target = (pow(ell, -1, rest) * gammas[rest]) % rest if rest > 1 else 0
            pairs.append((target, rest))
        # the moduli m/ell are not coprime; reduce to prime-power congruences
        prime_pairs = []
        for q in primes:
            # q divides every m/ell except m/q; all those give the same value mod q
            vals = {pairs[i][0] % q for i, ell in enumerate(primes) if ell != q}
            if len(vals) != 1:
                raise VerificationError(f"inconsistent twist constraints at m={m}, q={q}")
            prime_pairs.append((vals.pop(), q))
        gammas[m] = crt(prime_pairs)
        if gcd(gammas[m], m) != 1:
            raise VerificationError(f"twist value not a unit at m={m}")
    return gammas


def twist_system_property_holds(gammas: dict, m_max: int) -> bool:
    """gamma_(m ell) = ell^-1 gamma_m mod m for all applicable (m, ell)."""
    for m, g in gammas.items():
        if m == 1:
            continue
        for ell in prime_factors(m):
            rest = m // ell
            if rest == 1:
                continue
            expect = (pow(ell, -1, rest) * gammas[rest]) % rest
            if g % rest != expect:
                return False
    return True

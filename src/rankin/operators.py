"""The commutative operator algebra of the norm-relation engine.

Identities are verified in the Laurent ring Q[a, b, df^(+-1), dg^(+-1),
s^(+-1), p^(+-1)], where a and b stand for the two transpose Hecke
correspondences acting on the two factors, df and dg for the paired diamond
operators, s for the Frobenius of the cyclotomic coefficient field and p for
the rational prime.  The square of the degree-(p+1) correspondence satisfies
a^2 = S + (p+1) df with S the degree-(p^2+p) double coset, which is how S is
eliminated everywhere.

All verified identities are polynomial in p; negative powers of p occur only
inside intermediate Euler-factor evaluations at p^(-1) s^(-1).
"""

from __future__ import annotations

import functools

from .poly import MPoly, PolyRing, poly_eval

OP_RING = PolyRing(("a", "b", "df", "dg", "s", "p"),
                   invertible={"df", "dg", "s", "p"})

A, B, DF, DG, S, P = OP_RING.vars()
ONE = OP_RING.one()


def is_canonical_operator(x: MPoly) -> bool:
    """Canonical operators have no zero terms (automatic) and no negative
    powers of a, b or p."""
    for e in x.terms:
        if e[OP_RING.index["a"]] < 0 or e[OP_RING.index["b"]] < 0:
            return False
        if e[OP_RING.index["p"]] < 0:
            return False
    return True


# -- names for the paired coset operators ------------------------------------

def pair_T() -> MPoly:
    """(T', T')."""
    return A * B


def pair_diamond() -> MPoly:
    """(<p^-1>, <p^-1>)."""
    return DF * DG


def pair_S_left(sp_coeff=None) -> MPoly:
    """(S', <p^-1>) after eliminating S' = a^2 - (p+1) df."""
    c = P + 1 if sp_coeff is None else sp_coeff
    return (A * A - c * DF) * DG


def pair_S_right(sp_coeff=None) -> MPoly:
    """(<p^-1>, S')."""
    c = P + 1 if sp_coeff is None else sp_coeff
    return DF * (B * B - c * DG)


def pair_dT() -> MPoly:
    """(<p^-1> T', <p^-1> T')."""
    return DF * DG * A * B


def pair_diamond2() -> MPoly:
    """(<p^-2>, <p^-2>)."""
    return (DF * DG) ** 2


def pair_T_square_left() -> MPoly:
    """(T'^2, <p^-1>)."""
    return A * A * DG


def pair_T_square_right() -> MPoly:
    """(<p^-1>, T'^2)."""
    return DF * B * B


def pair_T_psquare() -> MPoly:
    """(T'_(p^2), T'_(p^2)) with T'_(p^2) = T'^2 - p <p^-1> (weight 2)."""
    return (A * A - P * DF) * (B * B - P * DG)


# -- the degree-(p-1) norm operator and its rewriting -------------------------

@functools.cache
def second_norm_operator() -> MPoly:
    """Right-hand side of the degree-(p-1) norm relation at a good prime:

        -s + ab + [(p+1) df dg - df b^2 - a^2 dg] s^-1
           + df dg ab s^-2 - p (df dg)^2 s^-3.

    Built once per process; every comparison with it runs on each call.
    """
    return (-S + pair_T()
            + ((P + 1) * pair_diamond() - pair_T_square_right() - pair_T_square_left()) * S ** -1
            + pair_dT() * S ** -2
            - P * pair_diamond2() * S ** -3)


def second_norm_operator_rewritten(sp_coeff=None) -> MPoly:
    """The same operator reorganized through the degree-(p^2+p) coset:

        (ab - s - p df dg s^-1)(1 + df dg s^-2)
            - [(<p^-1>, S') + (S', <p^-1>)] s^-1.

    ``sp_coeff`` perturbs the (p+1) coefficient in S' = a^2 - (p+1) df for
    mutation testing.
    """
    return ((pair_T() - S - P * pair_diamond() * S ** -1) * (ONE + pair_diamond() * S ** -2)
            - (pair_S_right(sp_coeff) + pair_S_left(sp_coeff)) * S ** -1)


def verify_sp_rewrite(sp_coeff=None) -> bool:
    """Exact equality of the two forms of the degree-(p-1) norm operator."""
    return second_norm_operator() == second_norm_operator_rewritten(sp_coeff)


# -- one-step norms from level p^r to level p^(r-1), r = 2, 3 -----------------

def higher_norm_step2() -> dict:
    """Norm from the p^2 layer: {1: coefficient of the p-layer class,
    0: coefficient of the base class}."""
    op0 = (P * pair_diamond() - pair_T_square_right() - pair_T_square_left()
           + 2 * pair_dT() * S ** -1 - P * pair_diamond2() * S ** -2)
    return {1: pair_T(), 0: op0}


def higher_norm_step2_rewritten(mutate_sign: bool = False) -> dict:
    op0 = (-(P + 2) * pair_diamond() - pair_S_right() - pair_S_left()
           + pair_diamond() * S ** -1 * ((2 if not mutate_sign else -2) * pair_T()
                                         - P * pair_diamond() * S ** -1))
    return {1: pair_T(), 0: op0}


def higher_norm_step3() -> dict:
    """Norm from the p^3 layer: coefficients of the p^2, p and base classes."""
    op1 = P * pair_diamond() - pair_T_square_right() - pair_T_square_left()
    op0 = pair_diamond() * (2 * pair_T()
                            - (pair_T_square_right() + pair_T_square_left()) * S ** -1)
    return {2: pair_T(), 1: op1, 0: op0}


def higher_norm_step3_rewritten() -> dict:
    op1 = -((P + 2) * pair_diamond() + pair_S_right() + pair_S_left())
    op0 = pair_diamond() * (2 * pair_T()
                            - ((2 * P + 2) * pair_diamond()
                               + pair_S_right() + pair_S_left()) * S ** -1)
    return {2: pair_T(), 1: op1, 0: op0}


def verify_higher_rewrite(mutate_sign: bool = False) -> bool:
    """Both higher-layer norm formulas agree with their rewritten forms."""
    a2, b2 = higher_norm_step2(), higher_norm_step2_rewritten(mutate_sign)
    a3, b3 = higher_norm_step3(), higher_norm_step3_rewritten()
    return (all(a2[k] == b2[k] for k in a2) and set(a2) == set(b2)
            and all(a3[k] == b3[k] for k in a3) and set(a3) == set(b3))


# -- the operator-valued Euler factor -----------------------------------------

def operator_euler_coeffs(mutate: int | None = None) -> list:
    """Coefficients [X^0, ..., X^4] of the operator-valued local factor

        1 - ab X + (p a^2 dg + p df b^2 - 2 p^2 df dg) X^2
          - p^2 df dg ab X^3 + p^4 (df dg)^2 X^4.

    ``mutate`` perturbs the coefficient of the given degree by +1 for
    non-vacuity testing.
    """
    coeffs = [ONE,
              -pair_T(),
              P * pair_T_square_left() + P * pair_T_square_right()
              - 2 * P ** 2 * pair_diamond(),
              -P ** 2 * pair_dT(),
              P ** 4 * pair_diamond2()]
    if mutate is not None:
        coeffs[mutate] = coeffs[mutate] + 1
    return coeffs


def operator_euler_at(x: MPoly, mutate: int | None = None) -> MPoly:
    """The operator Euler factor evaluated at X = x."""
    return poly_eval(operator_euler_coeffs(mutate), x)


# -- closed forms of the composite norms --------------------------------------

def composite_norm_p2_closed(mutate: int | None = None) -> MPoly:
    """p s^2 [ (p-1)(1 - df dg s^-2) - (ab s^-1 + (p-1)) Euler(p^-1 s^-1) ]."""
    ev = operator_euler_at(P ** -1 * S ** -1, mutate)
    return P * S ** 2 * ((P - 1) * (ONE - pair_diamond() * S ** -2)
                         - (pair_T() * S ** -1 + (P - 1)) * ev)


def composite_norm_p3_closed(mutate: int | None = None) -> MPoly:
    """p^2 s^3 [ (p-1)(1 - df dg s^-2)
                 - (p^-1 s^-2 (T'_(p^2), T'_(p^2)) + (p-1) p^-1 s^-1 ab + (p-1))
                   * Euler(p^-1 s^-1) ]."""
    ev = operator_euler_at(P ** -1 * S ** -1, mutate)
    inner = (P ** -1 * S ** -2 * pair_T_psquare()
             + (P - 1) * P ** -1 * S ** -1 * pair_T() + (P - 1))
    return P ** 2 * S ** 3 * ((P - 1) * (ONE - pair_diamond() * S ** -2) - inner * ev)

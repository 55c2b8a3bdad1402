"""The distribution relations decided on one table of net exponents.

_first_mismatch nets the binomials and constants of both sides of a relation
by (b, e) and by a0 before it sieves, and _coefficient reads one side's
coefficient off that side's table.  The per-unit bodies they replaced are
kept here as the oracle: each unit's binomials sieved one by one into the
rows, its constant raised to its own exponent.  Both must give the same
index, leading exponents and coefficients, with the same types, on the
plain relations and on mutants of the unit data.
"""

from contextlib import nullcontext
from fractions import Fraction as F
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankin import siegel
from rankin.cyclo import CycloElt, CyclotomicField
from rankin.poly import QQ
from rankin.eisenstein import sieve_rows
from rankin.siegel import (_coefficient, _dist_shapes, _first_mismatch, _side, distribution_args,
                           distribution_check)


# -- the oracle: the per-unit bodies -------------------------------------------

def sieve_unit(rows, factors, w, L):
    """Add w * theta of prod (1 - zeta^b q^e) over factors to rows."""
    for b, e in factors:
        x, j = w * e, 0
        for row in rows[e::e]:
            j = (j + b) % L
            row[j] -= x


def side_by_units(field, prec, c, units, rows, sign):
    """Add sign * theta of the product of the c-modified units to rows, unit
    by unit; returns (lead, num, den), its leading exponent and its constant
    num / den, each a0^w a power of its own."""
    n, d, consts = 0, 1, [field.one(), field.one()]
    for alpha, beta, scale in units:
        for w, (unit_lead, a0, factors) in siegel.modified_unit_factors(
                alpha, beta, field, prec, scale, c):
            wn, wd = siegel._num_den(w)
            ln, ld = siegel._num_den(unit_lead)
            n, d = n * wd * ld + wn * ln * d, d * wd * ld
            if a0 != 1:
                consts[w < 0] = consts[w < 0] * a0 ** abs(w)
            sieve_unit(rows, factors, sign * w, field.L)
    return QQ(n, d), consts[0], consts[1]


def first_mismatch_by_units(field, prec, c, lhs, rhs):
    rows = [[0] * field.L for _ in range(prec + 1)]
    lead_lhs, num_lhs, den_lhs = side_by_units(field, prec, c, lhs, rows, 1)
    lead_rhs, num_rhs, den_rhs = side_by_units(field, prec, c, rhs, rows, -1)
    if lead_lhs != lead_rhs:
        index = "leading exponent"
    elif num_lhs * den_rhs != num_rhs * den_lhs:
        index = 0
    else:
        index = next((i for i in range(1, prec + 1)
                      if any(rows[i]) and any(field.reduce_powers(rows[i]))), None)
    return index, lead_lhs, lead_rhs


def coefficient_by_units(field, prec, c, units, n):
    L = field.L
    rows = [[0] * L for _ in range(n + 1)]
    _, num, den = side_by_units(field, prec, c, units, rows, 1)
    theta = [[(j, t) for j, t in enumerate(r) if t] for r in rows]
    bm = [1] + [0] * (field.phi - 1)
    b = [[(0, 1)]]
    for m in range(1, n + 1):
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


def by_units():
    """distribution_check on the oracle."""
    return mock.patch.multiple(siegel, _first_mismatch=first_mismatch_by_units,
                               _coefficient=coefficient_by_units)


# -- mutants of the unit data ----------------------------------------------------

unit_factors = siegel.unit_factors
modified_unit_factors = siegel.modified_unit_factors


def dropped_binomial(scaled_only):
    """unit_factors with its last binomial dropped, on every unit or only on
    the units with scale > 1."""
    def mutant(alpha, beta, field, prec, scale=1):
        lead, a0, factors = unit_factors(alpha, beta, field, prec, scale)
        return lead, a0, factors[:-1] if scale > 1 or not scaled_only else factors
    return mutant


def doubled_constant(scaled_only):
    """modified_unit_factors with the constant a0 of g replaced by a0^2."""
    def mutant(alpha, beta, field, prec, scale, c):
        (w, (lead, a0, factors)), g_c = modified_unit_factors(alpha, beta, field, prec,
                                                              scale, c)
        if scale > 1 or not scaled_only:
            a0 = a0 * a0
        return [(w, (lead, a0, factors)), g_c]
    return mutant


def mutant_patch(kind, scaled_only):
    if kind == "dropped binomial":
        return mock.patch.object(siegel, "unit_factors", dropped_binomial(scaled_only))
    if kind == "doubled constant":
        return mock.patch.object(siegel, "modified_unit_factors", doubled_constant(scaled_only))
    return nullcontext()


# -- helpers ---------------------------------------------------------------------

def relation(N, b, M, c, prec):
    """(field, lhs, rhs) of distribution_check(0, b/N, M, c, prec)."""
    u, v, N, bnum = distribution_args(0, F(b, N), M, c, prec)
    lhs = [(0, QQ(bnum, N), u)]
    rhs = [(QQ(i, v), QQ(bnum + j * N, u * N), v) for i in range(v) for j in range(u)]
    return CyclotomicField(u * N), lhs, rhs


def typed(x):
    return type(x), x


def coefficient_view(f, *args):
    """f(*args) as its coordinates, each nonzero one with its type, or the
    error text.  A zero coordinate is an int 0 or a Fraction 0 according to
    which products reached it, and the two tables multiply the constants in
    different groupings; str() shows neither."""
    try:
        return [typed(x) if x else x for x in f(*args).coeffs]
    except ArithmeticError as e:
        return "raises", str(e)


@st.composite
def relations(draw):
    """(N, b, M, c, prec): N <= 12, m in {2, 3}, one of the three shapes, c
    coprime to 6N and prec in 0..80."""
    N = draw(st.integers(2, 12))
    b = draw(st.integers(1, N - 1))
    m = draw(st.sampled_from([2, 3]))
    M = _dist_shapes(m)[draw(st.sampled_from(["dist1", "dist2", "dist3"]))]
    c = draw(st.sampled_from([c for c in range(5, 60) if gcd(c, 6 * N) == 1]))
    return N, b, M, c, draw(st.integers(0, 80))


kinds = st.sampled_from([None, "dropped binomial", "doubled constant"])


# -- the differential tests --------------------------------------------------------

class TestAgainstPerUnitOracle:
    @given(relations(), kinds, st.booleans())
    @settings(max_examples=80, deadline=None)
    @example((5, 1, ((2, 0), (0, 1)), 7, 30), None, False)
    @example((3, 1, ((2, 0), (0, 2)), 5, 60), "dropped binomial", True)
    @example((4, 3, ((3, 0), (0, 1)), 7, 20), "doubled constant", True)
    def test_first_mismatch_and_coefficients(self, rel, kind, scaled_only):
        N, b, M, c, prec = rel
        field, lhs, rhs = relation(N, b, M, c, prec)
        with mutant_patch(kind, scaled_only):
            got = _first_mismatch(field, prec, c, lhs, rhs)
            want = first_mismatch_by_units(field, prec, c, lhs, rhs)
            assert [typed(x) for x in got] == [typed(x) for x in want]
            # the witness's coefficients, or a coefficient of a passing pair
            for n in ([got[0]] if isinstance(got[0], int) else [min(prec, 12)]):
                for units in (lhs, rhs):
                    assert (coefficient_view(_coefficient, field, prec, c, units, n)
                            == coefficient_view(coefficient_by_units, field, prec, c, units, n))

    @given(relations(), kinds, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_net_rows_are_the_per_unit_rows(self, rel, kind, scaled_only):
        # theta is additive in the exponents: sieving the net table gives
        # the rows the per-unit sieve gives, int for int
        N, b, M, c, prec = rel
        field, lhs, rhs = relation(N, b, M, c, prec)
        with mutant_patch(kind, scaled_only):
            net, consts = {}, {}
            _side(field, prec, c, lhs, net, consts, 1)
            _side(field, prec, c, rhs, net, consts, -1)
            got = [[0] * field.L for _ in range(prec + 1)]
            sieve_rows(got, ((f, -w * f[1]) for f, w in net.items() if w), field.L)
            want = [[0] * field.L for _ in range(prec + 1)]
            side_by_units(field, prec, c, lhs, want, 1)
            side_by_units(field, prec, c, rhs, want, -1)
        assert got == want
        assert all(type(x) is int for r in got for x in r)
        assert all(type(w) is int for w in (*net.values(), *consts.values()))

    @pytest.mark.parametrize("m", [2, 3])
    def test_diag_one_m_nets_to_nothing(self, m):
        # g(z) = prod_i g((i/m, beta); m z) binomial for binomial: no net
        # exponent is left, so the relation sieves nothing
        M = _dist_shapes(m)["dist2"]
        for N in range(2, 13):
            for c in (5, 7, 11, 13):
                if gcd(c, 6 * N) != 1:
                    continue
                for b in range(1, N):
                    field, lhs, rhs = relation(N, b, M, c, 40)
                    net, consts = {}, {}
                    _side(field, 40, c, lhs, net, consts, 1)
                    _side(field, 40, c, rhs, net, consts, -1)
                    assert net and not any(net.values()), (N, b, c)
                    assert not any(consts.values()), (N, b, c)


# -- a one-sided mutant for diag(1, m) ---------------------------------------------

DIAG_ONE_M = [(N, m, c, prec) for N in (3, 4, 5, 7) for m in (2, 3) for c in (5, 7, 11)
              if gcd(c, 6 * N) == 1 for prec in (10, 20, 30, 60)]


class TestOneSidedMutant:
    """diag(1, m) sieves nothing, so a sieve mutant cannot reach it; dropping
    the last binomial of the units with scale > 1 (the right side's only)
    must fail every such relation at a coefficient, with the oracle's
    witness."""

    def test_grid_size(self):
        assert len(DIAG_ONE_M) == 80

    @pytest.mark.parametrize("N,m,c,prec", DIAG_ONE_M)
    def test_fails_at_a_coefficient(self, N, m, c, prec):
        M = _dist_shapes(m)["dist2"]
        assert distribution_check(0, F(1, N), M, c, prec)[0]
        with mutant_patch("dropped binomial", True):
            got = distribution_check(0, F(1, N), M, c, prec)
            with by_units():
                want = distribution_check(0, F(1, N), M, c, prec)
        assert got == want
        ok, witness = got
        assert not ok
        mismatch = witness["mismatch"]
        assert type(mismatch["index"]) is int and 1 <= mismatch["index"] <= prec
        assert mismatch["lhs"] != mismatch["rhs"]

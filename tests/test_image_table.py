"""The sparse image table of Q(zeta_L) and the two sieves that feed it.

Each reader of the table, and each sieve, is checked against the dense body
it replaced, kept here as its oracle: the same rows and the same reduced
vectors, with the same types (ints stay ints).
"""

import random
import re
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankin import siegel
from rankin.cyclo import CycloElt, CyclotomicField
from rankin.eisenstein import _divisor_rows, sieve_rows
from rankin.otsuki import CycloCover, project_to_field
from rankin.poly import PolyRing
from rankin.qseries import QSeries
from rankin.siegel import (_dist_shapes, distribution_check, dlog_matches_weight_two,
                           siegel_scaled, unit_factors)
from conftest import CATALOG_ALPHAS, DLOG_MUTANTS, dlog_by_series


# -- oracles: the dense bodies the table replaced ------------------------------

def redrows(K):
    """x^k mod Phi_L for 0 <= k <= 2 phi - 2, as dense rows."""
    return [K._powers[k % K.L] for k in range(2 * K.phi - 1)]


def reduce_powers_dense(K, row):
    out = [0] * K.phi
    for x, power in zip(row, K._powers):
        if x:
            for i, r in enumerate(power):
                if r:
                    out[i] += x * r
    return out


def mul_dense(x, y):
    """CycloElt x * y, reduced through the dense rows."""
    phi = x.ring.phi
    conv = [0] * (2 * phi - 1)
    for i, a in enumerate(x.coeffs):
        if a:
            for j, b in enumerate(y.coeffs):
                if b:
                    conv[i + j] += a * b
    out = conv[:phi]
    rows = redrows(x.ring)
    for k in range(phi, 2 * phi - 1):
        c = conv[k]
        if c:
            for i in range(phi):
                r = rows[k][i]
                if r:
                    out[i] += c * r
    return out


def project_to_field_dense(cover, vec):
    powers = CyclotomicField(cover.M)._powers
    nums, den = vec
    out = [cover.ring.zero()] * len(powers[0])
    for k, x in enumerate(nums):
        if x:
            for i, c in enumerate(powers[k]):
                if c:
                    out[i] = out[i] + x * c
    return out, den


def add_theta_dense(rows, factors, w, L):
    for b, e in factors:
        x = w * e
        for k, i in enumerate(range(e, len(rows), e), 1):
            rows[i][b * k % L] -= x


def divisor_rows_dense(N, a, sign, wd, wq, prec, shift=0):
    num = int if wd >= 0 and wq >= 0 else F
    mpow = [num(m) ** wq for m in range(1, prec + 1)]
    rows = [[0] * N for _ in range(prec + 1)]
    for d in range(1, prec + 1):
        dw, i, j = num(d) ** wd, a * d % N, -a * d % N
        for m, mw in enumerate(mpow[:prec // d], 1):
            w = dw * mw
            row = rows[d * m]
            row[i] += w
            row[j] += sign * w
            row[0] += shift * w
    return rows


def typed(vec):
    return [(type(x), x) for x in vec]


def nonzero_typed(vec):
    return [(i, type(x), x) for i, x in enumerate(vec) if x]


# -- strategies ----------------------------------------------------------------

conductors = st.integers(1, 40)
seeds = st.integers(0, 2 ** 32)


def rational(rng):
    """A small int, a small Fraction (maybe integral) or Fraction(0)."""
    kind = rng.randrange(4)
    x = rng.randint(-6, 6)
    return x if kind < 2 else F(x, rng.randint(1, 4)) if kind == 2 else F(0)


@st.composite
def unit_args(draw, prec=st.integers(0, 150)):
    """(alpha, beta, field, prec, scale) of a Siegel unit, with <alpha> =
    a/d, scale a multiple of d (so t = scale a / d may be > 0) and beta of
    order dividing L."""
    bd = draw(st.integers(1, 8))
    L = bd * draw(st.integers(1, 40 // bd))
    d = draw(st.integers(1, 4))
    a = draw(st.integers(0, d - 1))
    bn = draw(st.integers(0 if a else 1, bd - 1)) if bd > 1 or a else None
    if bn is None:          # (0, 0) is no unit: take alpha = 1/2 instead
        a, d, bn = 1, 2, 0
    scale = d * draw(st.integers(1, 3))
    return F(a, d), F(bn, bd), CyclotomicField(L), draw(prec), scale


def unit_data(prec=st.integers(0, 150)):
    """(field, prec, factors) of a Siegel unit from unit_factors."""
    return unit_args(prec).map(lambda args: (args[2], args[3], unit_factors(*args)[2]))


# -- the table's readers -------------------------------------------------------

class TestReaders:
    @given(conductors, seeds)
    @settings(max_examples=60, deadline=None)
    def test_reduce_powers(self, L, seed):
        K, rng = CyclotomicField(L), random.Random(seed)
        row = [rational(rng) for _ in range(L)]
        assert typed(K.reduce_powers(row)) == typed(reduce_powers_dense(K, row))
        ints = [x.numerator for x in row]
        got = K.reduce_powers(ints)
        assert got == reduce_powers_dense(K, ints)
        assert all(type(x) is int for x in got)

    @given(conductors, seeds)
    @settings(max_examples=60, deadline=None)
    @example(37, None)
    def test_cyclo_mul(self, L, seed):
        K, rng = CyclotomicField(L), random.Random(seed)
        if seed is None:    # every coordinate nonzero at the largest phi
            x = y = CycloElt(K, tuple(range(1, K.phi + 1)))
        else:
            x, y = (CycloElt(K, tuple(rational(rng) for _ in range(K.phi)))
                    for _ in range(2))
        assert typed((x * y).coeffs) == typed(mul_dense(x, y))

    @given(conductors, seeds)
    @settings(max_examples=30, deadline=None)
    def test_project_to_field(self, M, seed):
        ring, rng = PolyRing(("tau2", "tau3")), random.Random(seed)
        t2, t3 = ring.vars()
        nums = [rng.choice((0, 1, -2)) + rng.randint(-3, 3) * t2
                + rng.randint(-3, 3) * t2 * t3 for _ in range(M)]
        cover = CycloCover(M, ring)
        (got, gd), (want, wd) = (f(cover, (nums, ring.one()))
                                 for f in (project_to_field, project_to_field_dense))
        assert gd.terms == wd.terms
        assert [(type(x), x.terms) for x in got] == [(type(x), x.terms) for x in want]


# -- the product of a net table ------------------------------------------------

class TestProductRows:
    @given(unit_args(st.integers(0, 80)))
    @settings(max_examples=40, deadline=None)
    @example((F(1, 3), F(1, 2), CyclotomicField(6), 80, 6))   # scale > 1, 2b = 0 mod L
    @example((F(0), F(1, 2), CyclotomicField(2), 80, 1))      # each binomial twice
    @example((F(1, 2), F(0), CyclotomicField(1), 0, 2))
    def test_siegel_scaled_is_the_binomial_product(self, args):
        # the oracle multiplies by one binomial (1 - zeta^b q^e) at a time
        field, prec = args[2], args[3]
        lead, a0, factors = unit_factors(*args)
        s = QSeries.one(field, prec + 1)
        for b, e in factors:
            s = s.mul_one_minus(field.zeta(b), e)
        got = siegel_scaled(*args)
        assert (got.lead, got.prec, got.unit) == (lead, prec + 1, True)
        assert ([typed(c.coeffs) for c in got.coeffs]
                == [typed((a0 * c).coeffs) for c in s.coeffs])
        assert all(type(x) is int for c in got.coeffs for x in c.coeffs)


# -- the sieves ----------------------------------------------------------------

class TestSieves:
    @given(unit_data(), st.sampled_from([1, -1, 49, -25, 3]))
    @settings(max_examples=60, deadline=None)
    def test_add_theta(self, unit, w):
        # theta of (1 - zeta^b q^e)^w is sieve_rows's entry ((b, e), -w e)
        field, prec, factors = unit
        got = [[0] * field.L for _ in range(prec + 1)]
        want = [[0] * field.L for _ in range(prec + 1)]
        sieve_rows(got, [(f, -w * f[1]) for f in factors], field.L)
        add_theta_dense(want, factors, w, field.L)
        assert got == want
        assert all(type(c) is int for r in got for c in r)
        assert ([field.reduce_powers(r) for r in got]
                == [reduce_powers_dense(field, r) for r in want])

    @given(conductors, st.integers(0, 150),
           st.lists(st.tuples(st.integers(-90, 90), st.integers(1, 160)), max_size=8),
           st.integers(-6, 6))
    @settings(max_examples=40, deadline=None)
    def test_add_theta_any_exponents(self, L, prec, factors, w):
        # exponents b outside [0, L) and multiplicities e past the last row
        got = [[0] * L for _ in range(prec + 1)]
        want = [[0] * L for _ in range(prec + 1)]
        sieve_rows(got, [(f, -w * f[1]) for f in factors], L)
        add_theta_dense(want, factors, w, L)
        assert got == want

    @given(conductors, st.integers(0, 39), st.sampled_from([1, -1]), st.integers(-3, 4),
           st.integers(-3, 4), st.integers(0, 150), st.sampled_from([0, -2]))
    @settings(max_examples=40, deadline=None)
    @example(5, 1, 1, 1, 0, 40, -2)      # the Etilde shift
    @example(7, 2, -1, -2, 3, 30, 0)     # a negative wd: Fraction rows
    @example(7, 3, 1, 2, -1, 30, -2)     # a negative wq, with the shift
    def test_divisor_rows(self, N, a, sign, wd, wq, prec, shift):
        a %= N
        got = _divisor_rows(N, a, sign, wd, wq, prec, shift)
        want = divisor_rows_dense(N, a, sign, wd, wq, prec, shift)
        assert got == want
        if wd >= 0 and wq >= 0:
            assert [typed(r) for r in got] == [typed(r) for r in want]
        else:
            # the oracle added shift * w = Fraction(0) to coordinate 0 even
            # with no shift; every nonzero entry has the oracle's type
            assert [nonzero_typed(r) for r in got] == [nonzero_typed(r) for r in want]
        K = CyclotomicField(N)
        assert ([typed(K.reduce_powers(r)) for r in got]
                == [typed(reduce_powers_dense(K, r)) for r in want])


# -- a sieve that drops a multiple must fail the checks --------------------------

def sieve_without_last_multiple(rows, pairs, L):
    """sieve_rows with the last multiple of each e dropped."""
    for (b, e), x in pairs:
        j = 0
        for row in rows[e::e][:-1]:
            j += b
            row[j % L] += x


class TestSieveMutant:
    def test_dlog_fails_at_a_coefficient(self, monkeypatch):
        assert dlog_matches_weight_two(F(1, 5), 30) == (True, None)
        # a PASS sieves nothing, so the sieve mutant alone leaves it a PASS;
        # with the last binomial moved past q^30, the one entry left at
        # each e = 30 is sieved only into row 30, the last multiple
        monkeypatch.setattr(*DLOG_MUTANTS["last-binomial-moved"])
        expected = [dlog_by_series(alpha, 30) for alpha in CATALOG_ALPHAS]
        assert [dlog_matches_weight_two(alpha, 30) for alpha in CATALOG_ALPHAS] == expected
        for ok, witness in expected:
            # the witness reads both sides off the series path, which has
            # no sieve: it names the coefficient the rows decided on
            assert not ok and type(witness["exponent"]) is int
            assert 1 <= witness["exponent"] <= 30
        monkeypatch.setattr(siegel, "sieve_rows", sieve_without_last_multiple)
        got = [dlog_matches_weight_two(alpha, 30) for alpha in CATALOG_ALPHAS]
        assert got == [(True, None)] * len(CATALOG_ALPHAS)

    def test_distribution_fails_at_a_coefficient(self, monkeypatch):
        args = (0, F(1, 3), ((2, 0), (0, 1)), 7, 30)
        assert distribution_check(*args)[0]
        monkeypatch.setattr(siegel, "sieve_rows", sieve_without_last_multiple)
        ok, witness = distribution_check(*args)
        assert not ok
        mismatch = witness["mismatch"]
        assert type(mismatch["index"]) is int and 1 <= mismatch["index"] <= 30
        assert mismatch["lhs"] != mismatch["rhs"]

    def test_witness_of_a_non_integral_side(self, monkeypatch):
        # the mutant's theta need not be the dlog of a series over Z[zeta]:
        # the witness names the index, and each side whose coefficient is
        # not integral says so, in place of a coefficient
        monkeypatch.setattr(siegel, "sieve_rows", sieve_without_last_multiple)
        grid = [(N, M, c, prec) for N in (3, 4, 5) for m in (2, 3)
                for M in _dist_shapes(m).values() for c in (5, 7) if c != N
                for prec in (10, 20, 30, 60)]
        failed = not_integral = 0
        for N, M, c, prec in grid:
            ok, witness = distribution_check(0, F(1, N), M, c, prec)
            if not ok:
                failed += 1
                mismatch = witness["mismatch"]
                assert type(mismatch["index"]) is int and 1 <= mismatch["index"] <= prec
                for side in ("lhs", "rhs"):
                    if "integral" in mismatch[side]:
                        assert re.fullmatch(r"coefficient \d+ of a Siegel product is "
                                            r"not integral", mismatch[side])
                        not_integral += 1
        assert len(grid) == 120 and failed >= 40 and not_integral > 0

"""The sparse image table of Q(zeta_L) and the two sieves that feed it.

Each reader of the table, and each sieve, is checked against the dense body
it replaced, kept here as its oracle: the same rows and the same reduced
vectors, with the same types (ints stay ints).
"""

import random
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankin import siegel
from rankin.cyclo import (CycloElt, CyclotomicField, pack_slots, slot_bytes, truncate_slots,
                          unpack_slots)
from rankin.eisenstein import _divisor_rows
from rankin.otsuki import CycloCover, project_to_field
from rankin.poly import PolyRing
from rankin.siegel import (_add_theta, _binomial_product, distribution_check,
                           dlog_matches_weight_two, unit_factors)


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


def mul_rows_dense(K, a, b, n):
    if n <= 0:
        return []
    phi = K.phi
    stride = 2 * phi - 1
    square = b is a
    a, b = a[:n], b[:n]
    ma = max((abs(c) for r in a for c in r), default=0)
    mb = ma if square else max((abs(c) for r in b for c in r), default=0)
    wb = slot_bytes(max(n * phi * ma * mb, ma, mb))
    gap = [0] * (phi - 1)
    x = pack_slots([c for r in a for c in r + gap], wb)
    y = x if square else pack_slots([c for r in b for c in r + gap], wb)
    slots = unpack_slots(x * y, n * stride, wb)
    rows = redrows(K)
    reducers = [(k, [(j, r) for j, r in enumerate(rows[k]) if r])
                for k in range(phi, stride)]
    out = []
    for i in range(0, n * stride, stride):
        row = slots[i:i + phi]
        for k, red in reducers:
            c = slots[i + k]
            if c:
                for j, r in red:
                    row[j] += c * r
        out.append(row)
    return out


def binomial_product_dense(field, factors, n):
    L, phi, powers = field.L, field.phi, field._powers
    count = [1] + [0] * (n - 1)
    for _, e in factors:
        count[e:] = [x + y for x, y in zip(count[e:], count[:n - e])]
    wb = slot_bytes(max(abs(x) for row in powers for x in row) * max(count))
    width = 8 * wb
    images = [[(k, v) for k, v in enumerate(row) if v] for row in powers]
    S = [1] + [0] * (phi - 1)
    for c, e in factors:
        T = [0] * phi
        for j, s in enumerate(S):
            if s:
                for k, v in images[(j + c) % L]:
                    T[k] += v * s
        for k, t in enumerate(T):
            if t:
                S[k] -= truncate_slots(t, n - e, wb) << (width * e)
    return [list(r) for r in zip(*(unpack_slots(s, n, wb) for s in S))]


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
def unit_data(draw, prec=st.integers(0, 150)):
    """(field, prec, factors) of a Siegel unit from unit_factors, with
    <alpha> = a/d, scale a multiple of d (so t = scale a / d may be > 0) and
    beta of order dividing L."""
    bd = draw(st.integers(1, 8))
    L = bd * draw(st.integers(1, 40 // bd))
    d = draw(st.integers(1, 4))
    a = draw(st.integers(0, d - 1))
    bn = draw(st.integers(0 if a else 1, bd - 1)) if bd > 1 or a else None
    if bn is None:          # (0, 0) is no unit: take alpha = 1/2 instead
        a, d, bn = 1, 2, 0
    scale = d * draw(st.integers(1, 3))
    field, p = CyclotomicField(L), draw(prec)
    return field, p, unit_factors(F(a, d), F(bn, bd), field, p, scale)[2]


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

    @given(conductors, st.integers(0, 150), st.booleans(), seeds)
    @settings(max_examples=40, deadline=None)
    def test_mul_rows(self, L, prec, square, seed):
        # rows from a seeded generator: drawing 151 rows of phi ints each
        # through hypothesis costs more than the products
        K, rng = CyclotomicField(L), random.Random(seed)
        n = rng.randint(0, prec + 1)
        a, b = ([[rng.randint(-50, 50) for _ in range(K.phi)] for _ in range(n + 1)]
                for _ in range(2))
        b = a if square else b
        got = K.mul_rows(a, b, n)
        assert got == mul_rows_dense(K, a, b, n)
        assert all(type(c) is int for r in got for c in r)

    @given(unit_data(st.integers(0, 60)))
    @settings(max_examples=40, deadline=None)
    def test_binomial_product(self, unit):
        field, prec, factors = unit
        got = _binomial_product(field, factors, prec + 1)
        assert got == binomial_product_dense(field, factors, prec + 1)
        assert all(type(c) is int for r in got for c in r)

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


# -- the sieves ----------------------------------------------------------------

class TestSieves:
    @given(unit_data(), st.sampled_from([1, -1, 49, -25, 3]))
    @settings(max_examples=60, deadline=None)
    def test_add_theta(self, unit, w):
        field, prec, factors = unit
        got = [[0] * field.L for _ in range(prec + 1)]
        want = [[0] * field.L for _ in range(prec + 1)]
        _add_theta(got, factors, w, field.L)
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
        _add_theta(got, factors, w, L)
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

def add_theta_without_last_multiple(rows, factors, w, L):
    """_add_theta with the last multiple of each e dropped."""
    for b, e in factors:
        x, j = w * e, 0
        for row in rows[e::e][:-1]:
            j = (j + b) % L
            row[j] -= x


class TestSieveMutant:
    def test_dlog_fails_at_a_coefficient(self, monkeypatch):
        assert dlog_matches_weight_two(F(1, 5), 30) == (True, None)
        monkeypatch.setattr(siegel, "_add_theta", add_theta_without_last_multiple)
        ok, witness = dlog_matches_weight_two(F(1, 5), 30)
        assert not ok
        # the witness reads both sides off the series path, which has no
        # theta sieve: it names the coefficient the rows decided on
        assert type(witness["exponent"]) is int and 1 <= witness["exponent"] <= 30

    def test_distribution_fails_at_a_coefficient(self, monkeypatch):
        args = (0, F(1, 3), ((2, 0), (0, 1)), 7, 30)
        assert distribution_check(*args)[0]
        monkeypatch.setattr(siegel, "_add_theta", add_theta_without_last_multiple)
        ok, witness = distribution_check(*args)
        assert not ok
        mismatch = witness["mismatch"]
        assert type(mismatch["index"]) is int and 1 <= mismatch["index"] <= 30
        assert mismatch["lhs"] != mismatch["rhs"]

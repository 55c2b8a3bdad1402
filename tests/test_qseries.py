"""The truncated-series container itself: precision bookkeeping, unit
inversion, exponent-lattice alignment, and ring axioms on random series."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankin.cyclo import CyclotomicField
from rankin.groupring import RATIONALS
from rankin.qseries import (PrecisionError, QSeries, _recurrence_inverse,
                            _schoolbook_mul)

K = CyclotomicField(1)


def series(coeffs, lead=0, unit=False):
    return QSeries(K, lead, [K.coerce(c) for c in coeffs], unit=unit)


rational = st.fractions(min_value=-5, max_value=5,
                        max_denominator=6)


@st.composite
def random_series(draw, n=6, unit=False):
    coeffs = [draw(rational) for _ in range(n)]
    if unit:
        c0 = draw(rational.filter(lambda x: x != 0))
        coeffs[0] = c0
    return series(coeffs, unit=unit)


class TestAxioms:
    @given(random_series(), random_series(), random_series())
    @settings(max_examples=25, deadline=None)
    def test_distributivity_and_associativity(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    @given(random_series(unit=True))
    @settings(max_examples=25, deadline=None)
    def test_unit_inverse(self, a):
        assert (a * a.inverse()).truncate(a.prec) == QSeries.one(K, a.prec)

    @given(random_series(unit=True), random_series(unit=True))
    @settings(max_examples=20, deadline=None)
    def test_dlog_is_additive(self, a, b):
        assert (a * b).dlog() == a.dlog() + b.dlog()

    def test_inverse_of_integer_series_is_exact(self):
        s = QSeries(RATIONALS, 0, [2, 1, 0, 0])
        for inv in (s.inverse(), s ** -1):
            assert all(type(c) is F for c in inv.coeffs)
            assert inv.coeffs == [F(1, 2), F(-1, 4), F(1, 8), F(-1, 16)]


class TestPrecision:
    def test_coefficient_beyond_window(self):
        s = series([1, 2, 3])
        assert s.coefficient(2) == K.coerce(3)
        with pytest.raises(PrecisionError):
            s.coefficient(3)

    def test_off_lattice_coefficient_is_zero(self):
        s = series([1, 2], lead=F(1, 12))
        assert s.coefficient(0).is_zero()
        assert s.coefficient(F(1, 12) + 1) == K.coerce(2)

    def test_multiplication_window(self):
        a = series([1] * 10)
        b = series([1] * 4)
        assert (a * b).prec == 4

    def test_incompatible_lattices_rejected(self):
        a = series([1, 2], lead=F(1, 12))
        b = series([1, 2], lead=F(1, 7))
        with pytest.raises(ValueError, match="lattice"):
            a + b

    def test_aligned_fractional_lattices_add(self):
        a = series([1, 2], lead=F(1, 12))
        b = series([5, 7], lead=F(13, 12))
        s = a + b
        assert s.coefficient(F(1, 12)) == K.coerce(1)
        assert s.coefficient(F(13, 12)) == K.coerce(7)

    def test_subst_power_scales_lead(self):
        a = series([1, 2, 3], lead=F(1, 2))
        b = a.subst_power(2)
        assert b.lead == 1
        assert b.coefficient(3) == K.coerce(2)

    def test_qdq_uses_exact_exponents(self):
        a = series([1, 2], lead=F(1, 12))
        d = a.qdq()
        assert d.coefficient(F(1, 12)) == K.coerce(F(1, 12))
        assert d.coefficient(F(13, 12)) == K.coerce(2 * F(13, 12))


def test_operands_over_another_ring_raise():
    K5 = CyclotomicField(5)
    q_series = QSeries(RATIONALS, 0, [F(1), F(2)])
    k_series = QSeries(K5, 0, [K5.one(), K5.zeta()])
    for x, y in ((q_series, k_series), (k_series, q_series)):
        with pytest.raises(TypeError):
            x + y
        with pytest.raises(TypeError):
            x * y
    for x, y in ((q_series, K5.zeta()), (K5.zeta(), q_series)):
        with pytest.raises(TypeError):
            x * y
    # scalars of the series' own ring, and rationals, still combine
    assert (k_series * K5.zeta()).coefficient(0) == K5.zeta()
    assert (q_series + 1).coefficient(0) == 2 and (q_series * F(1, 2)).ring is RATIONALS


@pytest.mark.parametrize("ring, scalars", [
    (RATIONALS, (1, F(1, 2))),
    (CyclotomicField(5), (1, F(1, 2), CyclotomicField(5).zeta()))])
def test_scalars_add_subtract_and_divide(ring, scalars):
    # a scalar of the coefficient ring, or a rational, is coerced into it
    s = QSeries(ring, 0, [ring.coerce(c) for c in (2, 0, -1, F(3, 4))])
    for c in scalars:
        assert s - c == s + (-c)
        assert (s - c) + c == s
        assert (s / c) * c == s
    for bad in (CyclotomicField(7).zeta(), 0.5, "1"):
        for op in (lambda x: s + x, lambda x: s - x, lambda x: s / x):
            with pytest.raises(TypeError):
                op(bad)


def test_cyclotomic_scalar_on_either_side_of_a_series():
    # CycloElt defers to the series for an operand it does not know, so the
    # scalar may stand on the left; a float is still refused on both sides
    K5 = CyclotomicField(5)
    z = K5.zeta()
    s = QSeries(K5, 0, [K5.coerce(c) for c in (2, 0, -1, F(3, 4))])
    assert z + s == s + z and (z + s).ring is K5
    assert z - s == -s + z == -(s - z)
    assert z - (s + z) == -s
    for op in (lambda: z + 0.5, lambda: 0.5 + z, lambda: z - 0.5):
        with pytest.raises(TypeError):
            op()


# -- packed paths over Q(zeta_L) against the schoolbook and recurrence oracles

CONDUCTORS = (1, 2, 3, 4, 5, 12, 35)
leads = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@st.composite
def cyclo_series(draw, field=None, unit=False, max_prec=8):
    """A series over Q(zeta_L) with rational coordinates, zero coefficients
    (leading ones included) and a fractional or negative lead."""
    K = field or CyclotomicField(draw(st.sampled_from(CONDUCTORS)))
    prec = draw(st.integers(min_value=1 if unit else 0, max_value=max_prec))
    coordinate = st.one_of(st.just(F(0)), rational)
    coeffs = []
    for _ in range(prec):
        if draw(st.booleans()):
            coeffs.append(K.zero())
        else:
            coeffs.append(K.from_coeffs(
                [draw(coordinate) for _ in range(K.phi)]))
    if unit and coeffs[0].is_zero():
        coeffs[0] = K.coerce(draw(rational.filter(lambda x: x != 0)))
    return QSeries(K, draw(leads), coeffs, unit=unit, normalize=False)


def exact_view(s):
    return s.lead, s.prec, tuple(c.coeffs for c in s.coeffs), str(s)


def schoolbook(a, b):
    n = min(a.prec, b.prec)
    return QSeries(a.ring, a.lead + b.lead,
                   _schoolbook_mul(a.ring, a.coeffs, b.coeffs, n),
                   unit=a.unit and b.unit)


def schoolbook_power(a, n):
    """a^n by the power loop as it was before it took a product argument:
    from QSeries.one, multiplying by schoolbook products."""
    result = QSeries.one(a.ring, a.prec)
    x = a
    while n:
        if n & 1:
            result = schoolbook(result, x)
        n >>= 1
        if n:
            x = schoolbook(x, x)
    return result


POWERS = (0, 1, 2, 3, 7, 25, 49)


@st.composite
def cyclo_pairs(draw):
    a = draw(cyclo_series())
    return a, draw(cyclo_series(field=a.ring))


class TestPackedPaths:
    @given(cyclo_pairs())
    @settings(max_examples=80, deadline=None)
    def test_product_matches_schoolbook(self, pair):
        a, b = pair
        assert exact_view(a * b) == exact_view(schoolbook(a, b))

    @given(cyclo_series())
    @settings(max_examples=40, deadline=None)
    def test_square_matches_schoolbook(self, a):
        assert exact_view(a * a) == exact_view(schoolbook(a, a))

    @pytest.mark.parametrize("L", CONDUCTORS)
    @pytest.mark.parametrize("prec", [0, 1])
    def test_zero_and_short_series(self, L, prec):
        K = CyclotomicField(L)
        zero = QSeries.zero(K, prec, lead=F(-1, 3))
        other = QSeries(K, 2, [K.zeta(1) * F(-5, 2)] * 3)
        for a, b in ((zero, other), (other, zero), (zero, zero)):
            assert exact_view(a * b) == exact_view(schoolbook(a, b))

    @pytest.mark.parametrize("L", [2, 12])
    def test_slot_width_at_worst_case(self, L):
        # equal-signed extreme coordinates make the convolution sums reach the
        # slot bound; bit lengths 1..16 put it at every offset within a byte
        K = CyclotomicField(L)
        for bits in range(1, 17):
            top = 2 ** bits - 1
            a = QSeries(K, 0, [K.from_coeffs([top] * K.phi)] * 12)
            b = QSeries(K, 0, [K.from_coeffs([-top] * K.phi)] * 9)
            assert exact_view(a * b) == exact_view(schoolbook(a, b))
            assert exact_view(a * a) == exact_view(schoolbook(a, a))

    @given(cyclo_series(unit=True))
    @settings(max_examples=60, deadline=None)
    def test_inverse_matches_recurrence(self, a):
        oracle = QSeries(a.ring, -a.lead, _recurrence_inverse(a.ring, a.coeffs),
                         unit=True, normalize=False)
        assert exact_view(a.inverse()) == exact_view(oracle)

    @given(cyclo_series(), st.sampled_from(POWERS))
    @settings(max_examples=40, deadline=None)
    def test_power_matches_schoolbook_chain(self, a, n):
        assert exact_view(a ** n) == exact_view(schoolbook_power(a, n))

    @pytest.mark.parametrize("L", [1, 5, 12])
    @pytest.mark.parametrize("n", POWERS)
    def test_power_of_short_zero_and_unnormalized_series(self, L, n):
        K = CyclotomicField(L)
        c = K.from_coeffs([F(-3, 4)] + [F(1, 3)] * (K.phi - 1))
        cases = [QSeries.zero(K, prec, lead=F(-1, 3)) for prec in (0, 1, 5)]
        cases += [QSeries(K, F(2, 5), [c], normalize=False),
                  QSeries(K, 1, [K.zero(), K.zero(), c, K.zeta(1)], normalize=False),
                  QSeries(K, -1, [K.zero()] * 3 + [c, K.one(), c], normalize=False)]
        for a in cases:
            assert exact_view(a ** n) == exact_view(schoolbook_power(a, n))

    def test_long_inverse_non_unit_constant(self):
        # c_0 = 1 - zeta_5 is not a unit of Z[zeta_5] (its norm is 5), so
        # c_0^-1 has denominator 5; the tail has Fraction coordinates
        K = CyclotomicField(5)
        coeffs = [K.one() - K.zeta(1)] + [
            K.from_coeffs([F(i % 5 - 2, 1 + i % 3), F(i % 2), F(-1, 7), F(3 * i % 4, 2)])
            for i in range(1, 44)]
        assert K.rows([coeffs[0].inverse()])[0] == 5
        oracle = _recurrence_inverse(K, coeffs)
        s = QSeries(K, F(-2, 5), coeffs, unit=True)
        assert [c.coeffs for c in s.inverse().coeffs] == [c.coeffs for c in oracle]

    def test_long_integral_inverse(self):
        # enough terms for several Newton steps, over Z[zeta_12] with a
        # non-unit constant term as in the Siegel products
        K = CyclotomicField(12)
        coeffs = [K.one() - K.zeta(5)] + [K.from_coeffs([(3 * i) % 7 - 3, i % 2, 0, -1])
                                            for i in range(1, 40)]
        oracle = _recurrence_inverse(K, coeffs)
        s = QSeries(K, F(1, 12), coeffs, unit=True)
        assert [c.coeffs for c in s.inverse().coeffs] == [c.coeffs for c in oracle]

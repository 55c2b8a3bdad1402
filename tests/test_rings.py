"""Exact-arithmetic foundation: polynomials, cyclotomic fields, quotient
rings, group rings.  Ring axioms run as property tests on random elements."""

from fractions import Fraction as F
from math import gcd, isqrt, prod
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import poly_gcd, solve
from rankin.arith import VerificationError, crt, euler_phi, factor, power
import rankin.cyclo
from rankin.cyclo import CyclotomicField, check_conductor
from rankin.forms import load_bundled
from rankin.groupring import RATIONALS, GroupRing, augment_mod
from rankin import poly as poly_module
from rankin.poly import (MPoly, PolyRing, QQ, RatFunc, _exact_div_laurent, _zdiv,
                         cyclotomic_polynomial, poly_add, poly_divmod, poly_eval,
                         poly_mul, poly_trim, poly_xgcd, power_rows)
from rankin.qseries import QSeries
from rankin.quotring import QuotElt, QuotRing, ZeroDivisor, join


class TestMPoly:
    def setup_method(self):
        self.R = PolyRing(("x", "y", "s"), invertible={"s"})

    def test_arith(self):
        x, y, s = self.R.vars()
        assert (x + y) ** 2 == x * x + 2 * x * y + y * y
        assert ((x + y) ** 3).coefficients_in("x") == {3: self.R.one(), 2: 3 * y,
                                                       1: 3 * y * y, 0: y ** 3}
        assert (s ** -2 * x) * s ** 2 == x

    def test_exact_division(self):
        x, y, _ = self.R.vars()
        p = (x + y) ** 2 * (x - y)
        assert p.exact_div(x + y) == (x + y) * (x - y)
        with pytest.raises(ValueError):
            (x * x + y).exact_div(x + y)

    def test_exact_division_by_laurent_units(self):
        # s is invertible, so a monomial in s divides every Laurent polynomial
        x, y, s = self.R.vars()
        one = self.R.one()
        assert one.exact_div(s) == s ** -1
        assert x.exact_div(x * s) == s ** -1
        assert (s ** -1).exact_div(s) == s ** -2
        assert ((x + s) * (x * s - y)).exact_div(x * s * s - y * s) == x * s ** -1 + 1
        with pytest.raises(ValueError):
            x.exact_div(y * s)

    def test_zero_has_no_inverse(self):
        s = self.R.var("s")
        with pytest.raises(ZeroDivisionError):
            self.R.zero().inverse()
        with pytest.raises(ZeroDivisionError):
            (s ** -1).subs({"s": self.R.zero()})

    def test_empty_substitution_into_a_constant(self):
        R = PolyRing(("x",))
        for p, want in ((R.zero(), 0), (R.const(5), 5)):
            got = p.subs({})
            assert got == want and type(got) is F

    def test_ratfunc_equality_cross_multiplies(self):
        x, y, _ = self.R.vars()
        assert RatFunc(x * x - y * y, x - y) == x + y
        assert RatFunc(x, y) != RatFunc(y, x)
        assert RatFunc(x, y) and not RatFunc(x - x, y)

    def test_laurent_denominator_normalization(self):
        x, y, s = self.R.vars()
        r = RatFunc(x, y * s ** 3)
        assert min(r.den.coefficients_in("s")) == 0

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    @settings(max_examples=25, deadline=None)
    def test_ring_axioms(self, a, b, c):
        x, y, _ = self.R.vars()
        p = x * a + y * b + c
        q = y * c - x + a
        r = x * x * b + y
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)


class TestCyclotomic:
    def test_conductor_bound(self, monkeypatch):
        # 997 * 996 entries are within the bound, 1009 * 1008 are not; a
        # conductor above the bound is refused before it is factored
        check_conductor(997)
        for L in (1009, 2310, 0, -3):
            with pytest.raises(ValueError, match="conductor"):
                check_conductor(L)

        def refuse(*args):
            raise AssertionError("factored or tabulated a refused conductor")
        monkeypatch.setattr(rankin.cyclo, "euler_phi", refuse)
        with pytest.raises(ValueError, match="conductor 1000001 needs"):
            check_conductor(10 ** 6 + 1)

    def test_refused_field_builds_and_caches_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table was built for a refused conductor")
        monkeypatch.setattr(rankin.cyclo, "cyclotomic_polynomial", refuse)
        monkeypatch.setattr(rankin.cyclo, "power_rows", refuse)
        for L in (1009, 100003, 10 ** 7, 0, -3):
            with pytest.raises(ValueError, match="conductor"):
                CyclotomicField(L)
            assert L not in CyclotomicField._cache

    def test_relation(self):
        K = CyclotomicField(3)
        z = K.zeta()
        assert z * z + z + 1 == 0

    def test_inverse(self):
        K = CyclotomicField(5)
        z = K.zeta(2)
        assert z * z.inverse() == 1
        assert z.inverse() == K.zeta(3)
        assert z.inverse().inverse() == z

    def test_embedding_consistency(self):
        K = CyclotomicField(12)
        x = (K.zeta(5) + 3) * (K.zeta(7) - F(1, 2))
        y = K.zeta(5) * K.zeta(7) + 3 * K.zeta(7) - F(1, 2) * K.zeta(5) - F(3, 2)
        assert x == y
        assert abs(x.to_complex() - y.to_complex()) < 1e-10

    def test_reduction_rows_are_remainders(self):
        # oracle: x^k mod Phi_L by polynomial division, for every exponent a
        # product reduces (k <= 2 phi - 2) and every row of the image table
        # (k < L), read through the table at k mod L
        for L in range(1, 41):
            K = CyclotomicField(L)
            assert len(K._images) == L
            for k in range(max(L, 2 * K.phi - 1)):
                _, r = poly_divmod([F(0)] * k + [F(1)], cyclotomic_polynomial(L))
                index, value = K._images[k % L]
                dense = [0] * K.phi
                for i, v in zip(index, value):
                    dense[i] = v
                assert tuple(dense) == tuple(r) + (0,) * (K.phi - len(r)), (L, k)
                assert list(index) == sorted(set(index)), (L, k)
                assert all(type(v) is int and v for v in value), (L, k)

    def test_power_rows_are_remainders(self):
        # oracle: x^k mod Phi_L by polynomial division, each row the
        # remainder of x times the one before, and the last row directly
        for L in range(1, 121):
            K = CyclotomicField(L)
            phi_l = cyclotomic_polynomial(L)

            def padded(r):
                return tuple(r) + (0,) * (K.phi - len(r))

            r = [F(1)]
            for k in range(L):
                assert K._powers[k] == padded(r), (L, k)
                r = poly_divmod([F(0)] + r, phi_l)[1]
            top = poly_divmod([F(0)] * (L - 1) + [F(1)], phi_l)[1]
            assert K._powers[L - 1] == padded(top), L
            assert all(type(c) is int for row in K._powers for c in row)

    @given(st.integers(0, 11), st.integers(0, 11))
    @settings(max_examples=20, deadline=None)
    def test_zeta_multiplicative(self, a, b):
        K = CyclotomicField(12)
        assert K.zeta(a) * K.zeta(b) == K.zeta(a + b)


class TestQuotRing:
    def test_golden_ratio_inverse(self):
        R = QuotRing([("x", 2, [F(1), F(1)])])
        x = R.gen("x")
        assert x.inverse() == x - 1
        assert x * x.inverse() == 1

    def test_minpoly(self):
        R = QuotRing([("x", 2, [F(1), F(1)])])
        assert R.gen("x").minpoly() == [F(-1), F(-1), F(1)]
        assert R.one().minpoly() == [F(-1), F(1)]
        # Q[x]/(x^2): nilpotents
        x = NILPOTENT.gen("x")
        assert x.minpoly() == [F(0), F(0), F(1)]
        assert (x + 3).minpoly() == [F(9), F(-6), F(1)]
        assert NILPOTENT.zero().minpoly() == [F(0), F(1)]

    def test_zero_divisor_reported(self):
        R = QuotRing([("t", 2, [F(1), F(0)])])  # t^2 = 1
        with pytest.raises(ZeroDivisor):
            (R.gen("t") - 1).inverse()

    def test_tower_and_join(self):
        Ri = QuotRing([("i", 2, [F(-1), F(0)])])
        Rg = QuotRing([("x", 2, [F(1), F(1)])])
        J, m1, m2 = join(Ri, Rg)
        i, x = m1(Ri.gen("i")), m2(Rg.gen("x"))
        assert (i * x) ** 2 == -(x + 1)
        assert J.dimension == 4

    def test_rings_compare_structurally(self):
        def golden():
            return QuotRing([("x", 2, [F(1), F(1)])])
        R, S = golden(), golden()
        assert R == S and hash(R) == hash(S)
        assert R.gen("x") == S.gen("x") and R.gen("x") * S.gen("x") == R.gen("x") + 1
        assert R != QuotRing([("x", 2, [F(2), F(1)])])
        assert R != QuotRing([("y", 2, [F(1), F(1)])])
        assert join(R, R)[0] == join(S, S)[0]

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
           st.integers(-5, 5))
    @settings(max_examples=20, deadline=None)
    def test_axioms(self, a, b, c, d):
        R = QuotRing([("i", 2, [F(-1), F(0)])])
        i = R.gen("i")
        p = i * a + b
        q = i * c + d
        assert p * q == q * p
        assert (p + q) * p == p * p + q * p


class TestGroupRing:
    def test_convolution(self):
        G = GroupRing(5)
        assert G.bracket(2) * G.bracket(3) == G.bracket(1)

    def test_zero_coefficients_are_not_stored(self):
        G = GroupRing(5)
        assert not G.bracket(2, 0) and not G.coerce(0) and G.coerce(0).coeffs == {}

    def test_commutative(self):
        G = GroupRing(12)
        x = G.bracket(5) + G.bracket(7) * 2
        y = G.bracket(11) - G.bracket(1)
        assert x * y == y * x

    def test_augmentation_is_homomorphism(self):
        G = GroupRing(7)
        x = G.bracket(3) * 2 - G.bracket(5)
        y = G.bracket(2) + G.bracket(6) * F(1, 3)
        assert (x * y).augmentation() == x.augmentation() * y.augmentation()
        assert (x + y).augmentation() == x.augmentation() + y.augmentation()

    def test_augment_mod(self):
        G = GroupRing(5)
        assert augment_mod(G.bracket(2) - G.bracket(3), 7) == (0, 0)
        assert augment_mod(G.bracket(1) * 4, 5) == (4, 0)
        with pytest.raises(ValueError):
            augment_mod(G.bracket(2) * F(1, 2), 5)


def test_cross_ring_products_and_sums_raise():
    f11, g26 = load_bundled("f11.eigenform"), load_bundled("g26.eigenform")
    pairs = [(CyclotomicField(5).zeta(), CyclotomicField(8).zeta()),
             (f11.ring.one(), g26.a(2)),
             (GroupRing(5).bracket(2), GroupRing(7).bracket(3))]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(TypeError):
                x * y
            with pytest.raises(TypeError):
                x + y


# ---------------------------------------------------------------------------
# the protocol every ring element class derives from arith.RingElt
# ---------------------------------------------------------------------------

halves = st.integers(-8, 8).map(lambda k: F(k, 2))  # cheaper to draw than st.fractions
LAURENT = PolyRing(("x", "s"), invertible={"s"})


def to_vector(x):
    """Coordinates of a QuotElt in the monomial basis of its ring, as
    Fractions (the solves that take them divide)."""
    idx = {e: i for i, e in enumerate(x.ring.basis())}
    v = [QQ(0)] * x.ring.dimension
    for e, c in x.rep.terms.items():
        v[idx[e]] = QQ(c)
    return v


def from_vector(ring, v):
    """The element of a QuotRing with coordinates v in its monomial basis."""
    terms = {e: QQ(c) for e, c in zip(ring.basis(), v) if QQ(c)}
    return QuotElt(ring, ring.poly_ring.from_terms(terms))


def _vector(n, unit):
    # a nonzero vector where the element must be a unit
    return st.lists(halves, min_size=n, max_size=n).filter(lambda v: any(v) or not unit)


def _cyclo(draw, unit):
    return CyclotomicField(5).from_coeffs(draw(_vector(4, unit)))


def _quot(draw, unit):
    return from_vector(QuotRing([("t", 2, [F(2), F(0)])]), draw(_vector(2, unit)))


def _group_ring(draw, unit):
    G = GroupRing(7)
    if unit:  # units c*[a]
        return G.bracket(draw(st.integers(1, 6)), draw(halves.filter(bool)))
    return sum((G.bracket(a, c) for a, c in zip(G.units, draw(_vector(6, False)))),
               G.zero())


def _mpoly(draw, unit):
    x, s = LAURENT.vars()
    if unit:  # the units of Q[x, s, 1/s] are the c*s^k
        return s ** draw(st.integers(-2, 2)) * draw(halves.filter(bool))
    a, b, c = draw(_vector(3, False))
    return x * a + s * b + c


def _ratfunc(draw, unit):
    x, s = LAURENT.vars()
    (a, b, c), (d, e, f) = draw(_vector(3, unit)), draw(_vector(3, True))
    return RatFunc(x * a + s * b + c, x * d + s * e + f)


@pytest.mark.parametrize("make", [_cyclo, _quot, _group_ring, _mpoly, _ratfunc],
                         ids=["CycloElt", "QuotElt", "GroupRingElt", "MPoly", "RatFunc"])
@given(data=st.data(), c=halves)
@settings(max_examples=25, deadline=None)
def test_ring_element_protocol(make, data, c):
    x, y, u = make(data.draw, False), make(data.draw, False), make(data.draw, True)
    assert x - y == x + (-y)
    assert c - x == -(x - c)
    assert x ** 3 == x * x * x
    assert (x / u) * u == x
    assert c / u * u == c
    assert u ** -2 * u ** 2 == 1
    assert not any(hasattr(e, "__dict__") for e in (x, y, u))


_FRACTION_CYCLO = {}


def cyclotomic_polynomial_by_fractions(n):
    """The oracle of cyclotomic_polynomial: x^n - 1 divided by each Phi_d,
    d a proper divisor of n, with Fraction division with remainder."""
    if n not in _FRACTION_CYCLO:
        p = [F(-1)] + [F(0)] * (n - 1) + [F(1)]
        for d in range(1, n):
            if n % d == 0:
                p, r = poly_divmod(p, cyclotomic_polynomial_by_fractions(d))
                assert not r
        _FRACTION_CYCLO[n] = p
    return _FRACTION_CYCLO[n]


def test_cyclotomic_polynomials_are_the_fraction_oracle_in_ints():
    for n in range(1, 301):
        phi = cyclotomic_polynomial(n)
        assert phi == cyclotomic_polynomial_by_fractions(n), n
        assert all(type(c) is int for c in phi) and len(phi) == euler_phi(n) + 1, n


def test_cyclotomic_polynomial_certifies_each_division(monkeypatch):
    # a wrong Phi_2 leaves a remainder in x^4 - 1, which must raise
    monkeypatch.setattr(poly_module, "_CYCLO_CACHE", {2: [2, 1]})
    with pytest.raises(VerificationError, match="Phi_2 does not divide x\\^4 - 1"):
        cyclotomic_polynomial(4)


@pytest.mark.parametrize("n", [0, -1, -3])
def test_cyclotomic_polynomial_refuses_n_below_one(monkeypatch, n):
    # refused before the cache is read or written, even with an entry there
    cache = {n: [-1, 1]}
    monkeypatch.setattr(poly_module, "_CYCLO_CACHE", cache)
    with pytest.raises(ValueError, match=f"n must be positive, got {n}"):
        cyclotomic_polynomial(n)
    cache.clear()
    with pytest.raises(ValueError):
        cyclotomic_polynomial(n)
    assert cache == {}


@given(st.lists(st.integers(-9, 9), max_size=8), st.lists(st.integers(-4, 4), max_size=4))
@settings(max_examples=60, deadline=None)
def test_integer_division_by_a_monic_polynomial_is_the_fraction_division(f, low):
    f, g = poly_trim(f), low + [1]
    q, r = _zdiv(f, g)
    assert (q, r) == poly_divmod(f, g)
    assert all(type(c) is int for c in q + r)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [F(-1), F(1)]
    assert cyclotomic_polynomial(12) == [F(1), F(0), F(-1), F(0), F(1)]
    # product over divisors reconstitutes x^n - 1
    from rankin.poly import poly_mul
    prod = [F(1)]
    for d in (1, 2, 3, 6):
        prod = poly_mul(prod, cyclotomic_polynomial(d))
    assert prod == [F(-1), F(0), F(0), F(0), F(0), F(0), F(1)]


# ---------------------------------------------------------------------------
# MPoly substitution and single-term products against naive loops
# ---------------------------------------------------------------------------

SOURCE = PolyRing(("x", "y", "s"), invertible={"s"})
TARGET = PolyRing(("a", "p"), invertible={"p"})


def _terms(draw, ring, lo, hi, max_size):
    exps = st.tuples(*[st.integers(lo if n in ring.invertible else 0, hi)
                       for n in ring.names])
    return ring.from_terms(draw(st.dictionaries(exps, halves, max_size=max_size)))


@st.composite
def substitutions(draw):
    """(polynomial over SOURCE, values in TARGET): every value a nonzero
    Fraction, MPoly or RatFunc, since s may carry negative exponents."""
    poly = _terms(draw, SOURCE, -2, 2, 5)
    values = {}
    for name in SOURCE.names:
        kind = draw(st.sampled_from(["fraction", "mpoly", "ratfunc"]))
        if kind == "fraction":
            values[name] = draw(halves.filter(bool))
            continue
        num = _terms(draw, TARGET, -1, 2, 2)
        if not num:
            num = TARGET.var("p")
        values[name] = (num if kind == "mpoly"
                        else RatFunc(num, _terms(draw, TARGET, -1, 2, 2) or TARGET.one()))
    return poly, values


def _naive_subs(poly, values):
    """The substitution as a RatFunc product and sum per term."""
    def lift(v):
        return v if isinstance(v, RatFunc) else RatFunc.from_poly(TARGET.coerce(v))
    acc = lift(0)
    for e, c in poly.terms.items():
        term = lift(c)
        for name, k in zip(poly.ring.names, e):
            term = term * lift(values[name]) ** k
        acc = acc + term
    return acc


def _per_term_subs(poly, values):
    """The substitution as a product and sum per term, unmapped variables
    kept; a Fraction when ``poly`` is constant or every value is a scalar."""
    vals = {n: values.get(n, poly.ring.var(n)) for n in poly.ring.names}
    rings = [v.ring for v in vals.values() if isinstance(v, MPoly)]
    acc = F(0) if poly.is_constant() or not rings else rings[0].zero()
    for e, c in poly.terms.items():
        term = F(c)
        for n, k in zip(poly.ring.names, e):
            if k:
                term = term * vals[n] ** k
        acc = acc + term
    return acc


@st.composite
def mpoly_substitutions(draw):
    """(polynomial over SOURCE, values): each value a scalar or an MPoly,
    monomial or not, zero too.  Some variables may stay unmapped; the values
    then lie in SOURCE, otherwise in TARGET.  s, which may carry negative
    exponents, maps to a scalar or to c times a power of the invertible
    variable, so that the per-term loop is defined."""
    poly = _raw_terms(draw, SOURCE, -2, 2, 5)
    partial = draw(st.booleans())
    ring, unit = (SOURCE, "s") if partial else (TARGET, "p")
    values = {}
    for name in SOURCE.names:
        kind = draw(st.sampled_from(["unmapped", "scalar", "mpoly"][not partial:]))
        if kind == "scalar":
            values[name] = draw(halves)
        elif kind == "mpoly":
            values[name] = (ring.var(unit, draw(st.integers(-2, 2))) * draw(halves)
                            if name == "s" else _raw_terms(draw, ring, -1, 2, 3))
    return poly, values


def _result(f):
    """(type, value) of f(), or the type of the error it raises."""
    try:
        r = f()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)
    return type(r), r


class TestSubstitution:
    def test_values_from_different_rings_raise(self):
        S, U = PolyRing(("x", "y")), PolyRing(("u",))
        x, y = S.vars()
        a, p = TARGET.vars()
        for values in ({"x": RatFunc(a, p), "y": U.var("u")}, {"x": RatFunc(a, p)},
                       {"x": a, "y": U.var("u")}):
            with pytest.raises(TypeError):
                (x * y + x).subs(values)
            with pytest.raises(TypeError):
                RatFunc(x, y + 1).subs(values)

    @given(mpoly_substitutions())
    @settings(max_examples=60, deadline=None)
    @example((SOURCE.var("x") * SOURCE.var("s", -1) + 1, {"x": F(2), "s": F(0)}))   # 0^-1
    @example((SOURCE.var("x") + 1, {"x": F(2), "y": TARGET.var("a"), "s": F(1)}))  # constant
    def test_mpoly_values_match_per_term_loop(self, case):
        poly, values = case
        assert _result(lambda: poly.subs(values)) == _result(lambda: _per_term_subs(poly, values))

    @given(substitutions(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_ratfunc_subs_matches_quotient(self, case, data):
        poly, values = case
        if data.draw(st.booleans()):
            values = {n: data.draw(halves) for n in SOURCE.names}
        r = RatFunc(poly, _terms(data.draw, SOURCE, -2, 2, 3) or SOURCE.one())
        try:
            want = r.num.subs(values) / r.den.subs(values)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                r.subs(values)
            return
        except ValueError:
            assume(False)   # an MPoly image would need the inverse of a non-unit
        got = r.subs(values)
        assert got == want
        assert isinstance(got, F) == all(isinstance(v, F) for v in values.values())

    @given(substitutions())
    @settings(max_examples=30, deadline=None)
    def test_ratfunc_values_match_per_term_loop(self, case):
        poly, values = case
        values["x"] = RatFunc(TARGET.var("a") + 1, TARGET.var("p", 2) - 3)
        assert poly.subs(values) == _naive_subs(poly, values)

    @given(substitutions(), st.lists(halves.filter(bool), min_size=2, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_commutes_with_evaluation(self, case, point):
        poly, values = case
        values["y"] = RatFunc(TARGET.var("p", -1), TARGET.var("a") - 3)
        at = dict(zip(TARGET.names, point))

        def value_at(v):
            if isinstance(v, RatFunc):
                den = v.den.subs(at)
                return v.num.subs(at) / den if den else None
            return v.subs(at) if isinstance(v, MPoly) else v
        scalars = {n: value_at(v) for n, v in values.items()}
        assume(all(scalars.values()))     # s^-k needs a nonzero value
        lifted = poly.subs(values)
        assume(lifted.den.subs(at))
        assert lifted.subs(at) == poly.subs(scalars)

    def test_laurent_and_zero_polynomials(self):
        x, y, s = SOURCE.vars()
        a, p = TARGET.vars()
        values = {"x": F(2), "y": a * p, "s": RatFunc(p, a + 1)}
        poly = s ** -2 * x + y * s - 3
        want = (a + 1) ** 2 * 2 / p ** 2 + RatFunc(a * p * p, a + 1) - 3
        assert poly.subs(values) == want
        assert poly.subs(values) == _naive_subs(poly, values)
        assert SOURCE.zero().subs(values) == 0
        assert SOURCE.const(F(5, 3)).subs(values) == F(5, 3)


@st.composite
def monomial_products(draw):
    poly = _terms(draw, SOURCE, -2, 3, 6)
    mono = _terms(draw, SOURCE, -2, 3, 1)
    return poly, mono


def _naive_mul(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


@given(monomial_products())
@settings(max_examples=40, deadline=None)
def test_single_term_product_matches_double_loop(case):
    poly, mono = case
    want = _naive_mul(poly, mono)
    assert (poly * mono).terms == want
    assert (mono * poly).terms == want
    if mono.is_constant():
        assert (poly * mono.constant_value()).terms == want
    assert (mono * mono).terms == _naive_mul(mono, mono)


# ---------------------------------------------------------------------------
# int coefficients against the same computation on Fraction-only copies
# ---------------------------------------------------------------------------

# mostly integral, some proper fractions, some zeros
coefficients = st.one_of(st.integers(-6, 6), st.integers(-6, 6),
                         st.fractions(-3, 3, max_denominator=4))
CUBIC = QuotRing([("t", 3, [F(2), F(0), F(0)])])   # Q(2^(1/3)): no zero divisors


def _fraction_copy(x):
    """``x`` with every coefficient a Fraction, as every MPoly once was."""
    if isinstance(x, MPoly):
        return MPoly(x.ring, {e: F(c) for e, c in x.terms.items()})
    if isinstance(x, RatFunc):
        return RatFunc(_fraction_copy(x.num), _fraction_copy(x.den), normalize=False)
    if isinstance(x, QuotElt):
        return QuotElt(x.ring, _fraction_copy(x.rep))
    if isinstance(x, dict):
        return {k: _fraction_copy(v) for k, v in x.items()}
    return F(x)


def _parts(x):
    """The coefficients of a result, component by component."""
    if isinstance(x, MPoly):
        return [x.terms]
    if isinstance(x, RatFunc):
        return [x.num.terms, x.den.terms]
    if isinstance(x, QuotElt):
        return [x.rep.terms]
    if isinstance(x, list):
        return [dict(enumerate(x))]
    return [{(): x}]


def _differential(op, *args):
    """``op`` on ``args`` agrees with ``op`` on their Fraction-only copies,
    in its result or in the error it raises."""
    try:
        got = op(*args)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            op(*map(_fraction_copy, args))
        return
    want = op(*map(_fraction_copy, args))
    for part, oracle in zip(_parts(got), _parts(want)):
        assert all(type(c) in (int, F) for c in part.values()), part
        assert part == oracle


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_int_coefficients_match_fraction_arithmetic(data):
    def poly(max_size=4):
        exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2))
        return SOURCE.from_terms(data.draw(st.dictionaries(exps, coefficients,
                                                           max_size=max_size)))
    p, q = poly(), poly()
    c = data.draw(coefficients.filter(bool))
    k = data.draw(st.integers(1, 3))
    unit = SOURCE.var("s", data.draw(st.integers(-2, 2))) * c
    _differential(lambda a, b: a + b, p, q)
    _differential(lambda a, b: a * b, p, q)
    _differential(lambda a, b: a / b, p, c)
    _differential(lambda u: u ** -k, unit)
    _differential(lambda u: u.inverse(), unit)
    point = {"x": F(data.draw(st.integers(-3, 3))), "y": F(data.draw(st.integers(-3, 3))),
             "s": F(data.draw(st.integers(-3, 3).filter(bool)))}
    _differential(lambda a, v: a.subs(v), p, point)
    _differential(lambda a, v: a.subs(v), p, dict(point, y=q))
    if q:
        _differential(lambda a, b: (a * b).exact_div(b), p, q)
        _differential(lambda a, b: a / b, p, q)
        _differential(lambda a, b: RatFunc(a, b), p, q)
        if p:
            r = RatFunc(p, q)
            _differential(lambda a: a ** -k, r)
            _differential(lambda a, b: a / b, r, RatFunc(q + unit, p))
    x = from_vector(CUBIC, data.draw(st.lists(coefficients, min_size=3, max_size=3)))
    _differential(lambda a: a.minpoly(), x)
    if x:
        _differential(lambda a: a.inverse(), x)


# ---------------------------------------------------------------------------
# single-term fast paths against the general routes, which stay as oracles
# ---------------------------------------------------------------------------

# integral Fractions too: the paths must keep each coefficient's type
typed_coefficients = st.one_of(coefficients, st.integers(-6, 6).map(F))


def _outcome(f):
    """f()'s coefficients with their types, component by component, or the
    type of the error it raises."""
    try:
        return [{e: (type(c), c) for e, c in part.items()} for part in _parts(f())]
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def _raw_terms(draw, ring, lo, hi, max_size, min_size=0):
    """An MPoly built as it stands, integral Fraction coefficients and all."""
    exps = st.tuples(*[st.integers(lo if n in ring.invertible else 0, hi)
                       for n in ring.names])
    terms = draw(st.dictionaries(exps, typed_coefficients.filter(bool),
                                 min_size=min_size, max_size=max_size))
    return MPoly(ring, terms)


@st.composite
def monomial_divisions(draw):
    """(dividend, one-term divisor) over SOURCE; half of the dividends are
    multiples of the divisor."""
    b = _raw_terms(draw, SOURCE, -3, 3, 1, min_size=1)
    a = _raw_terms(draw, SOURCE, -3, 3, 4, min_size=1)
    return (a * b if draw(st.booleans()) else a), b


_x, _y, _s = SOURCE.vars()


@given(monomial_divisions())
@settings(max_examples=60, deadline=None)
@example((_x, _y))                                  # a bounded exponent goes < 0
@example((_x * _s ** -2 + _y * 3, _y * _s ** 2))    # the same, beside invertible s
@example((_s ** -3 * F(4), _s ** 2 * F(2)))         # s^-5, an integral Fraction
@example((SOURCE.zero(), _x * _y * _s))
def test_single_term_division_matches_general_route(case):
    a, b = case
    assert _outcome(lambda: a.exact_div(b)) == _outcome(lambda: _exact_div_laurent(a, b))


def test_division_by_zero_polynomial():
    for a in (SOURCE.zero(), _x + 1):
        with pytest.raises(ZeroDivisionError):
            a.exact_div(SOURCE.zero())


def test_dropping_the_bounded_exponent_check_is_caught(monkeypatch):
    # the mutant: exact_div treats every variable as invertible
    monkeypatch.setattr(SOURCE, "_bounded", ())
    with pytest.raises(AssertionError):
        test_single_term_division_matches_general_route()


@st.composite
def monomial_substitutions(draw):
    """(polynomial over SOURCE, values): each value a Fraction (zero too),
    a one-term MPoly or a one-term RatFunc over one term, at least one of
    them a RatFunc."""
    poly = _raw_terms(draw, SOURCE, -2, 2, 5, min_size=1)
    values = {}
    for name in SOURCE.names:
        kind = draw(st.sampled_from(["fraction", "mpoly", "ratfunc"]))
        if kind == "fraction":
            values[name] = draw(halves)
            continue
        num = _raw_terms(draw, TARGET, -2, 2, 1, min_size=1)
        values[name] = num if kind == "mpoly" else RatFunc(
            num, _raw_terms(draw, TARGET, -2, 2, 1, min_size=1), draw(st.booleans()))
    if not any(isinstance(v, RatFunc) for v in values.values()):
        values["s"] = RatFunc(TARGET.var("p", 2), TARGET.var("a") * 3)
    return poly, values


_a, _p = TARGET.vars()


@given(monomial_substitutions())
@settings(max_examples=60, deadline=None)
@example((SOURCE.zero(), {"x": F(2), "y": _a, "s": RatFunc(_p, _a * 3)}))
@example((_x * _s ** -1 + 1, {"x": RatFunc(_a, _p), "y": F(1), "s": F(0)}))  # 0^-1
@example((_x * _s ** -1 + _y * _s * 3, {"x": F(0), "y": _a * _p * F(2),
                                        "s": RatFunc(_p * 2, _a * _a, False)}))
@example((_y + _s + 1, {"x": F(0), "y": F(0), "s": RatFunc(_p ** 2, _a * 3)}))  # Fraction(1, 1)
def test_monomial_substitution_matches_power_tables(case):
    poly, values = case
    with mock.patch.object(poly_module, "_monomial_image", poly_module._table_image):
        want = _outcome(lambda: poly.subs(values))
    assert _outcome(lambda: poly.subs(values)) == want


# ---------------------------------------------------------------------------
# the scalar and monomial fast paths of MPoly and QuotElt products against the
# general double loop, which stays here as the oracle (_naive_mul)
# ---------------------------------------------------------------------------

# scalars: 0 and 1 as ints and as Fractions, integral Fractions, other values
scalars = st.one_of(st.sampled_from([0, 1, -1, F(0), F(1), F(3)]), typed_coefficients)


@st.composite
def operands(draw):
    """An MPoly over SOURCE as it stands: zero, a constant, a unit monomial
    (coefficient 1), a monomial with another coefficient, or several terms;
    Laurent exponents in s."""
    kind = draw(st.sampled_from(["zero", "constant", "unit", "monomial", "terms"]))
    if kind == "zero":
        return SOURCE.zero()
    if kind == "constant":
        return MPoly(SOURCE, {SOURCE._zero_exp: draw(scalars.filter(bool))})
    if kind == "terms":
        return _raw_terms(draw, SOURCE, -2, 2, 4, min_size=2)
    mono = _raw_terms(draw, SOURCE, -2, 2, 1, min_size=1)
    if kind == "unit":
        (e, _), = mono.terms.items()
        return MPoly(SOURCE, {e: draw(st.sampled_from([1, F(1)]))})
    return mono


def _as_poly(b):
    """An operand as an MPoly over SOURCE, a scalar as its constant."""
    return b if isinstance(b, MPoly) else MPoly(SOURCE, {SOURCE._zero_exp: b} if b else {})


def _stored(x):
    """The terms of an MPoly, checked to hold no zero and only ints and
    Fractions."""
    assert all(c and type(c) in (int, F) for c in x.terms.values()), x.terms
    return x.terms


@given(operands(), st.one_of(operands(), scalars))
@settings(max_examples=150, deadline=None)
@example(_x * 2 + _s ** -1, 1)
@example(_x * 2 + _s ** -1, F(1))
@example(_x * 2 + _s ** -1, 0)
@example(_x * 2 + _s ** -1, MPoly(SOURCE, {(0, 0, 0): F(1)}))
@example(_x * 2 + _s ** -1, _s ** -2)
@example(_x * 2 + _s ** -1, _y * -1)
@example(_x * _y + 1, _x * _y * -1 + _s)
def test_mpoly_fast_paths_match_the_double_loop(a, b):
    bp = _as_poly(b)
    want = _naive_mul(a, bp)
    for got in (a * b, b * a):
        assert got.ring is SOURCE and _stored(got) == want
    diff = a - b
    assert _stored(diff) == _stored(a + (-bp)) == _stored(a + -b)
    assert b - a == -diff


@given(operands(), st.one_of(operands(), scalars))
@settings(max_examples=30, deadline=None)
def test_mpoly_rings_compare_structurally_in_products_and_sums(a, b):
    twin = PolyRing(SOURCE.names, invertible=SOURCE.invertible)
    other = PolyRing(SOURCE.names)
    bp = _as_poly(b)
    want = _naive_mul(a, bp)
    b2 = MPoly(twin, bp.terms)
    assert twin is not SOURCE and twin == SOURCE
    assert (a * b2).terms == (b2 * a).terms == want
    assert (a + b2).terms == (a + bp).terms and (a - b2).terms == (a - bp).terms
    b3 = MPoly(other, bp.terms)
    for op in (lambda x, y: x * y, lambda x, y: x + y, lambda x, y: x - y):
        for x, y in ((a, b3), (b3, a)):
            with pytest.raises(TypeError):
                op(x, y)
    assert a.__mul__(RatFunc.from_poly(bp)) is NotImplemented
    assert a * RatFunc.from_poly(bp) == RatFunc.from_poly(MPoly(SOURCE, want))
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError):
            a * bad


TOWER = QuotRing([("i", 2, [F(-1), F(0)]), ("u", 2, {(0, 0): F(1, 2), (1, 1): 3})])


@st.composite
def tower_elements(draw):
    """An element of TOWER, half of them reduced from a polynomial of higher
    degree."""
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    if draw(st.booleans()):
        exps = exps.filter(lambda e: e[0] < 2 and e[1] < 2)
    return TOWER.from_poly(TOWER.poly_ring.from_terms(
        draw(st.dictionaries(exps, scalars.filter(bool), max_size=3))))


@given(tower_elements(), st.one_of(tower_elements(), scalars))
@settings(max_examples=80, deadline=None)
def test_quotelt_fast_paths_match_the_reduced_double_loop(x, y):
    yq = y if isinstance(y, QuotElt) else TOWER.coerce(y)
    want = TOWER._reduce(MPoly(TOWER.poly_ring, _naive_mul(x.rep, yq.rep)))
    for got in (x * y, y * x):
        assert got.ring is TOWER and _stored(got.rep) == want.terms
    assert _stored((x - y).rep) == _stored((x + (-yq)).rep) == _stored((x + -y).rep)
    assert y - x == -(x - y)
    twin = QuotRing([("i", 2, [F(-1), F(0)]), ("u", 2, {(0, 0): F(1, 2), (1, 1): 3})])
    y2 = QuotElt(twin, MPoly(twin.poly_ring, yq.rep.terms))
    assert twin is not TOWER and twin == TOWER
    assert (x * y2).rep.terms == want.terms
    assert (x + y2).rep.terms == (x + yq).rep.terms and (x - y2) == (x - yq)
    other = QuotRing([("i", 2, [F(-1), F(0)]), ("u", 2, {(0, 0): F(1, 3)})])
    y3 = QuotElt(other, MPoly(other.poly_ring, yq.rep.terms))
    for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
        for a, b in ((x, y3), (y3, x)):
            with pytest.raises(TypeError):
                op(a, b)


# ---------------------------------------------------------------------------
# the shared arithmetic core
# ---------------------------------------------------------------------------

small = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def _is_prime(p):
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


@st.composite
def coprime_moduli(draw):
    moduli = []
    for m in draw(st.lists(st.integers(1, 40), max_size=4)):
        if all(gcd(m, other) == 1 for other in moduli):
            moduli.append(m)
    return moduli


class TestArith:
    @given(st.integers(1, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_factor_multiplies_back(self, n):
        fac = factor(n)
        primes = [p for p, _ in fac]
        assert primes == sorted(set(primes))
        assert all(_is_prime(p) and e >= 1 for p, e in fac)
        assert prod(p ** e for p, e in fac) == n

    @given(st.integers(1, 400))
    @settings(max_examples=100, deadline=None)
    def test_euler_phi_counts_units(self, n):
        assert euler_phi(n) == sum(1 for a in range(n) if gcd(a, n) == 1)

    @given(coprime_moduli(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_crt_matches_brute_force(self, moduli, data):
        residues = [data.draw(st.integers(-100, 100)) for _ in moduli]
        pairs = list(zip(residues, moduli))
        found = [x for x in range(prod(moduli))
                 if all((x - r) % m == 0 for r, m in pairs)]
        assert [crt(pairs)] == found

    def test_crt_with_modulus_one(self):
        assert crt([(5, 1)]) == 0
        assert crt([(3, 1), (4, 7), (0, 1)]) == 4

    @given(st.integers(0, 7), small, st.lists(small, min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_power_matches_repeated_multiplication(self, n, a, c):
        K = CyclotomicField(5)
        R = QuotRing([("t", 2, [F(2), F(0)])])
        P = PolyRing(("x", "y"))
        x, y = P.vars()
        G = GroupRing(7, R)
        t = R.gen("t")
        cases = [
            (a, F(1)),
            (K.from_coeffs(c) + K.zeta(2), K.one()),
            (t * a + c[0], R.one()),
            (x * a + y * c[0] - c[1], P.one()),
            (G.bracket(3, t + c[0]) + G.bracket(2, a), G.one()),
            (QSeries(RATIONALS, 0, [c[0], a, F(1), c[1], c[2]]),
             QSeries.one(RATIONALS, 5)),
        ]
        for elt, one in cases:
            expect = one
            for _ in range(n):
                expect = expect * elt
            assert power(elt, n, one) == expect
            if not isinstance(elt, F):
                assert elt ** n == expect
        # x ** 1 is x itself in the power loop; over a ring other than
        # Q(zeta_L) it must still strip leading zeros as one * x did
        raw = QSeries(RATIONALS, F(1, 3), [F(0), F(0), c[0], a, c[1]], normalize=False)
        for s in (raw, raw.truncate(2), QSeries(R, -1, [R.zero(), t * a + 1], normalize=False)):
            want = QSeries.one(s.ring, s.prec) * s
            got = s ** 1
            assert (got.lead, got.prec, got.coeffs, got.unit, str(got)) == \
                (want.lead, want.prec, want.coeffs, want.unit, str(want))

    @staticmethod
    def _times(mat, xs, zero):
        out = []
        for row in mat:
            acc = zero
            for m, v in zip(row, xs):
                acc = acc + v * m
            out.append(acc)
        return out

    @given(st.integers(1, 5), st.integers(1, 5), st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_solve_consistent_and_inconsistent(self, n, d, polynomial, data):
        P = PolyRing(("x", "y"))
        x, y = P.vars()
        mat = [[data.draw(small) for _ in range(d)] for _ in range(n)]
        if polynomial:
            zero = P.zero()
            xs = [x * data.draw(small) + y * data.draw(small) + data.draw(small)
                  for _ in range(d)]
            bump = x + 1
        else:
            zero = F(0)
            xs = [data.draw(small) for _ in range(d)]
            bump = F(1)
        rhs = self._times(mat, xs, zero)
        sol = solve(mat, rhs, zero)
        assert sol is not None and len(sol) == d
        assert self._times(mat, sol, zero) == rhs
        # a repeated equation with a different right-hand side
        assert solve(mat + [mat[0]], rhs + [rhs[0] + bump], zero) is None
        # a zero equation that asks for a nonzero value
        assert solve(mat + [[F(0)] * d], rhs + [bump], zero) is None

    @given(st.sampled_from([F(1), F(2), F(-3)]),
           st.lists(small, min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_zero_divisor_inverse_raises(self, root, c):
        # Q[s]/((s-1)(s-2)(s+3)) splits: s - root kills an idempotent
        R = QuotRing([("s", 3, [F(-6), F(7), F(0)])])
        s = R.gen("s")
        y = s * s * c[0] + s * c[1] + c[2]
        with pytest.raises(ZeroDivisor):
            ((s - root) * y).inverse()
        unit = s * s + 5   # its values 6, 9, 14 at the roots are nonzero
        assert unit * unit.inverse() == 1


# ---------------------------------------------------------------------------
# quotient-ring reduction and minimal polynomials against the earlier
# routes, which stay as oracles
# ---------------------------------------------------------------------------

def _reduce_oracle(ring, p):
    """The normal form by splitting p in each generator and rewriting its
    high powers, last generator first, until none is left."""
    for name in reversed(ring.gen_names):
        d = ring.degrees[name]
        low = ring.rewrites[name]
        while p.degree(name) >= d:
            acc = p.ring.zero()
            for k, coeff in p.coefficients_in(name).items():
                if k < d:
                    acc = acc + coeff * p.ring.var(name, k)
                else:
                    acc = acc + coeff * p.ring.var(name, k - d) * low
            p = acc
    return p


def _minpoly_oracle(x):
    """Solve for each power as a combination of the earlier ones, degree by
    degree, until one is."""
    ring = x.ring
    n = ring.dimension
    xd = ring.one()
    reprs = []
    for d in range(n + 1):
        v = to_vector(xd)
        reprs.append(v)
        sol = solve([[reprs[j][i] for j in range(d)] for i in range(n)], v, QQ(0))
        if sol is not None:
            return [-c for c in sol] + [QQ(1)]
        xd = xd * x
    raise AssertionError("no minimal polynomial found")


NILPOTENT = QuotRing([("x", 2, [F(0), F(0)])])   # Q[x]/(x^2)


@st.composite
def towers(draw, coeffs=coefficients):
    """Q[g1, ..., gr]/(...) with r <= 3 and dimension <= 12; each relation may
    involve the earlier generators at powers past their degrees, and many
    rings have zero divisors.  The relations draw their coefficients from
    ``coeffs``."""
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                   .filter(lambda ds: prod(ds) <= 12))
    r = len(degrees)
    gens = []
    for i, (name, d) in enumerate(zip("xyz", degrees)):
        # exponents over all r generators: earlier ones up to degree + 1,
        # this one below d, later ones 0
        exps = st.tuples(*[st.integers(0, k + 1) for k in degrees[:i]],
                         st.integers(0, d - 1), *[st.just(0)] * (r - i - 1))
        gens.append((name, d, draw(st.dictionaries(exps, coeffs, max_size=3))))
    return QuotRing(gens)


rings = st.one_of(st.just(NILPOTENT), towers())


def _unreduced(draw, ring, max_exp=4, max_size=5):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(ring.gen_names))
    return ring.poly_ring.from_terms(draw(st.dictionaries(exps, coefficients,
                                                          max_size=max_size)))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_reduction_rows_match_the_splitting_oracle(data):
    ring = data.draw(rings)
    p = _unreduced(data.draw, ring)
    got = ring._reduce(p)
    assert got.terms == _reduce_oracle(ring, p).terms
    assert all(type(c) in (int, F) for c in got.terms.values())
    assert all(k < ring.degrees[n] for e in got.terms for n, k in zip(ring.gen_names, e))
    # the product of two elements reduces as the oracle does
    x, y = ring.from_poly(p), ring.from_poly(_unreduced(data.draw, ring))
    assert (x * y).rep.terms == _reduce_oracle(ring, x.rep * y.rep).terms


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_echelon_minpoly_matches_the_solving_oracle(data):
    ring = data.draw(rings)
    x = ring.from_poly(_unreduced(data.draw, ring, max_exp=2, max_size=3))
    got = x.minpoly()
    want = _minpoly_oracle(x)
    assert got == want and all(type(c) is F for c in got)
    # the element is a root
    assert sum((c * x ** k for k, c in enumerate(got)), ring.zero()) == 0


proper_fractions = st.fractions(-3, 3, max_denominator=6).filter(lambda c: c.denominator > 1)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_fraction_free_minpoly_over_fraction_relations(data):
    # every relation and every coefficient of the element is a non-integral
    # Fraction, so each power's row has its own denominator
    ring = data.draw(towers(proper_fractions))
    exps = st.tuples(*[st.integers(0, 2)] * len(ring.gen_names))
    x = ring.from_poly(ring.poly_ring.from_terms(
        data.draw(st.dictionaries(exps, proper_fractions, min_size=1, max_size=3))))
    got = x.minpoly()
    assert got == _minpoly_oracle(x) and all(type(c) is F for c in got)


@st.composite
def gcd_pairs(draw):
    """Two dense polynomials over Q with a random common factor."""
    def poly(lo, hi):
        return draw(st.lists(coefficients, min_size=lo, max_size=hi))
    common = poly(1, 3)
    return poly_mul(poly(0, 4), common), poly_mul(poly(0, 4), common)


@given(gcd_pairs())
@settings(max_examples=60, deadline=None)
def test_gcd_is_the_xgcd_gcd(pair):
    p, q = pair
    assert poly_gcd(p, q) == poly_xgcd(p, q)[0]


# ---------------------------------------------------------------------------
# the dense helpers on ints, power rows and the minimal-polynomial inverse
# against the routes they replaced
# ---------------------------------------------------------------------------

int_polys = st.lists(st.integers(-9, 9), max_size=6)


@given(int_polys, int_polys, st.integers(-5, 5))
@settings(max_examples=60, deadline=None)
def test_dense_helpers_keep_int_lists_int(p, q, x):
    fp, fq = [F(c) for c in p], [F(c) for c in q]
    for got, want in ((poly_add(p, q), poly_add(fp, fq)),
                      (poly_mul(p, q), poly_mul(fp, fq)),
                      ([poly_eval(p, x)], [poly_eval(fp, F(x))])):
        assert got == want and all(type(c) is int for c in got)


_coefficients = st.one_of(st.integers(-60, 60),
                          st.fractions(min_value=-9, max_value=9, max_denominator=6))


@given(_coefficients, _coefficients.filter(bool))
@example(0, -3)
@example(12, -4)
@example(-12, 1)
@example(7, -1)
@example(7, 2)
@example(F(6), 3)
@example(6, F(3, 2))
@settings(max_examples=200, deadline=None)
def test_coefficient_division_is_the_normalized_fraction(a, b):
    want = F(a, b)
    got = poly_module._div(a, b)
    assert got == want
    assert type(got) is (int if want.denominator == 1 else F)


def test_exact_int_quotients_build_no_fraction():
    with mock.patch.object(poly_module, "Fraction", side_effect=AssertionError):
        assert [poly_module._div(a, b) for a, b in ((12, -4), (0, 7), (-9, 1), (5, -1))] \
            == [-3, 0, -9, -5]
    for a in (0, 3, F(1, 2)):
        with pytest.raises(ZeroDivisionError):
            poly_module._div(a, 0)


@given(st.lists(st.integers(-4, 4), max_size=5), st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_power_rows_are_the_division_remainders(low, n):
    f = low + [1]
    d = len(low)
    rows = power_rows(f, n)
    assert len(rows) == n
    for k, row in enumerate(rows):
        r = poly_divmod([F(0)] * k + [F(1)], [F(c) for c in f])[1]
        assert row == tuple(r) + (0,) * (d - len(r)), (f, k)
        assert all(type(c) is int for c in row)


@given(st.integers(1, 30), st.lists(coefficients, max_size=40))
@settings(max_examples=60, deadline=None)
def test_from_coeffs_is_the_division_remainder(L, coeffs):
    # the exponents are folded mod L before the power rows reduce them
    K = CyclotomicField(L)
    r = poly_divmod([F(c) for c in coeffs], cyclotomic_polynomial(L))[1]
    assert K.from_coeffs(coeffs).coeffs == tuple(r) + (0,) * (K.phi - len(r))


def _inverse_oracle(x):
    """Gauss-Jordan on the columns x * basis monomial; None for a zero
    divisor."""
    ring = x.ring
    cols = [to_vector(x * ring.from_poly(ring.poly_ring.from_terms({e: 1})))
            for e in ring.basis()]
    n = ring.dimension
    sol = solve([[col[i] for col in cols] for i in range(n)],
                [F(1)] + [F(0)] * (n - 1), F(0))
    return None if sol is None else from_vector(ring, sol)


T_SQUARED_ONE = QuotRing([("t", 2, [F(1), F(0)])])   # Q[t]/(t^2 - 1)


def _check_inverse(x):
    want = _inverse_oracle(x)
    if want is None:
        with pytest.raises(ZeroDivisor):
            x.inverse()
    else:
        got = x.inverse()
        assert got == want and x * got == 1


@pytest.mark.parametrize("ring, terms", [
    (T_SQUARED_ONE, {(1,): 1, (0,): -1}), (T_SQUARED_ONE, {(1,): 1, (0,): 1}),
    (T_SQUARED_ONE, {(1,): 2, (0,): 1}), (T_SQUARED_ONE, {(1,): 1}),
    (NILPOTENT, {(1,): 1}), (NILPOTENT, {(1,): 1, (0,): 3}), (NILPOTENT, {})])
def test_minpoly_inverse_on_small_rings(ring, terms):
    _check_inverse(ring.from_poly(ring.poly_ring.from_terms(terms)))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_minpoly_inverse_matches_the_solving_oracle(data):
    ring = data.draw(st.one_of(st.just(T_SQUARED_ONE), rings))
    _check_inverse(ring.from_poly(_unreduced(data.draw, ring, max_exp=2, max_size=3)))

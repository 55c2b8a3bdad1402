"""Local factors, Weil bounds, interpolation factors and the correction
polynomial."""

import os
import subprocess
import sys
from fractions import Fraction as F
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rankin.euler
from conftest import (SYMMETRY_BOX, general_sides_specialize, oracle_symmetry_sides,
                      poly_gcd)
from rankin.catalog import run_catalog
from rankin.euler import (SYM_RING, BadPrimeError, EulerFactor,
                          _power_sum_coefficients, _zgcd, _zsturm_count,
                          functional_symmetry_check, hecke_polynomial,
                          interpolation_factors, joint_coefficient_ring,
                          local_correction, rankin_euler_factor, weil_check)
from rankin.forms import bundled_path, load_bundled
from rankin.poly import (QQ, poly_add, poly_derivative, poly_divmod, poly_eval,
                         poly_mul, poly_neg)
from rankin.quotring import QuotRing


@pytest.fixture(scope="module")
def pair():
    return load_bundled("f11.eigenform"), load_bundled("g26.eigenform")


def test_factors_over_two_joins_compare_and_add(pair):
    # each call builds its own join of the two coefficient rings
    a, b = rankin_euler_factor(*pair, 3), rankin_euler_factor(*pair, 3)
    assert a.ring is not b.ring and a.ring == b.ring
    assert a == b
    assert a.coefficients[1] + b.coefficients[1] == 2 * a.coefficients[1]


@pytest.fixture(scope="module")
def streams(pair):
    f, g = pair
    joint, mf, mg = joint_coefficient_ring(f, g)

    def fstream(p, r):
        return mf(f.prime_power(p, r))

    def gstream(p, r):
        return mg(g.prime_power(p, r))

    return joint, mf, mg, fstream, gstream


class TestHeckePolynomial:
    def test_level11_at_2(self, pair):
        f, _ = pair
        c0, c1, c2 = hecke_polynomial(f, 2)
        assert c0 == f.ring.coerce(2) and c1 == f.ring.coerce(2)

    def test_ap_zero_weight2(self, pair):
        f, _ = pair
        # a_19 vanishes, so the quadratic is X^2 + 19
        c0, c1, c2 = hecke_polynomial(f, 19)
        assert c0 == f.ring.coerce(19)
        assert c1.is_zero()

    def test_level26_at_5(self, pair):
        _, g = pair
        c0, c1, _ = hecke_polynomial(g, 5)
        t = g.ring.gen("t")
        assert c1 == 3 * t           # -a_5 = 3i
        assert c0 == g.ring.coerce(-5)  # 5 * (5/13) = -5

    def test_bad_prime_rejected(self, pair):
        f, g = pair
        with pytest.raises(BadPrimeError):
            hecke_polynomial(f, 11)
        with pytest.raises(BadPrimeError):
            hecke_polynomial(g, 13)


def _ap_zero_pair():
    """Two copies of a weight-2 stand-in form over Q with a_5 = 0, every
    other a_n = 1 and the trivial character."""
    R = QuotRing([("t", 1, [F(0)])])

    class Dummy:
        level, weight, ring = 1, 2, R

        def a(self, n):
            return R.zero() if n == 5 else R.one()

        def char_value(self, n):
            return R.one()

    return Dummy(), Dummy()


def splitting_ring(f, g, p: int):
    """Extend the joint coefficient ring by the two Hecke-polynomial roots
    rx, ry; returns (ring, lift, rx, ry, A, B) with A = a_p(f), B = a_p(g)
    transported, so the conjugate roots are A - rx and B - ry."""
    joint, mf, mg = joint_coefficient_ring(f, g)
    k, l = f.weight, g.weight
    A, B = mf(f.a(p)), mg(g.a(p))
    ef, eg = mf(f.char_value(p)), mg(g.char_value(p))

    with_rx, lift_rx = joint.adjoin("rx", [-(ef * QQ(p) ** (k - 1)), A])
    ext, lift_ry = with_rx.adjoin(
        "ry", [lift_rx(-(eg * QQ(p) ** (l - 1))), lift_rx(B)])

    def lift(x):
        return lift_ry(lift_rx(x))

    return ext, lift, ext.gen("rx"), ext.gen("ry"), lift(A), lift(B)


def root_pair_product(f, g, p: int):
    """The oracle of the power-sum path: (prod, lift) with prod the product
    of (1 - root_f root_g X) over the four root pairs in the splitting ring
    of the two quadratics, and lift the map of the joint ring into it."""
    ext, lift, rx, ry, A, B = splitting_ring(f, g, p)
    prod = reduce(poly_mul, ([ext.one(), -(rf * rg)]
                             for rf in (rx, A - rx) for rg in (ry, B - ry)))
    return prod, lift


# the good primes of the weil-bounds entry
WEIL_PRIMES = (3, 5, 7, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@pytest.mark.parametrize("forms, p", [("bundled", p) for p in WEIL_PRIMES]
                         + [("ap_zero", 5)])
def test_power_sums_equal_the_root_pair_product(pair, forms, p):
    f, g = pair if forms == "bundled" else _ap_zero_pair()
    prod, lift = root_pair_product(f, g, p)
    assert [lift(c) for c in _power_sum_coefficients(f, g, p)] == prod
    fac = rankin_euler_factor(f, g, p)
    assert [lift(c) for c in fac.coefficients] == prod


class TestRankinFactor:
    def test_degree_four_and_constant_one(self, pair):
        fac = rankin_euler_factor(*pair, 3)
        assert fac.degree == 4
        assert fac.coefficients[0] == fac.ring.one()

    def test_constant_term_two_rejected(self, pair):
        joint = rankin_euler_factor(*pair, 3).ring
        with pytest.raises(ValueError):
            EulerFactor([joint.one() * 2, joint.one()], joint)

    def test_explicit_value_at_3(self, pair):
        # a_3(f) = a_3(g) = -1 and both characters take value 1 at 3
        fac = rankin_euler_factor(*pair, 3)
        vals = [c.rep.constant_value() for c in fac.coefficients]
        assert vals == [1, -1, -12, -9, 81]

    def test_zero_coefficients_shape(self):
        # with a_p = 0 on both sides and trivial characters the display
        # collapses to 1 - 2p^2 X^2 + p^4 X^4; emulate by direct formula
        fac = rankin_euler_factor(*_ap_zero_pair(), 5)
        vals = [c.rep.constant_value() for c in fac.coefficients]
        assert vals == [1, 0, -2 * 25, 0, 5 ** 4]

    def test_bad_prime_rejected(self, pair):
        with pytest.raises(BadPrimeError):
            rankin_euler_factor(*pair, 13)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_raised_coefficient_fails_the_root_product(self, pair, degree):
        fac = rankin_euler_factor(*pair, 3)
        coeffs = list(fac.coefficients)
        coeffs[degree] = coeffs[degree] + 1
        raised = EulerFactor(coeffs, fac.ring)
        assert not rankin.euler._power_sums_agree(*pair, 3, raised)

    def test_value_is_the_coefficient_sum(self, pair):
        fac = rankin_euler_factor(*pair, 5)
        for x in (F(2, 7), fac.ring.gen("g_t") * 3 - 2):
            total, xk = 0, 1
            for c in fac.coefficients:
                total, xk = total + c * xk, xk * x
            assert fac(x) == total


_CORRUPTED = """
import sys
import rankin.euler as E
from rankin.forms import load_bundled
if not sys.flags.optimize:
    sys.exit("run with python -O")
E._power_sums_agree = lambda f, g, p, fac: False
f, g = load_bundled("f11.eigenform"), load_bundled("g26.eigenform")
try:
    E.rankin_euler_factor(f, g, 3)
except AssertionError as exc:
    print("raised:", exc)
"""


def test_dual_path_check_survives_python_O():
    src = Path(rankin.euler.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
    assert run.stdout == "raised: dual-path factor check failed\n"


_GAUSS = QuotRing([("t", 2, [F(-1)])])


def _factor_with_roots(lams):
    """prod (1 - lambda X) for lambda = a + b i given as (a, b): over Z when
    every b is 0, else over Z[i] = Q[t]/(t^2 + 1)."""
    if any(b for _, b in lams):
        ring, one, t = _GAUSS, _GAUSS.one(), _GAUSS.gen("t")
        roots = [a + b * t for a, b in lams]
    else:
        ring, one, roots = None, F(1), [F(a) for a, _ in lams]
    coeffs = [one]
    for lam in roots:
        coeffs = [c - lam * d
                  for c, d in zip(coeffs + [0 * one], [0 * one] + coeffs)]
    return EulerFactor(coeffs, ring)


@st.composite
def weil_cases(draw):
    """(p, k, l, roots as (a, b)) with small rational or Gaussian integer
    roots, and among them zero, repeated roots, roots on |lambda|^2 = rho =
    p^(k+l-2) and pairs lambda, rho / conj(lambda)."""
    p = draw(st.sampled_from([2, 3, 5]))
    k, l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rho = p ** (k + l - 2)
    gaussian = draw(st.booleans())
    part = st.integers(-6, 6)
    lams = draw(st.lists(st.tuples(part, part if gaussian else st.just(0)),
                         min_size=1, max_size=3))
    a, b = lams[0]
    norm = a * a + b * b
    extra = draw(st.sampled_from(["zero", "repeat", "circle", "pair", None]))
    circle = [(x, y) for x in range(-25, 26)
              for y in (range(-25, 26) if gaussian else [0])
              if x * x + y * y == rho]
    if extra == "zero":
        lams.append((0, 0))
    elif extra == "repeat":
        lams.append((a, b))
    elif extra == "circle" and circle:
        lams.append(draw(st.sampled_from(circle)))
    elif extra == "pair" and norm and (rho * a) % norm == (rho * b) % norm == 0:
        lams.append((rho * a // norm, rho * b // norm))
    return p, k, l, lams


class TestWeil:
    @pytest.mark.parametrize("p", [3, 5, 7, 17, 19, 23, 29, 31, 37, 41, 43, 47])
    def test_good_primes(self, pair, p):
        fac = rankin_euler_factor(*pair, p)
        assert weil_check(fac, p, 2, 2)

    def test_vacuous_degree_zero(self):
        assert weil_check(EulerFactor([F(1)], None), 3, 2, 2) is True

    def test_adversarial_factor_fails(self):
        assert weil_check(EulerFactor([F(1), F(-9)], None), 3, 2, 2) is False

    @pytest.mark.parametrize("p", [3, 5, 7, 17, 19, 23, 29, 31, 37, 41, 43, 47])
    def test_lowered_exponent_fails(self, pair, p):
        # the mutant bound p^((k+l-3)/2), while the roots have |lambda| = p
        assert weil_check(rankin_euler_factor(*pair, p), p, 2, 1) is False

    @given(weil_cases())
    @settings(max_examples=60, deadline=None)
    @example((3, 2, 2, [(0, 0), (0, 0), (2, 0)]))  # lambda = 0, repeated
    @example((5, 2, 2, [(3, 4), (5, 0), (0, 4)]))  # |lambda|^2 = rho
    @example((3, 2, 2, [(0, 3), (0, 3)]))          # repeated on the circle
    @example((2, 2, 1, [(1, 1), (1, -1)]))         # k + l odd, on the circle
    @example((2, 2, 1, [(1, 1), (2, 0)]))          # k + l odd, one outside
    @example((2, 2, 2, [(1, 1), (2, 2)]))          # lambda, rho / conj(lambda)
    @example((3, 2, 2, [(1, 0), (9, 0)]))          # the same over Z
    @example((2, 2, 1, [(2, 0), (1, 0)]))          # the same, k + l odd
    @example((2, 2, 2, [(4, 0), (1, 1)]))          # |a_0| = |a_n| in h
    @example((3, 2, 3, [(-4, 1)]))                 # strictly inside, over Z[i]
    def test_matches_the_known_roots(self, case):
        p, k, l, lams = case
        truth = all(a * a + b * b <= p ** (k + l - 2) for a, b in lams)
        assert weil_check(_factor_with_roots(lams), p, k, l) is truth


# ---------------------------------------------------------------------------
# the Weil check over Q, kept as the oracle of the integer one
# ---------------------------------------------------------------------------

def _weil_check_oracle(factor, p, k, l):
    """The same steps as ``weil_check`` on Fraction polynomials: monic gcds,
    the Schur-Cohn step h <- h - (h_0 / h_d) reversed h, and a Sturm
    sequence of negated remainders over Q."""
    if factor.degree < 1:
        return True
    rev = factor.coefficients[::-1]
    if factor.ring is None:
        norm = [QQ(c) for c in rev]
    else:
        ext, _ = factor.ring.adjoin("X", [-c for c in rev[:-1]])
        norm = ext.gen("X").minpoly()
    rho = QQ(p) ** (k + l - 2)
    squares = poly_mul(norm, [-c if i % 2 else c for i, c in enumerate(norm)])
    H = [c * rho ** i for i, c in enumerate(squares[::2])]
    while not H[0]:
        H.pop(0)
    H = poly_divmod(H, poly_gcd(H, poly_derivative(H)))[0]
    g = poly_gcd(H, H[::-1])
    h = poly_divmod(H, g)[0]
    while len(h) > 1:
        c = h[0] / h[-1]
        if abs(c) >= 1:
            return False
        h = [x - c * y for x, y in zip(h, h[::-1])][1:]
    for r in (1, -1):
        q, rem = poly_divmod(g, [QQ(-r), QQ(1)])
        if not rem:
            g = q
    m = (len(g) - 1) // 2
    M, dickson, prev = [g[m]], [QQ(0), QQ(1)], [QQ(2)]
    for c in g[m + 1:]:
        M = poly_add(M, [c * x for x in dickson])
        dickson, prev = poly_add([QQ(0)] + dickson, poly_neg(prev)), dickson
    return _sturm_count(M, -2, 2) == m


def _sturm_count(f, a, b) -> int:
    """The number of distinct real roots of f in (a, b]."""
    seq = [f, poly_derivative(f)]
    while seq[-1]:
        seq.append(poly_neg(poly_divmod(seq[-2], seq[-1])[1]))

    def changes(x):
        signs = [v for v in (poly_eval(q, x) for q in seq[:-1]) if v]
        return sum(1 for u, v in zip(signs, signs[1:]) if (u < 0) != (v < 0))

    return changes(a) - changes(b)


@st.composite
def rational_factors(draw):
    """(p, k, l, factor) with the factor over Q a product of small pieces:
    1 - a X, 1 + b X + c X^2 with c = +-rho (roots on the circle, or
    w = +-1 for b = 0), random quadratics, some of them repeated."""
    p = draw(st.sampled_from([2, 3, 5]))
    k, l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rho = p ** (k + l - 2)
    small = st.fractions(-9, 9, max_denominator=3)
    piece = st.one_of(
        st.builds(lambda a: [F(1), -a], small),
        st.builds(lambda b, s: [F(1), b, F(s * rho)], small, st.sampled_from([1, -1])),
        st.builds(lambda b, c: [F(1), b, c], small, small))
    coeffs = [F(1)]
    for fac in draw(st.lists(piece, min_size=1, max_size=3)):
        for _ in range(draw(st.integers(1, 2))):
            coeffs = poly_mul(coeffs, fac)
    return p, k, l, EulerFactor(coeffs, None)


class TestIntegerWeil:
    @pytest.mark.parametrize("p", [3, 5, 7, 17, 19, 23, 29, 31, 37, 41, 43, 47])
    def test_catalog_primes_and_the_exponent_mutant(self, pair, p):
        fac = rankin_euler_factor(*pair, p)
        for k, l in ((2, 2), (2, 1)):   # (2, 1): the bound p^(k+l-3)
            assert weil_check(fac, p, k, l) == _weil_check_oracle(fac, p, k, l)

    @given(rational_factors())
    @settings(max_examples=50, deadline=None)
    @example((3, 2, 2, EulerFactor([F(1), F(0), F(9)], None)))    # w = -1
    @example((3, 2, 2, EulerFactor([F(1), F(0), F(-9)], None)))   # w = 1
    @example((2, 1, 1, EulerFactor([F(1), F(-2), F(1)], None)))   # repeated 1
    @example((2, 1, 2, EulerFactor([F(1), F(1, 2), F(2)], None)))  # on the circle
    @example((2, 1, 0, EulerFactor([F(1), F(-1, 2), F(1, 4)], None)))  # rho = 1/2
    @example((2, 1, 0, EulerFactor([F(1), F(-1)], None)))              # rho = 1/2
    def test_rational_factors_match_the_oracle(self, case):
        p, k, l, fac = case
        assert weil_check(fac, p, k, l) == _weil_check_oracle(fac, p, k, l)

    @given(weil_cases())
    @settings(max_examples=30, deadline=None)
    def test_gaussian_factors_match_the_oracle(self, case):
        p, k, l, lams = case
        fac = _factor_with_roots(lams)
        assert weil_check(fac, p, k, l) == _weil_check_oracle(fac, p, k, l)

    # sparse coefficients, so that remainders skip degrees and |lc| matters
    @given(st.lists(st.sampled_from([0, 0, 0, -3, -1, 1, 2]) | st.integers(-20, 20),
                    min_size=1, max_size=7).filter(lambda f: f[-1]),
           st.integers(-3, 0), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    @example([0, 1, 0, 0, -1], -2, 1)   # x - x^4: a remainder two degrees down
    def test_sturm_count_matches_the_oracle(self, f, a, b):
        assert _zsturm_count(f, a, b) == _sturm_count([F(c) for c in f], a, b)

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=4),
           st.lists(st.integers(-6, 6), max_size=4), st.lists(st.integers(-6, 6), max_size=4))
    @settings(max_examples=60, deadline=None)
    @example([1, 1], [1, -1], [])            # gcd with the zero polynomial
    @example([2, 4], [3], [-5])             # a content the gcds drop
    def test_primitive_gcd_is_the_monic_fraction_gcd(self, common, a, b):
        f, g = poly_mul(a, common), poly_mul(b, common)
        got = _zgcd(f, g)
        assert all(type(c) is int for c in got)
        assert [F(c, got[-1]) for c in got] == poly_gcd(f, g)

    def test_weights_of_the_forms_reach_the_catalog(self, tmp_path):
        # Delta = q prod (1 - q^n)^24, level 1 and weight 12, as the f of the
        # pair: its reciprocal roots have |lambda|^2 = p^11 * p
        B = 50
        series = [1] + [0] * B
        for n in range(1, B + 1):
            for _ in range(24):
                for i in range(B, n - 1, -1):
                    series[i] -= series[i - n]
        (tmp_path / "f11.eigenform").write_text(
            "level=1 weight=12 charmod=1 field=t\n"
            + "".join(f"{n}: {series[n - 1]}\n" for n in range(1, B + 1)))
        (tmp_path / "g26.eigenform").write_text(bundled_path("g26.eigenform").read_text())
        (entry,) = run_catalog(["weil-bounds"], {"data": str(tmp_path)})["entries"]
        assert series[:5] == [1, -24, 252, -1472, 4830]
        assert (entry["status"], entry["witness"]) == ("PASS", None)


def _oracle_check(k, l, j, literal_reading=False, mutate_shift=0):
    """The dual-form symmetry at one instance (k, l, j), on integer powers
    of p: the three equalities, without the closing ratio, which cannot fail
    once they hold."""
    (e_f_star, e_f), (e_star_star, e_star), (conv_star, conv_dual) = \
        oracle_symmetry_sides(k, l, j, mutate_shift)
    if literal_reading:
        return e_star_star == e_f
    return e_f_star == e_f and e_star_star == e_star and conv_star == conv_dual


class TestInterpolationFactors:
    def test_beta_zero_gives_one(self):
        from rankin.poly import RatFunc
        for twist in (SYM_RING.var("p"), SYM_RING.var("J")):
            fac = interpolation_factors(twist)
            val = fac.modification.num.subs({"be": F(0)})
            den = fac.modification.den.subs({"be": F(0)})
            assert RatFunc(val, den) == RatFunc.from_poly(SYM_RING.one())

    def test_star_factor_unit_at_bundled_data(self):
        # f at p = 17: alpha = unit root, beta/alpha has valuation 1, so
        # 1 - beta/alpha is a unit at the chosen place
        from rankin.forms import PadicPlace, load_bundled, p_stabilize
        f = load_bundled("f11.eigenform")
        st = p_stabilize(f, 17)
        place = PadicPlace(st.ring, 17)
        # take alpha the unit root (swap if needed)
        a, b = st.alpha, st.beta
        if place.valuation(a) != 0:
            a, b = b, a
        val = place.valuation(st.ring.one() - b * a.inverse())
        assert val == 0

    def test_every_weight_at_once(self):
        assert functional_symmetry_check() is True

    @pytest.mark.parametrize("k", range(1, 6))
    def test_symmetry_sweep(self, k):
        # the oracle holds at every instance of the box with this k
        for l in range(1, k + 1):
            for j in range(0, k + 1):
                assert _oracle_check(k, l, j)

    def test_general_sides_specialize_to_the_oracle(self):
        assert len(SYMMETRY_BOX) == 70
        assert [c for c in SYMMETRY_BOX if not general_sides_specialize(*c)] == []

    def test_literal_star_reading_is_false(self):
        assert functional_symmetry_check(literal_reading=True) is False
        assert _oracle_check(2, 2, 1, literal_reading=True) is False

    def test_shifted_twist_fails(self):
        for shift in (1, -1):
            assert functional_symmetry_check(mutate_shift=shift) is False
            assert _oracle_check(4, 2, 2, mutate_shift=shift) is False

    @pytest.mark.parametrize("zeros", ["all", "convolution"])
    def test_zero_divisor_numerator_raises(self, monkeypatch, fresh_derivations, zeros):
        # the closing ratio divides by mod * mod_star and by the dual
        # convolution factor: a zero numerator there raises ZeroDivisionError
        from rankin.euler import InterpFactors
        from rankin.poly import RatFunc
        zero = RatFunc.from_poly(SYM_RING.zero())
        fac = interpolation_factors(SYM_RING.var("J"))
        mods = (zero, zero) if zeros == "all" else (fac.modification, fac.modification_star)
        monkeypatch.setattr(rankin.euler, "interpolation_factors",
                            lambda twist: InterpFactors(*mods, zero))
        with pytest.raises(ZeroDivisionError):
            functional_symmetry_check()

    def test_expanded_product_form(self):
        # at twist 1 the convolution factor times (al ga)(al de) is
        # (1 - be ga/p)(1 - be de/p)(al ga - 1)(al de - 1)
        from rankin.poly import RatFunc
        al, be, ga, de, p = (SYM_RING.var(n) for n in ("al", "be", "ga", "de", "p"))
        fac = interpolation_factors(p)
        lhs = fac.convolution * RatFunc.from_poly(al * ga * al * de)
        expect = (RatFunc(p - be * ga, p) * RatFunc(p - be * de, p)
                  * RatFunc.from_poly((al * ga - 1) * (al * de - 1)))
        assert lhs == expect


def _bad_factors(streams):
    joint, mf, mg, fstream, gstream = streams
    f, g = load_bundled("f11.eigenform"), load_bundled("g26.eigenform")
    one = joint.one()
    a2g, a11g, a13g = mg(g.a(2)), mg(g.a(11)), mg(g.a(13))
    a2f, a11f, a13f = mf(f.a(2)), mf(f.a(11)), mf(f.a(13))
    return {
        2: [one, -(a2g * a2f), a2g * a2g * 2],
        11: [one, -(a11f * a11g), a11f * a11f * mg(g.char_value(11)) * 11],
        13: [one, -(a13g * a13f), a13g * a13g * 13],
    }


class TestLocalCorrection:
    def test_coprime_newform_pair_gives_one(self, streams):
        joint, mf, mg, fstream, gstream = streams
        C, certified, residuals = local_correction(
            fstream, gstream, 286, _bad_factors(streams), 8, joint)
        assert certified and C.is_one(), residuals

    def test_trivial_level(self, streams):
        joint, *_, fstream, gstream = streams
        C, certified, _ = local_correction(fstream, gstream, 1, {}, 8, joint)
        assert certified and C.is_one()

    def test_oldform_dilation_still_polynomial(self, streams):
        joint, mf, mg, fstream, gstream = streams
        g = load_bundled("g26.eigenform")

        def gstream11(p, r):
            if p == 11:
                return mg(g.prime_power(11, r - 1)) if r >= 1 else joint.zero()
            return gstream(p, r)

        C, certified, _ = local_correction(
            fstream, gstream11, 286, _bad_factors(streams), 8, joint)
        assert certified
        assert C.degree() == 1  # C = x11

    def test_wrong_factor_not_certified(self, streams):
        joint, mf, mg, fstream, gstream = streams
        bad = dict(_bad_factors(streams))
        wrong = list(bad[11])
        wrong[2] = wrong[2] * 7
        bad[11] = wrong
        C, certified, residuals = local_correction(
            fstream, gstream, 11, {11: wrong}, 8, joint)
        assert not certified
        assert residuals[11] == {"error": "polynomiality not certified",
                                 "first_nonzero_degree": 4,
                                 "series_head": ["1", "0", "-66", "0", "-726"]}

    def test_multiplicative_across_primes(self, streams):
        # use a dilated test vector so the correction is a nontrivial monomial
        joint, mf, mg, fstream, gstream = streams
        g = load_bundled("g26.eigenform")

        def gstream11(p, r):
            if p == 11:
                return mg(g.prime_power(11, r - 1)) if r >= 1 else joint.zero()
            return gstream(p, r)

        bad = _bad_factors(streams)
        C_all, cert, _ = local_correction(fstream, gstream11, 286, bad, 8, joint)
        assert cert
        combined = {}
        for idx, p in enumerate((2, 11, 13)):
            Cp, certp, _ = local_correction(fstream, gstream11, p, {p: bad[p]},
                                            8, joint)
            assert certp
            if not combined:
                combined = {(k[0], 0, 0): v for k, v in Cp.terms.items()}
                continue
            new = {}
            for e1, v1 in combined.items():
                for (k,), v2 in Cp.terms.items():
                    e = list(e1)
                    e[idx] = k
                    new[tuple(e)] = v1 * v2
            combined = new
        assert dict(C_all.terms) == combined

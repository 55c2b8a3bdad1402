"""Eisenstein q-expansions, Siegel units, distribution relations, Hecke
operators and the group-ring-valued twisted form."""

import sys
from fractions import Fraction as F
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rankin.catalog
import rankin.eisenstein
import rankin.siegel
from rankin.cyclo import CyclotomicField
from rankin.eisenstein import (EisensteinSpec, eisenstein_constant,
                               eisenstein_qexp, equivariant_gm,
                               hecke_T, hecke_U, hecke_V, diamond, maass_raise,
                               p_depletion, two_param_eisenstein,
                               universal_gauss_sum, _GmRing)
from rankin.forms import load_bundled
from rankin.qseries import QSeries
from rankin.siegel import (distribution_check, dlog_matches_weight_two,
                           modified_unit_factors, siegel_scaled, siegel_scaled_c,
                           siegel_unit_qexp, unit_factors)
from rankin.zeta import polylog_negative
from rankin.siegel import _dlog_mismatch
from rankin.siegel import _first_mismatch as first_mismatch


def divisor_sum(n, wd, wq, zeta_pair):
    """sum_{d|n} d^wd (n/d)^wq * zeta_pair(d), by trial division of n."""
    num = int if wd >= 0 and wq >= 0 else F
    total = None
    d = 1
    while d * d <= n:
        if n % d == 0:
            for dd in {d, n // d}:
                term = zeta_pair(dd) * (num(dd) ** wd * num(n // dd) ** wq)
                total = term if total is None else total + term
        d += 1
    return total


def eisenstein_by_trial_division(spec, prec):
    """eisenstein_qexp with each coefficient a divisor_sum."""
    N = spec.conductor
    K = CyclotomicField(N)
    a = int(spec.alpha * N) % N if N > 1 else 0
    k, j, sign = spec.k, spec.j, (-1) ** spec.k
    if spec.family == "Etilde":
        def zeta_pair(d):
            return K.zeta(a * d) + K.zeta(-a * d) - 2
        wd, wq = 1, 0
    else:
        def zeta_pair(d):
            return K.zeta(a * d) + K.zeta(-a * d) * sign
        wd, wq = (0, k - 1) if spec.family == "F" else (k - 1 - j, j)
    coeffs = [eisenstein_constant(spec, K)]
    coeffs += [divisor_sum(n, wd, wq, zeta_pair) for n in range(1, prec + 1)]
    return QSeries(K, 0, coeffs, normalize=False)


def two_param_by_trial_division(alpha, k1, k2, p, prec):
    N = alpha.denominator
    K = CyclotomicField(N)
    a = int(alpha * N) % N if N > 1 else 0
    eps = 1 if (k1 + k2) % 2 else -1

    def zeta_pair(d):
        return K.zeta(a * d) + K.zeta(-a * d) * eps
    coeffs = [K.zero()] + [K.zero() if n % p == 0 else divisor_sum(n, k1, k2, zeta_pair)
                           for n in range(1, prec + 1)]
    return QSeries(K, 0, coeffs, normalize=False)


@st.composite
def eisenstein_specs(draw):
    family = draw(st.sampled_from(("E", "F", "Etilde")))
    k = 2 if family == "Etilde" else draw(st.integers(1, 6))
    j = draw(st.integers(0, k - 1)) if family == "E" else 0
    N = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 12)))
    try:
        return EisensteinSpec(family, k, F(draw(st.integers(0, N - 1)), N), j)
    except ValueError:
        assume(False)


class TestEisenstein:
    def test_etilde_half(self):
        # direct evaluation of the divisor-sum formula at n = 1 gives -4,
        # and the polylog constant is -1/4 + 1/12 = -1/6
        s = eisenstein_qexp(EisensteinSpec("Etilde", 2, F(1, 2)), 8)
        K = CyclotomicField(2)
        assert s.coefficient(0) == K.coerce(F(-1, 6))
        assert s.coefficient(1) == K.coerce(-4)

    def test_weight_two_zero_parameter(self):
        s = eisenstein_qexp(EisensteinSpec("E", 2, F(0)), 6)
        K = CyclotomicField(1)
        assert s.coefficient(0) == K.coerce(F(-1, 12))
        assert s.coefficient(1) == K.coerce(2)
        assert s.coefficient(6) == K.coerce(2 * (1 + 2 + 3 + 6))

    def test_f_family_constant(self):
        s = eisenstein_qexp(EisensteinSpec("F", 2, F(1, 5)), 4)
        assert s.coefficient(0) == CyclotomicField(5).coerce(F(-1, 12))

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            EisensteinSpec("F", 2, F(0))
        with pytest.raises(ValueError):
            EisensteinSpec("Etilde", 3, F(1, 2))
        with pytest.raises(ValueError):
            EisensteinSpec("E", 3, F(1, 5), j=4)

    @pytest.mark.parametrize("N", [3, 4, 5, 12])
    def test_polylog_matches_the_term_by_term_sum(self, N):
        # Li_(-m)(x) = sum_k A(m, k) x^(k+1) / (1 - x)^(m+1), with the
        # Eulerian numbers A(m, k) from their alternating-sum formula
        K = CyclotomicField(N)
        for m in range(7):
            eulerian = [sum((-1) ** i * comb(m + 1, i) * (k + 1 - i) ** m
                            for i in range(k + 1)) for k in range(max(m, 1))]
            for a in range(1, N):
                x = K.zeta(a)
                num = K.zero()
                for k, c in enumerate(eulerian):
                    num = num + x ** (k + 1) * c
                assert polylog_negative(m, x) == num / (1 - x) ** (m + 1), (m, a)

    @given(eisenstein_specs(), st.integers(0, 40))
    @settings(max_examples=80, deadline=None)
    def test_sieve_matches_trial_division(self, spec, prec):
        fast = eisenstein_qexp(spec, prec)
        slow = eisenstein_by_trial_division(spec, prec)
        assert fast == slow and str(fast) == str(slow)
        assert [c.coeffs for c in fast.coeffs] == [c.coeffs for c in slow.coeffs]

    def test_numeric_summation_oracle(self):
        # float check of the divisor-sum coefficients against a direct sum
        import cmath
        spec = EisensteinSpec("E", 3, F(1, 5))
        s = eisenstein_qexp(spec, 12)
        z = cmath.exp(2j * cmath.pi / 5)
        for n in (1, 7, 12):
            direct = sum((d ** 2) * (z ** (d) + (-1) ** 3 * z ** (-d))
                         for d in range(1, n + 1) if n % d == 0)
            assert abs(s.coefficient(n).to_complex() - direct) < 1e-9


class TestHeckeOperators:
    def test_U_V_identity(self):
        s = eisenstein_qexp(EisensteinSpec("E", 3, F(1, 3)), 30)
        assert hecke_U(hecke_V(s, 3), 3) == s

    def test_diamond_identity(self):
        s = eisenstein_qexp(EisensteinSpec("E", 3, F(1, 3)), 10)
        assert diamond(s, 1, None) == s

    def test_T_rejects_bad_prime(self):
        s = eisenstein_qexp(EisensteinSpec("E", 3, F(1, 3)), 10)
        with pytest.raises(ValueError, match="U operator"):
            hecke_T(s, 3, 3, None, level=9)

    def test_depletion_support(self):
        s = eisenstein_qexp(EisensteinSpec("E", 3, F(1, 5)), 20)
        d = p_depletion(s, 2)
        for n in range(0, 21, 2):
            assert d.coefficient(n).is_zero()

    def test_maass_raise_shifts_weight(self):
        e1 = maass_raise(eisenstein_qexp(EisensteinSpec("E", 1, F(1, 3)), 25))
        e2 = eisenstein_qexp(EisensteinSpec("E", 3, F(1, 3), j=1), 25)
        assert e1 == e2  # both have vanishing constant term

    def test_maass_is_derivation(self):
        a = eisenstein_qexp(EisensteinSpec("E", 1, F(1, 3)), 15)
        b = eisenstein_qexp(EisensteinSpec("E", 3, F(2, 3)), 15)
        lhs = maass_raise(a * b)
        rhs = maass_raise(a) * b + a * maass_raise(b)
        assert lhs == rhs

    def test_maass_kills_constants(self):
        K = CyclotomicField(1)
        const = QSeries(K, 0, [K.coerce(5)] + [K.zero()] * 9)
        out = maass_raise(const)
        assert all(c.is_zero() for c in out.coeffs)


class TestTwoParameterFamily:
    @pytest.mark.parametrize("k", [1, 3, 4])
    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_depleted_E(self, k, p):
        E = eisenstein_qexp(EisensteinSpec("E", k, F(1, 5)), 50)
        assert two_param_eisenstein(F(1, 5), k - 1, 0, p, 50) == p_depletion(E, p)

    def test_matches_depleted_F(self):
        Fs = eisenstein_qexp(EisensteinSpec("F", 3, F(1, 5)), 50)
        assert two_param_eisenstein(F(1, 5), 0, 2, 2, 50) == p_depletion(Fs, 2)

    def test_support_avoids_p(self):
        s = two_param_eisenstein(F(1, 5), 2, 1, 3, 30)
        for n in range(0, 31, 3):
            assert s.coefficient(n).is_zero()

    @given(st.integers(-3, 4), st.integers(-3, 4), st.sampled_from((2, 3, 5)),
           st.sampled_from((F(1, 3), F(1, 4), F(2, 5), F(5, 12), F(0))),
           st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_sieve_matches_trial_division(self, k1, k2, p, alpha, prec):
        assume(alpha.denominator % p)
        fast = two_param_eisenstein(alpha, k1, k2, p, prec)
        slow = two_param_by_trial_division(alpha, k1, k2, p, prec)
        assert fast == slow and str(fast) == str(slow)

    @pytest.mark.parametrize("k1,k2", [(-1, 3), (2, -3), (-2, 1)])
    def test_negative_weight_is_exact(self, k1, k2):
        K = CyclotomicField(5)
        s = two_param_eisenstein(F(1, 5), k1, k2, 2, 12)
        for c in s.coeffs:
            assert all(isinstance(x, (int, F)) for x in c.coeffs)
        # the defining divisor sum, with eps = -(-1)^(k1+k2) as a Fraction
        eps = -(F(-1) ** (k1 + k2))
        for n in (3, 9, 11):
            expect = K.zero()
            for d in range(1, n + 1):
                if n % d == 0:
                    expect = expect + (K.zeta(d) + K.zeta(-d) * eps) * (
                        F(d) ** k1 * F(n // d) ** k2)
            assert s.coefficient(n) == expect


def geometric_dlog(ring, n: int, x, prec: int) -> QSeries:
    """q d/dq log(1 - x q^n) = -sum_{m>=1} n x^m q^(n m), truncated."""
    coeffs = [ring.zero()] * prec
    xm = None
    m = 1
    while n * m < prec:
        xm = x if xm is None else xm * x
        coeffs[n * m] = coeffs[n * m] - xm * F(n)
        m += 1
    return QSeries(ring, 0, coeffs, normalize=False)


class TestSiegelUnits:
    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError, match="zero parameter"):
            siegel_unit_qexp(F(0), None, 10)

    def test_leading_exponent_independent_of_numerator(self):
        leads = {siegel_unit_qexp(F(a, 5), None, 10).lead for a in (1, 2, 3, 4)}
        assert leads == {F(1, 12)}

    def test_dlog_identity_small(self):
        for alpha in (F(1, 3), F(2, 5), F(5, 12)):
            ok, witness = dlog_matches_weight_two(alpha, 60)
            assert ok, witness

    def test_dlog_additive_on_products(self):
        a = siegel_unit_qexp(F(1, 5), None, 40)
        b = siegel_unit_qexp(F(2, 5), None, 40)
        assert (a * b).dlog() == a.dlog() + b.dlog()

    def test_dlog_against_geometric_oracle(self):
        # independent oracle: sum the termwise logarithmic derivatives of the
        # product, never forming the product itself
        alpha = F(1, 4)
        prec = 50
        K = CyclotomicField(4)
        g = siegel_unit_qexp(alpha, None, prec)
        total = QSeries(K, 0, [K.coerce(F(1, 12))] + [K.zero()] * prec)
        for n in range(1, prec + 1):
            total = total + geometric_dlog(K, n, K.zeta(1), prec + 1)
            total = total + geometric_dlog(K, n, K.zeta(-1), prec + 1)
        assert g.dlog() == total

    def test_leading_exponent_derived_from_dlog_identity(self):
        # the exponent is whatever makes dlog g = -F hold at q^0: solving
        # e = const(-F) - const(dlog of the tail) must reproduce the stored
        # value, for several parameters
        for alpha in (F(1, 3), F(2, 5), F(1, 12)):
            g = siegel_unit_qexp(alpha, None, 30)
            tail = QSeries(g.ring, 0, g.coeffs, unit=True, normalize=False)
            rhs = -eisenstein_qexp(EisensteinSpec("F", 2, alpha), 30)
            solved = rhs.coefficient(0) - tail.dlog().coefficient(0)
            assert g.ring.coerce(g.lead) == solved
            assert g.lead == F(1, 12)

    def test_c_variant_congruent_one(self):
        # c = 1 mod N gives g^(c^2 - 1) times (g / g) = g^(c^2 - 1)
        alpha = F(1, 5)
        c = 11
        lhs = siegel_unit_qexp(alpha, c, 30)
        g = siegel_unit_qexp(alpha, None, 30)
        assert lhs == g ** (c * c - 1)


def bernoulli2(x):
    """B2(x) = x^2 - x + 1/6."""
    x = F(x)
    return x * x - x + F(1, 6)


def unit_factors_by_fractions(alpha, beta, field, prec, scale=1):
    """The oracle of unit_factors: its parameters reduced and its lead built
    with Fraction arithmetic, one binomial exponent pair at a time."""
    alpha = F(alpha) % 1
    beta = F(beta) % 1
    if alpha == 0 and beta == 0:
        raise ValueError("Siegel unit undefined at zero parameter")
    L = field.L
    if (beta * L) % 1 != 0:
        raise ValueError(f"second parameter not of order dividing {L}")
    b = int(beta * L) % L
    t = scale * alpha
    if t % 1 != 0:
        raise ValueError(f"scale {scale} does not clear the fractional exponent {alpha}")
    t = int(t)
    lead = bernoulli2(alpha) / 2 * scale
    a0 = field.one() - field.zeta(b) if t == 0 else field.one()
    factors = [(b, t)] if 0 < t <= prec else []
    n = 1
    while True:
        e1 = scale * n + t
        e2 = scale * n - t
        if e1 > prec and e2 > prec:
            break
        if 0 < e1 <= prec:
            factors.append((b, e1))
        if 0 < e2 <= prec:
            factors.append((-b % L, e2))
        n += 1
    return lead, a0, factors


def modified_unit_factors_by_fractions(alpha, beta, field, prec, scale, c):
    """The oracle of modified_unit_factors, on Fraction parameters."""
    orders = (F(alpha) % 1).denominator, (F(beta) % 1).denominator
    if gcd(c, 6 * orders[0] * orders[1]) != 1:
        raise ValueError(f"c = {c} must be coprime to 6 and the parameter orders")
    return [(c * c, unit_factors_by_fractions(alpha, beta, field, prec, scale)),
            (-1, unit_factors_by_fractions(c * F(alpha), c * F(beta), field, prec, scale))]


def siegel_by_binomials(alpha, beta, field, prec, scale):
    """The unit product built one binomial at a time with mul_one_minus."""
    alpha, beta = F(alpha) % 1, F(beta) % 1
    b = int(beta * field.L) % field.L
    t = int(scale * alpha)
    s = QSeries.one(field, prec + 1)
    if t == 0:
        s = s * (field.one() - field.zeta(b))
    else:
        s = s.mul_one_minus(field.zeta(b), t)
    for n in range(1, prec + 1):
        if 0 < scale * n + t <= prec:
            s = s.mul_one_minus(field.zeta(b), scale * n + t)
        if 0 < scale * n - t <= prec:
            s = s.mul_one_minus(field.zeta(-b), scale * n - t)
    return QSeries(field, bernoulli2(alpha) / 2 * scale, s.coeffs, unit=True,
                   normalize=False)


@st.composite
def siegel_params(draw):
    L = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 12, 35)))
    scale = draw(st.integers(min_value=1, max_value=4))
    alpha = F(draw(st.integers(min_value=0, max_value=scale - 1)), scale)
    beta = F(draw(st.integers(min_value=0, max_value=L - 1)), L)
    assume(alpha or beta)
    return alpha, beta, CyclotomicField(L), draw(st.integers(0, 40)), scale


class TestPackedSiegelProduct:
    @given(siegel_params())
    @settings(max_examples=60, deadline=None)
    def test_matches_binomial_loop(self, params):
        fast = siegel_scaled(*params)
        slow = siegel_by_binomials(*params)
        assert fast.lead == slow.lead
        assert [c.coeffs for c in fast.coeffs] == [c.coeffs for c in slow.coeffs]
        assert str(fast) == str(slow)

    @pytest.mark.parametrize("prec", [0, 1, 2])
    def test_short_precisions(self, prec):
        K = CyclotomicField(12)
        for params in ((0, F(5, 12), K, prec, 1), (F(1, 3), F(1, 4), K, prec, 3),
                       (F(2, 3), F(0), K, prec, 3)):
            assert str(siegel_scaled(*params)) == str(siegel_by_binomials(*params))


CATALOG_SETS = ((2, 5, 7), (3, 4, 7), (2, 3, 5))


def rational(draw, scale):
    """A parameter n/d with d <= 24, often a divisor of ``scale`` so that
    scale clears it, and n from -60 to 60, so negative and > 1 too."""
    d = draw(st.one_of(st.sampled_from([k for k in range(1, scale + 1) if scale % k == 0]),
                       st.integers(1, 24)))
    return F(draw(st.integers(-60, 60)), d)


@st.composite
def unit_args(draw):
    """(alpha, beta, field, prec, scale): scale <= 6, prec <= 80 and the
    conductor often a multiple of the order of beta."""
    scale = draw(st.integers(1, 6))
    alpha, beta = rational(draw, scale), rational(draw, scale)
    L = draw(st.one_of(st.integers(1, 3).map(lambda k: k * beta.denominator),
                       st.integers(1, 24)))
    return alpha, beta, CyclotomicField(L), draw(st.integers(0, 80)), scale


def unit_view(f, *args):
    """The values f(*args) gives, each unit as (lead, a0 coordinates,
    binomials), with the types of the leads; or the ValueError text."""
    try:
        out = f(*args)
    except ValueError as e:
        return "raises", str(e)
    units = [(1, out)] if len(out) == 3 else out
    return [(w, lead, type(lead), a0.coeffs, factors) for w, (lead, a0, factors) in units]


class TestUnitFactorsOracle:
    @given(unit_args())
    @settings(max_examples=300, deadline=None)
    def test_unit_factors_equal_the_fraction_oracle(self, args):
        assert unit_view(unit_factors, *args) == unit_view(unit_factors_by_fractions, *args)

    @given(unit_args(), st.sampled_from((1, 2, 3, 5, 7, 11, 13, 25)))
    @settings(max_examples=200, deadline=None)
    def test_modified_unit_factors_equal_the_fraction_oracle(self, args, c):
        assert (unit_view(modified_unit_factors, *args, c)
                == unit_view(modified_unit_factors_by_fractions, *args, c))

    def test_error_texts(self):
        K = CyclotomicField(12)
        for args in ((0, 0, K, 5, 1), (F(7, 3), F(-12, 6), K, 5, 1),
                     (0, F(1, 5), K, 5, 1), (F(1, 4), F(1, 3), K, 5, 6)):
            got = unit_view(unit_factors, *args)
            assert got[0] == "raises" and got == unit_view(unit_factors_by_fractions, *args)
        assert unit_view(unit_factors, F(5, 4), 0, K, 5, 6) == (
            "raises", "scale 6 does not clear the fractional exponent 1/4")

    @pytest.mark.parametrize("scale", [0, -1])
    def test_scale_below_one_is_refused(self, scale):
        # scale 0 once raised range()'s own error, and -1 returned a unit
        # with lead -1/12 and no binomials
        assert unit_view(unit_factors, 0, F(1, 5), CyclotomicField(5), 10, scale) == (
            "raises", f"scale must be a positive integer, got {scale}")


def siegel_fraction_calls(f, *args):
    """The calls into fractions.py made directly from rankin.siegel while
    f(*args) runs: every Fraction built, combined or compared there."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if (event == "call" and frame.f_code.co_filename.endswith("fractions.py")
                and frame.f_back is not None
                and frame.f_back.f_globals.get("__name__") == "rankin.siegel"):
            count += 1

    sys.setprofile(profile)
    try:
        f(*args)
    finally:
        sys.setprofile(None)
    return count


class TestFractionFreeUnits:
    @pytest.mark.parametrize("m, N, c", CATALOG_SETS)
    @pytest.mark.parametrize("shape", ["dist1", "dist2", "dist3"])
    def test_fraction_work_does_not_grow_with_precision(self, m, N, c, shape):
        M = rankin.catalog._dist_shapes(m)[shape]
        distribution_check(0, F(1, N), M, c, 10)   # the field is built outside the count
        at = {prec: siegel_fraction_calls(distribution_check, 0, F(1, N), M, c, prec)
              for prec in (60, 120)}
        assert at[60] == at[120], at



def moved_binomial(position):
    """unit_factors with the binomial at ``position`` moved from q^e to
    q^(e+1) (and dropped when e + 1 exceeds the precision)."""
    def mutant(alpha, beta, field, prec, scale=1):
        lead, a0, factors = unit_factors(alpha, beta, field, prec, scale)
        if factors:
            b, e = factors[position]
            del factors[position]
            if e < prec:
                factors.append((b, e + 1))
        return lead, a0, factors
    return mutant


# Mutants of the c-modified unit cg = g^(c^2) / g_c that the identity must
# kill, as (multiplier of the parameters of g_c, scale of g_c, position of a
# moved binomial).  A wrong exponent of g (c^2 + 1) is not among them: the
# relation holds for g and for g_c alone, so it holds for every g^a / g_c^b
# and cannot see the exponent.
MUTANTS = {
    "parameters-times-c-plus-1": (lambda c: c + 1, lambda scale: scale, None),
    "g_c-unscaled": (lambda c: c, lambda scale: 1, None),
    "binomial-moved": (lambda c: c, lambda scale: scale, 0),
    "last-binomial-moved": (lambda c: c, lambda scale: scale, -1),
}


def install_mutant(monkeypatch, multiplier, g_c_scale, moved):
    """Patch the helpers that both the logarithmic-derivative check and the
    product path of distribution_check read."""
    def modified(alpha, beta, field, prec, scale, c):
        m = multiplier(c)
        return [(c * c, rankin.siegel.unit_factors(alpha, beta, field, prec, scale)),
                (-1, rankin.siegel.unit_factors(m * F(alpha), m * F(beta), field, prec,
                                                g_c_scale(scale)))]
    monkeypatch.setattr(rankin.siegel, "modified_unit_factors", modified)
    if moved is not None:
        monkeypatch.setattr(rankin.siegel, "unit_factors", moved_binomial(moved))


def scaled_c_by_series(multiplier, g_c_scale):
    """The (mutated) c-modified unit as a series power over a series."""
    def unit_c(alpha, beta, field, prec, scale, c):
        m = multiplier(c)
        g = siegel_scaled(alpha, beta, field, prec, scale)
        g_c = siegel_scaled(m * F(alpha), m * F(beta), field, prec, g_c_scale(scale))
        return g ** (c * c) / g_c
    return unit_c


def series_view(f, *args):
    """f(*args) as (lead, precision, coefficient vectors), or the error it
    raises."""
    try:
        s = f(*args)
    except ValueError as e:
        return "raises", str(e)
    return s.lead, s.prec, [c.coeffs for c in s.coeffs]


def record_sides(monkeypatch):
    """The (field, prec, c, lhs, rhs) of each call distribution_check makes
    of _first_mismatch, in a list that grows as the calls are made."""
    sides = []

    def record(*args):
        sides.append(args)
        return first_mismatch(*args)
    monkeypatch.setattr(rankin.siegel, "_first_mismatch", record)
    return sides


def _by_products(field, prec, c, lhs, rhs):
    """distribution_check on series: each side is built as the product of
    its c-modified units, and the witness of a mismatch gives the leading
    exponents or the first coefficients that differ."""
    (alpha, beta, scale), = lhs
    left = siegel_scaled_c(alpha, beta, field, prec, scale, c)
    right = None
    for alpha, beta, scale in rhs:
        factor = siegel_scaled_c(alpha, beta, field, prec, scale, c)
        right = factor if right is None else (right * factor).truncate(prec + 1)
    ok = left == right
    witness = {"factors": len(rhs), "lead_lhs": str(left.lead),
               "lead_rhs": str(right.lead)}
    if not ok:
        if left.lead != right.lead:
            witness["mismatch"] = "leading exponent"
        else:
            for n in range(min(left.prec, right.prec)):
                if left.coeffs[n] != right.coeffs[n]:
                    witness["mismatch"] = {"index": n, "lhs": str(left.coeffs[n]),
                                           "rhs": str(right.coeffs[n])}
                    break
    return ok, witness


def _dlog_by_series(alpha, prec):
    """dlog_matches_weight_two on series: q dg/dq against -F * g."""
    g = siegel_unit_qexp(alpha, None, prec)
    lhs = g.qdq()
    rhs = (-eisenstein_qexp(EisensteinSpec("F", 2, alpha), prec) * g).truncate(g.prec)
    if lhs == rhs:
        return True, None
    for n, (x, y) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if x != y:
            return False, {"exponent": n, "lhs": str(x), "rhs": str(y)}
    return False, None


def witness_index(witness):
    mismatch = witness.get("mismatch")
    return mismatch if mismatch is None or isinstance(mismatch, str) else mismatch["index"]


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return "raises", str(e)


class TestDistribution:
    @pytest.mark.parametrize("shape", [((2, 0), (0, 1)), ((1, 0), (0, 2)),
                                       ((2, 0), (0, 2))])
    def test_shapes_at_small_precision(self, shape):
        ok, witness = distribution_check(0, F(1, 5), shape, 7, 40)
        assert ok, witness

    def test_identity_matrix_trivial(self):
        ok, _ = distribution_check(0, F(1, 5), ((1, 0), (0, 1)), 7, 20)
        assert ok

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_mutants_are_killed(self, monkeypatch, mutant):
        shape = ((2, 0), (0, 1))
        assert distribution_check(0, F(1, 5), shape, 7, 20)[0]
        install_mutant(monkeypatch, *MUTANTS[mutant])
        ok, witness = distribution_check(0, F(1, 5), shape, 7, 20)
        assert not ok and "mismatch" in witness

    @pytest.mark.parametrize("mutant", [None] + sorted(MUTANTS))
    def test_matches_product_path(self, monkeypatch, mutant):
        # _by_products, the product path, is the oracle: the same verdict
        # and witness, or the same error.  On a FAIL the test is also that
        # the criterion's first mismatch is the index the witness names.
        # The product path's c-modified units are checked against
        # g^(c^2) / g_c built as a series power over a series.  At prec 0
        # there are no binomials, so a moved binomial cannot fail.
        spec = MUTANTS[mutant] if mutant else (lambda c: c, lambda s: s, None)
        install_mutant(monkeypatch, *spec)
        sides = record_sides(monkeypatch)
        unit_c = scaled_c_by_series(*spec[:2])
        for prec in (0, 1, 2, 30):
            must_fail = mutant is not None and (prec > 0 or spec[2] is None)
            failed = False
            for (m, N, c) in CATALOG_SETS:
                for M in (((m, 0), (0, 1)), ((1, 0), (0, m)), ((m, 0), (0, m))):
                    sides.clear()
                    got = outcome(distribution_check, 0, F(1, N), M, c, prec)
                    (field, prec, c, lhs, rhs), = sides
                    assert got == outcome(_by_products, field, prec, c, lhs, rhs)
                    for alpha, beta, scale in lhs + rhs:
                        args = alpha, beta, field, prec, scale, c
                        assert (series_view(rankin.siegel.siegel_scaled_c, *args)
                                == series_view(unit_c, *args))
                    if got[0] == "raises":
                        continue
                    ok, witness = got
                    assert first_mismatch(field, prec, c, lhs, rhs)[0] == witness_index(witness)
                    failed = failed or not ok
            assert failed == must_fail, prec

    @pytest.mark.parametrize("dropped", [0, 1, 3])
    def test_dropped_rhs_factor_fails(self, monkeypatch, dropped):
        sides = record_sides(monkeypatch)
        assert distribution_check(0, F(1, 5), ((2, 0), (0, 2)), 7, 30)[0]
        (field, prec, c, lhs, rhs), = sides
        rhs = rhs[:dropped] + rhs[dropped + 1:]
        index = first_mismatch(field, prec, c, lhs, rhs)[0]
        ok, witness = _by_products(field, prec, c, lhs, rhs)
        assert index is not None and not ok
        assert index == witness_index(witness)

    @pytest.mark.parametrize("mutant", [None] + sorted(MUTANTS))
    def test_fail_witness_computes_no_series_product(self, monkeypatch,
                                                      refuse_series_kernels, mutant):
        if mutant:
            install_mutant(monkeypatch, *MUTANTS[mutant])
        sides = record_sides(monkeypatch)
        cases = []
        for (m, N, c) in CATALOG_SETS:
            for M in (((m, 0), (0, 1)), ((1, 0), (0, m)), ((m, 0), (0, m))):
                sides.clear()
                got = outcome(distribution_check, 0, F(1, N), M, c, 30)
                if got[0] != "raises":
                    cases.append((M, N, c, outcome(_by_products, *sides[0])))
        refuse_series_kernels()
        for M, N, c, expected in cases:
            assert distribution_check(0, F(1, N), M, c, 30) == expected

    def test_non_integral_coefficient_raises(self, monkeypatch):
        # (1 - zeta q)^(1/2) (1 - zeta^-1 q)^(1/2) ... has -(zeta + zeta^-1)/2 at q
        def square_root(alpha, beta, field, prec, scale, c):
            return [(F(1, 2), unit_factors(alpha, beta, field, prec, scale))]
        monkeypatch.setattr(rankin.siegel, "modified_unit_factors", square_root)
        with pytest.raises(ArithmeticError, match="coefficient 1 .* not integral"):
            rankin.siegel._coefficient(CyclotomicField(5), 4, 7, [(F(1, 2), F(1, 5), 2)], 2)

    def test_negative_precision_is_rejected(self):
        with pytest.raises(ValueError, match="prec must be >= 0"):
            distribution_check(0, F(1, 5), ((2, 0), (0, 1)), 7, -1)
        with pytest.raises(ValueError, match="prec must be >= 0"):
            distribution_check(0, F(1, 5), ((1, 0), (0, 1)), 7, -1)

    def test_unsupported_shape(self):
        with pytest.raises(ValueError, match="supported"):
            distribution_check(0, F(1, 5), ((1, 1), (0, 2)), 7, 20)

    def test_monotone_in_precision(self):
        for prec in (20, 30, 45):
            ok, _ = distribution_check(0, F(1, 4), ((3, 0), (0, 1)), 7, prec)
            assert ok


CATALOG_ALPHAS = [F(a, N) for N in (3, 4, 5, 12) for a in range(1, N)]


def lead_plus_one(alpha, beta, field, prec, scale=1):
    lead, a0, factors = unit_factors(alpha, beta, field, prec, scale)
    return lead + 1, a0, factors


divisor_rows = rankin.eisenstein._divisor_rows


def divisor_rows_sign_flipped(N, a, sign, *args, **kwargs):
    return divisor_rows(N, a, -sign, *args, **kwargs)

# Mutants of the dlog identity, as (module, helper, replacement); each helper
# is read by both the row check and the series path.
DLOG_MUTANTS = {
    "binomial-moved": (rankin.siegel, "unit_factors", moved_binomial(0)),
    "last-binomial-moved": (rankin.siegel, "unit_factors", moved_binomial(-1)),
    "zeta-minus-ad-sign": (rankin.eisenstein, "_divisor_rows", divisor_rows_sign_flipped),
    "lead-plus-one": (rankin.siegel, "unit_factors", lead_plus_one),
}


class TestDlogRows:
    @pytest.mark.parametrize("mutant", [None] + sorted(DLOG_MUTANTS))
    @pytest.mark.parametrize("prec", [0, 1, 2, 30])
    def test_matches_series_path(self, monkeypatch, mutant, prec):
        # _dlog_by_series, the series path, is the oracle: the same verdict
        # and witness, or the same error.  A FAIL returns the series path's
        # own witness, so there the test is that the first nonzero reduced
        # row is the exponent the witness names.  At prec 0 there are no
        # binomials and no divisor sums, so only the lead mutant can fail.
        if mutant:
            monkeypatch.setattr(*DLOG_MUTANTS[mutant])
        must_fail = mutant is not None and (prec > 0 or mutant == "lead-plus-one")
        for alpha in CATALOG_ALPHAS:
            got = outcome(dlog_matches_weight_two, alpha, prec)
            assert got == outcome(_dlog_by_series, alpha, prec)
            ok, witness = got
            assert ok != must_fail, (alpha, witness)
            if not ok:
                assert _dlog_mismatch(alpha, prec) == witness["exponent"]

    @pytest.mark.parametrize("mutant", [None] + sorted(DLOG_MUTANTS))
    def test_fail_witness_computes_no_series_product(self, monkeypatch,
                                                      refuse_series_kernels, mutant):
        if mutant:
            monkeypatch.setattr(*DLOG_MUTANTS[mutant])
        expected = [outcome(_dlog_by_series, alpha, 30) for alpha in CATALOG_ALPHAS]
        refuse_series_kernels()
        assert [dlog_matches_weight_two(alpha, 30) for alpha in CATALOG_ALPHAS] == expected

    def test_pass_builds_no_series(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a series was built")
        for name in ("__init__", "qdq", "__mul__"):
            monkeypatch.setattr(QSeries, name, refuse)
        for alpha in CATALOG_ALPHAS:
            assert dlog_matches_weight_two(alpha, 100) == (True, None)

    @pytest.mark.parametrize("call", [
        lambda: dlog_matches_weight_two(F(1, 3), -3),
        lambda: siegel_unit_qexp(F(1, 3), None, -2),
        lambda: eisenstein_qexp(EisensteinSpec("F", 2, F(1, 3)), -2),
        lambda: two_param_eisenstein(F(1, 5), 1, 1, 2, -2),
        lambda: siegel_scaled(0, F(1, 5), CyclotomicField(5), -3),
        lambda: siegel_scaled_c(0, F(1, 5), CyclotomicField(5), -3, 1, 7),
    ])
    def test_negative_precision_is_rejected(self, call):
        with pytest.raises(ValueError, match=r"prec must be >= 0, got -\d"):
            call()


class TestEquivariantForm:
    def test_gauss_sum_twist_multiplicativity(self):
        f = load_bundled("f11.eigenform")
        r = _GmRing(5, f.ring)
        t6 = universal_gauss_sum(6, 5, r)
        assert t6 == r.bracket(2) * universal_gauss_sum(3, 5, r)
        assert t6 == r.bracket(3) * universal_gauss_sum(2, 5, r)

    def test_gauss_sum_at_zero(self):
        f = load_bundled("f11.eigenform")
        r = _GmRing(5, f.ring)
        expect = r.zero()
        for a in r.units:
            expect = expect + r.bracket(a)
        assert universal_gauss_sum(0, 5, r) == expect

    def test_hecke_eigen_identity(self):
        f = load_bundled("f11.eigenform")
        s, ring = equivariant_gm(f, 3, 40)

        def chi(n):
            return (ring.bracket(n % 3) * ring.bracket(n % 3)
                    * ring.coerce(ring.embed_f(f.char_value(n))))

        lhs = hecke_T(s, 2, 2, chi)
        rhs = s * (ring.bracket(2) * ring.coerce(ring.embed_f(f.a(2))))
        assert lhs == rhs.truncate(lhs.prec)

    def test_diamond_reading_resolved(self):
        # nebentypus evaluated at n works; evaluated at m it fails (the two
        # readings first differ at the q^7 coefficient, so the window must
        # reach it after the degree-7 operator shrinks precision)
        g = load_bundled("g26.eigenform")
        s, ring = equivariant_gm(g, 3, 84)

        def chi_at(point):
            def chi(n):
                arg = n if point == "n" else 3
                return (ring.bracket(n % 3) * ring.bracket(n % 3)
                        * ring.coerce(ring.embed_f(g.char_value(arg))))
            return chi

        rhs = s * (ring.bracket(7) * ring.coerce(ring.embed_f(g.a(7))))
        good = hecke_T(s, 7, 2, chi_at("n"))
        assert good == rhs.truncate(good.prec)
        bad = hecke_T(s, 7, 2, chi_at("m"))
        assert bad != rhs.truncate(bad.prec)

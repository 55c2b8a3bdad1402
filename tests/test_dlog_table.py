"""The dlog identity decided on one net table, and the parameter types of the
series and the units.

_dlog_mismatch nets the binomials of the Siegel unit against the table of
F's divisor sums (eisenstein.f_table) and sieves only what is left.  The
route it replaced, F's full rows with theta added to them binomial by
binomial, is the oracle (conftest.dlog_mismatch_by_rows): both must name the
same first mismatch, on the plain identity, with the sign of F dropped, and
under each mutant of DLOG_MUTANTS.
"""

from contextlib import nullcontext
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankin import eisenstein, siegel
from rankin.eisenstein import (EisensteinSpec, _divisor_rows, check_prec, f_table,
                               eisenstein_rows, sieve_rows, two_param_eisenstein)
from rankin.cyclo import CyclotomicField
from rankin.siegel import (_dlog_mismatch, distribution_args, distribution_check,
                           dlog_matches_weight_two, modified_unit_factors, siegel_unit_qexp)
from conftest import CATALOG_ALPHAS, DLOG_MUTANTS, dlog_mismatch_by_rows


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return "raises", str(e)


def typed(row):
    return [(type(x), x) for x in row]


class TestNetTable:
    @given(st.integers(2, 30), st.sampled_from([0, 1, 2, 30, 100]), st.sampled_from([1, -1]),
           st.sampled_from([None] + sorted(DLOG_MUTANTS)))
    @settings(max_examples=60, deadline=None)
    @example(3, 30, -1, None)      # the catalog's mutation: dlog g = +F
    @example(12, 100, 1, None)
    @example(4, 30, 1, "zeta-minus-ad-sign")
    def test_equals_the_row_oracle(self, N, prec, sign, mutant):
        with mock.patch.object(*DLOG_MUTANTS[mutant]) if mutant else nullcontext():
            for a in range(1, N):
                got = outcome(_dlog_mismatch, F(a, N), prec, sign)
                assert got == outcome(dlog_mismatch_by_rows, F(a, N), prec, sign), (a, N)

    @given(st.integers(1, 40), st.integers(0, 39), st.integers(1, 6), st.integers(0, 120))
    @settings(max_examples=60, deadline=None)
    @example(2, 1, 1, 30)          # a = -a mod 2: the two entries of each e merge
    @example(1, 0, 3, 20)          # alpha = 0
    def test_sieved_table_is_the_divisor_rows(self, N, a, k, prec):
        a %= N
        want = _divisor_rows(N, a, (-1) ** k, 0, k - 1, prec)
        got = [[0] * N for _ in range(prec + 1)]
        sieve_rows(got, f_table(N, a, k, prec).items(), N)
        assert [typed(r) for r in got] == [typed(r) for r in want]
        negated = [[0] * N for _ in range(prec + 1)]
        sieve_rows(negated, f_table(N, a, k, prec, -1).items(), N)
        assert negated == [[-x for x in r] for r in want]
        if k != 2 or a:
            spec = EisensteinSpec("F", k, F(a, N))
            n, b = spec.conductor, spec.alpha.numerator
            rows = eisenstein_rows(spec, prec)[2]
            assert [typed(r) for r in rows] == [
                typed(r) for r in _divisor_rows(n, b, (-1) ** k, 0, k - 1, prec)]

    def test_pass_sieves_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a row was sieved")
        for module, name in ((siegel, "sieve_rows"), (eisenstein, "sieve_rows"),
                             (eisenstein, "_divisor_rows")):
            monkeypatch.setattr(module, name, refuse)
        for alpha in CATALOG_ALPHAS:
            assert dlog_matches_weight_two(alpha, 100) == (True, None)


class TestParameterTypes:
    @pytest.mark.parametrize("call, name", [
        (lambda: dlog_matches_weight_two(0.5, 10), "alpha"),
        (lambda: dlog_matches_weight_two("1/3", 10), "alpha"),
        (lambda: dlog_matches_weight_two(0.1, 5), "alpha"),
        (lambda: dlog_matches_weight_two(F(1, 3), True), "prec"),
        (lambda: dlog_matches_weight_two(F(1, 3), 10.0), "prec"),
        (lambda: distribution_check(0, 0.1, ((2, 0), (0, 1)), 7, 10), "beta"),
        (lambda: distribution_check(0.0, F(1, 3), ((2, 0), (0, 1)), 7, 10), "alpha"),
        (lambda: EisensteinSpec("F", 2, 0.5), "alpha"),
        (lambda: EisensteinSpec("E", 4, "1/3"), "alpha"),
        (lambda: siegel_unit_qexp(0.5, None, 5), "alpha"),
        (lambda: two_param_eisenstein(0.2, 1, 1, 2, 5), "alpha"),
        (lambda: check_prec(True), "prec"),
        (lambda: check_prec(2.0), "prec"),
        (lambda: EisensteinSpec("E", 2.0, F(1, 5)), "k"),
        (lambda: EisensteinSpec("F", True, F(1, 5)), "k"),
        (lambda: EisensteinSpec("F", 3, F(1, 5), j=0.0), "j"),
        (lambda: EisensteinSpec("E", 3, F(1, 5), j=False), "j"),
        (lambda: distribution_check(0, F(1, 3), ((2, 0), (0, 1)), 7.0, 10), "c"),
        (lambda: distribution_check(0, F(1, 3), ((2, 0), (0, 1)), True, 10), "c"),
        (lambda: distribution_args(0, F(1, 3), ((2, 0), (0, 1)), F(7)), "c"),
        (lambda: siegel_unit_qexp(F(1, 5), 7.0, 5), "c"),
    ])
    def test_not_an_int_or_a_fraction(self, call, name):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            call()

    @pytest.mark.parametrize("c", [1, 0, -1, -5])
    def test_c_must_exceed_one(self, c):
        # with c = 1 or -1 the c-modified unit is a constant, so a relation
        # of such units could not fail
        M = ((2, 0), (0, 1))
        for call in (lambda: distribution_check(0, F(1, 5), M, c, 10),
                     lambda: distribution_args(0, F(1, 5), M, c),
                     lambda: siegel_unit_qexp(F(1, 5), c, 6),
                     lambda: modified_unit_factors(0, F(1, 5), CyclotomicField(5), 6, 1, c)):
            with pytest.raises(ValueError, match=f"^c must be > 1, got {c}$"):
                call()

    def test_ints_and_fractions_are_read(self):
        check_prec(0)
        assert dlog_matches_weight_two(F(1, 3), 10) == (True, None)
        assert EisensteinSpec("E", 4, 3).alpha == 0
        assert siegel_unit_qexp(F(4, 3), None, 5) == siegel_unit_qexp(F(1, 3), None, 5)
        assert distribution_check(0, F(1, 3), ((2, 0), (0, 1)), 7, 10)[0]

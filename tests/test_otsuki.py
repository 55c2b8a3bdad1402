"""The weighted-trace identity for corrected cyclotomic elements."""

from fractions import Fraction as F

import pytest

from rankin.otsuki import (CycloCover, bareiss_det, bareiss_solve,
                           corrected_element, otsuki_trace_check)
from rankin.poly import PolyRing, QQ


class TestFractionFreeAlgebra:
    def test_bareiss_det_matches_rational(self):
        R = PolyRing(("t",))
        t = R.var("t")
        mat = [[t + 1, R.const(2)], [R.const(3), t - 1]]
        assert bareiss_det(mat) == t * t - 1 - 6

    def test_bareiss_solve(self):
        R = PolyRing(("t",))
        t = R.var("t")
        mat = [[R.one(), t], [R.zero(), R.one()]]
        nums, det = bareiss_solve(mat, [t, R.one()])
        assert det == R.one() and nums[0].is_zero() and nums[1] == R.one()


class TestTraceIdentity:
    def test_level_one(self):
        ok, wit = otsuki_trace_check(1, 3, {3: ([F(1), F(-2)], [F(1), F(1)])})
        assert ok, wit

    def test_level_one_value(self):
        # hand value: x'_3 has trace (8 tau - 1)/(1 - 2 tau) when F = 1 - 2X,
        # G = 1 + X
        ring = PolyRing(("tau3",))
        nums, den = corrected_element(3, {3: ([F(1), F(-2)], [F(1), F(1)])}, ring)
        tau = ring.var("tau3")
        # trace of x'_3 to level 1: coefficient bookkeeping done by the
        # checker; verify via the cover directly
        cover = CycloCover(3, ring)
        from rankin.otsuki import corrected_element_cover, project_to_field
        traced = project_to_field(cover, 1,
                                  cover.galois_trace(1, corrected_element_cover(
                                      cover, 3, {3: ([F(1), F(-2)], [F(1), F(1)])})))
        n, d = traced
        assert n[0] * (1 - 2 * tau) == (8 * tau - 1) * d

    def test_trivial_families_classical_trace(self):
        for (m, ell) in ((1, 3), (4, 3), (3, 5)):
            fams = {v: ([F(1)], [F(1)]) for v in (2, 3, 5) }
            ok, wit = otsuki_trace_check(m, ell, fams)
            assert ok, (m, ell, wit)

    # at m = 5 a unit differs from its inverse, so a right side that applies
    # ell in place of ell^-1 fails there
    @pytest.mark.parametrize("m,ell", [(1, 3), (4, 3), (3, 5), (5, 2)])
    def test_two_polynomial_families(self, m, ell):
        fam_a = {2: ([F(1), F(-1)], [F(1), F(0), F(-1)]),
                 3: ([F(1), F(-2)], [F(1), F(1)]),
                 5: ([F(1), F(-1), F(2)], [F(1), F(3)])}
        fam_b = {2: ([F(1), F(2)], [F(1), F(-1)]),
                 3: ([F(1), F(1, 2)], [F(1), F(0), F(1)]),
                 5: ([F(1), F(-1)], [F(1), F(2)])}
        for fam in (fam_a, fam_b):
            ok, wit = otsuki_trace_check(m, ell, fam)
            assert ok, (m, ell, wit)

    def test_literal_hatted_reading_fails(self):
        ok, _ = otsuki_trace_check(1, 3, {3: ([F(1), F(-2)], [F(1), F(1)])},
                                   literal_reading=True)
        assert not ok

    def test_ell_dividing_m_rejected(self):
        with pytest.raises(ValueError):
            otsuki_trace_check(3, 3, {3: ([F(1)], [F(1)])})

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="16"):
            otsuki_trace_check(25, 3, {3: ([F(1)], [F(1)]), 5: ([F(1)], [F(1)])})

    def test_constant_term_guard(self):
        with pytest.raises(ValueError, match="constant term"):
            otsuki_trace_check(1, 3, {3: ([F(0), F(1)], [F(1)])})

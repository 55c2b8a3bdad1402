"""The weighted-trace identity for corrected cyclotomic elements."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankin.otsuki import (CycloCover, _cycle_min, bareiss_solve,
                           corrected_element, otsuki_trace_check)
from rankin.poly import PolyRing, QQ


def bareiss_det(mat):
    """Fraction-free determinant of a square MPoly matrix (the oracle)."""
    n = len(mat)
    ring = mat[0][0].ring
    a = [row[:] for row in mat]
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        if a[k][k].is_zero():
            piv = next((r for r in range(k + 1, n) if not a[r][k].is_zero()), None)
            if piv is None:
                return ring.zero()
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num.exact_div(prev)
            a[i][k] = ring.zero()
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


RINGS = (PolyRing(("t",)), PolyRing(("t", "u")))


@st.composite
def systems(draw):
    """(number of variables, matrix, rhs), the entries as integer-coefficient
    exponent dicts: n x n with n in 1..5, over one or two variables, about a
    third of the entries zero."""
    nvars = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    entry = st.one_of(st.just({}), st.just({}),
                      st.dictionaries(exps, st.integers(-3, 3), min_size=1, max_size=2))
    mat = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    rhs = draw(st.lists(entry, min_size=n, max_size=n))
    return nvars, mat, rhs


def _polys(ring, rows):
    return [ring.from_terms(r) for r in rows]


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

    @given(systems())
    @settings(max_examples=50, deadline=None)
    # zero leading pivot, one swap
    @example((1, [[{}, {(1,): 1}], [{(0,): 2}, {(0,): 1}]], [{(0,): 1}, {(1,): 1}]))
    # three swaps: a row order that is an odd (4-cycle) permutation
    @example((1, [[{}, {}, {}, {(0,): 1}], [{(0,): 1}, {}, {}, {}],
               [{}, {(1,): 1}, {}, {}], [{}, {}, {(0,): 2}, {(1,): 1}]],
              [{(0,): 1}, {(1,): 1}, {(0,): 3}, {}]))
    # singular: a zero column, and two proportional rows
    @example((1, [[{}, {(0,): 1}], [{}, {(1,): 1}]], [{(0,): 1}, {}]))
    @example((1, [[{(1,): 1}, {(0,): 2}], [{(2,): 1}, {(1,): 2}]], [{(0,): 1}, {}]))
    def test_solve_matches_cramer(self, system):
        nvars, mat_terms, rhs_terms = system
        ring = RINGS[nvars - 1]
        mat = [_polys(ring, row) for row in mat_terms]
        rhs = _polys(ring, rhs_terms)
        n = len(rhs)
        det = bareiss_det(mat)
        if det.is_zero():
            with pytest.raises(ZeroDivisionError):
                bareiss_solve(mat, rhs)
            return
        nums, got_det = bareiss_solve(mat, rhs)
        # the Cramer determinants themselves, not merely their ratios
        assert got_det.terms == det.terms
        for col in range(n):
            cramer = bareiss_det([[rhs[i] if j == col else mat[i][j] for j in range(n)]
                                  for i in range(n)])
            assert nums[col].terms == cramer.terms


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

    def test_cycle_min_blocks_are_the_weak_components(self):
        # oracle: grow each weak component of k -> v k mod M by search,
        # least untaken element first
        def components(v, M):
            out, taken = [], set()
            for k0 in range(M):
                if k0 in taken:
                    continue
                comp, frontier = {k0}, [k0]
                while frontier:
                    k = frontier.pop()
                    for j in [k * v % M] + [j for j in range(M) if j * v % M == k]:
                        if j not in comp:
                            comp.add(j)
                            frontier.append(j)
                out.append(sorted(comp))
                taken |= comp
            return out

        for M in range(1, 40):
            for v in range(M):
                blocks = {}
                for k in range(M):
                    blocks.setdefault(_cycle_min(k, v, M), []).append(k)
                assert list(blocks.values()) == components(v, M), (v, M)

    def test_constant_term_guard(self):
        with pytest.raises(ValueError, match="constant term"):
            otsuki_trace_check(1, 3, {3: ([F(0), F(1)], [F(1)])})

"""The weighted-trace identity for corrected cyclotomic elements."""

import random
import re
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import solve
from rankin import otsuki
from rankin.arith import euler_phi, prime_factors
from rankin.catalog import _OTSUKI_FAMILY_A, _OTSUKI_FAMILY_B
from rankin.cyclo import CyclotomicField
from rankin.otsuki import (CycloCover, bareiss_solve, corrected_element,
                           corrected_element_cover, otsuki_trace_check,
                           project_to_field, trace_check_args, trace_to_field)
from rankin.poly import PolyRing, QQ, RatFunc, poly_add


def _cycle_min(k, v, M):
    """The least element of the cycle that k -> v k mod M runs into.  Each
    weak component of this functional graph holds exactly one cycle, so the
    value names the component of k."""
    seen = {}
    while k not in seen:
        seen[k] = len(seen)
        k = k * v % M
    return min(list(seen)[seen[k]:])


def weak_components(v, M):
    """The weak components of k -> v k mod M, each ascending, in the order of
    their least elements."""
    blocks = {}
    for k in range(M):
        blocks.setdefault(_cycle_min(k, v, M), []).append(k)
    return list(blocks.values())


def solve_poly_per_block(cover, coeffs, v, vec):
    """The oracle of CycloCover.solve_poly: one Bareiss solve of the whole
    system on each weak component.  Returns, per k, x_k det and det, with
    det the determinant of k's block, and the common denominator: den times
    every block's determinant."""
    nums, den = vec
    ring, M = cover.ring, cover.M
    t = ring.var(f"tau{v}")
    sol = [None] * M
    detprod = ring.one()
    for comp in weak_components(v, M):
        idx = {k: i for i, k in enumerate(comp)}
        n = len(comp)
        mat = [[ring.zero() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            mat[i][i] = mat[i][i] + 1
        # F(shat) column action: basis e_k -> sum_j coeffs[j] tau^j e_(v^j k)
        for j, c in enumerate(coeffs[1:], start=1):
            if not QQ(c):
                continue
            tj = t ** j * QQ(c)
            for k in comp:
                target = (k * pow(v, j, M)) % M
                mat[idx[target]][idx[k]] = mat[idx[target]][idx[k]] + tj
        xs, det = bareiss_solve(mat, [nums[k] for k in comp])
        for k, x in zip(comp, xs):
            sol[k] = (x, det)
        detprod = detprod * det
    return sol, den * detprod


def galois_trace_orbit_sum(cover, m, vec):
    """The oracle of the closed-form trace: the orbit sum over the units
    t = 1 mod m of Z/M, in the cover."""
    out = [cover.ring.zero()] * cover.M
    for t in range(1, cover.M + 1):
        if gcd(t, cover.M) == 1 and t % m == 1 % m:
            out = [a + b for a, b in zip(out, cover.frobenius(t, vec)[0])]
    return out, vec[1]


def project_by_solve(cover, m, vec):
    """The oracle of project_to_field and trace_to_field: a cover vector
    projected by e_k -> zeta_M^k and expressed in the zeta_m power basis
    inside Q(zeta_M) (m | M) by a Gauss-Jordan solve over Q."""
    M = cover.M
    field = CyclotomicField(M)
    nums, den = vec
    big = [cover.ring.zero()] * field.phi
    for k, x in enumerate(nums):
        if x.is_zero():
            continue
        for i, c in enumerate(field._powers[k]):
            if c:
                big[i] = big[i] + x * c
    cols = [field._powers[k * (M // m)] for k in range(euler_phi(m))]
    coords = solve([[QQ(col[i]) for col in cols] for i in range(field.phi)],
                   big, cover.ring.zero())
    if coords is None:
        raise ValueError("vector does not lie in the subfield")
    return coords, den


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
        x = corrected_element_cover(cover, 3, {3: ([F(1), F(-2)], [F(1), F(1)])})
        for n, d in (project_by_solve(cover, 1, galois_trace_orbit_sum(cover, 1, x)),
                     trace_to_field(cover, 1, x)):
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
                assert weak_components(v, M) == components(v, M), (v, M)

    def test_constant_term_guard(self):
        with pytest.raises(ValueError, match="constant term"):
            otsuki_trace_check(1, 3, {3: ([F(0), F(1)], [F(1)])})


TAU_RINGS = {v: PolyRing((f"tau{v}",)) for v in (2, 3, 5, 7)}


def _random_system(rng, M, v):
    """A random F with F(0) = 1 (degree 1..4, some zero coefficients) and a
    sparse right side over Q[tau_v] with a common denominator."""
    ring = TAU_RINGS[v]
    t = ring.var(f"tau{v}")
    coeffs = [F(1)] + [F(rng.choice([0, 0, 1, -1, 2, -3, 1])) / rng.choice([1, 1, 2])
                       for _ in range(rng.randint(1, 4))]
    nums = [ring.zero()] * M
    for k in rng.sample(range(M), rng.randint(1, min(M, 4))):
        nums[k] = ring.const(rng.randint(-3, 3)) + t * rng.randint(-2, 2)
    return coeffs, (nums, ring.one() + t * rng.choice([0, 1]))


class TestCoverSolve:
    def test_substitution_solve_equals_the_per_block_oracle(self):
        # compared by cross-multiplication with each component's own
        # denominator, and checked against the operator itself
        rng = random.Random(2112)
        for trial in range(240):
            M, v = rng.randint(1, 30), rng.choice([2, 3, 5, 7])
            cover = CycloCover(M, TAU_RINGS[v])
            coeffs, vec = _random_system(rng, M, v)
            got, gden = cover.solve_poly(coeffs, v, vec)
            want, _ = solve_poly_per_block(cover, coeffs, v, vec)
            # x_k det / (det den), with det the determinant of k's block
            for k, (x, det) in enumerate(want):
                assert got[k] * det * vec[1] == x * gden, (trial, M, v, k)
            back, bden = cover.apply_poly(coeffs, v, (got, gden))
            assert all(a * vec[1] == b * bden for a, b in zip(back, vec[0])), (M, v)

    def test_denominator_is_the_product_of_the_distinct_kernels(self):
        # F = 1 - 2X at v = 2, M = 15: the orbits of 2 are {0}, {5, 10} and
        # three of length 4, and the circulant of length L has determinant
        # 1 - (2 tau)^L; the per-block denominator takes one per component
        ring = TAU_RINGS[2]
        cover = CycloCover(15, ring)
        t = ring.var("tau2")
        vec = ([ring.one()] * 15, ring.one())
        _, den = cover.solve_poly([F(1), F(-2)], 2, vec)
        assert den == (1 - 2 * t) * (1 - 4 * t ** 2) * (1 - 16 * t ** 4)
        _, oden = solve_poly_per_block(cover, [F(1), F(-2)], 2, vec)
        assert oden == (1 - 2 * t) * (1 - 4 * t ** 2) * (1 - 16 * t ** 4) ** 3

    @pytest.mark.parametrize("M,v", [(15, 2), (21, 2), (30, 2), (26, 3), (24, 7)])
    def test_one_kernel_solve_per_cycle_length(self, monkeypatch, M, v):
        calls = []

        def counting(mat, rhs):
            calls.append(len(rhs))
            return bareiss_solve(mat, rhs)

        monkeypatch.setattr(otsuki, "bareiss_solve", counting)
        ring = TAU_RINGS[v]
        cover = CycloCover(M, ring)
        coeffs = [F(1), F(-1), F(3)]
        comps = weak_components(v, M)
        # v^M k lies on the cycle of k's component
        lengths = {len({k * pow(v, M + i, M) % M for i in range(M)})
                   for k in range(M)}
        assert len(comps) > len(lengths)
        # a vector supported on one weak component: one solve at most
        comp = max(comps, key=len)
        nums = [ring.one() if k in comp else ring.zero() for k in range(M)]
        cover.solve_poly(coeffs, v, (nums, ring.one()))
        assert len(calls) <= 1
        # every component at once: once per distinct cycle length, not per
        # block
        del calls[:]
        cover.solve_poly(coeffs, v, ([ring.one()] * M, ring.one()))
        assert sorted(calls) == sorted(lengths)


def otsuki_trace_check_unscaled(m, ell, families, literal_reading=False):
    """The oracle of otsuki_trace_check: both sides computed on the families
    as given, in the original tau_v, with Fraction coefficients."""
    M = m * ell
    ring = PolyRing(tuple(f"tau{v}" for v in trace_check_args(m, ell, families)))
    cover = CycloCover(M, ring)
    x_big = corrected_element_cover(cover, M, families)
    lhs = project_by_solve(cover, m, galois_trace_orbit_sum(cover, m, x_big))
    small = CycloCover(m, ring)
    Fl, Gl = families[ell]
    diff = poly_add([QQ(ell - 1) * c for c in Gl], [QQ(-ell) * c for c in Fl])
    rhs = small.apply_poly(diff, ell, corrected_element_cover(small, m, families))
    rhs = small.solve_poly(Fl, ell, rhs)
    rhs = project_by_solve(small, m, small.frobenius(pow(ell, -1, m), rhs))
    if literal_reading:
        lhs = ([x * ring.var(f"tau{ell}") for x in lhs[0]], lhs[1])
    (ln, ld), (rn, rd) = lhs, rhs
    for i in range(len(ln)):
        if ln[i] * rd != rn[i] * ld:
            return False, {"basis_index": i, "lhs": f"({ln[i]}) / ({ld})",
                           "rhs": f"({rn[i]}) / ({rd})"}
    return True, None


def witness_side(text, ring):
    """A witness side "(num) / (den)" read back as a RatFunc over ring: each
    integer that is not an exponent or part of a name becomes a Fraction."""
    text = re.sub(r"(?<![\w*^])(\d+)", r"F(\1)", text).replace("^", "**")
    return eval(text, {"F": F, **{n: RatFunc.from_poly(ring.var(n)) for n in ring.names}})


# every (m, ell) that otsuki_trace_check accepts with phi(m ell) <= 8
SMALL_PAIRS = [(m, ell) for ell in (2, 3, 5, 7) for m in range(1, 16)
               if m % ell and euler_phi(m * ell) <= 8]


@st.composite
def fractional_families(draw, primes):
    """(F_v, G_v) for each prime v: degree <= 2, constant term 1, the other
    coefficients with denominators 2..6 (zero allowed)."""
    coeff = st.builds(F, st.integers(-4, 4), st.integers(2, 6))
    poly = st.lists(coeff, min_size=0, max_size=2).map(lambda cs: [F(1)] + cs)
    return {v: (draw(poly), draw(poly)) for v in primes}


class TestIntegralFamilies:
    def test_small_pairs(self):
        assert len(SMALL_PAIRS) == 19 and (15, 2) in SMALL_PAIRS and (1, 7) in SMALL_PAIRS

    @pytest.mark.parametrize("m,ell", SMALL_PAIRS)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_verdicts_and_witnesses_equal_the_unscaled_route(self, m, ell, data):
        families = data.draw(fractional_families(prime_factors(m * ell)))
        ring = PolyRing(tuple(f"tau{v}" for v in prime_factors(m * ell)))
        for literal in (False, True):
            got = otsuki_trace_check(m, ell, families, literal_reading=literal)
            want = otsuki_trace_check_unscaled(m, ell, families, literal_reading=literal)
            assert got[0] == want[0]
            if want[1] is None:
                assert got[1] is None
                continue
            assert got[1]["basis_index"] == want[1]["basis_index"]
            for side in ("lhs", "rhs"):
                assert witness_side(got[1][side], ring) == witness_side(want[1][side], ring)

    @pytest.mark.parametrize("m,ell", SMALL_PAIRS)
    def test_integer_families_give_the_same_witness_text(self, m, ell):
        for families in (_OTSUKI_FAMILY_A, {2: ([1, 3], [1, -1, 2]), 3: ([1], [1, 5]),
                                            5: ([1, 0, -2], [1, 1]), 7: ([1, 2], [1])}):
            if set(prime_factors(m * ell)) <= set(families):
                got = otsuki_trace_check(m, ell, families, literal_reading=True)
                assert got == otsuki_trace_check_unscaled(m, ell, families,
                                                          literal_reading=True)

    @pytest.mark.parametrize("m,ell", [(1, 3), (4, 3), (3, 5), (2, 3)])
    def test_fractional_ell_family_still_fails_the_literal_reading(self, m, ell):
        families = dict(_OTSUKI_FAMILY_B)
        families[ell] = ([F(1), F(-1, 3), F(5, 6)], [F(1), F(3, 4)])
        ok, wit = otsuki_trace_check(m, ell, families, literal_reading=True)
        assert not ok and otsuki_trace_check(m, ell, families)[0]
        _, want = otsuki_trace_check_unscaled(m, ell, families, literal_reading=True)
        assert wit["basis_index"] == want["basis_index"]
        ring = PolyRing(tuple(f"tau{v}" for v in prime_factors(m * ell)))
        for side in ("lhs", "rhs"):
            assert witness_side(wit[side], ring) == witness_side(want[side], ring)

    @pytest.mark.parametrize("m,ell", [(4, 3), (3, 5)])
    def test_family_b_sides_have_int_coefficients(self, monkeypatch, m, ell):
        # both sides leave through project_to_field, the left one from
        # inside trace_to_field
        sides = []
        real = otsuki.project_to_field
        monkeypatch.setattr(otsuki, "project_to_field",
                            lambda cover, vec: sides.append(real(cover, vec)) or sides[-1])
        assert otsuki_trace_check(m, ell, _OTSUKI_FAMILY_B)[0]
        assert len(sides) == 2
        coeffs = [c for nums, den in sides for x in nums + [den] for c in x.terms.values()]
        assert coeffs and all(type(c) is int for c in coeffs)

    def test_corrected_element_is_the_unscaled_element(self):
        families = {2: ([F(1), F(1, 2)], [F(1), F(0), F(-5, 4)]),
                    3: ([F(1), F(2, 3)], [F(1), F(1, 6)])}
        ring = PolyRing(("tau2", "tau3"))
        nums, den = corrected_element(12, families, ring)
        cover = CycloCover(12, ring)
        wnums, wden = project_by_solve(cover, 12, corrected_element_cover(cover, 12, families))
        assert all(a * wden == b * den for a, b in zip(nums, wnums))

    @pytest.mark.parametrize("coeffs,error", [
        ([1.0, 0.5], TypeError), ([F(1), 0.1], TypeError), (["1"], TypeError),
        ([1, "2"], TypeError), ([], ValueError), ([F(0), F(1)], ValueError)])
    def test_family_coefficients_are_validated(self, coeffs, error):
        for families in ({3: (coeffs, [F(1)])}, {3: ([F(1)], coeffs)}):
            with pytest.raises(error):
                trace_check_args(1, 3, families)
            with pytest.raises(error):
                otsuki_trace_check(1, 3, families)
            with pytest.raises(error):
                corrected_element(3, families, PolyRing(("tau3",)))


def _integral_family(rng):
    """(F, G) with int coefficients, constant term 1 and degree <= 2."""
    return tuple([1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))]
                 for _ in range(2))


def _cover_vectors(rng, cover):
    """Cover vectors of level M = m ell: every basis vector, x'_M for two
    random integral families, and sparse random vectors whose other
    coordinates are ring.zero()."""
    ring, M = cover.ring, cover.M
    primes = prime_factors(M)
    out = [cover.basis_vec(j) for j in range(M)]
    for _ in range(2):
        families = {v: _integral_family(rng) for v in primes}
        out.append(corrected_element_cover(cover, M, families))
    taus = ring.vars()
    for _ in range(4):
        nums = [ring.zero()] * M
        for j in rng.sample(range(M), rng.randint(1, min(M, 5))):
            nums[j] = ring.const(rng.randint(-3, 3)) + rng.choice(taus) * rng.randint(-2, 2)
        out.append((nums, ring.one() + rng.choice(taus) * rng.randint(0, 2)))
    return out


def _same_vector(got, want):
    """Coordinate for coordinate as MPolys of equal terms, and the same
    denominator."""
    (gn, gd), (wn, wd) = got, want
    return (len(gn) == len(wn) and gd.terms == wd.terms
            and all(type(a) is type(b) and a.terms == b.terms for a, b in zip(gn, wn)))


class TestClosedFormTrace:
    @pytest.mark.parametrize("m,ell", SMALL_PAIRS)
    def test_trace_and_projection_equal_the_solve_oracle(self, m, ell):
        rng = random.Random(100 * m + ell)
        ring = PolyRing(tuple(f"tau{v}" for v in prime_factors(m * ell)))
        cover, small = CycloCover(m * ell, ring), CycloCover(m, ring)
        zeros = 0
        for vec in _cover_vectors(rng, cover):
            got = trace_to_field(cover, m, vec)
            want = project_by_solve(cover, m, galois_trace_orbit_sum(cover, m, vec))
            assert _same_vector(got, want), (m, ell, vec)
            zeros += sum(not x for x in got[0])
            # the level-m projection, on the fold of the same vector
            folded = ([sum(vec[0][j::m], ring.zero()) for j in range(m)], vec[1])
            assert _same_vector(project_to_field(small, folded),
                                project_by_solve(small, m, folded))
        # some traces have zero coordinates, except where Q(zeta_m) = Q
        assert zeros or euler_phi(m) == 1

    @pytest.mark.parametrize("m,ring,name", [
        (0, PolyRing(("tau3",)), "m must be positive, got 0"),
        (-6, PolyRing(("tau2", "tau3")), "m must be positive, got -6"),
        (3, PolyRing(("tau2",)), r"ring PolyRing\(\['tau2'\]\) has no variable tau3"),
        (30, PolyRing(("tau3",)), "has no variable tau2, tau5")])
    def test_corrected_element_arguments_are_checked(self, m, ring, name):
        with pytest.raises(ValueError, match=name):
            corrected_element(m, _OTSUKI_FAMILY_A, ring)

"""Double-coset algebra over congruence subgroups and Iwahori invariants."""

import math
import os
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankin.cosets
from rankin.arith import factor
from rankin.cosets import (CongSubgroup, CosetMatrix, IwahoriCell, _combine,
                           _crt_fibers, _hnf, _least_combination, _pair_invariant,
                           _sl2_elements, _sl2_prime_power, _val, coset_reps,
                           double_coset_multiply, iwahori_index, iwahori_invariant,
                           lift_sl2, mat_adj, mat_det, mat_mod, mat_mul,
                           right_coset_key, same_double_coset, same_right_coset,
                           sl2_order, t_prime_square_identity)


class TestPreimages:
    @pytest.mark.parametrize("kind", ["gamma1", "gamma0", "gamma_upper0"])
    def test_preimage_equals_the_filter(self, kind):
        # oracle: enumerate SL2(Z/M) and keep what reduces into the subgroup
        cases = 0
        for N in range(1, 13):
            G = getattr(CongSubgroup, kind)(N)
            for M in (N, 2 * N, 3 * N, 4 * N, 6 * N):
                if sl2_order(M) > 20_000:
                    continue
                oracle = CongSubgroup.from_condition(
                    M, lambda g: mat_mod(g, N) in G.elements)
                assert G.to_level(M).elements == oracle.elements, (N, M)
                cases += 1
        assert cases == 46

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
    def test_prime_power_part_equals_the_filter(self, q):
        brute = [g for g in product(range(q), repeat=4)
                 if (g[0] * g[3] - g[1] * g[2]) % q == 1 % q]
        assert sorted(_sl2_prime_power(q)) == brute

    def test_prime_power_shortcut_equals_the_crt_composition(self):
        # oracle: the CRT route, each element scaled by its idempotent and
        # combined, in the same order, for m = 1 and each prime power m <= 64
        # (other m take that route themselves)
        for m in range(1, 65):
            if len(factor(m)) > 1:
                continue
            parts = [part for _, part in rankin.cosets._sl2_parts(m)]
            oracle = [_combine(combo, m) for combo in product(*parts)]
            assert _sl2_elements(m) == oracle, m

    def test_level_one(self):
        G = CongSubgroup.sl2(1)
        assert G.elements == {(0, 0, 0, 0)}
        assert len(G.to_level(6)) == sl2_order(6)

    def test_second_call_is_cached(self, monkeypatch):
        G = CongSubgroup.gamma1(5)
        first = G.to_level(45)
        # the cache belongs to the subgroup instance
        assert CongSubgroup(5, G.elements).to_level(45) is not first
        calls = []
        monkeypatch.setattr(rankin.cosets, "_sl2_parts", calls.append)
        monkeypatch.setattr(CongSubgroup, "from_condition", classmethod(
            lambda cls, *args: calls.append(args)))
        assert G.to_level(45) is first
        assert calls == []


def test_coset_reps_are_kept_per_subgroup(monkeypatch):
    G, T = CongSubgroup.gamma1(5), CosetMatrix((1, 0, 0, 3))
    first = coset_reps(G, T)
    assert isinstance(first, tuple) and len(first) == 4
    lifts = []
    lift = rankin.cosets.lift_sl2
    monkeypatch.setattr(rankin.cosets, "lift_sl2",
                        lambda g, M: lifts.append(g) or lift(g, M))
    assert coset_reps(G, T) is first
    assert lifts == []
    # a fresh subgroup with the same elements computes its own
    assert coset_reps(CongSubgroup(5, G.elements), T) == first
    assert len(lifts) == 4


def _orbit_marking_reps(gamma, alpha):
    """The former coset_reps, kept as the oracle of the keyed scan: in the
    level-M preimage, H = {g : alpha g alpha^-1 in Gamma} is the stabilizer of
    Gamma alpha, and the first g in sorted order of each coset H g is lifted."""
    n, L = alpha.det, gamma.level
    M = L * n
    big = gamma.to_level(M)
    a, adj = alpha.entries, mat_adj(alpha.entries)

    def in_conjugated(g):
        w = mat_mul(mat_mul(a, g), adj)
        if any(v % n for v in w):
            return False
        return tuple(v // n % L for v in w) in gamma.elements

    H = [g for g in big.elements if in_conjugated(g)]
    seen, reps_mod = set(), []
    for g in sorted(big.elements):
        if g not in seen:
            reps_mod.append(g)
            seen.update(mat_mod(mat_mul(h, g), M) for h in H)
    return tuple(CosetMatrix(mat_mul(a, lift_sl2(g, M))) for g in reps_mod)


# diagonal, scalar and non-diagonal alphas; with the levels 1..8 their
# determinants share factors with the level
_GRID_ALPHAS = ([(1, 0, 0, n) for n in range(1, 7)]
                + [(n, 0, 0, 1) for n in range(2, 7)]
                + [(2, 0, 0, 2), (1, 1, 0, 2), (2, 1, 0, 3), (3, 1, 1, 1),
                   (1, 2, 3, 8), (2, 1, 2, 4), (4, 3, 0, 1), (1, 1, 1, 3),
                   (2, 1, 1, 2), (3, 2, 4, 3), (1, 3, 0, 5)])


@pytest.fixture(scope="module")
def grid():
    """The 560 (subgroup, alpha) cases of the grid, shared by the oracle
    tests so that each subgroup builds its level-M preimages once."""
    cases = []
    for kind in ("gamma1", "gamma0", "gamma_upper0", "sl2"):
        for L in range(1, 9):
            G = getattr(CongSubgroup, kind)(L)
            for entries in _GRID_ALPHAS:
                alpha = CosetMatrix(entries)
                if sl2_order(L * alpha.det) <= 10_000:
                    cases.append((kind, G, alpha))
    return cases


def test_keyed_reps_equal_the_orbit_marking_oracle(grid):
    cases = 0
    for kind, G, alpha in grid:
        assert coset_reps(G, alpha) == _orbit_marking_reps(G, alpha), (
            kind, G.level, alpha)
        cases += 1
    assert cases == 560


def _keyed_scan_reps(gamma, alpha):
    """The former coset_reps, kept as the oracle of the CRT split: one
    right_coset_key per element g of the level-M preimage, and the least g
    of each key lifted."""
    n = alpha.det
    M, a = gamma.level * n, alpha.entries
    keys = {}
    for g in gamma.to_level(M).elements:
        k = right_coset_key(gamma, mat_mul(a, g), n)
        if k not in keys or g < keys[k]:
            keys[k] = g
    return tuple(CosetMatrix(mat_mul(a, lift_sl2(g, M))) for g in sorted(keys.values()))


def _split(L, n):
    """(n1, n2): n2 the part of n whose primes divide L, n1 = n / n2."""
    n1 = n
    while math.gcd(n1, L) > 1:
        n1 //= math.gcd(n1, L)
    return n1, n // n1


def test_split_reps_equal_the_keyed_scan_oracle(grid):
    cases, both = 0, set()
    for kind, G, alpha in grid:
        assert coset_reps(G, alpha) == _keyed_scan_reps(G, alpha), (
            kind, G.level, alpha)
        cases += 1
        if min(_split(G.level, alpha.det)) > 1:
            both.add((G.level, alpha.entries))
    assert cases == 560
    # both CRT factors nontrivial, e.g. L = 2 and L = 4 with diag(1, 6)
    assert {(2, (1, 0, 0, 6)), (4, (1, 0, 0, 6))} <= both


@pytest.mark.parametrize("N,p", [(5, 2), (5, 3), (7, 2), (7, 3), (11, 3), (13, 2)])
def test_hecke_reps_equal_the_keyed_scan_oracle(N, p):
    # beyond the size cap of the orbit-marking oracle
    G = CongSubgroup.gamma1(N)
    for entries in ((p, 0, 0, 1), (p * p, 0, 0, 1)):
        alpha = CosetMatrix(entries)
        assert coset_reps(G, alpha) == _keyed_scan_reps(G, alpha), entries


_FIBER_ALPHAS = [CosetMatrix(e) for e in ((1, 0, 0, 6), (9, 0, 0, 1), (2, 1, 0, 3),
                                          (1, 2, 3, 8), (3, 2, 4, 3), (2, 0, 0, 2))]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["gamma1", "gamma0", "gamma_upper0"]),
       L=st.integers(1, 6), alpha=st.sampled_from(_FIBER_ALPHAS))
def test_split_keys_are_the_right_coset_keys(data, kind, L, alpha):
    # each fiber's key is the key of alpha CRT(x, y) for every x and y in it,
    # and the fibers cover the level-M preimage once
    G = getattr(CongSubgroup, kind)(L)
    M, e, fibers = _crt_fibers(G, alpha)
    assert sum(len(xs) * len(ys) for _, xs, ys in fibers) == len(G.to_level(M))
    key, xs, ys = data.draw(st.sampled_from(fibers))
    x, y = data.draw(st.sampled_from(xs)), data.draw(st.sampled_from(ys))
    g = mat_mod(tuple(u + e * v for u, v in zip(x, y)), M)
    assert g in G.to_level(M).elements
    assert key == right_coset_key(G, mat_mul(alpha.entries, g), alpha.det)


def _level_M_y_parts(gamma, alpha):
    """The former split of Y = SL2(Z/n1), kept as the oracle of the split by
    the n1-local lattice: each y scaled by its CRT idempotent and keyed by the
    level-M Hermite form of alpha CRT(x0, y) at one fixed x0 of X."""
    n, L = alpha.det, gamma.level
    n1, n2 = _split(L, n)
    M, m = L * n, L * n2
    ex, ey = n1 * pow(n1, -1, m), m * pow(m, -1, n1)
    x0 = tuple(ex * v for v in next(iter(gamma.to_level(m).elements)))
    parts = defaultdict(set)
    for y in _sl2_elements(n1):
        g = _combine((x0, tuple(ey * v for v in y)), M)
        parts[_hnf(mat_mul(alpha.entries, g), n)].add(y)
    return {frozenset(part) for part in parts.values()}


def _pair_walk_min(xs, ys, e, M):
    """The former least g of a fiber, kept as the oracle of
    _least_combination: the least (x + e y) mod M over all |xs| |ys| pairs."""
    return min(tuple((u + e * v) % M for u, v in zip(x, y)) for x in xs for y in ys)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["gamma1", "gamma0", "gamma_upper0"]),
       L=st.integers(1, 6), alpha=st.sampled_from(_FIBER_ALPHAS))
def test_local_split_and_least_combination_equal_the_level_M_oracles(kind, L, alpha):
    G = getattr(CongSubgroup, kind)(L)
    M, e, fibers = _crt_fibers(G, alpha)
    assert {frozenset(ys) for _, _, ys in fibers} == _level_M_y_parts(G, alpha)
    for _, xs, ys in fibers:
        assert _least_combination(xs, ys, e, M) == _pair_walk_min(xs, ys, e, M)


def test_split_scan_builds_no_level_M_preimage(monkeypatch):
    levels, lifts = [], []
    to_level, lift = CongSubgroup.to_level, rankin.cosets.lift_sl2
    monkeypatch.setattr(CongSubgroup, "to_level",
                        lambda self, M: levels.append(M) or to_level(self, M))
    monkeypatch.setattr(rankin.cosets, "lift_sl2",
                        lambda g, M: lifts.append(g) or lift(g, M))
    assert len(coset_reps(CongSubgroup.gamma1(5), CosetMatrix((9, 0, 0, 1)))) == 12
    assert 45 not in levels
    assert len(lifts) == 12


_KEY_GROUPS = [CongSubgroup.gamma1(5), CongSubgroup.gamma0(4),
               CongSubgroup.gamma_upper0(6), CongSubgroup.sl2(1)]


def _word(shifts):
    """The product of the [k -1; 1 0] = T^k S over ``shifts``."""
    m = (1, 0, 0, 1)
    for k in shifts:
        m = mat_mul(m, (k, -1, 1, 0))
    return m


@settings(max_examples=300, deadline=None)
@given(data=st.data(), G=st.sampled_from(_KEY_GROUPS), n=st.integers(1, 12))
def test_keys_agree_exactly_on_a_right_coset(data, G, n):
    # x and y = u H with u in SL2(Z) and H upper triangular, b not reduced;
    # y is a Gamma-translate of x, an SL2(Z)-translate, or new with a
    # determinant of its own
    words = st.lists(st.integers(-4, 4), max_size=4).map(_word)

    def upper(m):
        a = data.draw(st.sampled_from([a for a in range(1, m + 1) if m % a == 0]))
        return (a, data.draw(st.integers(-30, 30)), 0, m // a)

    x = mat_mul(data.draw(words), upper(n))
    how = data.draw(st.sampled_from(["gamma", "word", "new"]))
    if how == "gamma":
        g = data.draw(st.sampled_from(sorted(G.elements)))
        y = mat_mul(lift_sl2(g, G.level), x)
    elif how == "word":
        y = mat_mul(data.draw(words), x)
    else:
        y = mat_mul(data.draw(words), upper(data.draw(st.sampled_from([n, 2 * n, 4]))))
    same = same_right_coset(G, x, y)
    assert same or how != "gamma"
    assert (right_coset_key(G, x, n) == right_coset_key(G, y, mat_det(y))) == same


def test_keys_of_other_determinants_do_not_reach_a_cell():
    # diag(1, 2), diag(1, 4) and diag(2, 2) have Hermite forms whose (a, b)
    # are (1, 0), (1, 0) and (2, 0); the degree-3 cell of diag(1, 2) holds
    # (1, 0) and (2, 0), and must not stand for the cells of determinant 4
    G, T2 = CongSubgroup.sl2(1), CosetMatrix((1, 0, 0, 2))
    coset_reps(G, T2)
    assert not same_double_coset(G, CosetMatrix((1, 0, 0, 4)), CosetMatrix((2, 0, 0, 2)))
    assert same_double_coset(G, CosetMatrix((1, 0, 0, 4)), CosetMatrix((4, 0, 0, 1)))
    # the cells of the product are cached, then a cell of determinant 2 is
    # computed last; the product must still read its own cells
    fresh = double_coset_multiply(CongSubgroup.sl2(1), T2, T2)
    assert [(m, deg) for _, m, deg in fresh] == [(3, 1), (1, 6)]
    assert double_coset_multiply(G, T2, T2) == fresh
    coset_reps(G, CosetMatrix((2, 0, 0, 1)))
    coset_reps(G, CosetMatrix((2, 1, 0, 1)))
    assert double_coset_multiply(G, T2, T2) == fresh


def test_square_identity_computes_each_cell_once(monkeypatch):
    made, gamma1 = [], CongSubgroup.gamma1
    monkeypatch.setattr(CongSubgroup, "gamma1", classmethod(
        lambda cls, N: made.append(gamma1(N)) or made[-1]))
    assert t_prime_square_identity(5, 3)["holds"]
    (G,) = made
    # T'_p and the two constituents; S'_p and the diamond candidates are
    # recognized by their keys alone
    assert len(G._coset_reps) == 3


_CORRUPTED = """
import sys
import rankin.cosets as C

if not sys.flags.optimize:
    sys.exit("run with python -O")
G = C.CongSubgroup.gamma1(5)
T = C.CosetMatrix((2, 0, 0, 1))
xgcd, reps, right = C._xgcd_pair, C.coset_reps, C.same_right_coset


def attempt(label, thunk):
    try:
        thunk()
    except AssertionError as exc:
        print(label, exc)


# x and y are off by a multiple of M: right mod 5, determinant not 1
C._xgcd_pair = lambda dd, cc: (xgcd(dd, cc)[0] + 5, xgcd(dd, cc)[1])
attempt("lift:", lambda: C.lift_sl2((1, 0, 0, 1), 5))
C._xgcd_pair = xgcd
C.same_right_coset = lambda gamma, x, y: True
attempt("reps:", lambda: C.coset_reps(G, T))
C.same_right_coset = right


def first_duplicated(gamma, alpha):
    r = reps(gamma, alpha)
    return r + r[:1]


C.coset_reps = first_duplicated
attempt("multiplicity:", lambda: C.double_coset_multiply(G, T, T))
C.coset_reps = lambda gamma, alpha: 2 * reps(gamma, alpha)
attempt("cover:", lambda: C.double_coset_multiply(G, T, T))
"""


def test_soundness_checks_survive_python_O():
    src = Path(rankin.cosets.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "lift", "reps", "multiplicity", "cover"], run.stdout
    assert "not an SL2(Z) lift" in lines[0]
    assert "share a coset" in lines[1]
    assert "multiplicity not constant" in lines[2]
    assert "full double coset" in lines[3]


class TestCosetReps:
    def test_classical_degree_level_one(self):
        reps = coset_reps(CongSubgroup.sl2(1), CosetMatrix((1, 0, 0, 3)))
        assert len(reps) == 4

    def test_identity_coset(self):
        G = CongSubgroup.gamma1(5)
        assert len(coset_reps(G, CosetMatrix((1, 0, 0, 1)))) == 1

    def test_degree_three_with_lattice_oracle(self):
        # oracle: the row spans mod 2 realize the three index-2 subgroups of
        # (Z/2)^2, pairwise distinct
        G = CongSubgroup.gamma1(5)
        reps = coset_reps(G, CosetMatrix((1, 0, 0, 2)))
        assert len(reps) == 3
        spans = set()
        for x in reps:
            a, b, c, d = x.entries
            spans.add(frozenset({(0, 0), (a % 2, b % 2), (c % 2, d % 2),
                                 ((a + c) % 2, (b + d) % 2)}))
        assert len(spans) == 3

    def test_reps_pairwise_inequivalent_and_in_double_coset(self):
        G = CongSubgroup.gamma1(5)
        alpha = CosetMatrix((2, 0, 0, 1))
        reps = coset_reps(G, alpha)
        for i, x in enumerate(reps):
            for y in reps[i + 1:]:
                assert not same_right_coset(G, x.entries, y.entries)

    def test_gamma1_level_one_is_the_whole_group(self):
        assert len(CongSubgroup.gamma1(1)) == 1
        assert CongSubgroup.gamma1(1).elements == CongSubgroup.sl2(1).elements

    def test_lift_raises_exactly_on_imprimitive_bottom_rows(self):
        with pytest.raises(ValueError, match="primitive"):
            lift_sl2((0, 0, 2, 2), 4)
        for M in range(1, 7):
            for c in range(M):
                for d in range(M):
                    if math.gcd(c, d, M) != 1:
                        with pytest.raises(ValueError, match="primitive"):
                            lift_sl2((1, 0, c, d), M)
                        continue
                    g = next((a, b, c, d) for a in range(M) for b in range(M)
                             if (a * d - b * c - 1) % M == 0)
                    lift = lift_sl2(g, M)
                    assert lift[0] * lift[3] - lift[1] * lift[2] == 1
                    assert mat_mod(lift, M) == mat_mod(g, M)

    def test_enumeration_bound_error(self):
        G = CongSubgroup.gamma1(5)
        with pytest.raises(ValueError, match="bound"):
            coset_reps(G, CosetMatrix((64, 0, 0, 1)))


class TestValueTypes:
    def test_coset_matrix_keeps_its_contract(self):
        m = (2, 1, 0, 3)
        x = CosetMatrix(m)
        assert x == CosetMatrix(m) and x != CosetMatrix((3, 0, 0, 2))
        assert x.__eq__(m) is NotImplemented and x != m
        assert hash(x) == hash((m,)) and repr(x) == str(x) == "[2 1; 0 3]"
        assert x.det == 6 and (x * x).entries == (4, 5, 0, 9)
        for bad in ((1, 0, 0, 0), (0, 1, 1, 0), (1, 2, 3, 4)):
            with pytest.raises(ValueError, match="positive determinant"):
                CosetMatrix(bad)

    def test_iwahori_cell_keeps_its_contract(self):
        cell = IwahoriCell("diagonal", 1)
        assert repr(cell) == "IwahoriCell(kind='diagonal', exponent=1)"
        assert str(cell) == "diagonal(1)"
        assert cell == IwahoriCell("diagonal", 1)
        assert cell != IwahoriCell("antidiagonal", 1) and cell != IwahoriCell("diagonal", 2)
        assert cell.__eq__(("diagonal", 1)) is NotImplemented
        assert hash(cell) == hash(("diagonal", 1))


class TestHeckeSquare:
    @pytest.mark.parametrize("N,p", [(5, 2), (7, 2), (5, 3), (11, 2), (13, 2),
                                     (7, 3)])
    def test_square_identity(self, N, p):
        report = t_prime_square_identity(N, p)
        assert report["holds"], report
        cells = {e["cell"]: (e["multiplicity"], e["degree"])
                 for e in report["constituents"]}
        assert cells["S'"] == (1, p * p + p)
        assert cells["<p^-1> R_p"] == (p + 1, 1)

    def test_multiplication_by_identity(self):
        G = CongSubgroup.gamma1(5)
        eye = CosetMatrix((1, 0, 0, 1))
        prod = double_coset_multiply(G, eye, CosetMatrix((2, 0, 0, 1)))
        assert len(prod) == 1
        rep, mult, degree = prod[0]
        assert mult == 1 and degree == 3

    def test_associativity_small(self):
        G = CongSubgroup.gamma1(4)
        a = CosetMatrix((2, 0, 0, 1))
        eye = CosetMatrix((1, 0, 0, 1))
        left = double_coset_multiply(G, a, eye)
        right = double_coset_multiply(G, eye, a)
        assert [(m, d) for _, m, d in left] == [(m, d) for _, m, d in right]

    def test_associativity_on_triple(self):
        # (T' T') T' = T' (T' T') as formal combinations of double cosets
        from rankin.cosets import same_double_coset
        G = CongSubgroup.gamma1(5)
        t = CosetMatrix((2, 0, 0, 1))

        def multiply_combo(combo, beta):
            out = []
            for rep, mult in combo:
                for rep2, mult2, _ in double_coset_multiply(G, rep, beta):
                    for k, (r, m) in enumerate(out):
                        if same_double_coset(G, r, rep2):
                            out[k] = (r, m + mult * mult2)
                            break
                    else:
                        out.append((rep2, mult * mult2))
            return out

        square = [(rep, mult) for rep, mult, _ in double_coset_multiply(G, t, t)]
        left = multiply_combo(square, t)
        # right is T' * (T' T'): multiply each square constituent by t on the left
        right = []
        for rep, mult in square:
            for rep2, mult2, _ in double_coset_multiply(G, t, rep):
                for k, (r, m) in enumerate(right):
                    if same_double_coset(G, r, rep2):
                        right[k] = (r, m + mult * mult2)
                        break
                else:
                    right.append((rep2, mult * mult2))
        assert len(left) == len(right)
        for rep, mult in left:
            match = [m for r, m in right if same_double_coset(G, r, rep)]
            assert match == [mult]


# words in the Iwahori generators (1, p s; 0, 1) (True, s) and (1, 0; t, 1)
# (False, t)
IWAHORI_WORDS = st.lists(st.tuples(st.booleans(), st.integers(-3, 3)), max_size=3)


class TestIwahori:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_index_table(self, p, j):
        diag = (F(p) ** j, F(0), F(0), F(p) ** -j)
        assert iwahori_index(diag, p) == p ** abs(2 * j)
        anti = (F(0), -(F(p) ** -j), F(p) ** j, F(0))
        assert iwahori_index(anti, p) == p ** abs(2 * j + 1)

    def test_identity_index(self):
        assert iwahori_index((F(1), F(0), F(0), F(1)), 7) == 1

    def test_four_distinct_cells(self):
        p, j = 3, 1
        reps = [(F(p) ** -j, F(0), F(0), F(p) ** j),
                (F(0), -(F(p) ** -j), F(p) ** j, F(0)),
                (F(p) ** j, F(0), F(0), F(p) ** -j),
                (F(0), -(F(p) ** j), F(p) ** -j, F(0))]
        cells = {iwahori_invariant(m, p) for m in reps}
        assert len(cells) == 4

    def test_cell_indices_match_degree_pattern(self):
        # the four cells over the Cartan cell at j=1 carry indices
        # {p^2, p, p, 1}-patterned degrees
        p = 3
        reps = [(F(p) ** -1, F(0), F(0), F(p)),
                (F(0), -(F(p) ** -1), F(p), F(0)),
                (F(p), F(0), F(0), F(p) ** -1),
                (F(0), -F(p), F(p) ** -1, F(0))]
        idx = sorted(iwahori_index(m, p) for m in reps)
        assert idx == [3, 3 ** 2, 3 ** 2, 3 ** 3]

    def test_invariance_under_random_iwahori_multiplication(self):
        import random
        rng = random.Random(7)
        p = 2
        base = (F(0), -F(1, 2), F(2), F(0))
        cell0 = iwahori_invariant(base, p)
        assert cell0 == IwahoriCell("antidiagonal", 1)
        for _ in range(8):
            # random Iwahori elements: unipotents and diagonal units mod p^3
            def rand_u():
                c = rng.randrange(-p ** 3, p ** 3)
                b = p * rng.randrange(-p ** 2, p ** 2)
                ad = 1 + b * c
                # build (a b; c d) in SL2 with b in pZ: take (1, b; c, 1 + bc)
                return (F(1), F(b), F(c), F(1 + b * c))
            u1, u2 = rand_u(), rand_u()
            m = _mat_mul3(u1, base, u2)
            assert iwahori_invariant(m, p) == cell0

    def test_rejects_non_sl2(self):
        with pytest.raises(ValueError):
            iwahori_invariant((F(2), F(0), F(0), F(2)), 2)

    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from([2, 3, 5]), j=st.integers(-4, 4),
           kind=st.sampled_from(["diagonal", "antidiagonal"]),
           left=IWAHORI_WORDS, right=IWAHORI_WORDS)
    def test_cell_of_an_iwahori_translate(self, p, j, kind, left, right):
        cell = IwahoriCell(kind, j)
        g = iwahori_translate(p, cell, left, right)
        assert iwahori_invariant(g, p) == cell == _bounded_cell_search(g, p)

    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from([2, 3, 5, 7]), j=st.integers(-4, 4),
           kind=st.sampled_from(["diagonal", "antidiagonal"]),
           left=IWAHORI_WORDS, right=IWAHORI_WORDS)
    def test_valuation_forms_equal_the_fraction_oracles(self, p, j, kind, left, right):
        cell = IwahoriCell(kind, j)
        assert cell.representative(p) == representative_by_fractions(cell, p)
        g = iwahori_translate(p, cell, left, right)
        assert _pair_invariant(g, p) == pair_invariant_by_fractions(g, p)
        assert iwahori_invariant(g, p) == cell == _bounded_cell_search(
            g, p, pair_invariant_by_fractions, representative_by_fractions)
        for mutate in (False, True):
            assert (iwahori_index(g, p, mutate)
                    == iwahori_index_by_fractions(g, p, mutate))

    def test_integer_entries(self):
        # the integral matrices of the cells, as ints and as Fractions
        for g in ((1, 0, 0, 1), (0, -1, 1, 0), (2, 3, 1, 2), (F(1), F(0), F(0), F(1))):
            assert _pair_invariant(g, 2) == pair_invariant_by_fractions(g, 2)
            assert iwahori_index(g, 2) == iwahori_index_by_fractions(g, 2)
        assert _val(12, 2) == 2 and _val(F(3, 8), 2) == -3 and _val(0, 2) is None

    @pytest.mark.parametrize("p", [0, 1, 4, 9, -3, 2.0, F(3)])
    def test_non_prime_p_is_refused(self, monkeypatch, p):
        # at p = 1 the valuation loop never ended: a valuation that is taken
        # at all fails the test instead of hanging it
        def refuse(x, q):
            raise AssertionError(f"valuation taken at p = {q}")

        monkeypatch.setattr(rankin.cosets, "_val", refuse)
        cached = rankin.cosets._cell_invariant.cache_info().currsize
        g = (F(0), -F(1, 2), F(2), F(0))
        for f in (iwahori_invariant, iwahori_index):
            with pytest.raises(ValueError, match=f"p = {p} is not a prime"):
                f(g, p)
        assert rankin.cosets._cell_invariant.cache_info().currsize == cached


def test_cell_invariants_are_computed_once(monkeypatch):
    # after one call at (p, j), a second finds the cell from the cached cell
    # invariants and computes only the invariant of g itself
    g = (F(0), -F(1, 3), F(3), F(0))
    cell = iwahori_invariant(g, 3)
    calls = []
    real = rankin.cosets._pair_invariant
    monkeypatch.setattr(rankin.cosets, "_pair_invariant",
                        lambda m, p: calls.append(m) or real(m, p))
    assert iwahori_invariant(g, 3) == cell and calls == [g]


def _bounded_cell_search(g, p, invariant=_pair_invariant,
                         representative=IwahoriCell.representative):
    """The former search over every cell with |j| <= 2 max |v(entry)| + 2,
    kept as the oracle of iwahori_invariant."""
    inv = invariant(g, p)
    bound = 2 * max(abs(_val(x, p)) for x in g if x != 0) + 2
    for j in range(-bound, bound + 1):
        for kind in ("diagonal", "antidiagonal"):
            cell = IwahoriCell(kind, j)
            if invariant(representative(cell, p), p) == inv:
                return cell
    return None


def iwahori_translate(p, cell, left, right):
    """u1 * rep * u2 for the Iwahori words u1 = left and u2 = right."""
    def word(factors):
        m = (F(1), F(0), F(0), F(1))
        for upper, x in factors:
            u = (F(1), F(p * x), F(0), F(1)) if upper else (F(1), F(0), F(x), F(1))
            m = mat_mul(m, u)
        return m

    return mat_mul(mat_mul(word(left), cell.representative(p)), word(right))


def val_by_fractions(x, p):
    """The former valuation, through a Fraction (None for 0)."""
    x = F(x)
    if x == 0:
        return None
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def representative_by_fractions(cell, p):
    """The former IwahoriCell.representative, built from F(p) ** j."""
    pj = F(p) ** cell.exponent
    if cell.kind == "diagonal":
        return (pj, F(0), F(0), 1 / pj)
    return (F(0), -1 / pj, pj, F(0))


def pair_invariant_by_fractions(g, p):
    """The oracle of _pair_invariant: the minimal valuation of the entries of
    each of the four Fraction matrices B_i^-1 g B_j."""
    a, b, c, d = (F(v) for v in g)
    if a * d - b * c != 1:
        raise ValueError("matrix must lie in SL2(Q)")

    def emin(mat):
        return min(val_by_fractions(x, p) for x in mat if x != 0)

    g00 = (a, b, c, d)
    g01 = (a * p, b, c * p, d)
    g10 = (a / p, b / p, c, d)
    g11 = (a, b / p, c * p, d)
    return tuple(emin(m) for m in (g00, g11, g01, g10))


def iwahori_index_by_fractions(g, p, mutate=False):
    """The oracle of iwahori_index: the two unipotents conjugated by the
    Fraction representative of the cell the oracle search finds."""
    cell = _bounded_cell_search(g, p, pair_invariant_by_fractions,
                                representative_by_fractions)
    rep = representative_by_fractions(cell, p)

    def conj(m):
        ia, ib, ic, id_ = rep
        return mat_mul(mat_mul(rep, m), (id_, -ib, -ic, ia))

    def threshold(image, base_threshold):
        if image[1] != 0:
            return max(base_threshold, 1 - val_by_fractions(image[1], p))
        return max(base_threshold, 0 - val_by_fractions(image[2], p))

    r = threshold(conj((F(1), F(1), F(0), F(1))), 1)
    s = threshold(conj((F(1), F(0), F(1), F(1))), 0)
    return p ** (r + s) if mutate else p ** (r + s - 1)


def _mat_mul3(a, b, c):
    def mul(x, y):
        return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
                x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])
    return mul(mul(a, b), c)

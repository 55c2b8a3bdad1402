"""Acceptance suite: the binding criteria, each with its stated budget and
tolerance, printing one pass/fail line per criterion.

Run plainly with pytest; use ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines with timings.
"""

import time
from fractions import Fraction as F

import pytest

from conftest import SYMMETRY_BOX, general_sides_specialize
from rankin import normrel as nr
from rankin import operators as ops
from rankin.catalog import MUTATIONS
from rankin.cosets import iwahori_index, iwahori_invariant, t_prime_square_identity
from rankin.eisenstein import (EisensteinSpec, eisenstein_qexp, p_depletion,
                               two_param_eisenstein)
from rankin.euler import (functional_symmetry_check, joint_coefficient_ring,
                          local_correction)
from rankin.forms import (congruence_prime_scan, eta_oracle_level11,
                          load_bundled, p_stabilize,
                          ratio_minpoly_and_root_of_unity)
from rankin.otsuki import otsuki_trace_check
from rankin.siegel import distribution_check, dlog_matches_weight_two


def _report(name, ok, t0, budget):
    elapsed = time.perf_counter() - t0
    line = f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.1f}s"
    line += f" / budget {budget:.0f}s)" if budget else ")"
    print(line)
    assert ok, name
    if budget:
        assert elapsed < budget, f"{name}: {elapsed:.1f}s over budget {budget}s"


def test_criterion_01_norm_relation_rewrites():
    t0 = time.perf_counter()
    ok = ops.verify_sp_rewrite() and ops.verify_higher_rewrite()
    _report("1 norm-relation rewrite identities (p symbolic)", ok, t0, 5)


def test_criterion_02_operator_euler_factor():
    t0 = time.perf_counter()
    ok = nr.operator_euler_specializes()
    _report("2 operator local factor specializes coefficientwise", ok, t0, 5)


def test_criterion_03_composite_norms():
    t0 = time.perf_counter()
    _, _, _, _, ok_a, ok_b = nr.derive_composite_norms()
    ok = ok_a and ok_b and nr.specialize_to_corestriction()
    _report("3 composite norms (a), (b) and corestriction specialization",
            ok, t0, 30)


def test_criterion_04_pstab_formula():
    t0 = time.perf_counter()
    _, ok = nr.pstab_projection_formula()
    _report("4 stabilized-class projection formula", ok, t0, 60)


def test_criterion_05_a_ell_congruence():
    t0 = time.perf_counter()
    _, cert, ok_sym = nr.derive_A_ell()
    ok = ok_sym and cert is not None and nr.a_ell_congruence_concrete(3, -1, -1, 1, 1)
    _report("5 twisted-polynomial congruence mod (l-1), symbolic and l = 3",
            ok, t0, 0)


def test_criterion_06_dlog_identity():
    t0 = time.perf_counter()
    ok = True
    for N in (3, 4, 5, 12):
        for a in range(1, N):
            good, wit = dlog_matches_weight_two(F(a, N), 200)
            ok = ok and good
    _report("6 dlog of units equals minus the weight-2 series to q^200",
            ok, t0, 30)


def test_criterion_07_distribution_relations():
    t0 = time.perf_counter()
    ok = True
    for (m, N, c) in ((2, 5, 7), (3, 4, 7), (2, 3, 5)):
        for M in (((m, 0), (0, 1)), ((1, 0), (0, m)), ((m, 0), (0, m))):
            good, wit = distribution_check(0, F(1, N), M, c, 60)
            ok = ok and good
    _report("7 distribution relations, three shapes, three parameter sets",
            ok, t0, 0)


def test_criterion_08_two_parameter_family():
    t0 = time.perf_counter()
    ok = True
    for k in (1, 3, 4):
        for p in (2, 3):
            E = eisenstein_qexp(EisensteinSpec("E", k, F(1, 5)), 50)
            ok = ok and (two_param_eisenstein(F(1, 5), k - 1, 0, p, 50)
                         == p_depletion(E, p))
    _report("8 two-parameter family equals depleted weight-k series", ok, t0, 0)


def test_criterion_09_hecke_square():
    t0 = time.perf_counter()
    ok = all(t_prime_square_identity(N, p)["holds"]
             for (N, p) in ((5, 2), (5, 3), (7, 2)))
    _report("9 double-coset square identity by multiplicity counting",
            ok, t0, 120)


def test_criterion_10_iwahori_table():
    t0 = time.perf_counter()
    ok = True
    for p in (2, 3, 5):
        for j in range(4):
            diag = (F(p) ** j, F(0), F(0), F(p) ** -j)
            anti = (F(0), -(F(p) ** -j), F(p) ** j, F(0))
            ok = ok and iwahori_index(diag, p) == p ** abs(2 * j)
            ok = ok and iwahori_index(anti, p) == p ** abs(2 * j + 1)
    cells = {iwahori_invariant(m, 3) for m in
             [(F(1, 3), F(0), F(0), F(3)), (F(0), -F(1, 3), F(3), F(0)),
              (F(3), F(0), F(0), F(1, 3)), (F(0), -F(3), F(1, 3), F(0))]}
    ok = ok and len(cells) == 4
    _report("10 Iwahori index table and four distinct cells", ok, t0, 0)


def test_criterion_11_functional_symmetry():
    t0 = time.perf_counter()
    ok = functional_symmetry_check() and all(
        general_sides_specialize(*case) for case in SYMMETRY_BOX)
    _report("11 interpolation-factor symmetry for every weight, specialized "
            "over the (k, l, j) box", ok, t0, 0)


def test_criterion_12_worked_example():
    t0 = time.perf_counter()
    f = load_bundled("f11.eigenform")
    g = load_bundled("g26.eigenform")
    eta = eta_oracle_level11(f.bound)
    ok = all(f.a(n) == f.ring.coerce(c) for n, c in enumerate(eta, start=1))
    st_f, st_g = p_stabilize(f, 17), p_stabilize(g, 17)
    ok = ok and st_f.ordinary and st_g.ordinary
    mp, is_ru = ratio_minpoly_and_root_of_unity(st_f, st_g)
    ok = ok and mp == [F(1), F(6, 17), F(-21, 17), F(6, 17), F(1)] and not is_ru
    window = [p for p in range(7, 51) if all(p % q for q in range(2, p))]
    scan = congruence_prime_scan(f, g, [g.character], 100, window)
    ok = ok and not any(w is None for entries in scan.values()
                        for _, w in entries)
    scan5 = congruence_prime_scan(f, g, [g.character], 100, [5] + window)
    flagged = sorted({p for p, entries in scan5.items()
                      if any(w is None for _, w in entries)})
    ok = ok and flagged == [5]
    _report("12 worked example: oracle, ordinarity, minimal polynomial, scan",
            ok, t0, 60)


def test_criterion_13_otsuki_trace():
    t0 = time.perf_counter()
    fam_a = {2: ([F(1), F(-1)], [F(1), F(0), F(-1)]),
             3: ([F(1), F(-2)], [F(1), F(1)]),
             5: ([F(1), F(-1), F(2)], [F(1), F(3)])}
    fam_b = {2: ([F(1), F(2)], [F(1), F(-1)]),
             3: ([F(1), F(1, 2)], [F(1), F(0), F(1)]),
             5: ([F(1), F(-1)], [F(1), F(2)])}
    ok = all(otsuki_trace_check(m, ell, fam)[0]
             for (m, ell) in ((1, 3), (4, 3), (3, 5))
             for fam in (fam_a, fam_b))
    _report("13 weighted-trace identity, three levels, two families",
            ok, t0, 60)


def test_criterion_14_correction_polynomial():
    t0 = time.perf_counter()
    f = load_bundled("f11.eigenform")
    g = load_bundled("g26.eigenform")
    joint, mf, mg = joint_coefficient_ring(f, g)

    def fstream(p, r):
        return mf(f.prime_power(p, r))

    def gstream(p, r):
        return mg(g.prime_power(p, r))

    one = joint.one()
    a2g, a11g, a13g = mg(g.a(2)), mg(g.a(11)), mg(g.a(13))
    a2f, a11f, a13f = mf(f.a(2)), mf(f.a(11)), mf(f.a(13))
    bad = {2: [one, -(a2g * a2f), a2g * a2g * 2],
           11: [one, -(a11f * a11g), a11f * a11f * mg(g.char_value(11)) * 11],
           13: [one, -(a13g * a13f), a13g * a13g * 13]}
    C, certified, _ = local_correction(fstream, gstream, 286, bad, 8, joint)
    ok = certified and C.is_one()
    _report("14 correction polynomial certified; equals 1 at N = 286", ok, t0, 0)


def test_criterion_15_mutation_suite():
    t0 = time.perf_counter()
    assert len(MUTATIONS) >= 10
    surviving = [name for name, check in MUTATIONS if not check()]
    _report(f"15 mutation suite: all {len(MUTATIONS)} perturbations detected "
            f"(surviving: {surviving})", not surviving, t0, 0)

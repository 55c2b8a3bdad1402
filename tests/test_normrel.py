"""The symbolic norm-relation engine: rewriting identities, composite norms,
eigenvalue specializations, the stabilized-class projection formula, the
twisted polynomial congruence and twist systems."""

import random
from fractions import Fraction as F

import pytest

from rankin import normrel as nr
from rankin.operators import (A, B, DF, DG, ONE, OP_RING, P, S,
                              composite_norm_p2_closed, operator_euler_coeffs,
                              second_norm_operator, verify_higher_rewrite,
                              verify_sp_rewrite)


class TestRewrites:
    def test_sp_rewrite(self):
        assert verify_sp_rewrite() is True

    def test_sp_rewrite_mutated_coefficient_fails(self):
        assert verify_sp_rewrite(sp_coeff=P) is False
        assert verify_sp_rewrite(sp_coeff=P + 2) is False

    def test_higher_rewrite(self):
        assert verify_higher_rewrite() is True

    def test_higher_rewrite_sign_mutation_fails(self):
        assert verify_higher_rewrite(mutate_sign=True) is False

    def test_numeric_spot_evaluation(self):
        rng = random.Random(11)
        from rankin.operators import second_norm_operator_rewritten
        lhs, rhs = second_norm_operator(), second_norm_operator_rewritten()
        for _ in range(20):
            vals = {"a": F(rng.randrange(-9, 9)), "b": F(rng.randrange(-9, 9)),
                    "df": F(rng.randrange(1, 9)), "dg": F(rng.randrange(1, 9)),
                    "s": F(rng.randrange(1, 9)), "p": F(rng.randrange(2, 11))}
            assert lhs.subs(vals) == rhs.subs(vals)


class TestCompositeNorms:
    def test_both_parts_match_closed_forms(self):
        d2, d3, c2, c3, ok2, ok3 = nr.derive_composite_norms()
        assert ok2 and ok3

    def test_head_coefficient(self):
        d2, *_ = nr.derive_composite_norms()
        head = d2.coefficients_in("s")[1].subs({"s": OP_RING.one()})
        assert head == -(A * B)

    def test_closed_form_mutations_fail(self):
        d2, d3, *_ = nr.derive_composite_norms()
        from rankin.operators import composite_norm_p3_closed
        assert d2 != composite_norm_p2_closed(mutate=2)
        assert d3 != composite_norm_p3_closed(mutate=1)

    def test_rules_built_once_per_derivation(self, monkeypatch, fresh_derivations):
        # the composed norms are built once per process: with the caches
        # emptied, two derivations build the rules once and agree
        built = []
        rules = nr.norm_rules

        def counted():
            built.append(1)
            return rules()
        monkeypatch.setattr(nr, "norm_rules", counted)
        first = nr.derive_composite_norms()
        assert len(built) == 1
        assert nr.derive_composite_norms() == first and len(built) == 1

    def test_single_prime_chain_consistency(self):
        # the p^1 layer of the derivation is the degree-(p-1) operator itself,
        # which under eigenvalues is the corestriction display
        assert nr.specialize_to_corestriction() is True


class TestOperatorEulerFactor:
    def test_specialization_and_factorization(self):
        assert nr.operator_euler_specializes() is True

    def test_x0_coefficient(self):
        assert operator_euler_coeffs()[0] == ONE

    def test_x2_coefficient_display(self):
        expect = P * A * A * DG + P * DF * B * B - 2 * P ** 2 * DF * DG
        assert operator_euler_coeffs()[2] == expect

    def test_mutated_coefficient_breaks_specialization(self):
        eig = nr.local_factor_coeffs_eigen()
        mutated = operator_euler_coeffs(mutate=2)
        assert any(nr.specialize_eigen(c_op) != c_eig
                   for c_op, c_eig in zip(mutated, eig))


class TestCorestrictionSpecialization:
    def test_holds(self):
        assert nr.specialize_to_corestriction() is True

    def test_inverse_diamond_reading_fails(self):
        assert nr.specialize_to_corestriction(invert_diamond=True) is False

    def test_degree_mutation_fails(self):
        assert nr.specialize_to_corestriction(mutate_degree=True) is False

    def test_sigma_inverse_coefficient(self):
        lhs = nr.specialize_eigen(second_norm_operator())
        c = lhs.coefficients_in("s")[-1].subs({"s": nr.EIG_RING.one()})
        from rankin.normrel import AF, AG, EF, EG, PE
        assert c == (PE + 1) * EF * EG - EG * AF * AF - EF * AG * AG

    def test_numeric_spot(self):
        lhs = nr.specialize_eigen(second_norm_operator())
        rhs = nr.corestriction_display()
        vals = {"af": F(2), "ag": F(3), "ef": F(1), "eg": F(5),
                "s": F(2), "p": F(7)}
        assert lhs.subs(vals) == rhs.subs(vals)


class TestProjectionFormula:
    def test_simplifies_to_euler_product(self):
        result, ok = nr.pstab_projection_formula()
        assert ok

    def test_constant_term(self):
        result, ok = nr.pstab_projection_formula()
        assert ok
        from rankin.normrel import AL, BE, GA, DE, ROOT_RING
        # coefficient of sigma^0 is al ga / ((ga - de)(al - be))
        by_s = result.num.coefficients_in("s")
        c0 = by_s[0].subs({"s": ROOT_RING.one()})
        from rankin.poly import RatFunc
        assert RatFunc(c0, result.den) == RatFunc(AL * GA, (GA - DE) * (AL - BE))

    def test_denominator_mutation_fails(self):
        _, ok = nr.pstab_projection_formula(drop_denominator_term=True)
        assert not ok

    def test_numeric_spot(self):
        result, ok = nr.pstab_projection_formula()
        vals = {"al": F(2), "be": F(3), "ga": F(1), "de": F(5),
                "p": F(7), "s": F(2)}
        lhs = result.subs(vals)
        target = (F(2) * 1 * (1 - F(3 * 5, 7 * 2)) * (1 - F(2 * 5, 7 * 2))
                  * (1 - F(3 * 1, 7 * 2))) / ((1 - 5) * (2 - 3))
        assert lhs == target


class TestTwistedPolynomial:
    def test_solved_from_display(self):
        _, _, ok = nr.corestriction_solved_polynomial()
        assert ok

    def test_symbolic_congruence(self):
        coeffs, cert, ok = nr.derive_A_ell()
        assert ok and cert is not None

    def test_constant_coefficient_is_one(self):
        coeffs, _, _ = nr.derive_A_ell()
        assert coeffs[0] == nr.EIG_RING.one()

    def test_mutation_fails(self):
        _, _, ok = nr.derive_A_ell(mutate=True)
        assert not ok

    def test_concrete_ell_3(self):
        # the bundled pair at the good prime 3: a_3(f) = a_3(g) = -1,
        # both nebentypus values 1
        assert nr.a_ell_congruence_concrete(3, -1, -1, 1, 1) is True
        a_coeffs, p_coeffs = nr.a_ell_concrete(3, -1, -1, 1, 1)
        assert a_coeffs[0] == 1 == p_coeffs[0]
        diff = [(x - y) / 2 for x, y in zip(a_coeffs, p_coeffs)]
        assert diff == [0, F(-1, 3), F(-1, 3), F(-1, 3), F(1)]


class TestTwistSystem:
    def test_construction_and_property(self):
        g = nr.build_twist_system(210)
        assert nr.twist_system_property_holds(g, 210)
        assert g[1] == 1

    def test_crt_example(self):
        g = nr.build_twist_system(30)
        assert g[15] % 3 == (pow(5, -1, 3) * g[3]) % 3
        assert g[15] % 5 == (pow(3, -1, 5) * g[5]) % 5

    def test_values_are_units(self):
        from math import gcd
        g = nr.build_twist_system(105)
        for m, v in g.items():
            if m > 1:
                assert gcd(v, m) == 1

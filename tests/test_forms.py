"""Eigenform ingestion, the eta oracle, stabilization, the root-ratio minimal
polynomial, the congruence scan and the hypothesis checklist."""

from fractions import Fraction as F
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankin.arith import factor, primes_upto
from rankin.cli import main
from rankin.forms import (DirichletChar, Eigenform, FormDataError, _format_t,
                          _parse_value,
                          bundled_path, eta_oracle_level11,
                          congruence_prime_scan, format_value, hypothesis_report,
                          is_root_of_unity_poly, load_bundled, parse_eigenform,
                          p_stabilize, ratio_minpoly_and_root_of_unity,
                          serialize_eigenform)
from rankin.poly import cyclotomic_polynomial, poly_divmod, poly_mul
from rankin.quotring import QuotElt


@pytest.fixture(scope="module")
def f11():
    return load_bundled("f11.eigenform")


@pytest.fixture(scope="module")
def g26():
    return load_bundled("g26.eigenform")


class TestIngestion:
    def test_first_coefficients(self, f11, g26):
        assert [f11.a(n).rep.constant_value() for n in range(1, 6)] == [1, -2, -1, 2, 1]
        t = g26.ring.gen("t")
        assert g26.a(2) == t
        assert g26.a(3) == -g26.ring.one()
        assert g26.a(4) == -g26.ring.one()
        assert g26.a(5) == -3 * t

    def test_round_trip_bit_exact(self, f11, g26):
        for form in (f11, g26):
            text = serialize_eigenform(form)
            assert serialize_eigenform(parse_eigenform(text)) == text

    def test_multiplicativity_violation_detected(self, f11):
        text = serialize_eigenform(f11)
        lines = text.splitlines()
        out = []
        for line in lines:
            if line.startswith("6:"):
                out.append("6: 7")
            else:
                out.append(line)
        with pytest.raises(FormDataError, match=r"recursion|multiplicativity"):
            parse_eigenform("\n".join(out))

    def test_recursion_violation_reports_witness(self, f11):
        text = serialize_eigenform(f11)
        out = [("4: 5" if line.startswith("4:") else line)
               for line in text.splitlines()]
        with pytest.raises(FormDataError, match=r"\(2, 2\)"):
            parse_eigenform("\n".join(out))

    def test_prime_beyond_the_table_names_it(self, f11):
        assert f11.a(2 * 113) == f11.a(2) * f11.a(113)
        with pytest.raises(ValueError, match=r"a_1009 .*bound 120"):
            f11.a(2 * 1009)

    def test_character_values(self, g26):
        chi = g26.character
        assert chi.value(3) == F(1)    # 3 = 4^2 mod 13 is a square
        assert chi.value(7) == F(-1)
        assert chi.value(13) == 0 and chi.value(2) == 0

    def test_rational_character_by_default(self):
        chi = DirichletChar(5, {2: F(-1)})
        assert chi.value(4) == 1 and chi.value(3) == -1 and chi.order() == 2

    def test_rings_of_two_loads_compare_equal(self, g26):
        again = load_bundled("g26.eigenform")
        assert again.ring is not g26.ring and again.ring == g26.ring
        assert hash(again.ring) == hash(g26.ring)
        assert again.a(2) == g26.a(2) and hash(again.a(2)) == hash(g26.a(2))
        assert again.a(2) * g26.a(3) == g26.a(6)

    def test_bad_homomorphism_rejected(self, g26):
        with pytest.raises(FormDataError):
            DirichletChar(26, {7: F(2)}, g26.ring)

    def test_parse_error_reports_line(self):
        text = "level=11 weight=2 charmod=11 field=t\n1: 1\n2: zzz\n"
        with pytest.raises(FormDataError, match="line 3"):
            parse_eigenform(text)

    def test_missing_index_reported(self):
        text = "level=11 weight=2 charmod=11 field=t\n1: 1\n3: -1\n"
        with pytest.raises(FormDataError, match="missing coefficient"):
            parse_eigenform(text)

    def test_header_keys_in_any_order(self):
        form = parse_eigenform("field=t charmod=1 weight=12 level=1\n1: 1\n")
        assert (form.level, form.weight, form.character.modulus) == (1, 12, 1)

    def test_field_polynomial_round_trip(self):
        # a -1 coefficient of the field polynomial prints as -t, as it does
        # in a coefficient line
        form = parse_eigenform("level=1 weight=2 charmod=1 field=t^2-t+1\n"
                               "1: 1\n")
        text = serialize_eigenform(form)
        assert "field=1-t+t^2\n" in text
        again = parse_eigenform(text)
        assert again.field_poly == form.field_poly == [1, -1, 1]
        assert serialize_eigenform(again) == text


class TestCharacterClosure:
    @pytest.mark.parametrize("modulus,gen_values,message", [
        (13, {2: F(1, 2)}, "not multiplicative at 1"),
        (13, {2: F(-1), 4: F(-1)}, "not multiplicative at 4"),
        (15, {2: F(-1)}, "do not generate the unit group"),
        (8, {3: F(-1)}, "do not generate the unit group")])
    def test_error_texts(self, modulus, gen_values, message):
        # the first conflict of the closure names the unit where it appears
        with pytest.raises(FormDataError, match=message):
            DirichletChar(modulus, gen_values)


# values the former token scan read as something else: t*3, t3 and tt as t,
# --1 as -1, 1.5 as 3/2
MALFORMED = ["t*3", "t3", "tt", "--1", "3*", "t^", "^2", "1+", "+", "1.5", "2/0",
             "3**t", "t^-1", "1/2/3"]


class TestValueGrammar:
    @pytest.mark.parametrize("value", MALFORMED)
    def test_malformed_coefficient_names_the_line(self, value):
        text = f"level=26 weight=2 charmod=1 field=t^2+1\n1: 1\n2: {value}\n"
        with pytest.raises(FormDataError, match="^line 3: "):
            parse_eigenform(text)

    @pytest.mark.parametrize("value", ["t*3", "--1"])
    def test_malformed_field_and_character_name_the_line(self, value):
        with pytest.raises(FormDataError, match="^line 1: "):
            parse_eigenform(f"level=1 weight=2 charmod=1 field={value}\n1: 1\n")
        with pytest.raises(FormDataError, match="^line 2: "):
            parse_eigenform(f"level=26 weight=2 charmod=26 field=t^2+1\n"
                            f"chargen 7:{value}\n1: 1\n")
        with pytest.raises(FormDataError, match="^line 2: "):
            parse_eigenform("level=26 weight=2 charmod=26 field=t^2+1\n"
                            "chargen x:-1\n1: 1\n")

    @pytest.mark.parametrize("value", ["t*3", "t3", "tt", "--1"])
    def test_cli_exits_3_on_a_malformed_value(self, tmp_path, capsys, value):
        text = bundled_path("f11.eigenform").read_text()
        assert "\n2: -2\n" in text
        bad = tmp_path / "f.eigenform"
        bad.write_text(text.replace("\n2: -2\n", f"\n2: {value}\n"))
        rc = main(["euler-factor", "--f", str(bad),
                   "--g", str(bundled_path("g26.eigenform")), "--prime", "3"])
        err = capsys.readouterr().err
        assert rc == 3 and err.startswith("data error: line ") and value in err

    @pytest.mark.parametrize("value, dense", [
        ("3t", [0, 3]), ("3*t", [0, 3]), ("-t^2", [0, 0, -1]), ("+2", [2]),
        ("1/2t^3-1/2", [F(-1, 2), 0, 0, F(1, 2)]), ("t-t", [0, 0]),
        (" 2 + 3 * t ", [2, 3]), ("4/2", [2]), ("t^0+t", [1, 1])])
    def test_well_formed_values(self, value, dense):
        assert _parse_value(value, 1) == dense

    @given(st.lists(st.one_of(st.integers(-50, 50),
                              st.fractions(-50, 50, max_denominator=9)),
                    min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_format_then_parse_gives_the_value(self, dense):
        while len(dense) > 1 and not dense[-1]:
            dense.pop()
        got = _parse_value(_format_t(enumerate(dense)), 1)
        assert got[:len(dense)] == dense and not any(got[len(dense):])
        # integral coefficients come back as ints
        assert all(type(c) is int for c in got if F(c).denominator == 1)


def _first_coprime_failure(coefficients):
    """Oracle: the message naming the first coprime pair (m, n), by m and
    then n, with a_mn != a_m a_n, from a scan of every such pair; None when
    there is none."""
    B = max(coefficients)
    for m in range(2, B + 1):
        for n in range(2, B // m + 1):
            if gcd(m, n) == 1 and not (coefficients[m * n]
                                       == coefficients[m] * coefficients[n]):
                return f"multiplicativity fails at ({m}, {n})"
    return None


# the indices whose coefficient the prime-power checks do not decide alone
NOT_PRIME_POWERS = [n for n in range(2, 121) if len(factor(n)) > 1]


class TestMultiplicativity:
    @pytest.mark.parametrize("name", ["f11.eigenform", "g26.eigenform"])
    def test_bundled_files_pass_the_pair_scan(self, name):
        form = load_bundled(name)
        assert form.validate() and _first_coprime_failure(form.coefficients) is None

    @pytest.mark.parametrize("name", ["f11.eigenform", "g26.eigenform"])
    def test_each_damaged_index_is_named_as_the_pair_scan_names_it(self, name):
        # a(n) + 1 at every index n <= 120 that is not a prime power: the
        # package and the pair scan reject the same file with the same text
        form = load_bundled(name)
        text = bundled_path(name).read_text()
        assert form.bound == 120 and len(NOT_PRIME_POWERS) == 79
        for n in NOT_PRIME_POWERS:
            line, bad = (f"\n{n}: {format_value(v)}\n" for v in (form.a(n), form.a(n) + 1))
            assert line in text
            want = _first_coprime_failure({**form.coefficients, n: form.a(n) + 1})
            assert want is not None
            with pytest.raises(FormDataError) as exc:
                parse_eigenform(text.replace(line, bad))
            assert str(exc.value) == want, n


def prime_power_direct(form, p, r):
    """a(p^r) by the Hecke recursion from the stored a_p only, restarted on
    each call: the oracle of the per-prime list."""
    if r == 0:
        return form.ring.one()
    ap = form.coefficients[p]
    scale = form.char_value(p) * F(p) ** (form.weight - 1)
    prev2, prev1 = form.ring.one(), ap
    for _ in range(r - 1):
        prev2, prev1 = prev1, ap * prev1 - scale * prev2
    return prev1


def _first_recursion_failure(form):
    """Oracle: the message naming the first (p, r), by p and then r, with
    a(p^r) unequal to the Hecke recursion run again from a_p for each r;
    None when there is none."""
    B = form.bound
    for p in primes_upto(B):
        r = 2
        while p ** r <= B:
            if not (form.coefficients[p ** r] == prime_power_direct(form, p, r)):
                return f"Hecke recursion fails at (p, r) = ({p}, {r})"
            r += 1
    return None


# the prime powers p^r <= 120 (r >= 1) that the recursion checks decide: a_p
# starts the recursion at p, and p^2 <= 120
RECURSION_INDICES = [p ** r for p in (2, 3, 5, 7) for r in range(1, 7) if p ** r <= 120]


class TestPrimePowerRecursion:
    @pytest.mark.parametrize("name", ["f11.eigenform", "g26.eigenform"])
    def test_each_damaged_prime_power_is_named_as_the_per_r_loop_names_it(self, name):
        # a(p^r) + 1 at every index the recursion checks: the package and the
        # per-r oracle reject the same file with the same text
        form = load_bundled(name)
        text = bundled_path(name).read_text()
        assert _first_recursion_failure(form) is None
        assert len(RECURSION_INDICES) == 14
        for n in RECURSION_INDICES:
            line, bad = (f"\n{n}: {format_value(v)}\n" for v in (form.a(n), form.a(n) + 1))
            assert line in text
            damaged = Eigenform(form.level, form.weight, form.character, form.ring,
                                {**form.coefficients, n: form.a(n) + 1})
            want = _first_recursion_failure(damaged)
            assert want is not None
            with pytest.raises(FormDataError) as exc:
                parse_eigenform(text.replace(line, bad))
            assert str(exc.value) == want, n

    @pytest.mark.parametrize("name", ["f11.eigenform", "g26.eigenform"])
    def test_validation_runs_one_recursion_per_prime(self, name):
        # 24 products for the prime powers (1 + 2 per exponent r >= 2 at
        # p = 2, 3, 5, 7) and 79 for the indices that are not prime powers
        form = load_bundled(name)
        calls = []
        product = QuotElt.__mul__

        def counted(x, y):
            calls.append(1)
            return product(x, y)

        with mock.patch.object(QuotElt, "__mul__", counted):
            assert form.validate()
        assert len(calls) == 24 + len(NOT_PRIME_POWERS)

    @pytest.mark.parametrize("name", ["f11.eigenform", "g26.eigenform"])
    def test_prime_power_list_equals_the_restarted_recursion(self, name):
        # the per-prime list, past the table and at primes above sqrt(bound),
        # against prime_power_direct restarted from a_p for each r
        form = load_bundled(name)
        for p in (2, 3, 11, 13):
            powers = form._prime_powers(p, 12)
            assert powers[0] == form.ring.one()
            direct = [prime_power_direct(form, p, r) for r in range(13)]
            assert powers[:13] == direct
            assert [form.prime_power(p, r) for r in range(13)] == direct
            assert form._prime_powers(p, 12) is powers
        # a second read is a lookup, with no product
        with mock.patch.object(QuotElt, "__mul__", side_effect=AssertionError):
            assert [form.prime_power(p, 12) for p in (2, 13)] == [
                form._powers[2][12], form._powers[13][12]]


class TestEtaOracle:
    def test_matches_bundled_form(self, f11):
        eta = eta_oracle_level11(f11.bound)
        for n, c in enumerate(eta, start=1):
            assert f11.a(n) == f11.ring.coerce(c)

    def test_multiplicative_to_200(self):
        eta = eta_oracle_level11(200)
        for m in range(2, 201):
            for n in range(2, 200 // m + 1):
                if gcd(m, n) == 1:
                    assert eta[m * n - 1] == eta[m - 1] * eta[n - 1]

    def test_bad_prime_power_recursion(self):
        eta = eta_oracle_level11(121)
        assert eta[121 - 1] == eta[11 - 1] ** 2


class TestStabilization:
    def test_ordinary_at_17(self, f11, g26):
        st_f = p_stabilize(f11, 17)
        st_g = p_stabilize(g26, 17)
        assert st_f.ordinary and st_g.ordinary
        assert sorted(st_f.root_valuations) == [0, 1]
        assert sorted(st_g.root_valuations) == [0, 1]

    def test_root_relations(self, f11):
        st = p_stabilize(f11, 17)
        ap = None
        # alpha + beta = a_p and alpha beta = p (weight 2, trivial nebentypus)
        s = st.alpha + st.beta
        prod = st.alpha * st.beta
        assert s == st.ring.coerce(-2)
        assert prod == st.ring.coerce(17)

    def test_nonordinary_slopes(self, f11):
        # a_19(f11) = 0: both slopes 1/2
        assert f11.a(19).is_zero()
        st = p_stabilize(f11, 19)
        assert not st.ordinary
        assert st.slopes == (F(1, 2), F(1, 2))

    def test_bad_prime_rejected(self, f11):
        with pytest.raises(FormDataError):
            p_stabilize(f11, 11)


class TestRatioMinpoly:
    def test_bundled_pair_at_17(self, f11, g26):
        mp, is_ru = ratio_minpoly_and_root_of_unity(
            p_stabilize(f11, 17), p_stabilize(g26, 17))
        assert mp == [F(1), F(6, 17), F(-21, 17), F(6, 17), F(1)]
        assert is_ru is False

    def test_same_form_gives_one(self, f11):
        st = p_stabilize(f11, 17)
        mp, is_ru = ratio_minpoly_and_root_of_unity(st, st)
        assert mp == [F(-1), F(1)] and is_ru is True

    def test_quartic_cyclotomic_detected(self):
        assert is_root_of_unity_poly([F(1), F(0), F(1)]) is True      # x^2 + 1
        assert is_root_of_unity_poly([F(1), F(-1), F(1)]) is True     # x^2 - x + 1
        assert is_root_of_unity_poly([F(1), F(6, 17), F(-21, 17), F(6, 17), F(1)]) is False
        assert is_root_of_unity_poly([F(-2), F(1)]) is False

    def test_answer_is_over_q(self):
        # the leading coefficient is divided out first; a constant divides x - 1
        assert is_root_of_unity_poly([2, 0, 2]) is True             # 2x^2 + 2
        assert is_root_of_unity_poly([F(1, 2), 0, F(1, 2)]) is True
        assert is_root_of_unity_poly([1, 0, 2]) is False            # 2x^2 + 1
        assert is_root_of_unity_poly([1]) is True
        assert is_root_of_unity_poly([F(-3, 2)]) is True

    @given(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12]), min_size=1, max_size=3),
           st.integers(0, 4), st.integers(-1, 1),
           st.sampled_from([F(1), F(-1), F(3), F(-2, 3)]))
    @settings(max_examples=60, deadline=None)
    def test_root_of_unity_matches_the_division_loop(self, ns, i, bump, scale):
        # products of cyclotomic polynomials of degree <= 6, one coefficient
        # perturbed, times a rational scalar
        mp = [F(1)]
        for n in ns:
            mp = poly_mul(mp, cyclotomic_polynomial(n))
        assume(len(mp) <= 7)
        i = min(i, len(mp) - 2)
        mp[i] += bump
        mp = [c * scale for c in mp]
        assert is_root_of_unity_poly(mp) is _root_of_unity_oracle(mp)


def _root_of_unity_oracle(mp):
    """Whether mp divides x^M - 1 over Q for some 1 <= M <= 2 d^2 + 2, by long
    division of each x^M - 1."""
    d = len(mp) - 1
    for M in range(1, 2 * d * d + 3):
        if not poly_divmod([F(-1)] + [F(0)] * (M - 1) + [F(1)], mp)[1]:
            return True
    return False


class TestCongruenceScan:
    def test_window_7_to_50_all_witnessed(self, f11, g26):
        window = [p for p in range(7, 51) if all(p % q for q in range(2, p))]
        rep = congruence_prime_scan(f11, g26, [g26.character], 100, window)
        flagged = {p for p, entries in rep.items()
                   if any(w is None for _, w in entries)}
        assert flagged == set()

    def test_only_5_flagged_when_included(self, f11, g26):
        window = [5] + [p for p in range(7, 51) if all(p % q for q in range(2, p))]
        rep = congruence_prime_scan(f11, g26, [g26.character], 100, window)
        flagged = {p for p, entries in rep.items()
                   if any(w is None for _, w in entries)}
        assert flagged == {5}

    def test_identical_forms_always_flagged(self, f11):
        rep = congruence_prime_scan(f11, f11, [], 50, [7, 11, 13])
        assert all(w is None for entries in rep.values() for _, w in entries)

    def test_witnesses_monotone_in_bound(self, f11, g26):
        small = congruence_prime_scan(f11, g26, [g26.character], 40, [17, 29])
        large = congruence_prime_scan(f11, g26, [g26.character], 100, [17, 29])
        for p in (17, 29):
            for (l1, w1), (l2, w2) in zip(small[p], large[p]):
                if w1 is not None:
                    assert w2 == w1


class TestHypothesisReport:
    def test_bundled_pair_at_17(self, f11, g26):
        rep = hypothesis_report(f11, g26, 17)
        decidable = {k: v for k, v in rep.items() if v[0] != "EXTERNAL"}
        assert all(v[0] == "PASS" for v in decidable.values()), decidable
        assert rep["i_not_cm"][0] == "EXTERNAL"

    def test_fails_viii_at_5(self, f11, g26):
        rep = hypothesis_report(f11, g26, 5)
        assert rep["viii_coefficient_separation"][0] == "FAIL"

    def test_fails_iv_at_3(self, f11, g26):
        rep = hypothesis_report(f11, g26, 3)
        assert rep["iv_p_at_least_5"][0] == "FAIL"

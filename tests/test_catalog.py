"""The catalog layer: selection, report shape, witness invariants."""

from fractions import Fraction

import pytest

from conftest import DERIVATION_CACHES
from rankin import catalog, euler
from rankin.catalog import CATALOG, MUTATIONS, NORM_RELATION_IDS, run_catalog
from rankin.poly import MPoly


def test_ids_unique_and_core_subset():
    ids = [e[0] for e in CATALOG]
    assert len(ids) == len(set(ids))
    assert set(NORM_RELATION_IDS) <= set(ids)


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        run_catalog(["not-an-identity"])


def test_report_shape_and_fail_witness_invariant():
    report = run_catalog(["sp-rewrite", "twist-system", "corestriction-specialization"])
    assert report["schema"] == 1
    assert [e["id"] for e in report["entries"]] == sorted(e["id"] for e in report["entries"])
    for e in report["entries"]:
        assert e["status"] in ("PASS", "FAIL")
        if e["status"] == "FAIL":
            assert e["witness"] is not None


def test_seed_changes_spot_point_not_verdict():
    r1 = run_catalog(["sp-rewrite"], {"seed": 1})
    r2 = run_catalog(["sp-rewrite"], {"seed": 2})
    w1, w2 = r1["entries"][0]["witness"], r2["entries"][0]["witness"]
    assert r1["entries"][0]["status"] == r2["entries"][0]["status"] == "PASS"
    assert w1["spot"]["point"] != w2["spot"]["point"]
    assert w1["spot"]["equal"] and w2["spot"]["equal"]


def test_dist_relations_runs_requested_precision(monkeypatch):
    import rankin.catalog
    seen = set()

    def record(alpha, beta, M, c, prec):
        seen.add(prec)
        return True, None

    monkeypatch.setattr(rankin.catalog, "distribution_check", record)
    report = run_catalog(["dist-relations"], {"prec": 250})
    assert seen == {250}
    assert report["entries"][0]["witness"] == {"precision": 250}


def test_no_entry_computes_a_series_product(refuse_series_kernels):
    expected = run_catalog()["entries"]
    refuse_series_kernels()
    got = run_catalog()["entries"]
    assert [(e["id"], e["status"], e["witness"]) for e in got] == \
        [(e["id"], e["status"], e["witness"]) for e in expected]
    assert {e["status"] for e in got} == {"PASS"}


def test_mutation_count():
    assert len(MUTATIONS) >= 10


def test_polynomial_coefficients_are_int_or_fraction(monkeypatch, fresh_derivations):
    """Floats appear only in the cmath cross-checks: no catalog entry that
    runs on MPoly may build one with a coefficient other than an int or a
    Fraction.  The form and derivation caches are emptied first, so that
    their contents are built under the check."""
    bad = []
    init = MPoly.__init__

    def checked_init(self, ring, terms):
        bad.extend(c for c in terms.values() if type(c) not in (int, Fraction))
        init(self, ring, terms)

    catalog._load_form.cache_clear()
    monkeypatch.setattr(MPoly, "__init__", checked_init)
    ids = [e[0] for e in CATALOG
           if e[0] not in ("dlog", "dist-relations", "hecke-square")]
    report = run_catalog(ids, {"prec": 100, "seed": 0, "data": None, "guard": 8})
    assert [e["id"] for e in report["entries"] if e["status"] != "PASS"] == []
    assert bad == []


# the entries whose verdicts rest on comparing the cached derivations
COMPARING_ENTRIES = ("composite-norms-a", "composite-norms-b", "pstab-formula",
                     "functional-symmetry", "mutation-suite",
                     "corestriction-specialization", "A-ell-congruence")


def test_caches_hold_values_and_never_verdicts(monkeypatch, fresh_derivations):
    # two full runs build each cached derivation once
    run_catalog()
    run_catalog()
    assert [c.cache_info().misses for c in DERIVATION_CACHES] == [1] * len(DERIVATION_CACHES)
    # with every cache warm, the comparisons still run: a comparison that
    # always fails makes every entry that compares the derivations FAIL
    monkeypatch.setattr(MPoly, "__eq__", lambda self, other: False)
    monkeypatch.setattr(MPoly, "__hash__", lambda self: 0)
    report = run_catalog(list(COMPARING_ENTRIES))
    assert {e["id"]: e["status"] for e in report["entries"]} == \
        dict.fromkeys(COMPARING_ENTRIES, "FAIL")
    assert [c.cache_info().misses for c in DERIVATION_CACHES] == [1] * len(DERIVATION_CACHES)


def test_two_param_family_builds_each_eisenstein_series_once(monkeypatch):
    specs = []
    real = catalog.eisenstein_qexp
    monkeypatch.setattr(catalog, "eisenstein_qexp",
                        lambda spec, prec: specs.append(spec) or real(spec, prec))
    (entry,) = run_catalog(["two-param-family"])["entries"]
    assert entry["status"] == "PASS"
    assert [(s.family, s.k) for s in specs] == [("E", 1), ("E", 3), ("E", 4), ("F", 3)]


@pytest.mark.parametrize("fault, name", [
    (lambda *args: False, "VerificationError: dual-path factor check failed"),
    (lambda *args: 1 // 0, "ZeroDivisionError: integer division or modulo by zero")])
def test_witness_names_a_failed_certificate_and_a_crash(monkeypatch, fault, name):
    # the dual-path check of the good-prime factor fails, or crashes
    monkeypatch.setattr(euler, "_power_sums_agree", fault)
    (entry,) = run_catalog(["weil-bounds"])["entries"]
    assert (entry["status"], entry["witness"]) == ("FAIL", name)

"""Exact-arithmetic workbench for the computational side of Euler systems of
Rankin-Selberg type: q-expansion identities for Eisenstein series and modular
units, the double-coset Hecke algebra, operator-valued norm-relation
identities, local convolution factors with their interpolation symmetries,
and a fully checked worked example.

Everything is verified over exact coefficient rings (rationals, cyclotomic
fields, quotient rings, group rings), the Weil bounds included; floating
point appears only in cross-validation against complex embeddings.

Importing the package loads none of its modules.  Each public name is
listed once in ``_EXPORTS`` under the module that defines it, and the first
access (``rankin.ingest``, ``from rankin import ingest``) imports that module
and the modules it imports, and no others (PEP 562).  A submodule name such
as ``rankin.eisenstein`` resolves the same way.  The value is not copied
into the package: ``rankin.X`` always reads the defining module's current
binding.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "catalog": ("CATALOG", "run_catalog"),
    "cosets": ("CongSubgroup", "CosetMatrix", "IwahoriCell", "coset_reps",
               "double_coset_multiply", "iwahori_index", "iwahori_invariant",
               "t_prime_square_identity"),
    "cyclo": ("CyclotomicField",),
    "eisenstein": ("EisensteinSpec", "eisenstein_qexp", "equivariant_gm",
                   "maass_raise", "p_depletion", "two_param_eisenstein",
                   "universal_gauss_sum"),
    "euler": ("EulerFactor", "InterpFactors", "functional_symmetry_check",
              "hecke_polynomial", "interpolation_factors", "local_correction",
              "rankin_euler_factor", "weil_check"),
    "forms": ("DirichletChar", "Eigenform", "Stabilization",
              "congruence_prime_scan", "eta_oracle_level11",
              "hypothesis_report", "ingest", "load_bundled", "p_stabilize",
              "ratio_minpoly_and_root_of_unity"),
    "groupring": ("GroupRing", "augment_mod"),
    "normrel": ("build_twist_system", "derive_A_ell", "derive_composite_norms",
                "pstab_projection_formula", "specialize_to_corestriction"),
    "operators": ("operator_euler_coeffs", "verify_higher_rewrite",
                  "verify_sp_rewrite"),
    "otsuki": ("otsuki_trace_check",),
    "poly": ("MPoly", "PolyRing", "RatFunc"),
    "qseries": ("QSeries",),
    "quotring": ("QuotRing", "join", "minpoly"),
    "siegel": ("distribution_check", "dlog_matches_weight_two",
               "siegel_unit_qexp"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def _submodule(module):
    """rankin.<module>, imported through __import__ as an import statement
    is, so that ``python -X importtime`` reports it."""
    name = f"{__name__}.{module}"
    __import__(name)
    return sys.modules[name]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(_submodule(module), name)
    if name.isidentifier():
        try:
            return _submodule(name)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

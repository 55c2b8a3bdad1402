"""Exact-arithmetic workbench for the computational side of Euler systems of
Rankin-Selberg type: q-expansion identities for Eisenstein series and modular
units, the double-coset Hecke algebra, operator-valued norm-relation
identities, local convolution factors with their interpolation symmetries,
and a fully checked worked example.

Everything is verified over exact coefficient rings (rationals, cyclotomic
fields, quotient rings, group rings), the Weil bounds included; floating
point appears only in cross-validation against complex embeddings.
"""

__version__ = "0.1.0"

from .catalog import CATALOG, run_catalog
from .cyclo import CyclotomicField
from .eisenstein import (EisensteinSpec, eisenstein_qexp, equivariant_gm,
                         maass_raise, p_depletion, two_param_eisenstein,
                         universal_gauss_sum)
from .euler import (EulerFactor, InterpFactors, functional_symmetry_check,
                    hecke_polynomial, interpolation_factors, local_correction,
                    rankin_euler_factor, weil_check)
from .forms import (DirichletChar, Eigenform, Stabilization,
                    congruence_prime_scan, eta_oracle_level11,
                    hypothesis_report, ingest, load_bundled, p_stabilize,
                    ratio_minpoly_and_root_of_unity)
from .groupring import GroupRing, augment_mod
from .normrel import (build_twist_system, derive_A_ell, derive_composite_norms,
                      pstab_projection_formula, specialize_to_corestriction)
from .operators import (operator_euler_coeffs, verify_higher_rewrite,
                        verify_sp_rewrite)
from .otsuki import otsuki_trace_check
from .poly import MPoly, PolyRing, RatFunc
from .qseries import QSeries
from .quotring import QuotRing, join, minpoly
from .cosets import (CongSubgroup, CosetMatrix, IwahoriCell, coset_reps,
                     double_coset_multiply, iwahori_index, iwahori_invariant,
                     t_prime_square_identity)
from .siegel import distribution_check, dlog_matches_weight_two, siegel_unit_qexp

__all__ = [
    "CATALOG", "CongSubgroup", "CosetMatrix", "CyclotomicField",
    "DirichletChar", "Eigenform", "EisensteinSpec", "EulerFactor", "GroupRing",
    "InterpFactors", "IwahoriCell", "MPoly", "PolyRing", "QSeries", "QuotRing",
    "RatFunc", "Stabilization", "augment_mod", "build_twist_system",
    "congruence_prime_scan", "coset_reps", "derive_A_ell",
    "derive_composite_norms", "distribution_check", "dlog_matches_weight_two",
    "double_coset_multiply", "eisenstein_qexp", "equivariant_gm",
    "eta_oracle_level11", "functional_symmetry_check", "hecke_polynomial",
    "hypothesis_report", "ingest", "interpolation_factors",
    "iwahori_index", "iwahori_invariant", "join", "load_bundled",
    "local_correction", "maass_raise", "operator_euler_coeffs",
    "minpoly", "otsuki_trace_check",
    "p_depletion", "p_stabilize",
    "pstab_projection_formula", "rankin_euler_factor",
    "ratio_minpoly_and_root_of_unity", "run_catalog", "siegel_unit_qexp",
    "specialize_to_corestriction", "t_prime_square_identity",
    "two_param_eisenstein", "universal_gauss_sum", "verify_higher_rewrite",
    "verify_sp_rewrite", "weil_check",
]

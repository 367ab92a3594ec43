"""Operator-algebraic Poisson geometry on finite-dimensional W*-algebras.

The package realizes, in exact matrix arithmetic, the geometry that a direct
sum of matrix algebras carries through its normal functionals: groupoids of
partial isometries and of partially invertible elements, the polar groupoid
of functionals with its coadjoint picture, chart atlases on projection
Grassmannians and isometry bundles, the canonical connection and orbit
two-form with their degeneracy analysis, Lie-Poisson brackets on the predual
in duality with a commuting pair of momentum maps, and modular flows on the
standard form.  Every structural identity ships with a seeded numerical
property suite (:mod:`wstargeo.suites`) and a command line (``wstargeo``).
"""
from __future__ import annotations

#: Each public name, under the submodule that defines it.  ``import wstargeo``
#: loads none of them: :func:`__getattr__` imports a name's submodule when the
#: name is first read (PEP 562), so a command loads only what it runs.
_EXPORTS = {
    "algebra": (
        "BlockAlgebra", "NormalFunctional", "StabilizerData", "centralizer_basis",
        "coadjoint_apply", "conditional_expectation", "density_spectrum",
        "functional_polar", "functional_support", "modular_flow", "mvn_equivalent",
        "mvn_witness", "orbit_equivalent", "orbit_invariant", "stabilizer_lie_algebra",
        "unitary_equivalent", "unitary_witness",
    ),
    "charts": (
        "Gamma0", "chart_G", "chart_G_inv", "chart_Theta", "chart_Theta_inv",
        "chart_domain_member", "connection_alpha", "curvature_Omega", "dGamma0",
        "fd_surface_dGamma0", "hv_split", "jay_corner", "phi_p", "phi_p_inv",
        "sigma_p", "theta_P0", "theta_P0_inv", "transition_L", "u_p",
    ),
    "errors": (
        "AlgebraMismatch", "AmbiguousCluster", "DegenerateBase", "DomainError",
        "InvalidArrow", "InvalidFamily", "InvalidTangent", "InvalidTrials",
        "NotComposable", "NotFaithful", "NotHermitian", "NotInDomain", "NotInOverlap",
        "NotPartiallyInvertible", "NotPositive", "NotUnitVector", "ParseError",
        "UnknownSuite", "UsageError",
    ),
    "groupoids": (
        "GROUPOIDS", "AxiomReport", "CoadjointArrow", "axiom_check",
        "chain_law_residuals", "coadjoint_compose", "coadjoint_inverse",
        "coadjoint_source", "coadjoint_target", "coadjoint_unit", "composable_chain",
        "g_compose", "g_inverse", "g_source", "g_target", "gauge_iso_Psi", "iso_Xi",
        "iso_Xi_inv", "jay", "phi_intertwining_residual", "pi_compose", "pi_inverse",
        "pi_source", "pi_target", "pi_unit", "predual_compose", "predual_inverse",
        "predual_source", "predual_target", "predual_unit",
        "psi_intertwining_residual", "xi_intertwining_residual",
    ),
    "linalg": (
        "DEFAULT_TOL", "GUARD_FACTOR", "AmplitudeReport", "PositiveSpectrum",
        "ToleranceProfile", "feynman_amplitude", "frobenius", "hermitian_eig", "hs_inner",
        "partial_inverse", "polar_decompose", "positive_spectrum", "restricted_power",
        "supports",
    ),
    "poisson": (
        "ComposableFamily", "DegeneracyReport", "FubiniStudyReport", "KKSReport",
        "Observable", "calibrate_kappa", "commutant_bracket_check",
        "degeneracy_kernel_check", "draw_family_data", "exactness_residual",
        "families_on", "field_duality_residual",
        "field_morphism_residual", "fubini_study_compare", "hamiltonian_field",
        "jacobi_residual", "kks_check", "leibniz_residual", "linear_closure_residual",
        "lp_bracket", "multiplicativity_residual", "orbit_form_invariance_residual",
        "orbit_form_sample", "pair_groupoid_fs_residual", "poisson_map_residual",
        "vertical_form_residual",
    ),
    "standard": (
        "DualPairReport", "conjugation_J", "dual_pair_orthogonality_check",
        "expectation_E", "expectation_Eprime", "fiber_kernel_E", "fiber_kernel_Eprime",
        "fiber_kernel_dimension", "iso_Phi", "iso_Phi_inv", "modular_Delta",
        "std_inverse", "std_mul", "std_unit", "symplectic_omega", "tomita_S",
        "transport_witness",
    ),
    "suites": (
        "SUITE_NAMES", "SuiteResult", "run_suite", "suite_rows",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """``name`` as its submodule holds it now.  Nothing is kept here, so a
    rebinding of ``wstargeo.<module>.<name>`` shows through ``wstargeo.<name>``."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``__import__`` takes the import statement's path, which ``-X importtime``
    # logs; ``importlib.import_module`` does not.
    __import__(f"{__name__}.{_HOME[name]}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})

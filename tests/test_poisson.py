"""Tests for the Lie-Poisson bracket, Hamiltonian fields, composable curve
families, the orbit two-form and its degeneracy, the moment/Fubini-Study
identities, and path amplitudes."""

import dataclasses

import numpy as np
import pytest

from wstargeo import (
    DEFAULT_TOL,
    BlockAlgebra,
    ComposableFamily,
    DegenerateBase,
    DomainError,
    InvalidFamily,
    InvalidTangent,
    NormalFunctional,
    NotUnitVector,
    Observable,
    calibrate_kappa,
    commutant_bracket_check,
    degeneracy_kernel_check,
    exactness_residual,
    expectation_E,
    feynman_amplitude,
    field_duality_residual,
    field_morphism_residual,
    frobenius,
    fubini_study_compare,
    functional_support,
    hamiltonian_field,
    jacobi_residual,
    kks_check,
    leibniz_residual,
    linear_closure_residual,
    lp_bracket,
    multiplicativity_residual,
    orbit_form_invariance_residual,
    pair_groupoid_fs_residual,
    poisson_map_residual,
    sample_family,
    sample_family_pair,
    stabilizer_lie_algebra,
    std_mul,
    symplectic_omega,
    vertical_form_residual,
)
from wstargeo.charts import dGamma0
from wstargeo.poisson import _bundle_tangent_basis
from wstargeo.sampling import (
    corner_positive,
    equivalent_frames,
    faithful_density,
    frames_of,
    partial_isometry_onto,
    random_antihermitian,
    random_density,
    random_element,
    random_hermitian,
    random_projection,
    random_unit_vector,
    rng_for,
    unit_norm,
)

M2 = BlockAlgebra((2,))
M3 = BlockAlgebra((3,))
M23 = BlockAlgebra((2, 3))

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
PHI10 = NormalFunctional(M2, np.diag([1.0, 0.0]).astype(complex))


class TestLiePoisson:
    def test_bracket_oracle(self):
        f = Observable.linear(SX, DEFAULT_TOL)
        g = Observable.linear(SY, DEFAULT_TOL)
        # -i Tr(d [sx, sy]) = -i Tr(diag(1,0) 2i sz) = 2
        assert abs(lp_bracket(f, g, PHI10, DEFAULT_TOL) - 2.0) <= 1e-12

    def test_field_oracle(self):
        f = Observable.linear(SX, DEFAULT_TOL)
        field = hamiltonian_field(f, PHI10, DEFAULT_TOL)
        assert frobenius(field - SY) <= 1e-12
        # Hermitian and traceless
        assert frobenius(field - field.conj().T) <= 1e-12
        assert abs(np.trace(field)) <= 1e-12

    def test_finite_difference_differential(self):
        # an observable given only by values recovers the analytic gradient
        f_analytic = Observable.linear(SX, DEFAULT_TOL)
        f_fd = Observable(value=lambda phi: float(phi(SX).real))
        rng = rng_for(40)
        phi = faithful_density(M2, rng)
        d_an = f_analytic.differential_at(phi, DEFAULT_TOL)
        d_fd = f_fd.differential_at(phi, DEFAULT_TOL)
        assert frobenius(d_an - d_fd) <= 1e-8

    def test_quadratic_differential(self):
        rng = rng_for(41)
        x = random_hermitian(M2, rng)
        h_an = Observable.quadratic(x, DEFAULT_TOL)
        h_fd = Observable(value=lambda phi: float(np.trace(phi.density @ phi.density @ x).real))
        phi = faithful_density(M2, rng)
        assert abs(h_an.value_at(phi) - h_fd.value_at(phi)) <= 1e-12
        assert frobenius(
            h_an.differential_at(phi, DEFAULT_TOL) - h_fd.differential_at(phi, DEFAULT_TOL)
        ) <= 1e-8

    def test_product_differential_keeps_the_profile(self):
        # f times the constant 1 has differential df under the profile asked
        # for, not the default one.
        x = unit_norm(random_hermitian(M23, rng_for(46)))
        f = Observable(
            value=lambda phi: float(np.trace(phi.density @ phi.density @ phi.density @ x).real)
        )
        one = Observable(value=lambda phi: 1.0, differential=lambda phi, tol: M23.zero())
        phi = random_density(M23, rng_for(47))
        coarse = dataclasses.replace(DEFAULT_TOL, fd_step=1e-2)
        product = f.times(one).differential_at(phi, coarse)
        assert np.array_equal(product, f.differential_at(phi, coarse))
        assert frobenius(product - f.differential_at(phi, DEFAULT_TOL)) > 1e-6
        assert np.array_equal(
            f.times(one).differential_at(phi, DEFAULT_TOL), f.differential_at(phi, DEFAULT_TOL)
        )

    def test_structure_identities_random(self):
        for trial in range(60):
            rng = rng_for(42, trial)
            algebra = M2 if trial % 2 == 0 else M23
            phi = random_density(algebra, rng)
            x = random_hermitian(algebra, rng)
            y = random_hermitian(algebra, rng)
            z = random_hermitian(algebra, rng)
            f = Observable.linear(x, DEFAULT_TOL)
            g = Observable.linear(y, DEFAULT_TOL)
            h = Observable.quadratic(z, DEFAULT_TOL)
            assert field_duality_residual(f, g, phi, DEFAULT_TOL) <= 1e-10
            assert linear_closure_residual(x, y, phi, DEFAULT_TOL) <= 1e-10
            assert jacobi_residual(x, y, z, phi, DEFAULT_TOL) <= 1e-10
            assert leibniz_residual(f, g, h, phi, DEFAULT_TOL) <= 1e-10
            assert field_morphism_residual(x, y, phi, DEFAULT_TOL) <= 1e-10

    def test_orbit_drift_second_order(self):
        # The field is tangent to the unitary orbit, so one Euler step of
        # size eps moves the spectrum of the density by O(eps^2) only.
        rng = rng_for(43)
        phi = faithful_density(M2, rng)
        field = hamiltonian_field(Observable.linear(SX, DEFAULT_TOL), phi, DEFAULT_TOL)
        w0 = np.linalg.eigvalsh(phi.density)

        def drift(eps):
            return float(np.max(np.abs(np.linalg.eigvalsh(phi.density + eps * field) - w0)))

        small, big = drift(1e-3), drift(2e-3)
        assert small > 0
        assert 3.0 <= big / small <= 5.0


class TestCanonicalBracket:
    def test_oracle(self):
        # Tr(g g* x) = f_x(E(g)) has the pullback gradient x g, and
        # 2 Im <sx g | sy g> = 2 Im Tr(diag(1,0) sx sy) = 2; the Lie-Poisson
        # bracket at E(g) agrees.
        g = np.diag([1.0, 0.0]).astype(complex)
        fx, fy = Observable.linear(SX, DEFAULT_TOL), Observable.linear(SY, DEFAULT_TOL)
        assert abs(symplectic_omega(SX @ g, SY @ g) - 2.0) <= 1e-12
        assert abs(lp_bracket(fx, fy, expectation_E(M2, g), DEFAULT_TOL) - 2.0) <= 1e-12
        assert max(poisson_map_residual([(fx, fy)], M2, g, DEFAULT_TOL)) <= 1e-12

    def test_pullback_is_poisson_map(self):
        for trial in range(40):
            rng = rng_for(44, trial)
            algebra = M2 if trial % 2 == 0 else M23
            gamma = random_element(algebra, rng)
            f = Observable.linear(random_hermitian(algebra, rng), DEFAULT_TOL)
            g = Observable.linear(random_hermitian(algebra, rng), DEFAULT_TOL)
            assert max(poisson_map_residual([(f, g)], algebra, gamma, DEFAULT_TOL)) <= 1e-10
            assert commutant_bracket_check(f, g, algebra, gamma, DEFAULT_TOL) <= 1e-10


class TestComposableFamily:
    def test_generator_lock_and_gap(self):
        rng = rng_for(46)
        fam = sample_family(M23, rng, DEFAULT_TOL)
        assert frobenius(fam.b1 + fam.a2) == 0.0
        for t in (0.0, 0.3, -0.7):
            product = std_mul(fam.gamma1_at(t), fam.gamma2_at(t), DEFAULT_TOL)
            assert frobenius(product - fam.product_at(t)) <= 1e-10

    def test_tangents_match_finite_differences(self):
        rng = rng_for(47)
        fam = sample_family(M2, rng, DEFAULT_TOL)
        h = 1e-5
        for curve, tangent in (
            (fam.gamma1_at, fam.dgamma1()),
            (fam.gamma2_at, fam.dgamma2()),
            (fam.product_at, fam.dproduct()),
        ):
            fd = (curve(h) - curve(-h)) / (2.0 * h)
            assert frobenius(fd - tangent) <= 1e-8 * (1.0 + frobenius(tangent))

    def test_rejects_bad_data(self):
        one = np.eye(2, dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        good = dict(algebra=M2, u1=one, u2=one, xi2=np.diag([1.0, 2.0]).astype(complex),
                    a1=zero, a2=zero, b2=zero, h2=zero, tol=DEFAULT_TOL)
        ComposableFamily(**good)  # sanity: the base case is valid
        with pytest.raises(InvalidFamily):
            ComposableFamily(**{**good, "u1": 2.0 * one})
        with pytest.raises(InvalidFamily):
            ComposableFamily(**{**good, "xi2": np.diag([1.0, -2.0]).astype(complex)})
        with pytest.raises(InvalidFamily):
            ComposableFamily(**{**good, "h2": np.array([[0.0, 1.0], [0.0, 0.0]])})
        with pytest.raises(InvalidFamily):
            ComposableFamily(**{**good, "a1": np.diag([1.0, 1.0]).astype(complex)})

    def test_multiplicativity(self):
        for trial in range(60):
            rng = rng_for(48, trial)
            algebra = M2 if trial % 2 == 0 else M23
            fam, fam2 = sample_family_pair(algebra, rng, DEFAULT_TOL)
            assert multiplicativity_residual(fam, fam2, DEFAULT_TOL) <= 1e-9

    def test_multiplicativity_needs_shared_base(self):
        rng = rng_for(49)
        fam = sample_family(M2, rng, DEFAULT_TOL)
        other = sample_family(M2, rng, DEFAULT_TOL)
        with pytest.raises(InvalidFamily):
            multiplicativity_residual(fam, other, DEFAULT_TOL)

    def test_vertical_form(self):
        for trial in range(40):
            rng = rng_for(50, trial)
            q = random_projection(M23, rng, allow_zero=False)
            u = partial_isometry_onto(
                M23, rng, q, equivalent_frames(rng, frames_of(M23, q)).projection
            )
            xi = corner_positive(M23, rng, q)
            from wstargeo.sampling import corner_antihermitian

            b = corner_antihermitian(M23, rng, q)
            b_prime = corner_antihermitian(M23, rng, q)
            assert vertical_form_residual(u, xi, b, b_prime, DEFAULT_TOL) <= 1e-10

    def test_exactness_residual_small_step(self):
        for trial in range(10):
            rng = rng_for(51, trial)
            fam = sample_family(M2 if trial % 2 == 0 else M23, rng, DEFAULT_TOL)
            assert exactness_residual(fam, 1e-5, DEFAULT_TOL) <= 1e-7

    def test_exactness_second_order(self):
        ratios = []
        for trial in range(9):
            rng = rng_for(52, trial)
            fam = sample_family(M2, rng, DEFAULT_TOL)
            r1 = exactness_residual(fam, 1e-3, DEFAULT_TOL)
            r2 = exactness_residual(fam, 5e-4, DEFAULT_TOL)
            if r2 > 1e-13:
                ratios.append(r1 / r2)
        assert ratios, "all residuals at machine precision"
        assert 3.0 <= float(np.median(ratios)) <= 5.0


class TestMomentIdentity:
    def test_kappa_is_minus_one(self):
        assert calibrate_kappa() == -1.0

    def test_oracle(self):
        report = kks_check(PHI10, 1j * SX, 1j * SY, DEFAULT_TOL)
        assert abs(report.omega - 2.0) <= 1e-12
        assert report.residual <= 1e-12
        assert abs(report.pairing - 4.0) <= 1e-12
        assert report.kappa == -1.0

    def test_random(self):
        for trial in range(60):
            rng = rng_for(53, trial)
            algebra = M2 if trial % 2 == 0 else M23
            rho0 = random_density(algebra, rng)
            a1 = random_antihermitian(algebra, rng)
            a2 = random_antihermitian(algebra, rng)
            assert kks_check(rho0, a1, a2, DEFAULT_TOL).residual <= 1e-10

    def test_rejects_hermitian_direction(self):
        with pytest.raises(InvalidTangent):
            kks_check(PHI10, SX, 1j * SY, DEFAULT_TOL)


class TestFubiniStudy:
    def test_oracle(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        report = fubini_study_compare(1.0, e1, e2, 1j * e2, DEFAULT_TOL)
        # kappa r 2 Im <e2 | i e2> = -2
        assert abs(report.fs_value + 2.0) <= 1e-12
        assert abs(report.omega + 2.0) <= 1e-12
        assert report.residual <= 1e-12

    def test_radius_scaling(self):
        rng = rng_for(54)
        n = 3
        delta = random_unit_vector(n, rng)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        base = fubini_study_compare(1.0, delta, x, y, DEFAULT_TOL)
        for r in (0.5, 2.0):
            scaled = fubini_study_compare(r, delta, x, y, DEFAULT_TOL)
            assert abs(scaled.omega - r * base.omega) <= 1e-10
            assert scaled.residual <= 1e-10

    def test_pair_groupoid(self):
        for trial in range(40):
            rng = rng_for(55, trial)
            n = 3
            delta = random_unit_vector(n, rng)
            psi = random_unit_vector(n, rng)
            phiv = random_unit_vector(n, rng)
            draws = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(4)]
            r = float(rng.uniform(0.3, 2.5))
            assert (
                pair_groupoid_fs_residual(
                    r, delta, psi, phiv, draws[0], draws[1], draws[2], draws[3], DEFAULT_TOL
                )
                <= 1e-10
            )

    def test_degenerate_radius(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(DegenerateBase):
            fubini_study_compare(0.0, e1, e1, e1, DEFAULT_TOL)

    def test_non_unit_base(self):
        with pytest.raises(NotUnitVector):
            fubini_study_compare(
                1.0, np.array([2.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                DEFAULT_TOL,
            )


class TestAmplitude:
    def test_oracle(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        mid = (e1 + e2) / np.sqrt(2.0)
        report = feynman_amplitude([e1, mid, e2], DEFAULT_TOL)
        assert abs(report.amplitude - 0.5) <= 1e-12
        assert abs(report.probability - 0.25) <= 1e-12
        assert report.steps == 2

    def test_composition(self):
        rng = rng_for(56)
        path = [random_unit_vector(4, rng) for _ in range(5)]
        full = feynman_amplitude(path, DEFAULT_TOL)
        first = feynman_amplitude(path[:3], DEFAULT_TOL)
        second = feynman_amplitude(path[2:], DEFAULT_TOL)
        assert abs(full.amplitude - first.amplitude * second.amplitude) <= 1e-12

    def test_short_path(self):
        with pytest.raises(DomainError):
            feynman_amplitude([np.array([1.0, 0.0])], DEFAULT_TOL)

    def test_non_unit_vector(self):
        with pytest.raises(NotUnitVector):
            feynman_amplitude(
                [np.array([1.0, 0.0]), np.array([0.0, 2.0])], DEFAULT_TOL
            )
        with pytest.raises(NotUnitVector):
            feynman_amplitude(
                [np.array([1.0, 0.0]), np.array([np.nan, 0.0])], DEFAULT_TOL
            )


def _pairwise_degeneracy(rho0, u, v):
    """Kernel dimension, radical pairing and smallest complement singular
    value of the arrow two-form, filled in one dGamma0 call per basis pair."""
    p0 = functional_support(rho0, DEFAULT_TOL)
    basis_u = _bundle_tangent_basis(rho0.algebra, u, p0)
    basis_v = _bundle_tangent_basis(rho0.algebra, v, p0)
    m, k = len(basis_u), len(basis_v)
    pairing = np.zeros((m + k, m + k))
    for i in range(m):
        for j in range(m):
            pairing[i, j] = dGamma0(rho0, u, basis_u[i], basis_u[j], DEFAULT_TOL)
    for i in range(k):
        for j in range(k):
            pairing[m + i, m + j] = -dGamma0(rho0, v, basis_v[i], basis_v[j], DEFAULT_TOL)
    stab = stabilizer_lie_algebra(rho0, DEFAULT_TOL)
    radical = max(
        [abs(dGamma0(rho0, u, u @ s, e, DEFAULT_TOL)) for s in stab.basis for e in basis_u]
        + [abs(dGamma0(rho0, v, v @ s, e, DEFAULT_TOL)) for s in stab.basis for e in basis_v]
    )
    sing = np.linalg.svd(pairing, compute_uv=False)
    kernel_dim = int(np.sum(sing < 1e-8 * max(float(sing[0]), 1.0)))
    nonzero = sing[: m + k - 2 * stab.dimension]
    return kernel_dim, radical, float(nonzero[-1]) if nonzero.size else float("inf")


class TestDegeneracy:
    def test_rank_one_base(self):
        rng = rng_for(57)
        rho0 = PHI10
        p0 = np.diag([1.0, 0.0]).astype(complex)
        u = partial_isometry_onto(M2, rng, p0, equivalent_frames(rng, frames_of(M2, p0)).projection)
        v = partial_isometry_onto(M2, rng, p0, equivalent_frames(rng, frames_of(M2, p0)).projection)
        report = degeneracy_kernel_check(rho0, u, v, DEFAULT_TOL)
        # stabilizer of a rank-one corner is one-dimensional; two legs
        assert report.expected_kernel_dimension == 2
        assert report.dimension_residual == 0
        assert report.radical_pairing <= 1e-10
        assert report.complement_min_singular > 1e-7
        assert report.tangent_dimension == 6

    def test_repeated_spectrum_base(self):
        rng = rng_for(58)
        d = np.diag([0.25, 0.25, 0.5]).astype(complex)
        rho0 = NormalFunctional(M3, d)
        one = np.eye(3, dtype=complex)
        report = degeneracy_kernel_check(rho0, one, one, DEFAULT_TOL)
        # centralizer of multiplicities (2, 1) has dimension 4 + 1 = 5
        assert report.expected_kernel_dimension == 10
        assert report.dimension_residual == 0
        assert report.radical_pairing <= 1e-10
        assert report.complement_min_singular > 1e-7

    @pytest.mark.parametrize(
        "blocks, ranks, repeated",
        [
            ((2,), (1,), False),
            ((2,), (2,), False),
            ((2, 3), (1, 2), False),
            ((2, 3), (2, 2), True),
            ((4,), (2,), False),
            ((4,), (3,), True),
        ],
    )
    def test_contraction_matches_pairwise_loop(self, blocks, ranks, repeated):
        algebra = BlockAlgebra(blocks)
        rng = rng_for(60, *ranks, int(repeated))
        p0 = random_projection(algebra, rng, ranks=ranks)
        if repeated:
            d = corner_positive(algebra, rng, p0, 1.0, 1.0)
        else:
            d = corner_positive(algebra, rng, p0)
        rho0 = NormalFunctional(algebra, d / np.trace(d).real)
        u, v = (
            partial_isometry_onto(
                algebra, rng, p0, equivalent_frames(rng, frames_of(algebra, p0)).projection
            )
            for _ in range(2)
        )
        report = degeneracy_kernel_check(rho0, u, v, DEFAULT_TOL)
        kernel_dim, radical, min_sing = _pairwise_degeneracy(rho0, u, v)
        assert report.kernel_dimension == kernel_dim
        assert abs(report.radical_pairing - radical) <= 1e-14
        assert report.complement_min_singular == pytest.approx(min_sing, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DegenerateBase):
            degeneracy_kernel_check(
                NormalFunctional(M2, np.zeros((2, 2))), np.eye(2), np.eye(2), DEFAULT_TOL
            )
        with pytest.raises(InvalidTangent):
            degeneracy_kernel_check(PHI10, np.eye(2, dtype=complex), np.eye(2), DEFAULT_TOL)

    def test_orbit_form_invariance(self):
        for trial in range(30):
            rng = rng_for(59, trial)
            algebra = M2 if trial % 2 == 0 else M23
            rho0 = random_density(algebra, rng)
            from wstargeo import functional_support

            p0 = functional_support(rho0, DEFAULT_TOL)
            u = partial_isometry_onto(
                algebra, rng, p0, equivalent_frames(rng, frames_of(algebra, p0)).projection
            )
            assert orbit_form_invariance_residual(rho0, u, rng, DEFAULT_TOL) <= 1e-10

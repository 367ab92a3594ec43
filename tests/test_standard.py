"""Tests for the standard-form groupoid on vectors: expectations, the
vector product, the coadjoint isomorphism, dual-pair fibres, Tomita data,
and the modular flow."""

import numpy as np
import pytest

from wstargeo import (
    DEFAULT_TOL,
    BlockAlgebra,
    CoadjointArrow,
    DegenerateBase,
    InvalidArrow,
    NormalFunctional,
    NotComposable,
    NotFaithful,
    conjugation_J,
    dual_pair_orthogonality_check,
    expectation_E,
    expectation_Eprime,
    fiber_kernel_E,
    fiber_kernel_Eprime,
    fiber_kernel_dimension,
    frobenius,
    iso_Phi,
    iso_Phi_inv,
    modular_Delta,
    modular_flow,
    momentum_mu,
    phi_intertwining_residual,
    std_inverse,
    std_mul,
    std_unit,
    symplectic_omega,
    tomita_S,
    transport_witness,
)
from wstargeo import linalg
from wstargeo.algebra import matrix_units
from wstargeo.linalg import null_space_rows
from wstargeo.standard import flow_residuals
from wstargeo.sampling import (
    corner_positive,
    equivalent_frames,
    faithful_density,
    frames_of,
    partial_isometry_onto,
    random_element,
    random_projection,
    rng_for,
)

M2 = BlockAlgebra((2,))
M23 = BlockAlgebra((2, 3))

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = E12.conj().T
G_CORNER = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)


def composable_coadjoint_pair(algebra, rng):
    """Two coadjoint arrows with source(first) = target(second)."""
    q2 = random_projection(algebra, rng, allow_zero=False)
    d2 = corner_positive(algebra, rng, q2)
    q1 = equivalent_frames(rng, frames_of(algebra, q2)).projection
    u2 = partial_isometry_onto(algebra, rng, q2, q1)
    rho2 = NormalFunctional(algebra, d2)
    rho1 = NormalFunctional(algebra, u2 @ d2 @ u2.conj().T)
    q0 = equivalent_frames(rng, frames_of(algebra, q1)).projection
    u1 = partial_isometry_onto(algebra, rng, q1, q0)
    return CoadjointArrow(u1, rho1), CoadjointArrow(u2, rho2)


class TestVectorStructure:
    def test_symplectic_form_oracle(self):
        assert abs(symplectic_omega(np.array([[1.0]]), np.array([[1.0j]])) - 2.0) <= 1e-12
        # antisymmetry and reality on random pairs
        rng = rng_for(30)
        x = random_element(M23, rng)
        y = random_element(M23, rng)
        assert abs(symplectic_omega(x, y) + symplectic_omega(y, x)) <= 1e-12

    def test_conjugation_and_split(self):
        rng = rng_for(31)
        g = random_element(M2, rng)
        assert frobenius(conjugation_J(g) - g.conj().T) == 0.0
        # J-fixed and J-anti-fixed parts
        plus = 0.5 * (g + conjugation_J(g))
        minus = g - plus
        assert frobenius(plus + minus - g) <= 1e-12
        assert frobenius(plus - plus.conj().T) <= 1e-12
        assert frobenius(minus + minus.conj().T) <= 1e-12

    def test_expectations_oracle(self):
        e = expectation_E(M2, G_CORNER)
        ep = expectation_Eprime(M2, G_CORNER)
        assert frobenius(e.density - np.diag([4.0, 0.0])) <= 1e-12
        assert frobenius(ep.density - np.diag([0.0, 4.0])) <= 1e-12
        assert frobenius(momentum_mu(G_CORNER, DEFAULT_TOL) - np.diag([1.0, 0.0])) <= 1e-12
        # the right momentum is the left momentum of J g
        right = momentum_mu(conjugation_J(G_CORNER), DEFAULT_TOL)
        assert frobenius(right - np.diag([0.0, 1.0])) <= 1e-12


class TestStandardGroupoid:
    def test_unit_and_inverse(self):
        phi = NormalFunctional(M2, np.diag([0.0, 9.0]).astype(complex))
        assert frobenius(std_unit(phi, DEFAULT_TOL) - np.diag([0.0, 3.0])) <= 1e-12
        assert frobenius(std_inverse(G_CORNER) - G_CORNER.conj().T) == 0.0

    def test_source_target(self):
        src = expectation_Eprime(M2, G_CORNER)
        tgt = expectation_E(M2, G_CORNER)
        assert frobenius(src.density - np.diag([0.0, 4.0])) <= 1e-12
        assert frobenius(tgt.density - np.diag([4.0, 0.0])) <= 1e-12

    def test_product_oracle(self):
        g2 = G_CORNER  # polar parts E12, diag(0, 2)
        g1 = np.array([[0.0, 0.0], [2.0, 0.0]], dtype=complex)  # |g1| = diag(2, 0)
        prod = std_mul(g1, g2, DEFAULT_TOL)
        assert frobenius(prod - np.diag([0.0, 2.0])) <= 1e-12
        # source of the product is the source of g2, target that of g1
        assert expectation_Eprime(M2, prod).distance(expectation_Eprime(M2, g2)) <= 1e-12
        assert expectation_E(M2, prod).distance(expectation_E(M2, g1)) <= 1e-12

    def test_product_rejects_mismatch(self):
        g1 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(NotComposable):
            std_mul(g1, G_CORNER, DEFAULT_TOL)

    def test_unit_absorbs(self):
        for trial in range(50):
            rng = rng_for(32, trial)
            q1 = random_projection(M23, rng, allow_zero=False)
            q0 = equivalent_frames(rng, frames_of(M23, q1)).projection
            u = partial_isometry_onto(M23, rng, q1, q0)
            h = corner_positive(M23, rng, q1)
            g = u @ h
            left_unit = std_unit(expectation_E(M23, g), DEFAULT_TOL)
            right_unit = std_unit(expectation_Eprime(M23, g), DEFAULT_TOL)
            assert frobenius(std_mul(left_unit, g, DEFAULT_TOL) - g) <= 1e-9
            assert frobenius(std_mul(g, right_unit, DEFAULT_TOL) - g) <= 1e-9
            # inverse relations land on the units
            inv = std_inverse(g)
            assert frobenius(
                std_mul(g, inv, DEFAULT_TOL) - left_unit
            ) <= 1e-9
            assert frobenius(
                std_mul(inv, g, DEFAULT_TOL) - right_unit
            ) <= 1e-9


class TestCoadjointIsomorphism:
    def test_oracle(self):
        rho = NormalFunctional(M2, np.diag([0.0, 9.0]).astype(complex))
        g = iso_Phi(E12, rho, DEFAULT_TOL)
        assert frobenius(g - np.array([[0.0, 3.0], [0.0, 0.0]])) <= 1e-12
        u_back, rho_back = iso_Phi_inv(M2, g, DEFAULT_TOL)
        assert frobenius(u_back - E12) <= 1e-12
        assert rho_back.distance(rho) <= 1e-12

    def test_intertwining_random(self):
        for trial in range(100):
            rng = rng_for(33, trial)
            algebra = M2 if trial % 2 == 0 else M23
            a, b = composable_coadjoint_pair(algebra, rng)
            assert phi_intertwining_residual(algebra, a, b, DEFAULT_TOL) <= 1e-10


class TestActions:
    def test_transport_witness_oracle(self):
        g2 = np.array([[0.0, 0.0], [0.0, 2.0]], dtype=complex)
        w = transport_witness(G_CORNER, g2, DEFAULT_TOL)
        assert frobenius(w - E21) <= 1e-12
        assert frobenius(w @ G_CORNER - g2) <= 1e-12
        with pytest.raises(InvalidArrow):
            transport_witness(G_CORNER, np.diag([1.0, 0.0]).astype(complex), DEFAULT_TOL)

    def test_transport_witness_random(self):
        for trial in range(50):
            rng = rng_for(34, trial)
            q1 = random_projection(M23, rng, allow_zero=False)
            q0 = equivalent_frames(rng, frames_of(M23, q1)).projection
            u = partial_isometry_onto(M23, rng, q1, q0)
            g1 = u @ corner_positive(M23, rng, q1)
            v = partial_isometry_onto(
                M23, rng, q0, equivalent_frames(rng, frames_of(M23, q0)).projection
            )
            g2 = v @ g1
            w = transport_witness(g1, g2, DEFAULT_TOL)
            assert frobenius(w @ g1 - g2) <= 1e-9
            mu = momentum_mu(g1, DEFAULT_TOL)
            assert frobenius(w.conj().T @ w - mu) <= 1e-9


class TestDualPair:
    def test_dimension_formula(self):
        # per block r^2 + 2 r (n - r)
        assert fiber_kernel_dimension(M2, [2]) == 4
        assert fiber_kernel_dimension(M2, [1]) == 3
        assert fiber_kernel_dimension(M23, [1, 2]) == 3 + (4 + 4)

    def test_full_support_vector(self):
        g = np.eye(2, dtype=complex)
        ker_e = fiber_kernel_E(M2, g, DEFAULT_TOL)
        ker_ep = fiber_kernel_Eprime(M2, g, DEFAULT_TOL)
        assert len(ker_e) == 4
        assert len(ker_ep) == 4
        report = dual_pair_orthogonality_check(M2, g, DEFAULT_TOL)
        assert report.orthogonality <= 1e-10
        assert report.dimension_residual == 0

    def test_rank_deficient_vector(self):
        report = dual_pair_orthogonality_check(M2, E12, DEFAULT_TOL)
        assert report.dim_E == 3
        assert report.dim_Eprime == 3
        assert report.orthogonality <= 1e-10
        assert report.dimension_residual == 0

    def test_kernel_members_satisfy_constraints(self):
        rng = rng_for(35)
        q = random_projection(M23, rng, allow_zero=False)
        g = partial_isometry_onto(
            M23, rng, q, equivalent_frames(rng, frames_of(M23, q)).projection
        ) @ corner_positive(M23, rng, q)
        mu = momentum_mu(g, DEFAULT_TOL)
        for delta in fiber_kernel_E(M23, g, DEFAULT_TOL):
            assert frobenius(delta @ g.conj().T + g @ delta.conj().T) <= 1e-9
            assert frobenius(mu @ delta - delta) <= 1e-9
        mu_p = momentum_mu(conjugation_J(g), DEFAULT_TOL)
        for delta in fiber_kernel_Eprime(M23, g, DEFAULT_TOL):
            assert frobenius(g.conj().T @ delta + delta.conj().T @ g) <= 1e-9
            assert frobenius(delta @ mu_p - delta) <= 1e-9

    @staticmethod
    def _ambient_kernel(algebra, constraint, support_side):
        """Reference kernel: the constraint realified over every coordinate
        direction of the ambient algebra, one direction at a time."""
        units = algebra.embed_stacks(
            (s, matrix_units(np.eye(n), np.eye(n))) for s, n in zip(algebra.slices, algebra.blocks)
        )
        directions = [c * e for e in units for c in (1.0, 1.0j)]
        rows = []
        for d in directions:
            c1, c2 = constraint(d), support_side(d) - d
            rows.append(
                np.concatenate(
                    [c1.real.ravel(), c1.imag.ravel(), c2.real.ravel(), c2.imag.ravel()]
                )
            )
        null = null_space_rows(np.array(rows).T, DEFAULT_TOL)
        return list(np.tensordot(null, np.array(directions), axes=1))

    @staticmethod
    def _dual_pair_points(algebra, rng):
        """A Gaussian point, a rank-deficient point and, with more than one
        block, a Gaussian point with its first block set to zero."""
        points = [random_element(algebra, rng)]
        q = random_projection(
            algebra, rng, ranks=tuple(n - 1 for n in algebra.blocks[:-1]) + (1,)
        )
        points.append(
            partial_isometry_onto(
                algebra, rng, q, equivalent_frames(rng, frames_of(algebra, q)).projection
            )
            @ corner_positive(algebra, rng, q)
        )
        if len(algebra.blocks) > 1:
            g = random_element(algebra, rng)
            g[algebra.slices[0], algebra.slices[0]] = 0.0
            points.append(g)
        return points

    @pytest.mark.parametrize("blocks", [(2, 3), (4,), (2, 2, 1)])
    def test_blockwise_kernels_match_ambient_reference(self, blocks):
        algebra = BlockAlgebra(blocks)
        for g in self._dual_pair_points(algebra, rng_for(39, len(blocks))):
            mu = momentum_mu(g, DEFAULT_TOL)
            mu_p = momentum_mu(conjugation_J(g), DEFAULT_TOL)
            pairs = [
                (
                    fiber_kernel_E(algebra, g, DEFAULT_TOL),
                    self._ambient_kernel(
                        algebra,
                        lambda d: d @ g.conj().T + g @ d.conj().T,
                        lambda d: mu @ d,
                    ),
                ),
                (
                    fiber_kernel_Eprime(algebra, g, DEFAULT_TOL),
                    self._ambient_kernel(
                        algebra,
                        lambda d: g.conj().T @ d + d.conj().T @ g,
                        lambda d: d @ mu_p,
                    ),
                ),
            ]
            for blockwise, reference in pairs:
                assert len(blockwise) == len(reference)
                # Equal spans: the stacked realified bases keep the rank.
                stacked = np.array(
                    [np.concatenate([d.real.ravel(), d.imag.ravel()])
                     for d in blockwise + reference]
                )
                assert np.linalg.matrix_rank(stacked, tol=1e-8) == len(reference)

    @pytest.mark.parametrize("blocks", [(2,), (2, 3), (4,)])
    def test_orthogonality_matches_pairwise_loop(self, blocks):
        algebra = BlockAlgebra(blocks)
        for trial in range(3):
            rng = rng_for(37, sum(blocks), trial)
            if trial == 0:
                g = random_element(algebra, rng)
            else:
                q = random_projection(algebra, rng, allow_zero=False)
                g = partial_isometry_onto(
                    algebra, rng, q, equivalent_frames(rng, frames_of(algebra, q)).projection
                ) @ corner_positive(algebra, rng, q)
            report = dual_pair_orthogonality_check(algebra, g, DEFAULT_TOL)
            ker_e = fiber_kernel_E(algebra, g, DEFAULT_TOL)
            ker_ep = fiber_kernel_Eprime(algebra, g, DEFAULT_TOL)
            pairwise = max(abs(symplectic_omega(x, y)) for x in ker_e for y in ker_ep)
            assert (report.dim_E, report.dim_Eprime) == (len(ker_e), len(ker_ep))
            assert abs(report.orthogonality - pairwise) <= 1e-14

    def test_degenerate_base(self):
        with pytest.raises(DegenerateBase):
            fiber_kernel_E(M2, np.zeros((2, 2)), DEFAULT_TOL)
        with pytest.raises(DegenerateBase):
            fiber_kernel_Eprime(M2, np.zeros((2, 2)), DEFAULT_TOL)


class TestTomita:
    def test_oracle(self):
        phi = NormalFunctional(M2, np.diag([1.0, 4.0]).astype(complex))
        s = tomita_S(phi, G_CORNER, DEFAULT_TOL)
        assert frobenius(s - np.array([[0.0, 0.0], [1.0, 0.0]])) <= 1e-12
        # Delta(E12) = d E12 d^{-1} = E12 / 4
        assert frobenius(modular_Delta(phi, E12, 1.0, DEFAULT_TOL) - 0.25 * E12) <= 1e-12

    def test_closure_relation(self):
        # S(x Omega) = x* Omega for the canonical vector Omega = d^{1/2}
        for trial in range(50):
            rng = rng_for(36, trial)
            algebra = M2 if trial % 2 == 0 else M23
            phi = faithful_density(algebra, rng)
            omega = std_unit(phi, DEFAULT_TOL)
            x = random_element(algebra, rng)
            lhs = tomita_S(phi, x @ omega, DEFAULT_TOL)
            rhs = x.conj().T @ omega
            assert frobenius(lhs - rhs) <= 1e-9 * (1.0 + frobenius(rhs))
            # S is an involution and factors as J Delta^{1/2}
            g = random_element(algebra, rng)
            s = tomita_S(phi, g, DEFAULT_TOL)
            assert frobenius(tomita_S(phi, s, DEFAULT_TOL) - g) <= 1e-8 * (1.0 + frobenius(g))
            assert frobenius(
                s - conjugation_J(modular_Delta(phi, g, 0.5, DEFAULT_TOL))
            ) <= 1e-9 * (1.0 + frobenius(g))


FLOW_RESIDUALS = {
    "multiplicativity",
    "symplectic",
    "cone",
    "conjugation",
    "orbit_invariants",
    "group_law",
}


class TestModularFlow:
    def test_not_faithful(self):
        phi = NormalFunctional(M2, np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(NotFaithful):
            modular_flow(phi, 0.3, DEFAULT_TOL)
        with pytest.raises(NotFaithful):
            flow_residuals(phi, 0.3, rng_for(39), DEFAULT_TOL)

    def test_fixes_canonical_vector(self):
        phi = faithful_density(M23, rng_for(37))
        omega = std_unit(phi, DEFAULT_TOL)
        for t in (0.3, -1.7):
            assert frobenius(modular_flow(phi, t, DEFAULT_TOL)(omega) - omega) <= 1e-9

    def test_group_law_and_zero_time(self):
        rng = rng_for(38)
        phi = faithful_density(M2, rng)
        g = random_element(M2, rng)
        assert frobenius(modular_flow(phi, 0.0, DEFAULT_TOL)(g) - g) <= 1e-12
        one_step = modular_flow(phi, 0.7, DEFAULT_TOL)(modular_flow(phi, 0.5, DEFAULT_TOL)(g))
        direct = modular_flow(phi, 1.2, DEFAULT_TOL)(g)
        assert frobenius(one_step - direct) <= 1e-9

    def test_automorphism_report(self):
        rng = rng_for(39)
        for algebra in (M2, M23):
            phi = faithful_density(algebra, rng)
            for t in (0.0, 0.3, -1.7):
                for k in range(10):
                    residuals = flow_residuals(phi, t, rng_for(39, k), DEFAULT_TOL)
                    assert set(residuals) == FLOW_RESIDUALS
                    assert max(residuals.values()) <= 1e-9, (t, k, residuals)


class TestOneSpectrum:
    """Tomita's S, Delta and the modular flow read the density's one kept
    decomposition; the positivity checks and d^{1/2} are checked against the
    same decomposition in ``test_factor_once.py``."""

    @staticmethod
    def _count_eig(monkeypatch, phi):
        calls = []
        real = linalg.hermitian_eig

        def spy(h):
            calls.append(np.array_equal(h, linalg.herm(phi.density)))
            return real(h)

        monkeypatch.setattr(linalg, "hermitian_eig", spy)
        return calls

    def test_modular_operations_share_one_decomposition(self, monkeypatch):
        phi = faithful_density(M23, rng_for(40))
        g = random_element(M23, rng_for(40, 1))
        calls = self._count_eig(monkeypatch, phi)
        tomita_S(phi, g, DEFAULT_TOL)
        modular_Delta(phi, g, 0.5, DEFAULT_TOL)
        for t in (0.0, 0.3, -1.7):
            modular_flow(phi, t, DEFAULT_TOL)(g)
        assert calls == [True]

    def test_flow_residuals_decompose_the_density_once(self, monkeypatch):
        phi = faithful_density(M23, rng_for(41))
        calls = self._count_eig(monkeypatch, phi)
        flow_residuals(phi, 0.3, rng_for(41, 1), DEFAULT_TOL)
        assert calls.count(True) == 1

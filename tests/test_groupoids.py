"""The four arrow structures and the maps between them."""
import numpy as np
import pytest

from wstargeo.algebra import BlockAlgebra, NormalFunctional
from wstargeo.errors import InvalidArrow, InvalidTrials, NotComposable
from wstargeo.groupoids import (
    GROUPOIDS,
    CoadjointArrow,
    axiom_check,
    coadjoint_compose,
    coadjoint_inverse,
    coadjoint_target,
    coadjoint_unit,
    composable_chain,
    g_compose,
    g_inverse,
    g_source,
    g_target,
    gauge_iso_Psi,
    iso_Xi,
    iso_Xi_inv,
    jay,
    pi0,
    pi_compose,
    pi_inverse,
    pi_source,
    pi_target,
    pi_unit,
    predual_compose,
    predual_inverse,
    predual_source,
    predual_target,
    psi_intertwining_residual,
    xi_intertwining_residual,
)
from wstargeo.linalg import DEFAULT_TOL, frobenius, polar_decompose
from wstargeo import sampling

M2 = BlockAlgebra((2,))
M23 = BlockAlgebra((2, 3))

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = E12.conj().T
E22 = np.diag([0.0, 1.0]).astype(complex)


def _rng(k: int = 0) -> np.random.Generator:
    return np.random.default_rng(88_000 + k)


class TestPartialIsometryGroupoid:
    def test_source_target_inverse(self):
        assert frobenius(pi_source(E12) - np.diag([0.0, 1.0])) <= 1e-14
        assert frobenius(pi_target(E12) - np.diag([1.0, 0.0])) <= 1e-14
        assert frobenius(pi_inverse(E12) - E21) <= 1e-14
        assert frobenius(pi_unit(np.diag([1.0, 0.0]).astype(complex))
                         - np.diag([1.0, 0.0])) <= 1e-14

    def test_compose_requires_matching(self):
        # source(E12) = diag(0,1) but target(E12) = diag(1,0): not composable
        # with itself.
        with pytest.raises(NotComposable):
            pi_compose(E12, E12, DEFAULT_TOL)

    def test_compose_valid_pair(self):
        out = pi_compose(E12, E21, DEFAULT_TOL)
        assert frobenius(out - np.diag([1.0, 0.0])) <= 1e-14


class TestPartiallyInvertibleGroupoid:
    def test_inverse_is_polar_formula(self):
        rng = _rng(1)
        for _ in range(100):
            q = sampling.random_projection(M23, rng, allow_zero=False)
            t = sampling.equivalent_frames(rng, sampling.frames_of(M23, q)).projection
            u = sampling.partial_isometry_onto(M23, rng, q, t)
            h = sampling.corner_positive(M23, rng, q)
            x = u @ h
            inv = g_inverse(x, DEFAULT_TOL)
            # iota(x) = h^{-1} u* for x = u h.
            hinv = np.linalg.pinv(h, rcond=1e-12)
            assert frobenius(inv - hinv @ u.conj().T) <= 1e-8
            assert frobenius(x @ inv - g_target(x, DEFAULT_TOL)) <= 1e-9
            assert frobenius(inv @ x - g_source(x, DEFAULT_TOL)) <= 1e-9

    def test_jay_is_inverse_star(self):
        rng = _rng(2)
        for _ in range(50):
            q = sampling.random_projection(M23, rng, allow_zero=False)
            t = sampling.equivalent_frames(rng, sampling.frames_of(M23, q)).projection
            u = sampling.partial_isometry_onto(M23, rng, q, t)
            x = u @ sampling.corner_positive(M23, rng, q)
            assert frobenius(jay(x, DEFAULT_TOL)
                             - g_inverse(x, DEFAULT_TOL).conj().T) <= 1e-9

    def test_compose(self):
        a = np.diag([2.0, 0.0]).astype(complex)
        b = np.diag([3.0, 0.0]).astype(complex)
        assert frobenius(g_compose(a, b, DEFAULT_TOL) - np.diag([6.0, 0.0])) <= 1e-14

    def test_compose_rejects_mismatch(self):
        a = np.diag([2.0, 0.0]).astype(complex)
        b = np.diag([0.0, 3.0]).astype(complex)
        with pytest.raises(NotComposable):
            g_compose(a, b, DEFAULT_TOL)


class TestPredualGroupoid:
    def test_product_oracle(self):
        phi2 = NormalFunctional(M2, np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex))
        phi1 = NormalFunctional(M2, np.array([[0.0, 0.0], [2.0, 0.0]], dtype=complex))
        prod = predual_compose(phi1, phi2, DEFAULT_TOL)
        assert frobenius(prod.density - np.diag([0.0, 2.0])) <= 1e-12

    def test_source_target_inverse(self):
        phi = NormalFunctional(M2, np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex))
        assert frobenius(predual_source(phi, DEFAULT_TOL).density
                         - np.diag([0.0, 2.0])) <= 1e-12
        assert frobenius(predual_target(phi, DEFAULT_TOL).density
                         - np.diag([2.0, 0.0])) <= 1e-12
        assert frobenius(predual_inverse(phi).density
                         - np.array([[0.0, 0.0], [2.0, 0.0]])) <= 1e-12


class TestCoadjointGroupoid:
    def test_unit_absorption(self):
        # Arrow built on the valid convention: u* u = support of the density.
        u = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        rho = NormalFunctional(M2, np.diag([3.0, 0.0]).astype(complex))
        arrow = CoadjointArrow(u, rho)
        unit = coadjoint_unit(rho, DEFAULT_TOL)
        right = coadjoint_compose(arrow, unit, DEFAULT_TOL)
        assert frobenius(right.u - u) <= 1e-12
        assert right.rho.distance(rho) <= 1e-12
        tgt = coadjoint_target(arrow)
        assert frobenius(tgt.density - np.diag([0.0, 3.0])) <= 1e-12
        inv = coadjoint_inverse(arrow)
        assert frobenius(inv.u - u.conj().T) <= 1e-12
        assert inv.rho.distance(tgt) <= 1e-12

    def test_product_needs_matching_functional(self):
        u = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        rho = NormalFunctional(M2, np.diag([3.0, 0.0]).astype(complex))
        # The first arrow's source must equal the second arrow's target;
        # target(second) = u sigma u* = diag(0,1) != diag(3,0) = source(first).
        sigma = NormalFunctional(M2, np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(NotComposable):
            coadjoint_compose(
                CoadjointArrow(u, rho), CoadjointArrow(u, sigma), DEFAULT_TOL
            )


class TestAxiomChecker:
    @pytest.mark.parametrize("tag", sorted(GROUPOIDS))
    def test_all_groupoids_pass(self, tag):
        report = axiom_check(tag, M23, 50, 5, DEFAULT_TOL)
        assert report.max_residual <= 1e-10
        assert set(report.law_residuals) == {
            "associativity",
            "source_of_product",
            "target_of_product",
            "unit_right",
            "unit_left",
            "inverse_right",
            "inverse_left",
            "double_inverse",
            "antihomomorphism",
        }

    def test_invalid_trials(self):
        with pytest.raises(InvalidTrials):
            axiom_check("pi", M2, 0, 1, DEFAULT_TOL)
        with pytest.raises(InvalidTrials):
            axiom_check("nonsense", M2, 10, 1, DEFAULT_TOL)

    def test_determinism(self):
        one = axiom_check("predual", M23, 25, 9, DEFAULT_TOL)
        two = axiom_check("predual", M23, 25, 9, DEFAULT_TOL)
        assert one.law_residuals == two.law_residuals

    def test_composable_chain_is_composable(self):
        rng = _rng(3)
        for tag in sorted(GROUPOIDS):
            ops = GROUPOIDS[tag]
            chain = composable_chain(tag, M23, rng, 3)
            for a, b in zip(chain, chain[1:]):
                ops.compose(a, b, DEFAULT_TOL)  # must not raise


class TestXi:
    def test_oracle(self):
        rho = NormalFunctional(M2, np.diag([0.0, 3.0]).astype(complex))
        arrow = CoadjointArrow(E12, rho)
        phi = iso_Xi(arrow)
        assert frobenius(phi.density - np.array([[0.0, 3.0], [0.0, 0.0]])) <= 1e-12
        back = iso_Xi_inv(phi, DEFAULT_TOL)
        assert frobenius(back.u - E12) <= 1e-12
        assert back.rho.distance(rho) <= 1e-12

    def test_intertwining_random(self):
        rng = _rng(4)
        for _ in range(50):
            pair = composable_chain("coadjoint", M23, rng, 2)
            assert xi_intertwining_residual(tuple(pair), DEFAULT_TOL) <= 1e-10


class TestPsi:
    def test_oracle(self):
        rho0 = NormalFunctional(M2, np.diag([0.0, 3.0]).astype(complex))
        arrow = gauge_iso_Psi(E12, E22, rho0, DEFAULT_TOL)
        assert frobenius(arrow.u - E12) <= 1e-12
        assert frobenius(arrow.rho.density - np.diag([0.0, 3.0])) <= 1e-12
        assert frobenius(pi0(E12, rho0, DEFAULT_TOL).density - np.diag([3.0, 0.0])) <= 1e-12

    def test_rejects_wrong_source(self):
        rho0 = NormalFunctional(M2, np.diag([3.0, 0.0]).astype(complex))
        with pytest.raises(InvalidArrow):
            gauge_iso_Psi(E12, E22, rho0, DEFAULT_TOL)

    def test_intertwining_random(self):
        rng = _rng(5)
        for _ in range(50):
            p0 = sampling.random_projection(M23, rng, allow_zero=False)
            rho0 = sampling.random_density(M23, rng, support=p0)
            u, v, w = (
                sampling.partial_isometry_onto(
                    M23, rng, p0,
                    sampling.equivalent_frames(rng, sampling.frames_of(M23, p0)).projection
                )
                for _ in range(3)
            )
            assert psi_intertwining_residual(u, v, w, rho0, DEFAULT_TOL) <= 1e-10


class TestPolarComponentsRelation:
    def test_second_polar(self):
        rng = _rng(6)
        for _ in range(100):
            q = sampling.random_projection(M23, rng, allow_zero=False)
            t = sampling.equivalent_frames(rng, sampling.frames_of(M23, q)).projection
            u = sampling.partial_isometry_onto(M23, rng, q, t)
            h = sampling.corner_positive(M23, rng, q)
            gamma = u @ h
            uu, hh = polar_decompose(gamma, DEFAULT_TOL)
            assert frobenius(gamma - (uu @ hh @ uu.conj().T) @ uu) <= 1e-10

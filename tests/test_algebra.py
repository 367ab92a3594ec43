"""Block algebras and normal functionals: polar data, supports, equivalences,
centralizers, conditional expectations, and modular automorphisms."""
import numpy as np
import pytest

from wstargeo.algebra import (
    BlockAlgebra,
    NormalFunctional,
    block_ranks,
    centralizer_basis,
    coadjoint_apply,
    conditional_expectation,
    functional_polar,
    functional_support,
    functional_supports,
    modular_flow,
    mvn_equivalent,
    mvn_witness,
    orbit_equivalent,
    orbit_invariant,
    require_positive,
    stabilizer_lie_algebra,
    unitary_equivalent,
    unitary_witness,
)
from wstargeo.errors import AlgebraMismatch, InvalidArrow, NotFaithful, NotPositive
from wstargeo.linalg import DEFAULT_TOL, frobenius
from wstargeo import linalg, sampling

M2 = BlockAlgebra((2,))
M3 = BlockAlgebra((3,))
M23 = BlockAlgebra((2, 3))

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = E12.conj().T


def _rng(k: int = 0) -> np.random.Generator:
    return np.random.default_rng(77_000 + k)


class TestBlockAlgebra:
    def test_dim_and_slices(self):
        assert M23.dim == 5
        assert [s.start for s in M23.slices] == [0, 2]
        assert [s.stop for s in M23.slices] == [2, 5]

    def test_embed_and_views_round_trip(self):
        rng = _rng()
        mats = [
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        ]
        x = M23.embed_blocks(mats)
        views = M23.block_views(x)
        for got, want in zip(views, mats):
            assert frobenius(got - want) <= 1e-14
        # Off-block entries are zero by construction.
        assert abs(x[0, 3]) == 0.0

    def test_membership_validation(self):
        x = np.zeros((5, 5), dtype=complex)
        x[0, 3] = 1.0  # couples the two blocks
        with pytest.raises(AlgebraMismatch):
            NormalFunctional(M23, x)

    def test_contains_decision(self):
        x = M23.identity()
        bound = DEFAULT_TOL.residual_tol * (1.0 + frobenius(x))
        assert M23.contains(x)
        for scale, member in ((0.9, True), (1.1, False)):
            y = x.copy()
            y[1, 4] = scale * bound
            assert M23.contains(y) is member
        for i, j in ((0, 1), (0, 3)):  # inside a block, then off the blocks
            for bad in (np.nan, np.inf):
                y = x.copy()
                y[i, j] = bad
                assert not M23.contains(y)
        assert not M23.contains(np.eye(4))
        assert M23.contains(np.eye(5, dtype=int))

    def test_unit_bases_are_built_once_and_read_only(self):
        units = M23.hermitian_units
        assert units() is units()
        assert not units().flags.writeable
        with pytest.raises(ValueError):
            units()[0, 0, 0] = 1.0

    def test_from_string(self):
        assert BlockAlgebra.from_string("2,3").blocks == (2, 3)


class TestRequirePositive:
    def test_rejects_non_hermitian_member(self):
        d = M23.embed_blocks([np.eye(2) + E12, np.eye(3)])
        with pytest.raises(NotPositive):
            require_positive(NormalFunctional(M23, d))


class TestFunctionalPolar:
    def test_nilpotent_oracle(self):
        phi = NormalFunctional(M2, np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex))
        u, mod = functional_polar(phi, DEFAULT_TOL)
        assert frobenius(u - E12) <= 1e-12
        assert frobenius(mod.density - np.diag([0.0, 2.0])) <= 1e-12

    def test_support_oracle(self):
        phi = NormalFunctional(M2, np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex))
        l_supp, r_supp = functional_supports(phi, DEFAULT_TOL)
        assert frobenius(l_supp - np.diag([1.0, 0.0])) <= 1e-12
        assert frobenius(r_supp - np.diag([0.0, 1.0])) <= 1e-12

    def test_polar_consistency_random(self):
        rng = _rng(1)
        for _ in range(200):
            x = sampling.random_element(M23, rng)
            phi = NormalFunctional(M23, x)
            u, mod = functional_polar(phi, DEFAULT_TOL)
            assert frobenius(u @ mod.density - x) <= 1e-9 * max(1.0, frobenius(x))
            l_supp, r_supp = functional_supports(phi, DEFAULT_TOL)
            assert frobenius(u.conj().T @ u - r_supp) <= 1e-10
            assert frobenius(u @ u.conj().T - l_supp) <= 1e-10

    def test_hermitian_support_commutes(self):
        rng = _rng(2)
        for _ in range(100):
            h = sampling.random_hermitian(M23, rng)
            phi = NormalFunctional(M23, h)
            l_supp, r_supp = functional_supports(phi, DEFAULT_TOL)
            assert frobenius(l_supp - r_supp) <= 1e-10
            assert frobenius(l_supp @ h - h) <= 1e-10
            assert frobenius(h @ l_supp - h) <= 1e-10

    def test_support_takes_one_decomposition(self, monkeypatch):
        # The positivity check and the support read the same spectrum.
        rng = _rng(3)
        q = sampling.random_projection(M23, rng, allow_zero=False)
        phi = sampling.random_density(M23, rng, support=q)
        calls = []
        real = linalg._heevd

        def spy(h, compute_v):
            calls.append(compute_v)
            return real(h, compute_v)

        monkeypatch.setattr(linalg, "_heevd", spy)
        p = functional_support(phi, DEFAULT_TOL)
        assert calls == [1]
        assert frobenius(p - q) <= 1e-10


class TestDimensionOracles:
    def test_centralizer_dimensions(self):
        cases = [
            (M3, np.diag([1.0, 1.0, 2.0]) / 4.0, 5),
            (M3, np.diag([1.0, 2.0, 3.0]), 3),
            (M2, np.eye(2), 4),
            (M3, np.eye(3), 9),
        ]
        for alg, d, dim in cases:
            phi = NormalFunctional(alg, d.astype(complex))
            assert len(centralizer_basis(phi, DEFAULT_TOL)) == dim

    def test_stabilizer_dimensions(self):
        cases = [
            (M2, np.diag([1.0, 2.0]), 2),
            (M2, 0.7 * np.eye(2), 4),
            (M3, np.diag([1.0, 1.0, 2.0]) / 4.0, 5),
            (M2, np.diag([0.0, 3.0]), 1),
        ]
        for alg, d, dim in cases:
            phi = NormalFunctional(alg, d.astype(complex))
            assert stabilizer_lie_algebra(phi, DEFAULT_TOL).dimension == dim

    def test_stabilizer_basis_properties(self):
        phi = NormalFunctional(M3, np.diag([1.0, 1.0, 2.0]).astype(complex) / 4.0)
        stab = stabilizer_lie_algebra(phi, DEFAULT_TOL)
        d = phi.density
        for s in stab.basis:
            assert frobenius(s + s.conj().T) <= 1e-12
            assert frobenius(s @ d - d @ s) <= 1e-12


class TestEquivalence:
    def test_mvn_vs_unitary_on_random_pairs(self):
        rng = _rng(3)
        for _ in range(300):
            p = sampling.random_projection(M23, rng)
            q = sampling.random_projection(M23, rng)
            assert mvn_equivalent(M23, p, q, DEFAULT_TOL) == unitary_equivalent(
                M23, p, q, DEFAULT_TOL
            )

    def test_witness(self):
        rng = _rng(4)
        for _ in range(100):
            p = sampling.random_projection(M23, rng)
            q = sampling.equivalent_frames(rng, sampling.frames_of(M23, p)).projection
            w = mvn_witness(M23, p, q, DEFAULT_TOL)
            assert frobenius(w.conj().T @ w - p) <= 1e-10
            assert frobenius(w @ w.conj().T - q) <= 1e-10

    def test_witness_rejects_inequivalent(self):
        p = M23.embed_blocks([np.diag([1.0, 0.0]), np.zeros((3, 3))]).astype(complex)
        q = M23.embed_blocks([np.zeros((2, 2)), np.diag([1.0, 0.0, 0.0])]).astype(complex)
        with pytest.raises(InvalidArrow):
            mvn_witness(M23, p, q, DEFAULT_TOL)

    def test_orbit_invariant_oracle(self):
        phi = NormalFunctional(M2, np.diag([0.0, 3.0]).astype(complex))
        assert orbit_invariant(phi, DEFAULT_TOL) == ((3.0,),)

    def test_orbit_equivalence_and_witness(self):
        rng = _rng(5)
        for _ in range(100):
            phi = sampling.random_density(M23, rng)
            u = sampling.random_unitary(M23, rng)
            psi = NormalFunctional(M23, u @ phi.density @ u.conj().T)
            assert orbit_equivalent(phi, psi, DEFAULT_TOL)
            v = unitary_witness(phi, psi, DEFAULT_TOL)
            assert frobenius(v @ v.conj().T - M23.identity()) <= 1e-10
            assert frobenius(v @ phi.density @ v.conj().T - psi.density) <= 1e-8

    def test_orbit_shift_breaks_equivalence(self):
        phi = NormalFunctional(M2, np.diag([1.0, 2.0]).astype(complex))
        psi = NormalFunctional(M2, np.diag([1.25, 2.25]).astype(complex))
        assert not orbit_equivalent(phi, psi, DEFAULT_TOL)


class TestCoadjoint:
    def test_push_oracle(self):
        u = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        phi = NormalFunctional(M2, np.diag([3.0, 0.0]).astype(complex))
        pushed = coadjoint_apply(u, phi, DEFAULT_TOL)
        assert frobenius(pushed.density - np.diag([0.0, 3.0])) <= 1e-12

    def test_rejects_wrong_source(self):
        phi = NormalFunctional(M2, np.diag([3.0, 0.0]).astype(complex))
        with pytest.raises(InvalidArrow):
            coadjoint_apply(E12, phi, DEFAULT_TOL)  # u*u = diag(0,1) != supp

    def test_functional_checked_before_arrow(self):
        bad = NormalFunctional(M2, np.diag([-1.0, 1.0]).astype(complex))
        with pytest.raises(NotPositive):
            coadjoint_apply(np.ones((3, 3)), bad, DEFAULT_TOL)

    def test_preserves_orbit(self):
        rng = _rng(6)
        for _ in range(50):
            p = sampling.random_projection(M23, rng, allow_zero=False)
            phi = sampling.random_density(M23, rng, support=p)
            q = sampling.equivalent_frames(rng, sampling.frames_of(M23, p)).projection
            u = sampling.partial_isometry_onto(M23, rng, p, q)
            pushed = coadjoint_apply(u, phi, DEFAULT_TOL)
            assert orbit_equivalent(phi, pushed, DEFAULT_TOL)


class TestConditionalExpectation:
    def test_pinching_oracle(self):
        phi = NormalFunctional(M3, np.diag([1.0, 1.0, 2.0]).astype(complex) / 4.0)
        x = np.ones((3, 3), dtype=complex)
        ex = conditional_expectation(phi, x, DEFAULT_TOL)
        want = np.array(
            [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex
        )
        assert frobenius(ex - want) <= 1e-12

    def test_projection_properties(self):
        rng = _rng(7)
        for _ in range(100):
            phi = sampling.faithful_density(M23, rng, repeat_chance=0.5)
            x = sampling.random_element(M23, rng)
            ex = conditional_expectation(phi, x, DEFAULT_TOL)
            assert frobenius(conditional_expectation(phi, ex, DEFAULT_TOL) - ex) <= 1e-10
            assert abs(phi(ex) - phi(x)) <= 1e-10 * max(1.0, abs(phi(x)))
            assert frobenius(ex @ phi.density - phi.density @ ex) <= 1e-10

    def test_positivity(self):
        rng = _rng(8)
        for _ in range(100):
            phi = sampling.faithful_density(M23, rng, repeat_chance=0.5)
            x = sampling.random_element(M23, rng)
            pos = x.conj().T @ x
            ex = conditional_expectation(phi, pos, DEFAULT_TOL)
            assert np.linalg.eigvalsh(ex).min() >= -1e-10


class TestModularAutomorphism:
    def test_phase_oracle(self):
        # For d = diag(a, b) the flow rotates the corner by (a/b)^{it}.
        a, b, t = 1.0, 4.0, 1.0
        phi = NormalFunctional(M2, np.diag([a, b]).astype(complex))
        got = modular_flow(phi, t, DEFAULT_TOL)(E12)
        want = (a / b) ** (1j * t) * E12
        assert frobenius(got - want) <= 1e-12

    def test_requires_faithful(self):
        phi = NormalFunctional(M2, np.diag([0.0, 3.0]).astype(complex))
        with pytest.raises(NotFaithful):
            modular_flow(phi, 0.5, DEFAULT_TOL)

    def test_refuses_a_non_member(self):
        phi = NormalFunctional(M23, np.eye(5, dtype=complex))
        flow = modular_flow(phi, 0.5, DEFAULT_TOL)
        with pytest.raises(AlgebraMismatch):
            flow(np.ones((5, 5), dtype=complex))

    def test_invariance_and_composition(self):
        rng = _rng(9)
        for _ in range(50):
            phi = sampling.faithful_density(M23, rng)
            x = sampling.random_element(M23, rng)
            s, t = 0.4, -1.1
            flow_t = modular_flow(phi, t, DEFAULT_TOL)
            one = modular_flow(phi, s, DEFAULT_TOL)(flow_t(x))
            two = modular_flow(phi, s + t, DEFAULT_TOL)(x)
            assert frobenius(one - two) <= 1e-10
            assert abs(phi(flow_t(x)) - phi(x)) <= 1e-10


class TestBlockRanks:
    def test_ranks(self):
        p = M23.embed_blocks(
            [np.diag([1.0, 0.0]), np.diag([1.0, 1.0, 0.0])]
        ).astype(complex)
        assert block_ranks(M23, p, DEFAULT_TOL) == (1, 2)

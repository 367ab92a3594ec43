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
from wstargeo.errors import (
    AlgebraMismatch,
    AmbiguousCluster,
    InvalidArrow,
    NotFaithful,
    NotPartiallyInvertible,
    NotPositive,
)
from wstargeo.linalg import DEFAULT_TOL, frobenius, realified_rank, supports
from wstargeo import linalg, sampling

M2 = BlockAlgebra((2,))
M3 = BlockAlgebra((3,))
M23 = BlockAlgebra((2, 3))

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = E12.conj().T


def _rng(k: int = 0) -> sampling.Stream:
    return sampling.Stream((77_000 + k,), [0])


class TestBlockAlgebra:
    def test_dim_and_slices(self):
        assert M23.dim == 5
        assert [s.start for s in M23.slices] == [0, 2]
        assert [s.stop for s in M23.slices] == [2, 5]

    def test_embed_and_views_round_trip(self):
        rng = _rng()
        mats = [sampling.complex_normal(rng, (n, n))[0] for n in M23.blocks]
        x = M23.embed_blocks(mats)
        views = M23.block_views(x)
        for got, want in zip(views, mats):
            assert frobenius(got - want) <= 1e-14
        # Off-block entries are zero by construction.
        assert abs(x[0, 3]) == 0.0

    def test_embed_stacks_keeps_the_stack_axis_of_empty_parts(self):
        # Arrays of no matrices keep their stack axis, at any stack length.
        for t in (0, 3):
            parts = [(s, np.zeros((t, 0, n, n))) for s, n in zip(M23.slices, M23.blocks)]
            assert M23.embed_stacks(parts).shape == (t, 0, 5, 5)
        # Empty lists have no shape: the caller names the stack axes.
        parts = [(s, []) for s in M23.slices]
        assert M23.embed_stacks(parts).shape == (0, 5, 5)
        assert M23.embed_stacks(parts, (3,)).shape == (3, 0, 5, 5)
        assert M23.embed_stacks([], (3,)).shape == (3, 0, 5, 5)

    def test_a_stabilizer_of_no_units_keeps_its_stack_axis(self):
        # Every cluster of multiplicity 1 in one functional, every value in
        # one cluster in the other: both fill the grid of 4 + 9 slots, the
        # first only its diagonal units.
        d = np.stack([np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), np.eye(5)]).astype(complex)
        stab = stabilizer_lie_algebra(NormalFunctional(M23, d))
        assert stab.basis.shape == (2, 13, 5, 5)
        assert stab.dimension.tolist() == [5, 13]
        assert stab.mask[0].tolist() == [k in (0, 3, 4, 8, 12) for k in range(13)]
        assert not stab.basis[0][~stab.mask[0]].any()

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

    def test_layouts_are_kept_per_block_tuple(self):
        """Two algebras of one block tuple, as two commands build, share
        their layouts."""
        other = BlockAlgebra.from_string("2,3")
        assert other is not M23
        assert other._block_layout is M23._block_layout
        assert other._off_block_index is M23._off_block_index
        assert not other._off_block_index.flags.writeable

    def test_from_string(self):
        assert BlockAlgebra.from_string("2,3").blocks == (2, 3)


class TestFunctionalEvaluation:
    def test_stacked_densities_evaluate_per_matrix(self):
        algebra = BlockAlgebra.from_string("1,2")
        d = np.diag([0.2, 0.3, 0.5]).astype(complex)
        phi = NormalFunctional(algebra, np.stack([d, d, d]))
        x = np.stack([k * np.eye(3, dtype=complex) for k in (1, 2, 3)])
        assert phi(x).shape == (3,)
        for k in range(3):
            assert phi(x)[k] == NormalFunctional(algebra, d)(x[k])
        one = NormalFunctional(algebra, d)(np.eye(3))
        assert type(one) is complex and one == 1.0


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
        l_supp, r_supp = supports(phi.density, DEFAULT_TOL)
        assert frobenius(l_supp - np.diag([1.0, 0.0])) <= 1e-12
        assert frobenius(r_supp - np.diag([0.0, 1.0])) <= 1e-12

    def test_polar_consistency_random(self):
        rng = _rng(1)
        for _ in range(200):
            x = sampling.random_element(M23, rng)[0]
            phi = NormalFunctional(M23, x)
            u, mod = functional_polar(phi, DEFAULT_TOL)
            assert frobenius(u @ mod.density - x) <= 1e-9 * max(1.0, frobenius(x))
            l_supp, r_supp = supports(phi.density, DEFAULT_TOL)
            assert frobenius(u.conj().T @ u - r_supp) <= 1e-10
            assert frobenius(u @ u.conj().T - l_supp) <= 1e-10

    def test_hermitian_support_commutes(self):
        rng = _rng(2)
        for _ in range(100):
            h = sampling.random_hermitian(M23, rng)[0]
            phi = NormalFunctional(M23, h)
            l_supp, r_supp = supports(phi.density, DEFAULT_TOL)
            assert frobenius(l_supp - r_supp) <= 1e-10
            assert frobenius(l_supp @ h - h) <= 1e-10
            assert frobenius(h @ l_supp - h) <= 1e-10

    def test_support_takes_one_decomposition(self, monkeypatch):
        # The positivity check and the support read the same block spectra:
        # one decomposition with vectors per block, none of the whole density.
        rng = _rng(3)
        frames = sampling.random_frames(M23, rng, allow_zero=False)[0]
        phi = sampling.density_on(rng, frames)[0]
        calls = []
        real = linalg._heevd

        def spy(h, compute_v):
            calls.append((h.shape, compute_v))
            return real(h, compute_v)

        monkeypatch.setattr(linalg, "_heevd", spy)
        p = functional_support(phi, DEFAULT_TOL)
        assert calls == [((n, n), 1) for n in M23.blocks]
        assert frobenius(p - frames.projection) <= 1e-10


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
            assert realified_rank(centralizer_basis(phi, DEFAULT_TOL)) == dim

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

    @pytest.mark.parametrize("gap, dim", [(1e-7, 2), (1e-12, 4), (1e-9, None)])
    def test_stabilizer_guard_band(self, gap, dim):
        # diag(1 + gap, 1): two clusters well above the clustering threshold
        # (1e-9 relative), one well below it, and refused near it.
        phi = NormalFunctional(M2, np.diag([1.0 + gap, 1.0]).astype(complex))
        if dim is None:
            with pytest.raises(AmbiguousCluster):
                stabilizer_lie_algebra(phi, DEFAULT_TOL)
        else:
            stab = stabilizer_lie_algebra(phi, DEFAULT_TOL)
            assert stab.dimension == realified_rank(stab.basis) == dim

    def test_block_below_the_cutoff_is_one_kernel_cluster(self):
        # The 2x2 block lies wholly below the rank cutoff (1e-9): it is kernel,
        # one cluster, and its split at noise scale is never examined.
        alg = BlockAlgebra((1, 2))
        d = np.diag([1.0, 1e-12 * (1.0 + 1e-9), 1e-12]).astype(complex)
        phi = NormalFunctional(alg, d)
        assert orbit_invariant(phi, DEFAULT_TOL) == ((1.0,), ())
        stab = stabilizer_lie_algebra(phi, DEFAULT_TOL)
        assert stab.dimension == realified_rank(stab.basis) == 1
        # The whole kernel corner commutes with d, so the expectation fixes it,
        # as it fixes the 1x1 block.
        for i, j in [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]:
            e = alg.zero()
            e[i, j] = 1.0
            assert frobenius(conditional_expectation(phi, e, DEFAULT_TOL) - e) <= 1e-15

    def test_retained_value_near_the_cutoff_is_refused(self):
        # 2e-9 is retained (cutoff 1e-9) but within GUARD_FACTOR of the cutoff:
        # the stabilizer would depend on noise, so every cluster reader refuses.
        phi = NormalFunctional(M3, np.diag([1.0, 2e-9, 0.0]).astype(complex))
        assert orbit_invariant(phi, DEFAULT_TOL) == ((1.0, 2e-9),)
        def pinching(phi, tol):
            return conditional_expectation(phi, phi.algebra.identity(), tol)

        for reader in (stabilizer_lie_algebra, pinching, centralizer_basis):
            with pytest.raises(NotPartiallyInvertible):
                reader(phi, DEFAULT_TOL)

    def test_stabilizer_basis_properties(self):
        phi = NormalFunctional(M3, np.diag([1.0, 1.0, 2.0]).astype(complex) / 4.0)
        stab = stabilizer_lie_algebra(phi, DEFAULT_TOL)
        d = phi.density
        for s in stab.basis[stab.mask]:
            assert frobenius(s + s.conj().T) <= 1e-12
            assert frobenius(s @ d - d @ s) <= 1e-12


class TestEquivalence:
    def test_mvn_vs_unitary_on_random_pairs(self):
        rng = _rng(3)
        for _ in range(300):
            p = sampling.random_projection(M23, rng)[0]
            q = sampling.random_projection(M23, rng)[0]
            assert mvn_equivalent(M23, p, q, DEFAULT_TOL) == unitary_equivalent(
                M23, p, q, DEFAULT_TOL
            )

    def test_witness(self):
        rng = _rng(4)
        for _ in range(100):
            p = sampling.random_projection(M23, rng)[0]
            q = sampling.equivalent_frames(rng, sampling.frames_of(M23, p)).projection[0]
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
            phi = sampling.random_density(M23, rng)[0]
            u = sampling.random_unitary(M23, rng)[0]
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
            f = sampling.random_frames(M23, rng, allow_zero=False)[0]
            p = f.projection
            phi = sampling.density_on(rng, f)[0]
            q = sampling.equivalent_frames(rng, f).projection[0]
            u = sampling.partial_isometry_onto(M23, rng, p, q)[0]
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
            phi = sampling.random_density(M23, rng, repeat_chance=0.5)[0]
            x = sampling.random_element(M23, rng)[0]
            ex = conditional_expectation(phi, x, DEFAULT_TOL)
            assert frobenius(conditional_expectation(phi, ex, DEFAULT_TOL) - ex) <= 1e-10
            assert abs(phi(ex) - phi(x)) <= 1e-10 * max(1.0, abs(phi(x)))
            assert frobenius(ex @ phi.density - phi.density @ ex) <= 1e-10

    def test_positivity(self):
        rng = _rng(8)
        for _ in range(100):
            phi = sampling.random_density(M23, rng, repeat_chance=0.5)[0]
            x = sampling.random_element(M23, rng)[0]
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

    def test_stacked_densities_flow_per_matrix(self):
        alg = BlockAlgebra((1, 2))
        rng = _rng(10)
        u = sampling.random_unitary(alg, rng)[0]
        densities = np.stack([
            np.diag([0.2, 0.3, 0.5]),
            u @ np.diag([0.5, 0.25, 0.25]) @ u.conj().T,
            np.diag([0.1, 0.6, 0.3]),
        ]).astype(complex)
        phi = NormalFunctional(alg, densities)
        x = sampling.random_element(alg, rng)[0]
        xs = np.stack([sampling.random_element(alg, rng)[0] for _ in range(3)])
        flow = modular_flow(phi, 0.7, DEFAULT_TOL)
        one, each = flow(x), flow(xs)
        for k, d in enumerate(densities):
            alone = modular_flow(NormalFunctional(alg, d), 0.7, DEFAULT_TOL)
            assert np.array_equal(one[k], alone(x))
            assert np.array_equal(each[k], alone(xs[k]))
        densities[1] = np.diag([0.0, 0.4, 0.6])
        with pytest.raises(NotFaithful, match="at trial 1$"):
            modular_flow(NormalFunctional(alg, densities), 0.7, DEFAULT_TOL)

    def test_invariance_and_composition(self):
        rng = _rng(9)
        for _ in range(50):
            phi = sampling.random_density(M23, rng)[0]
            x = sampling.random_element(M23, rng)[0]
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

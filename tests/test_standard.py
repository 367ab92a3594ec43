"""Tests for the standard-form groupoid on vectors: expectations, the
vector product, the coadjoint isomorphism, dual-pair fibres, Tomita data,
and the modular flow."""

import numpy as np
import pytest

from wstargeo import (
    DEFAULT_TOL,
    BlockAlgebra,
    DegenerateBase,
    InvalidArrow,
    NormalFunctional,
    NotComposable,
    NotFaithful,
    composable_chain,
    conjugation_J,
    dual_pair_orthogonality_check,
    expectation_E,
    expectation_Eprime,
    fiber_kernel_dimension,
    frobenius,
    iso_Phi,
    iso_Phi_inv,
    modular_Delta,
    modular_flow,
    phi_intertwining_residual,
    std_inverse,
    std_mul,
    std_unit,
    symplectic_omega,
    tomita_S,
    transport_witness,
)
from wstargeo import linalg, standard
from wstargeo.algebra import block_ranks, matrix_units
from wstargeo.errors import NotPartiallyInvertible
from wstargeo.linalg import restricted_power, supports
from wstargeo.standard import flow_residuals, flow_sample
from wstargeo.sampling import (
    equivalent_frames,
    isometry_between,
    positive_on,
    random_density,
    random_element,
    random_frames,
    random_projection,
    Stream,
)

M2 = BlockAlgebra((2,))
M23 = BlockAlgebra((2, 3))

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = E12.conj().T
E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)
G_CORNER = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)


def null_space_rows(a, tol=DEFAULT_TOL):
    """The rows ``vh[rank:]`` of NumPy's SVD of ``a``, past its floored rank,
    which span the numerical kernel of ``a``."""
    _, s, vh = np.linalg.svd(a)
    return vh[linalg.floored_rank(s, tol):]


def fibre_kernels(algebra, g) -> list:
    """The fibre kernels of E and E' at g, as the dual-pair check reads
    them: one stack of directions each."""
    return standard._pair_kernels(algebra, standard._pair_factors(algebra, g, DEFAULT_TOL))


class TestVectorStructure:
    def test_symplectic_form_oracle(self):
        assert abs(symplectic_omega(np.array([[1.0]]), np.array([[1.0j]])) - 2.0) <= 1e-12
        # antisymmetry and reality on random pairs
        rng = Stream((30,), [0])
        x = random_element(M23, rng)[0]
        y = random_element(M23, rng)[0]
        assert abs(symplectic_omega(x, y) + symplectic_omega(y, x)) <= 1e-12

    def test_conjugation_and_split(self):
        rng = Stream((31,), [0])
        g = random_element(M2, rng)[0]
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
        assert frobenius(supports(G_CORNER, DEFAULT_TOL)[0] - np.diag([1.0, 0.0])) <= 1e-12
        # the right momentum is the left momentum of J g
        right = supports(conjugation_J(G_CORNER), DEFAULT_TOL)[0]
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
            rng = Stream((32, trial), [0])
            g = composable_chain("standard", M23, rng, 1)[0][0]
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
            rng = Stream((33, trial), [0])
            algebra = M2 if trial % 2 == 0 else M23
            a, b = (x[0] for x in composable_chain("coadjoint", algebra, rng, 2))
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
            rng = Stream((34, trial), [0])
            f1 = random_frames(M23, rng, allow_zero=False)
            f0 = equivalent_frames(rng, f1)
            g1 = isometry_between(rng, f1, f0)[0] @ positive_on(rng, f1)[0]
            v = isometry_between(rng, f0, equivalent_frames(rng, f0))[0]
            g2 = v @ g1
            w = transport_witness(g1, g2, DEFAULT_TOL)
            assert frobenius(w @ g1 - g2) <= 1e-9
            mu = supports(g1, DEFAULT_TOL)[0]
            assert frobenius(w.conj().T @ w - mu) <= 1e-9


class TestDualPair:
    def test_dimension_formula(self):
        # per block r^2 + 2 r (n - r)
        assert fiber_kernel_dimension(M2, [2]) == 4
        assert fiber_kernel_dimension(M2, [1]) == 3
        assert fiber_kernel_dimension(M23, [1, 2]) == 3 + (4 + 4)

    def test_full_support_vector(self):
        g = np.eye(2, dtype=complex)
        ker_e, ker_ep = fibre_kernels(M2, g)
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
        rng = Stream((35,), [0])
        g = composable_chain("standard", M23, rng, 1)[0][0]
        mu = supports(g, DEFAULT_TOL)[0]
        ker_e, ker_ep = fibre_kernels(M23, g)
        for delta in ker_e:
            assert frobenius(delta @ g.conj().T + g @ delta.conj().T) <= 1e-9
            assert frobenius(mu @ delta - delta) <= 1e-9
        mu_p = supports(conjugation_J(g), DEFAULT_TOL)[0]
        for delta in ker_ep:
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
        points = [random_element(algebra, rng)[0]]
        f = random_frames(
            algebra, rng, ranks=tuple(n - 1 for n in algebra.blocks[:-1]) + (1,)
        )
        points.append(
            isometry_between(rng, f, equivalent_frames(rng, f))[0] @ positive_on(rng, f)[0]
        )
        if len(algebra.blocks) > 1:
            g = random_element(algebra, rng)[0]
            g[algebra.slices[0], algebra.slices[0]] = 0.0
            points.append(g)
        return points

    @pytest.mark.parametrize("blocks", [(2, 3), (4,), (2, 2, 1)])
    def test_blockwise_kernels_match_ambient_reference(self, blocks):
        algebra = BlockAlgebra(blocks)
        for g in self._dual_pair_points(algebra, Stream((39, len(blocks)), [0])):
            mu = supports(g, DEFAULT_TOL)[0]
            mu_p = supports(conjugation_J(g), DEFAULT_TOL)[0]
            ker_e, ker_ep = fibre_kernels(algebra, g)
            pairs = [
                (
                    ker_e,
                    self._ambient_kernel(
                        algebra,
                        lambda d: d @ g.conj().T + g @ d.conj().T,
                        lambda d: mu @ d,
                    ),
                ),
                (
                    ker_ep,
                    self._ambient_kernel(
                        algebra,
                        lambda d: g.conj().T @ d + d.conj().T @ g,
                        lambda d: d @ mu_p,
                    ),
                ),
            ]
            # The oracle's nullities of both sides, against the rank formula.
            nullity = sum(
                standard._ambient_nullity(g[s, s], mu[s, s], mu_p[s, s], DEFAULT_TOL)
                for s in algebra.slices
            )
            for (blockwise, reference), m, q in zip(pairs, nullity, (mu, mu_p)):
                assert m == fiber_kernel_dimension(algebra, block_ranks(algebra, q, DEFAULT_TOL))
                assert len(blockwise) == len(reference) == m
                # Equal spans: the stacked realified bases keep the rank.
                stacked = np.array(
                    [np.concatenate([d.real.ravel(), d.imag.ravel()])
                     for d in [*blockwise, *reference]]
                )
                assert np.linalg.matrix_rank(stacked, tol=1e-8) == len(reference)

    @pytest.mark.parametrize("blocks", [(2,), (2, 3), (4,)])
    def test_orthogonality_matches_pairwise_loop(self, blocks):
        algebra = BlockAlgebra(blocks)
        for trial in range(3):
            rng = Stream((37, sum(blocks), trial), [0])
            if trial == 0:
                g = random_element(algebra, rng)[0]
            else:
                g = composable_chain("standard", algebra, rng, 1)[0][0]
            report = dual_pair_orthogonality_check(algebra, g, DEFAULT_TOL)
            ker_e, ker_ep = fibre_kernels(algebra, g)
            pairwise = max(abs(symplectic_omega(x, y)) for x in ker_e for y in ker_ep)
            assert (report.dim_E, report.dim_Eprime) == (len(ker_e), len(ker_ep))
            assert abs(report.orthogonality - pairwise) <= 1e-14

    @pytest.mark.parametrize("blocks", [(2, 3), (1, 2, 2)])
    def test_a_stack_gives_each_vector_its_report(self, blocks):
        # Each vector of a stack of several null-space patterns gets the
        # report it gets alone: the first vector's oracles add exactly 0
        # where they pass.  A zero vector is refused by its place.
        algebra = BlockAlgebra(blocks)
        rng = Stream((38, len(blocks)), range(10))
        g = random_element(algebra, rng) @ random_projection(algebra, rng, allow_zero=False)
        alone = [vars(dual_pair_orthogonality_check(algebra, v, DEFAULT_TOL)) for v in g]
        assert len({r["dim_E"] for r in alone}) > 1
        report = vars(dual_pair_orthogonality_check(algebra, g, DEFAULT_TOL))
        for field, values in report.items():
            np.testing.assert_array_equal(values, [r[field] for r in alone])
        bad = g.copy()
        bad[7] = 0.0
        with pytest.raises(DegenerateBase, match="at trial 7$"):
            dual_pair_orthogonality_check(algebra, bad, DEFAULT_TOL)

    def test_degenerate_base(self):
        with pytest.raises(DegenerateBase):
            fibre_kernels(M2, np.zeros((2, 2), complex))


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
            rng = Stream((36, trial), [0])
            algebra = M2 if trial % 2 == 0 else M23
            phi = random_density(algebra, rng)[0]
            omega = std_unit(phi, DEFAULT_TOL)
            x = random_element(algebra, rng)[0]
            lhs = tomita_S(phi, x @ omega, DEFAULT_TOL)
            rhs = x.conj().T @ omega
            assert frobenius(lhs - rhs) <= 1e-9 * (1.0 + frobenius(rhs))
            # S is an involution and factors as J Delta^{1/2}
            g = random_element(algebra, rng)[0]
            s = tomita_S(phi, g, DEFAULT_TOL)
            assert frobenius(tomita_S(phi, s, DEFAULT_TOL) - g) <= 1e-8 * (1.0 + frobenius(g))
            assert frobenius(
                s - conjugation_J(modular_Delta(phi, g, 0.5, DEFAULT_TOL))
            ) <= 1e-9 * (1.0 + frobenius(g))


class TestNegativePowerGuard:
    """On M2 with d = diag(1, 2e-9) the small value is retained (the cutoff
    is 1e-9) but lies within GUARD_FACTOR of the cutoff.  Every negative
    power of d refuses it, as ``restricted_power`` does for the matrix;
    ``Delta^p(g) = d^p g (d^+)^p`` takes a negative power at either sign of
    ``p``.  The readers with no negative power return."""

    D = np.diag([1.0, 2e-9]).astype(complex)

    def test_matrix_power_refuses(self):
        with pytest.raises(NotPartiallyInvertible):
            restricted_power(self.D, -0.5, DEFAULT_TOL)

    @pytest.mark.parametrize(
        "read",
        [
            lambda phi: tomita_S(phi, E12, DEFAULT_TOL),
            lambda phi: modular_Delta(phi, E12, -0.5, DEFAULT_TOL),
            lambda phi: modular_Delta(phi, E12, 0.5, DEFAULT_TOL),
            lambda phi: modular_Delta(phi, E12, 1.0, DEFAULT_TOL),
        ],
        ids=["tomita_S", "Delta^-0.5", "Delta^0.5", "Delta"],
    )
    def test_functional_negative_powers_refuse(self, read):
        with pytest.raises(NotPartiallyInvertible):
            read(NormalFunctional(M2, self.D))

    def test_readers_without_negative_powers_return(self):
        phi = NormalFunctional(M2, self.D)
        assert frobenius(std_unit(phi, DEFAULT_TOL) - np.diag([1.0, np.sqrt(2e-9)])) <= 1e-15
        assert frobenius(modular_Delta(phi, E12, 0.0, DEFAULT_TOL) - E12) <= 1e-15
        flowed = modular_flow(phi, 0.3, DEFAULT_TOL)(E12)
        assert frobenius(flowed - (1.0 / 2e-9) ** 0.3j * E12) <= 1e-14


def _span_projection(mats):
    """Orthogonal projection onto the real span of the realified mats."""
    rows = np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats])
    q, _ = np.linalg.qr(rows.T)
    return q @ q.T


class TestClosedFormM2:
    """Modular data of rho = diag(a, b) on M2, against closed forms that
    share no code with the readers, at the vector Omega = e12 rho^{1/2}."""

    A, B = 0.7, 0.3
    OMEGA = np.sqrt(B) * E12

    @pytest.fixture
    def phi(self):
        return NormalFunctional(M2, np.diag([self.A, self.B]).astype(complex))

    @pytest.mark.parametrize("t", [0.3, -1.7, 2.5])
    def test_flow(self, phi, t):
        want = (self.A / self.B) ** (1j * t) * E12
        assert frobenius(modular_flow(phi, t, DEFAULT_TOL)(E12) - want) <= 1e-14

    def test_unit(self, phi):
        want = np.diag([np.sqrt(self.A), np.sqrt(self.B)])
        assert frobenius(std_unit(phi, DEFAULT_TOL) - want) <= 1e-14

    @pytest.mark.parametrize("p", [1.0, 0.5, 0.25, -0.5])
    def test_delta(self, phi, p):
        want = self.A**p * self.B ** (0.5 - p) * E12
        assert frobenius(modular_Delta(phi, self.OMEGA, p, DEFAULT_TOL) - want) <= 1e-14

    def test_tomita(self, phi):
        want = np.sqrt(self.A) * E21
        assert frobenius(tomita_S(phi, self.OMEGA, DEFAULT_TOL) - want) <= 1e-14

    # At the non-normal g = e12 the left support e11 and the right support
    # e22 differ.  By hand, E(g + d) - E(g) = d e21 + e12 d* to first order
    # with d = e11 d on the left support gives {e11, i e11, i e12}, and
    # E'(g + d) - E'(g) = e21 d + d* e12 with d = d e22 gives
    # {i e12, e22, i e22}.  With the supports swapped the E' kernel has
    # dimension 2.

    @pytest.mark.parametrize(
        "side, want",
        [(0, [E11, 1j * E11, 1j * E12]), (1, [1j * E12, E22, 1j * E22])],
        ids=["E", "Eprime"],
    )
    def test_fiber_kernel(self, side, want):
        got = fibre_kernels(M2, E12)[side]
        assert len(got) == 3
        assert (
            frobenius(_span_projection(got) - _span_projection(want)) <= 1e-14
        )

    def test_dual_pair(self):
        report = dual_pair_orthogonality_check(M2, E12, DEFAULT_TOL)
        assert (report.dim_E, report.dim_Eprime) == (3, 3)
        assert (report.expected_dim_E, report.expected_dim_Eprime) == (3, 3)
        assert report.orthogonality <= 1e-14


class TestClosedFormFibreKernels:
    """The fibre kernels at the rank-2 diagonal g = diag(2, 1, 0) in M3, by
    hand.  With Sigma = diag(2, 1) and d = [[A, b], [0, 0]] on the left
    support, d g* + g d* = 0 reads A Sigma + Sigma A* = 0, so
    E(g) = {[[X Sigma^-1, b], [0, 0]] : X in u(2), b in C^2}, of real
    dimension 4 + 4 = 8; g is Hermitian, so E'(g) is its image under
    x -> x*."""

    M3 = BlockAlgebra((3,))
    G = np.diag([2.0, 1.0, 0.0]).astype(complex)

    @staticmethod
    def _kernel_E():
        units = np.eye(9).reshape(9, 3, 3).astype(complex)
        e = {(i, j): units[3 * i + j] for i in range(3) for j in range(3)}
        sigma_inv = np.diag([0.5, 1.0, 0.0])
        u2 = [1j * e[0, 0], 1j * e[1, 1], e[0, 1] - e[1, 0], 1j * (e[0, 1] + e[1, 0])]
        return [x @ sigma_inv for x in u2] + [e[0, 2], 1j * e[0, 2], e[1, 2], 1j * e[1, 2]]

    @pytest.mark.parametrize("side", [0, 1], ids=["E", "Eprime"])
    def test_fiber_kernel(self, side):
        want = [d.conj().T if side else d for d in self._kernel_E()]
        got = fibre_kernels(self.M3, self.G)[side]
        assert len(got) == 8
        assert frobenius(_span_projection(got) - _span_projection(want)) <= 1e-14

    def test_dual_pair(self):
        report = dual_pair_orthogonality_check(self.M3, self.G, DEFAULT_TOL)
        assert (report.dim_E, report.dim_Eprime) == (8, 8)
        assert (report.expected_dim_E, report.expected_dim_Eprime) == (8, 8)
        assert report.orthogonality <= 1e-14

    def test_dual_pair_on_a_block_algebra(self):
        # e12 in M2 (3 + 3) beside diag(2, 1, 0) in M3 (8 + 8).
        g = M23.embed_blocks([E12, self.G])
        report = dual_pair_orthogonality_check(M23, g, DEFAULT_TOL)
        assert (report.dim_E, report.dim_Eprime) == (11, 11)
        assert (report.expected_dim_E, report.expected_dim_Eprime) == (11, 11)
        assert report.orthogonality <= 1e-14


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
            flow_residuals(phi, 0.3, *(x[0] for x in flow_sample(M2, Stream((39,), [0]))), DEFAULT_TOL)

    def test_fixes_canonical_vector(self):
        phi = random_density(M23, Stream((37,), [0]))[0]
        omega = std_unit(phi, DEFAULT_TOL)
        for t in (0.3, -1.7):
            assert frobenius(modular_flow(phi, t, DEFAULT_TOL)(omega) - omega) <= 1e-9

    def test_group_law_and_zero_time(self):
        rng = Stream((38,), [0])
        phi = random_density(M2, rng)[0]
        g = random_element(M2, rng)[0]
        assert frobenius(modular_flow(phi, 0.0, DEFAULT_TOL)(g) - g) <= 1e-12
        one_step = modular_flow(phi, 0.7, DEFAULT_TOL)(modular_flow(phi, 0.5, DEFAULT_TOL)(g))
        direct = modular_flow(phi, 1.2, DEFAULT_TOL)(g)
        assert frobenius(one_step - direct) <= 1e-9

    def test_automorphism_report(self):
        rng = Stream((39,), [0])
        for algebra in (M2, M23):
            phi = random_density(algebra, rng)[0]
            for t in (0.0, 0.3, -1.7):
                for k in range(10):
                    sample = [x[0] for x in flow_sample(algebra, Stream((39, k), [0]))]
                    residuals = flow_residuals(phi, t, *sample, DEFAULT_TOL)
                    assert set(residuals) == FLOW_RESIDUALS
                    assert max(residuals.values()) <= 1e-9, (t, k, residuals)


STACK_SHAPES = [(2, 3), (1, 2, 2), (4, 4, 4, 4), (12,)]


class TestStackedFlow:
    """The modular flow and its invariance check act per matrix of a stack,
    each with its own density and flow time, with the bits each matrix gets
    alone."""

    TIMES = (0.0, 0.3, -0.3, 1.7, -1.7, 0.5, -1.3, 2.2, 0.0, -0.7, 1.1, 0.9)

    def _trials(self, algebra, count, seed):
        """``count`` trials of a density, a flow time and a flow sample: the
        stacked functional, the times and the sample's stacks."""
        rng = Stream((seed,), range(count))
        return random_density(algebra, rng), self.TIMES[:count], flow_sample(algebra, rng)

    @pytest.mark.parametrize("blocks", STACK_SHAPES)
    def test_flow_at_a_time_per_density(self, blocks):
        algebra = BlockAlgebra(blocks)
        phis, times, samples = self._trials(algebra, 12, 50)
        xs = samples[3]
        flowed = modular_flow(phis, np.array(times), DEFAULT_TOL)(xs)
        for k, t in enumerate(times):
            alone = modular_flow(phis[k], t, DEFAULT_TOL)(xs[k])
            assert flowed[k].tobytes() == alone.tobytes(), k

    @pytest.mark.parametrize("blocks", STACK_SHAPES)
    def test_stacked_check_is_the_check_per_trial(self, blocks):
        algebra = BlockAlgebra(blocks)
        phis, times, samples = self._trials(algebra, 12, 51)
        got = flow_residuals(phis, np.array(times), *samples, DEFAULT_TOL)
        assert set(got) == FLOW_RESIDUALS
        for k, t in enumerate(times):
            one = NormalFunctional(algebra, phis.density[k, None])
            single = flow_residuals(one, np.array([t]), *(m[k, None] for m in samples), DEFAULT_TOL)
            alone = flow_residuals(phis[k], t, *(m[k] for m in samples), DEFAULT_TOL)
            for key, values in got.items():
                assert values.shape == (12,)
                assert values[k].tobytes() == single[key][0].tobytes(), (k, key)
                assert isinstance(alone[key], float)
                assert np.float64(alone[key]).tobytes() == values[k].tobytes(), (k, key)
            assert max(alone.values()) <= 1e-9

    @pytest.mark.parametrize("blocks", STACK_SHAPES)
    def test_a_density_that_is_not_faithful_names_its_trial(self, blocks):
        algebra = BlockAlgebra(blocks)
        phis, times, samples = self._trials(algebra, 10, 52)
        densities = phis.density.copy()
        # Trial 7's density loses the smallest eigenvalue of its first
        # block: still positive, no longer faithful.
        s = algebra.slices[0]
        w, v = np.linalg.eigh(densities[7, s, s])
        w[0] = 0.0
        densities[7, s, s] = (v * w) @ v.conj().T
        stacked = NormalFunctional(algebra, densities)
        with pytest.raises(NotFaithful, match="at trial 7$"):
            flow_residuals(stacked, np.array(times), *samples, DEFAULT_TOL)


class TestOneSpectrum:
    """Tomita's S, Delta and the modular flow read the density's one kept
    decomposition, one per block; the positivity checks and d^{1/2} are
    checked against the same decomposition in ``test_factor_once.py``."""

    @staticmethod
    def _count_eig(monkeypatch, phi):
        """Per LAPACK eigendecomposition, the index of the block of the
        density it decomposes, or None."""
        calls = []
        blocks = M23.block_views(linalg.herm(phi.density))
        real = linalg._heevd

        def spy(h, compute_v):
            same = [h.shape == b.shape and np.array_equal(h, b) for b in blocks]
            calls.append(same.index(True) if any(same) else None)
            return real(h, compute_v)

        monkeypatch.setattr(linalg, "_heevd", spy)
        return calls

    def test_modular_operations_share_one_decomposition(self, monkeypatch):
        phi = random_density(M23, Stream((40,), [0]))[0]
        g = random_element(M23, Stream((40, 1), [0]))[0]
        calls = self._count_eig(monkeypatch, phi)
        tomita_S(phi, g, DEFAULT_TOL)
        modular_Delta(phi, g, 0.5, DEFAULT_TOL)
        for t in (0.0, 0.3, -1.7):
            modular_flow(phi, t, DEFAULT_TOL)(g)
        assert calls == [0, 1]

    def test_flow_residuals_decompose_the_density_once(self, monkeypatch):
        phi = random_density(M23, Stream((41,), [0]))[0]
        calls = self._count_eig(monkeypatch, phi)
        flow_residuals(phi, 0.3, *(x[0] for x in flow_sample(M23, Stream((41, 1), [0]))), DEFAULT_TOL)
        assert [c for c in calls if c is not None] == [0, 1]

"""The four arrow structures and the maps between them."""
import numpy as np
import pytest

from wstargeo.algebra import BlockAlgebra, NormalFunctional, coadjoint_apply
from wstargeo.errors import InvalidArrow, InvalidTrials, NotComposable
from wstargeo.groupoids import (
    GROUPOIDS,
    CoadjointArrow,
    chain_law_residuals,
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
from wstargeo.linalg import DEFAULT_TOL, frobenius, polar_decompose, singular_values
from wstargeo.standard import std_mul, transport_witness
from wstargeo import algebra, sampling, suites

M2 = BlockAlgebra((2,))
M23 = BlockAlgebra((2, 3))

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = E12.conj().T
E22 = np.diag([0.0, 1.0]).astype(complex)


def _rng(k: int = 0) -> sampling.Stream:
    return sampling.Stream((88_000 + k,), [0])


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
            q = sampling.random_frames(M23, rng, allow_zero=False)
            u = sampling.isometry_between(rng, q, sampling.equivalent_frames(rng, q))[0]
            h = sampling.positive_on(rng, q)[0]
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
            q = sampling.random_frames(M23, rng, allow_zero=False)
            u = sampling.isometry_between(rng, q, sampling.equivalent_frames(rng, q))[0]
            x = u @ sampling.positive_on(rng, q)[0]
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


def _laws(tag, algebra, trials, seed) -> dict:
    """Each law's residual on the chain of each trial of the stream keyed
    ``(seed,)``."""
    chain = composable_chain(tag, algebra, sampling.Stream((seed,), range(trials)), 3)
    return chain_law_residuals(tag, chain, DEFAULT_TOL)


class TestAxiomChecker:
    @pytest.mark.parametrize("tag", sorted(GROUPOIDS))
    def test_all_groupoids_pass(self, tag):
        laws = _laws(tag, M23, 50, 5)
        assert np.max(list(laws.values())) <= 1e-10
        assert set(laws) == {
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
            _laws("nonsense", M2, 10, 1)

    def test_determinism(self):
        one = _laws("predual", M23, 25, 9)
        two = _laws("predual", M23, 25, 9)
        assert all(np.array_equal(one[law], two[law]) for law in one)

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
        pair = composable_chain("coadjoint", M23, sampling.Stream((88_004,), range(50)), 2)
        assert np.max(xi_intertwining_residual(tuple(pair), DEFAULT_TOL)) <= 1e-10


class TestPsi:
    def test_oracle(self):
        rho0 = NormalFunctional(M2, np.diag([0.0, 3.0]).astype(complex))
        arrow = gauge_iso_Psi(E12, E22, rho0, DEFAULT_TOL)
        assert frobenius(arrow.u - E12) <= 1e-12
        assert frobenius(arrow.rho.density - np.diag([0.0, 3.0])) <= 1e-12
        assert frobenius(coadjoint_apply(E12, rho0, DEFAULT_TOL).density - np.diag([3.0, 0.0])) <= 1e-12

    def test_rejects_wrong_source(self):
        rho0 = NormalFunctional(M2, np.diag([3.0, 0.0]).astype(complex))
        with pytest.raises(InvalidArrow):
            gauge_iso_Psi(E12, E22, rho0, DEFAULT_TOL)

    def test_intertwining_random(self):
        rng = _rng(5)
        for _ in range(50):
            f0 = sampling.random_frames(M23, rng, allow_zero=False)
            rho0 = sampling.density_on(rng, f0)[0]
            u, v, w = (
                sampling.isometry_between(rng, f0, sampling.equivalent_frames(rng, f0))[0]
                for _ in range(3)
            )
            assert psi_intertwining_residual(u, v, w, rho0, DEFAULT_TOL) <= 1e-10


class TestPolarComponentsRelation:
    def test_second_polar(self):
        rng = _rng(6)
        for _ in range(100):
            q = sampling.random_frames(M23, rng, allow_zero=False)
            u = sampling.isometry_between(rng, q, sampling.equivalent_frames(rng, q))[0]
            h = sampling.positive_on(rng, q)[0]
            gamma = u @ h
            uu, hh = polar_decompose(gamma, DEFAULT_TOL)
            assert frobenius(gamma - (uu @ hh @ uu.conj().T) @ uu) <= 1e-10


def _matrix(arrow) -> np.ndarray:
    """The matrix an arrow of any picture is built on."""
    if isinstance(arrow, CoadjointArrow):
        return arrow.u
    if isinstance(arrow, NormalFunctional):
        return arrow.density
    return arrow


def _block_ranks(algebra: BlockAlgebra, a: np.ndarray) -> tuple[int, ...]:
    return tuple(int(np.sum(singular_values(b) > 1e-9)) for b in algebra.block_views(a))


class TestStackedLaws:
    """The laws of many chains are checked by one call on their stack, and
    each chain's residuals are the bits it gets alone."""

    @pytest.mark.parametrize("shape", ["2,3", "1,2,2", "4,4,4,4", "12"])
    @pytest.mark.parametrize("tag", sorted(GROUPOIDS))
    def test_trials_are_independent(self, tag, shape):
        algebra = BlockAlgebra.from_string(shape)
        chain = composable_chain(tag, algebra, sampling.Stream((31,), range(12)), 3)
        ranks = {_block_ranks(algebra, a) for a in _matrix(chain[0])}
        assert len(ranks) > 1
        stacked = chain_law_residuals(tag, chain, DEFAULT_TOL)
        for k in range(12):
            one = composable_chain(tag, algebra, sampling.Stream((31,), [k]), 3)
            alone = chain_law_residuals(tag, one, DEFAULT_TOL)
            unstacked = chain_law_residuals(tag, [a[0] for a in one], DEFAULT_TOL)
            for law, values in stacked.items():
                assert values[k] == alone[law][0] == unstacked[law], (law, k)

    @pytest.mark.parametrize(
        "tag, compose",
        [
            ("pi", pi_compose),
            ("g", g_compose),
            ("predual", predual_compose),
            ("coadjoint", coadjoint_compose),
            ("standard", std_mul),
        ],
    )
    def test_failing_trial_is_named(self, tag, compose):
        left, right = composable_chain(tag, M23, sampling.Stream((32,), range(10)), 2)
        # Trial 7's left arrow meets trial 6's right one.
        spoiled = np.where(np.arange(10) == 7, 6, np.arange(10))
        with pytest.raises(NotComposable):
            compose(left[7], right[6], DEFAULT_TOL)
        with pytest.raises(NotComposable, match="at trial 7$"):
            compose(left, right[spoiled], DEFAULT_TOL)
        others = np.arange(10) != 7
        compose(left[others], right[others], DEFAULT_TOL)  # the others compose


#: The ``groupoid-axioms`` rows that draw each trial in turn and check all
#: trials with one call on their stack: each row's draw and check.
STACKED_ROWS = {
    "isomorphisms": (suites._draw_isomorphisms, suites._check_isomorphisms),
    "equivalence-agreement": (suites._draw_equivalences, suites._check_equivalences),
    "witnesses": (suites._draw_witnesses, suites._check_witnesses),
}


def _row_draw(row: str, algebra: BlockAlgebra, trials: int, seed: int, select=None) -> list:
    """The row's draw, keyed ``(seed, 0)``, of all ``trials`` trials or of the
    trials ``select`` names."""
    draw, _ = STACKED_ROWS[row]
    return draw(algebra, sampling.Stream((seed, 0), range(trials) if select is None else select))


class TestStackedRows:
    """The isomorphisms, equivalence-agreement and witnesses rows check all
    their trials' data with one call on the stack, and each trial's
    residuals and answers are the bits it gets alone."""

    @pytest.mark.parametrize("shape", ["2,3", "1,2,2", "4,4,4,4", "12"])
    @pytest.mark.parametrize("row", sorted(STACKED_ROWS))
    def test_trials_are_independent(self, row, shape):
        alg = BlockAlgebra.from_string(shape)
        _, check = STACKED_ROWS[row]
        drawn = _row_draw(row, alg, 12, 33)
        ranks = {_block_ranks(alg, a) for a in _matrix(drawn[0])}
        assert len(ranks) > 1
        stacked = check(alg, *drawn)
        for k in range(12):
            data = _row_draw(row, alg, 12, 33, [k])
            alone = check(alg, *data)
            unstacked = check(alg, *(x[0] for x in data))
            for name, values in stacked.items():
                assert values.shape == (12,), name
                assert values[k] == alone[name][0] == unstacked[name], (name, k)

    @pytest.mark.parametrize("row, call, spoil, by", [
        # u* u is not the support of rho0: 2 u is no partial isometry.
        ("isomorphisms", lambda a, b, u, v, w, rho0, x: gauge_iso_Psi(u, v, rho0, DEFAULT_TOL),
         2, lambda data: 2 * data[2]),
        ("isomorphisms", lambda a, b, u, v, w, rho0, x: coadjoint_apply(u, rho0, DEFAULT_TOL),
         2, lambda data: 2 * data[2]),
        # g2 = 2 w0 g1 has another right expectation than g1.
        ("witnesses", lambda p, q, phi1, uu, h, u1, w0: transport_witness(
            u1 @ h, w0 @ u1 @ h, DEFAULT_TOL),
         6, lambda data: 2 * data[6]),
        # q replaced by the negative control, of other blockwise ranks.
        ("equivalence-agreement", lambda p, q, x, rho_supp, rho, u, p_bad: algebra.mvn_witness(
            rho.algebra, p, q, DEFAULT_TOL),
         1, lambda data: data[6]),
        # 2 uu scales phi2's spectrum off phi1's unitary orbit.
        ("witnesses", lambda p, q, phi1, uu, h, u1, w0: algebra.unitary_witness(
            phi1, NormalFunctional(phi1.algebra, uu @ phi1.density @ uu.conj().mT), DEFAULT_TOL),
         3, lambda data: 2 * data[3]),
    ], ids=["gauge_iso_Psi", "coadjoint_apply", "transport_witness", "mvn_witness",
            "unitary_witness"])
    def test_failing_trial_is_named(self, row, call, spoil, by):
        drawn = _row_draw(row, M23, 10, 34)
        call(*(x[7] for x in drawn))  # trial 7 alone is good
        drawn[spoil][7] = by([x[7] for x in drawn])
        with pytest.raises(InvalidArrow):
            call(*(x[7] for x in drawn))
        with pytest.raises(InvalidArrow, match="at trial 7$"):
            call(*drawn)
        others = np.arange(10) != 7
        call(*(x[others] for x in drawn))  # the others pass

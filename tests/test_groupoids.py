"""The four arrow structures and the maps between them."""
import numpy as np
import pytest

from wstargeo.algebra import BlockAlgebra, NormalFunctional, coadjoint_apply
from wstargeo.errors import InvalidArrow, InvalidTrials, NotComposable
from wstargeo.groupoids import (
    GROUPOIDS,
    CoadjointArrow,
    axiom_check,
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
from stacking import entry, stack_chains

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
        assert frobenius(coadjoint_apply(E12, rho0, DEFAULT_TOL).density - np.diag([3.0, 0.0])) <= 1e-12

    def test_rejects_wrong_source(self):
        rho0 = NormalFunctional(M2, np.diag([3.0, 0.0]).astype(complex))
        with pytest.raises(InvalidArrow):
            gauge_iso_Psi(E12, E22, rho0, DEFAULT_TOL)

    def test_intertwining_random(self):
        rng = _rng(5)
        for _ in range(50):
            f0 = sampling.random_frames(M23, rng, allow_zero=False)
            p0 = f0.projection
            rho0 = sampling.density_on(rng, f0)
            u, v, w = (
                sampling.partial_isometry_onto(
                    M23, rng, p0, sampling.equivalent_frames(rng, f0).projection
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
        chains = [composable_chain(tag, algebra, sampling.rng_for(31, k), 3) for k in range(12)]
        ranks = {_block_ranks(algebra, _matrix(chain[0])) for chain in chains}
        assert len(ranks) > 1
        stacked = chain_law_residuals(tag, stack_chains(chains), DEFAULT_TOL)
        for k, chain in enumerate(chains):
            alone = chain_law_residuals(tag, stack_chains([chain]), DEFAULT_TOL)
            unstacked = chain_law_residuals(tag, chain, DEFAULT_TOL)
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
        pairs = [composable_chain(tag, M23, sampling.rng_for(32, k), 2) for k in range(10)]
        a = pairs[7][0]
        with pytest.raises(NotComposable):
            compose(a, a, DEFAULT_TOL)
        pairs[7] = [a, a]
        left, right = stack_chains(pairs)
        with pytest.raises(NotComposable, match="at trial 7$"):
            compose(left, right, DEFAULT_TOL)
        del pairs[7]
        compose(*stack_chains(pairs), DEFAULT_TOL)  # the others compose


#: The ``groupoid-axioms`` rows that draw each trial in turn and check all
#: trials with one call on their stack: each row's draw and check.
STACKED_ROWS = {
    "isomorphisms": (suites._draw_isomorphisms, suites._check_isomorphisms),
    "equivalence-agreement": (suites._draw_equivalences, suites._check_equivalences),
    "witnesses": (suites._draw_witnesses, suites._check_witnesses),
}


def _row_draws(row: str, algebra: BlockAlgebra, trials: int, seed: int) -> list:
    draw, _ = STACKED_ROWS[row]
    ctx = suites.RowCtx(algebra, trials, seed, 0, DEFAULT_TOL)
    return [[entry(x, 0) for x in draw(ctx, ctx.stream([k]))] for k in range(trials)]


def _arrays(arrow) -> list:
    """Every matrix an arrow of any picture holds."""
    if isinstance(arrow, CoadjointArrow):
        return [arrow.u, arrow.rho.density]
    if isinstance(arrow, NormalFunctional):
        return [arrow.density]
    return [arrow]


class TestStackChains:
    """``stack_chains`` fills its stacks from an iterator, one chain at a
    time, with the bytes ``numpy.stack`` gives."""

    def test_iterator_gives_the_bytes_of_numpy_stack(self):
        chains = [_row_draws(row, M23, 6, 37) for row in sorted(STACKED_ROWS)]
        for draws in chains:
            stacked = stack_chains(iter(draws), len(draws))
            for i, arrow in enumerate(stacked):
                assert type(arrow) is type(draws[0][i])
                got = _arrays(arrow)
                want = [np.stack(ms) for ms in zip(*(_arrays(d[i]) for d in draws))]
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.shape == w.shape
                    assert g.flags.c_contiguous and g.tobytes() == w.tobytes()

    def test_dtypes_are_promoted_as_numpy_stack_promotes_them(self):
        real, cplx = np.eye(2), 1j * np.eye(2)
        got = stack_chains(iter([[real], [cplx], [real]]), 3)[0]
        want = np.stack([real, cplx, real])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("chains, count", [
        ([[np.eye(2)], [np.eye(2)]], 3),  # too few
        ([[np.eye(2)], [np.eye(2)]], 1),  # too many
        ([[np.eye(2)], [np.eye(3)]], 2),  # shapes differ
        ([[np.eye(2)], [np.eye(2), np.eye(2)]], 2),  # lengths differ
        ([], 0),  # nothing to stack
    ])
    def test_refuses_what_numpy_stack_refuses(self, chains, count):
        with pytest.raises(ValueError):
            stack_chains(iter(chains), count)


class TestStackedRows:
    """The isomorphisms, equivalence-agreement and witnesses rows check all
    their trials' data with one call on the stack, and each trial's
    residuals and answers are the bits it gets alone."""

    @pytest.mark.parametrize("shape", ["2,3", "1,2,2", "4,4,4,4", "12"])
    @pytest.mark.parametrize("row", sorted(STACKED_ROWS))
    def test_trials_are_independent(self, row, shape):
        alg = BlockAlgebra.from_string(shape)
        _, check = STACKED_ROWS[row]
        ctx = suites.RowCtx(alg, 12, 33, 0, DEFAULT_TOL)
        draws = _row_draws(row, alg, 12, 33)
        ranks = {_block_ranks(alg, _matrix(data[0])) for data in draws}
        assert len(ranks) > 1
        stacked = check(ctx, *stack_chains(draws))
        for k, data in enumerate(draws):
            alone = check(ctx, *stack_chains([data]))
            unstacked = check(ctx, *data)
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
        draws = _row_draws(row, M23, 10, 34)
        call(*draws[7])  # trial 7 alone is good
        draws[7][spoil] = by(draws[7])
        with pytest.raises(InvalidArrow):
            call(*draws[7])
        with pytest.raises(InvalidArrow, match="at trial 7$"):
            call(*stack_chains(draws))
        del draws[7]
        call(*stack_chains(draws))  # the others pass

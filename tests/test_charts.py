"""Tests for projection/groupoid charts, the bundle chart, and the
canonical connection: hand-computed oracles plus randomized round trips."""

import numpy as np
import pytest

from wstargeo import (
    DEFAULT_TOL,
    BlockAlgebra,
    Gamma0,
    InvalidArrow,
    InvalidTangent,
    NormalFunctional,
    NotInDomain,
    NotInOverlap,
    chart_G,
    chart_G_inv,
    chart_Theta,
    chart_Theta_inv,
    chart_domain_member,
    connection_alpha,
    curvature_Omega,
    dGamma0,
    fd_surface_dGamma0,
    frobenius,
    hv_split,
    jay_corner,
    phi_p,
    phi_p_inv,
    sigma_p,
    theta_P0,
    theta_P0_inv,
    transition_L,
    u_p,
)
from wstargeo import suites
from wstargeo.errors import NotPartiallyInvertible
from wstargeo.sampling import (
    equivalent_frames,
    isometry_between,
    p0_tangent,
    positive_on,
    random_antihermitian,
    random_frames,
    Stream,
)

M2 = BlockAlgebra((2,))
M3 = BlockAlgebra((3,))
M23 = BlockAlgebra((2, 3))

P = np.diag([1.0, 0.0]).astype(complex)
Q_HALF = 0.5 * np.ones((2, 2), dtype=complex)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def draw_in_chart(rng, f, max_tries=64):
    """Frames of an equivalent projection lying in the chart domain of the
    projection of ``f``."""
    for _ in range(max_tries):
        q = equivalent_frames(rng, f)
        if chart_domain_member(f.projection[0], q.projection[0], DEFAULT_TOL):
            return q
    raise AssertionError("no in-chart projection found")


class TestProjectionChart:
    def test_overlap_inverse_oracle(self):
        # p Q = [[1/2, 1/2], [0, 0]] has pseudo-inverse [[1, 0], [1, 0]].
        x = sigma_p(P, Q_HALF, DEFAULT_TOL)
        assert frobenius(x - np.array([[1.0, 0.0], [1.0, 0.0]])) <= 1e-12
        assert frobenius(P @ Q_HALF @ x - P) <= 1e-12
        assert frobenius(x @ P @ Q_HALF - Q_HALF) <= 1e-12

    def test_coordinate_oracle(self):
        y = phi_p(P, Q_HALF, DEFAULT_TOL)
        assert frobenius(y - np.array([[0.0, 0.0], [1.0, 0.0]])) <= 1e-12
        # the coordinate lives in the (1-p) . p corner
        comp = np.eye(2) - P
        assert frobenius(comp @ y @ P - y) <= 1e-12

    def test_inverse_chart_oracle(self):
        y = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        q = phi_p_inv(P, y, DEFAULT_TOL)
        assert frobenius(q - Q_HALF) <= 1e-12
        assert frobenius(phi_p_inv(P, np.zeros((2, 2)), DEFAULT_TOL) - P) <= 1e-12

    def test_orthogonal_projection_outside_domain(self):
        q = np.diag([0.0, 1.0]).astype(complex)
        assert not chart_domain_member(P, q, DEFAULT_TOL)
        with pytest.raises(NotInDomain):
            sigma_p(P, q, DEFAULT_TOL)

    def test_round_trip_random(self):
        for trial in range(200):
            rng = Stream((11, trial), [0])
            algebra = M2 if trial % 2 == 0 else M23
            f = random_frames(algebra, rng, allow_zero=False)
            p = f.projection[0]
            q = draw_in_chart(rng, f).projection[0]
            try:
                y = phi_p(p, q, DEFAULT_TOL)
            except NotPartiallyInvertible:
                continue
            assert frobenius(phi_p_inv(p, y, DEFAULT_TOL) - q) <= 1e-9
            # coordinates always sit in the off-diagonal corner of p
            one = np.eye(algebra.dim)
            assert frobenius((one - p) @ y @ p - y) <= 1e-9


class TestTransition:
    def test_hand_oracle(self):
        # Q_HALF charted from P has coordinate y; in its own chart the
        # coordinate is zero.
        y = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        out = transition_L(P, Q_HALF, y, DEFAULT_TOL)
        assert frobenius(out) <= 1e-12
        # P itself (coordinate 0) lands at phi_{Q_HALF}(P).
        out0 = transition_L(P, Q_HALF, np.zeros((2, 2)), DEFAULT_TOL)
        expected = 0.5 * np.array([[1.0, 1.0], [-1.0, -1.0]])
        assert frobenius(out0 - expected) <= 1e-12

    def test_matches_direct_chart(self):
        for trial in range(100):
            rng = Stream((12, trial), [0])
            algebra = M2 if trial % 2 == 0 else M23
            f1 = random_frames(algebra, rng, allow_zero=False)
            p1 = f1.projection[0]
            p2 = draw_in_chart(rng, f1).projection[0]
            q = draw_in_chart(rng, f1).projection[0]
            if not chart_domain_member(p2, q, DEFAULT_TOL):
                continue
            try:
                y1 = phi_p(p1, q, DEFAULT_TOL)
                direct = phi_p(p2, q, DEFAULT_TOL)
                moved = transition_L(p1, p2, y1, DEFAULT_TOL)
            except NotPartiallyInvertible:
                continue
            assert frobenius(moved - direct) <= 1e-8

    def test_cocycle(self):
        hits = 0
        for trial in range(200):
            rng = Stream((13, trial), [0])
            f1 = random_frames(M2, rng, ranks=(1,))
            p1 = f1.projection[0]
            p2 = draw_in_chart(rng, f1).projection[0]
            p3 = draw_in_chart(rng, f1).projection[0]
            q = draw_in_chart(rng, f1).projection[0]
            if not (
                chart_domain_member(p2, q, DEFAULT_TOL)
                and chart_domain_member(p3, q, DEFAULT_TOL)
                and chart_domain_member(p2, p3, DEFAULT_TOL)
            ):
                continue
            try:
                y1 = phi_p(p1, q, DEFAULT_TOL)
                via = transition_L(p2, p3, transition_L(p1, p2, y1, DEFAULT_TOL), DEFAULT_TOL)
                direct = transition_L(p1, p3, y1, DEFAULT_TOL)
            except (NotPartiallyInvertible, NotInOverlap):
                continue
            assert frobenius(via - direct) <= 1e-8
            hits += 1
        assert hits >= 50

    def test_outside_overlap(self):
        p_new = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(NotInOverlap):
            transition_L(P, p_new, np.zeros((2, 2)), DEFAULT_TOL)


class TestGroupoidCharts:
    def test_round_trips(self):
        count = 0
        for trial in range(150):
            rng = Stream((14, trial), [0])
            algebra = M2 if trial % 2 == 0 else M23
            fp = random_frames(algebra, rng, allow_zero=False, allow_full=False)
            fpt = draw_in_chart(rng, fp)
            fl = draw_in_chart(rng, fp)
            p, pt = fp.projection[0], fpt.projection[0]
            if not chart_domain_member(pt, fl.projection[0], DEFAULT_TOL):
                continue
            fr = draw_in_chart(rng, fpt)
            w = isometry_between(rng, fr, fl)[0]
            x = w @ positive_on(rng, fr)[0]
            try:
                coords = chart_G(p, pt, x, DEFAULT_TOL)
                back = chart_G_inv(p, pt, coords, DEFAULT_TOL)
                coords_t = chart_Theta(p, pt, x, DEFAULT_TOL)
                back_t = chart_Theta_inv(p, pt, coords_t, DEFAULT_TOL)
            except NotPartiallyInvertible:
                continue
            assert frobenius(back - x) <= 1e-8 * (1.0 + frobenius(x))
            assert frobenius(back_t - x) <= 1e-8 * (1.0 + frobenius(x))
            # the plain middle lands in the p . pt corner
            _, z, _ = coords
            assert frobenius(p @ z @ pt - z) <= 1e-9
            count += 1
        assert count >= 40

    def test_theta_middle_is_partial_isometry(self):
        for trial in range(60):
            rng = Stream((15, trial), [0])
            fp = random_frames(M2, rng, ranks=(1,))
            fpt = draw_in_chart(rng, fp)
            fl = draw_in_chart(rng, fp)
            fr = draw_in_chart(rng, fpt)
            p, pt = fp.projection[0], fpt.projection[0]
            w = isometry_between(rng, fr, fl)[0]
            try:
                _, m, _ = chart_Theta(p, pt, w, DEFAULT_TOL)
            except NotPartiallyInvertible:
                continue
            assert frobenius(m.conj().T @ m - pt) <= 1e-9
            assert frobenius(m @ m.conj().T - p) <= 1e-9

    def test_involution_on_middle(self):
        # on the middle component the inverse-star involution inverts the
        # positive part: a partial isometry is a fixed point
        m = np.diag([2.0, 0.0]).astype(complex)
        out = jay_corner(m, DEFAULT_TOL)
        assert frobenius(out - np.diag([0.5, 0.0])) <= 1e-12
        assert frobenius(jay_corner(E12, DEFAULT_TOL) - E12) <= 1e-12

    def test_chart_isometry_legs(self):
        for trial in range(60):
            rng = Stream((16, trial), [0])
            f = random_frames(M23, rng, allow_zero=False)
            p = f.projection[0]
            q = draw_in_chart(rng, f).projection[0]
            try:
                u = u_p(p, q, DEFAULT_TOL)
            except NotPartiallyInvertible:
                continue
            assert frobenius(u @ u.conj().T - q) <= 1e-9
            assert frobenius(u.conj().T @ u - p) <= 1e-9


class TestBundleChart:
    def test_oracle(self):
        p0 = np.diag([0.0, 1.0]).astype(complex)
        p = np.diag([1.0, 0.0]).astype(complex)
        y, fibre = theta_P0(p, E12, p0, DEFAULT_TOL)
        assert frobenius(y) <= 1e-12
        assert frobenius(fibre - E12) <= 1e-12
        back = theta_P0_inv(p, (y, fibre), p0, DEFAULT_TOL)
        assert frobenius(back - E12) <= 1e-12

    def test_round_trip_random(self):
        for trial in range(120):
            rng = Stream((17, trial), [0])
            algebra = M2 if trial % 2 == 0 else M23
            f0 = random_frames(algebra, rng, allow_zero=False)
            fq = draw_in_chart(rng, f0)
            p0, q = f0.projection[0], fq.projection[0]
            u = isometry_between(rng, f0, fq)[0]
            p = draw_in_chart(rng, fq).projection[0]
            if not chart_domain_member(p, q, DEFAULT_TOL):
                continue
            try:
                y, w = theta_P0(p, u, p0, DEFAULT_TOL)
                back = theta_P0_inv(p, (y, w), p0, DEFAULT_TOL)
            except NotPartiallyInvertible:
                continue
            assert frobenius(back - u) <= 1e-8
            # the fibre coordinate is a partial isometry p0 -> p
            assert frobenius(w.conj().T @ w - p0) <= 1e-9
            assert frobenius(w @ w.conj().T - p) <= 1e-9

    def test_rejects_non_isometry(self):
        p0 = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(InvalidArrow):
            theta_P0(P, 2.0 * E12, p0, DEFAULT_TOL)

    def test_rejects_wrong_source(self):
        with pytest.raises(InvalidArrow):
            theta_P0(P, E12, P, DEFAULT_TOL)


class TestConnection:
    def test_alpha_on_vertical(self):
        # du = u x with x an anti-Hermitian corner element reproduces x
        p0 = np.diag([0.0, 1.0]).astype(complex)
        x = 1j * np.diag([0.0, 1.0]).astype(complex)
        du = E12 @ x
        assert frobenius(connection_alpha(E12, du) - x) <= 1e-12

    def test_split_and_tangent_guard(self):
        for trial in range(60):
            rng = Stream((18, trial), [0])
            algebra = M2 if trial % 2 == 0 else M23
            f0 = random_frames(algebra, rng, allow_zero=False)
            p0 = f0.projection[0]
            u = isometry_between(rng, f0, equivalent_frames(rng, f0))[0]
            du = p0_tangent(algebra, rng, u, p0)[0]
            # a bundle tangent: du = du p0 and u* du anti-Hermitian
            bound = DEFAULT_TOL.residual_tol * (1.0 + frobenius(du))
            assert frobenius(du @ p0 - du) <= bound
            assert frobenius(u.conj().T @ du + du.conj().T @ u) <= bound
            h, v = hv_split(u, du)
            assert frobenius(h + v - du) <= 1e-12
            assert frobenius(connection_alpha(u, h)) <= 1e-9
            q = u @ u.conj().T
            assert frobenius(q @ v - v) <= 1e-12

    def test_curvature_oracle(self):
        du1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        du2 = 1j * du1
        omega = curvature_Omega(E12, du1, du2)
        assert frobenius(omega - 1j * du1) <= 1e-12

    def test_curvature_antisymmetric_antihermitian(self):
        for trial in range(40):
            rng = Stream((19, trial), [0])
            f0 = random_frames(M23, rng, allow_zero=False)
            p0 = f0.projection[0]
            u = isometry_between(rng, f0, equivalent_frames(rng, f0))[0]
            du1 = p0_tangent(M23, rng, u, p0)[0]
            du2 = p0_tangent(M23, rng, u, p0)[0]
            om = curvature_Omega(u, du1, du2)
            assert frobenius(om + curvature_Omega(u, du2, du1)) <= 1e-12
            assert frobenius(om + om.conj().T) <= 1e-12


class TestOrbitOneForm:
    def test_oracle(self):
        rho0 = NormalFunctional(M2, np.diag([0.0, 2.0]).astype(complex))
        du = 1j * E12
        assert abs(Gamma0(rho0, E12, du, DEFAULT_TOL) + 2.0) <= 1e-12

    def test_exterior_derivative_oracle(self):
        rho0 = NormalFunctional(M2, np.diag([1.0, 2.0]).astype(complex))
        one = np.eye(2, dtype=complex)
        x1 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        x2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) * 1j
        val = dGamma0(rho0, one, x1, x2, DEFAULT_TOL)
        # -i Tr(d0 [x1, x2]) with [x1, x2] = diag(2i, -2i)
        assert abs(val + 2.0) <= 1e-12

    def test_finite_difference_matches(self):
        for trial in range(25):
            rng = Stream((20, trial), [0])
            algebra = M2 if trial % 2 == 0 else M23
            f0 = random_frames(algebra, rng, allow_zero=False)
            p0 = f0.projection[0]
            d0 = positive_on(rng, f0)[0]
            rho0 = NormalFunctional(algebra, d0)
            u = isometry_between(rng, f0, equivalent_frames(rng, f0))[0]
            a = random_antihermitian(algebra, rng)[0]
            b_raw = random_antihermitian(algebra, rng)[0]
            b = p0 @ b_raw @ p0
            exact = dGamma0(rho0, u, a @ u, u @ b, DEFAULT_TOL)
            approx = fd_surface_dGamma0(rho0, u, a, b, 1e-4, DEFAULT_TOL)
            assert abs(exact - approx) <= 1e-6 * (1.0 + abs(exact))

    def test_finite_difference_second_order(self):
        # A rank-2 corner: on a rank-1 corner exp(t b) commutes with the
        # density, the O(h^2) term vanishes and the errors are roundoff.
        rng = Stream((21,), [0])
        f0 = random_frames(M3, rng, ranks=(2,))
        p0 = f0.projection[0]
        rho0 = NormalFunctional(M3, positive_on(rng, f0)[0])
        u = isometry_between(rng, f0, equivalent_frames(rng, f0))[0]
        a = random_antihermitian(M3, rng)[0]
        b = p0 @ random_antihermitian(M3, rng)[0] @ p0
        exact = dGamma0(rho0, u, a @ u, u @ b, DEFAULT_TOL)
        err = [
            abs(fd_surface_dGamma0(rho0, u, a, b, h, DEFAULT_TOL) - exact)
            for h in (1e-3, 5e-4)
        ]
        assert 3.5 <= err[0] / err[1] <= 4.5

    def test_rejects_bad_generators(self):
        rho0 = NormalFunctional(M2, np.diag([0.0, 2.0]).astype(complex))
        herm_a = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        anti_b = 1j * np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(InvalidTangent):
            fd_surface_dGamma0(rho0, E12, herm_a, anti_b, 1e-4, DEFAULT_TOL)
        with pytest.raises(InvalidTangent):
            # generator not supported in the source corner
            fd_surface_dGamma0(
                rho0, E12, 1j * herm_a, 1j * np.diag([1.0, 0.0]).astype(complex),
                1e-4, DEFAULT_TOL,
            )


def _chart_draw(draw, algebra, trials: int, seed: int, select=None) -> list:
    """A random charts row's draw, keyed ``(seed, 0)``, of all ``trials``
    trials or of the trials ``select`` names."""
    ctx = suites.RowCtx(algebra, trials, seed, 0, DEFAULT_TOL)
    return draw(ctx, ctx.stream(select))


TOL = DEFAULT_TOL

#: Each chart map on the data of the charts row that draws its input: the
#: row's draw, and the map called on one trial's data or on their stacks.
STACKED_MAPS = {
    "sigma_p": (suites._draw_round_trip, lambda p, q, *_: sigma_p(p, q, TOL)),
    "phi_p": (suites._draw_round_trip, lambda p, q, *_: phi_p(p, q, TOL)),
    "phi_p_inv": (suites._draw_round_trip, lambda p, q, *_: phi_p_inv(p, phi_p(p, q, TOL), TOL)),
    "transition_L": (suites._draw_cocycle,
                     lambda p, p1, p2, q: transition_L(p, p1, phi_p(p, q, TOL), TOL)),
    "chart_G": (suites._draw_round_trip,
                lambda p, q, p_, pt, wiso, h: chart_G(p_, pt, wiso @ h, TOL)),
    "chart_G_inv": (suites._draw_round_trip, lambda p, q, p_, pt, wiso, h: chart_G_inv(
        p_, pt, chart_G(p_, pt, wiso @ h, TOL), TOL)),
    "chart_Theta": (suites._draw_round_trip,
                    lambda p, q, p_, pt, wiso, h: chart_Theta(p_, pt, wiso @ h, TOL)),
    "chart_Theta_inv": (suites._draw_round_trip, lambda p, q, p_, pt, wiso, h: chart_Theta_inv(
        p_, pt, chart_Theta(p_, pt, wiso @ h, TOL), TOL)),
    "jay_corner": (suites._draw_round_trip, lambda p, q, p_, pt, wiso, h: jay_corner(
        chart_Theta(p_, pt, wiso @ h, TOL)[1], TOL)),
    "theta_P0": (suites._draw_theta, lambda p0, q, p, u: theta_P0(p, u, p0, TOL)),
    "theta_P0_inv": (suites._draw_theta, lambda p0, q, p, u: theta_P0_inv(
        p, theta_P0(p, u, p0, TOL), p0, TOL)),
    "hv_split": (suites._draw_connection, lambda rho0, u, du1, du2, x1: hv_split(u, du1)),
    "connection_alpha": (suites._draw_connection,
                         lambda rho0, u, du1, du2, x1: connection_alpha(u, du1)),
    "curvature_Omega": (suites._draw_connection,
                        lambda rho0, u, du1, du2, x1: curvature_Omega(u, du1, du2)),
    "Gamma0": (suites._draw_connection,
               lambda rho0, u, du1, du2, x1: Gamma0(rho0, u, du1, TOL)),
    "dGamma0": (suites._draw_connection,
                lambda rho0, u, du1, du2, x1: dGamma0(rho0, u, du1, du2, TOL)),
}


def _outputs(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def _bits(value) -> bytes:
    return np.asarray(value).tobytes()


class TestStackedCharts:
    """Every chart map acts per matrix of a stack: on the stack of a row's
    trials, each trial gets the bits it gets in a stack of one and alone."""

    @pytest.mark.parametrize("shape", ["2,3", "1,2,2", "4,4,4,4", "12"])
    @pytest.mark.parametrize("name", sorted(STACKED_MAPS))
    def test_trials_are_independent(self, name, shape):
        algebra = BlockAlgebra.from_string(shape)
        draw, call = STACKED_MAPS[name]
        drawn = _chart_draw(draw, algebra, 12, 35)
        assert len(set(np.linalg.matrix_rank(drawn[1]).tolist())) > 1
        stacked = _outputs(call(*drawn))
        for k in range(12):
            data = _chart_draw(draw, algebra, 12, 35, [k])
            alone = _outputs(call(*data))
            unstacked = _outputs(call(*(x[0] for x in data)))
            assert len(stacked) == len(alone) == len(unstacked)
            for s, a, u in zip(stacked, alone, unstacked):
                assert s.shape[0] == 12 and a.shape[0] == 1
                assert _bits(s[k]) == _bits(a[0]) == _bits(u), (name, k)

    @pytest.mark.parametrize("draw, call, spoil, scale, error", [
        # q of rank 0 is outside the chart of p.
        (suites._draw_round_trip, lambda p, q, *_: sigma_p(p, q, TOL), 1, 0.0, NotInDomain),
        # The chart of p1 = 0 holds 0 alone, not the charted q.
        (suites._draw_cocycle, lambda p, p1, p2, q: transition_L(p, p1, phi_p(p, q, TOL), TOL),
         1, 0.0, NotInOverlap),
        # 2 u is no partial isometry.
        (suites._draw_theta, lambda p0, q, p, u: theta_P0(p, u, p0, TOL), 3, 2.0, InvalidArrow),
    ], ids=["sigma_p", "transition_L", "theta_P0"])
    def test_failing_trial_is_named(self, draw, call, spoil, scale, error):
        drawn = _chart_draw(draw, M23, 10, 36)
        call(*(x[7] for x in drawn))  # trial 7 alone is good
        drawn[spoil][7] *= scale
        with pytest.raises(error):
            call(*(x[7] for x in drawn))
        with pytest.raises(error, match="at trial 7$"):
            call(*drawn)
        others = np.arange(10) != 7
        call(*(x[others] for x in drawn))  # the others pass

    def test_cocycle_row_names_a_trial_outside_the_overlap(self):
        # The row calls transition_L directly: a trial outside the overlap is
        # refused as such, once, not redrawn with the same inputs until the
        # retries run out.  The row draws all its trials at once.
        draws = []

        def spoiled(ctx, rngs):
            data = suites._draw_cocycle(ctx, rngs)
            draws.append(None)
            data[1][7] = 0.0  # trial 7
            return data

        ctx = suites.RowCtx(M23, 10, 1, 1, DEFAULT_TOL)
        with pytest.raises(NotInOverlap, match="outside the chart of p_new at trial 7$"):
            suites._check_cocycle(ctx, *spoiled(ctx, ctx.stream()))
        assert len(draws) == 1

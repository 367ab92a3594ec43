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
from wstargeo.errors import NotPartiallyInvertible
from wstargeo.sampling import (
    corner_positive,
    equivalent_frames,
    frames_of,
    p0_tangent,
    partial_isometry_onto,
    random_antihermitian,
    random_projection,
    rng_for,
)

M2 = BlockAlgebra((2,))
M3 = BlockAlgebra((3,))
M23 = BlockAlgebra((2, 3))

P = np.diag([1.0, 0.0]).astype(complex)
Q_HALF = 0.5 * np.ones((2, 2), dtype=complex)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def draw_in_chart(algebra, rng, p, max_tries=64):
    """Equivalent projection lying in the chart domain of p."""
    for _ in range(max_tries):
        q = equivalent_frames(rng, frames_of(algebra, p)).projection
        if chart_domain_member(p, q, DEFAULT_TOL):
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
            rng = rng_for(11, trial)
            algebra = M2 if trial % 2 == 0 else M23
            p = random_projection(algebra, rng, allow_zero=False)
            q = draw_in_chart(algebra, rng, p)
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
            rng = rng_for(12, trial)
            algebra = M2 if trial % 2 == 0 else M23
            p1 = random_projection(algebra, rng, allow_zero=False)
            p2 = draw_in_chart(algebra, rng, p1)
            q = draw_in_chart(algebra, rng, p1)
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
            rng = rng_for(13, trial)
            p1 = random_projection(M2, rng, ranks=(1,))
            p2 = draw_in_chart(M2, rng, p1)
            p3 = draw_in_chart(M2, rng, p1)
            q = draw_in_chart(M2, rng, p1)
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
    def draw_element(self, algebra, rng):
        p = random_projection(algebra, rng, allow_zero=False, allow_full=False)
        pt = draw_in_chart(algebra, rng, p)
        l = draw_in_chart(algebra, rng, p)
        r = draw_in_chart(algebra, rng, pt)
        # ranks of l and r must agree blockwise for a partial isometry l <- r
        w = partial_isometry_onto(algebra, rng, r, l)
        x = w @ corner_positive(algebra, rng, r)
        return p, pt, x

    def test_round_trips(self):
        count = 0
        for trial in range(150):
            rng = rng_for(14, trial)
            algebra = M2 if trial % 2 == 0 else M23
            p = random_projection(algebra, rng, allow_zero=False, allow_full=False)
            pt = draw_in_chart(algebra, rng, p)
            l = draw_in_chart(algebra, rng, p)
            if not chart_domain_member(pt, l, DEFAULT_TOL):
                continue
            r = draw_in_chart(algebra, rng, pt)
            w = partial_isometry_onto(algebra, rng, r, l)
            x = w @ corner_positive(algebra, rng, r)
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
            rng = rng_for(15, trial)
            p = random_projection(M2, rng, ranks=(1,))
            pt = draw_in_chart(M2, rng, p)
            l = draw_in_chart(M2, rng, p)
            r = draw_in_chart(M2, rng, pt)
            w = partial_isometry_onto(M2, rng, r, l)
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
            rng = rng_for(16, trial)
            p = random_projection(M23, rng, allow_zero=False)
            q = draw_in_chart(M23, rng, p)
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
            rng = rng_for(17, trial)
            algebra = M2 if trial % 2 == 0 else M23
            p0 = random_projection(algebra, rng, allow_zero=False)
            q = draw_in_chart(algebra, rng, p0)
            u = partial_isometry_onto(algebra, rng, p0, q)
            p = draw_in_chart(algebra, rng, q)
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
            rng = rng_for(18, trial)
            algebra = M2 if trial % 2 == 0 else M23
            p0 = random_projection(algebra, rng, allow_zero=False)
            u = partial_isometry_onto(
                algebra, rng, p0, equivalent_frames(rng, frames_of(algebra, p0)).projection
            )
            du = p0_tangent(algebra, rng, u, p0)
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
            rng = rng_for(19, trial)
            p0 = random_projection(M23, rng, allow_zero=False)
            u = partial_isometry_onto(
                M23, rng, p0, equivalent_frames(rng, frames_of(M23, p0)).projection
            )
            du1 = p0_tangent(M23, rng, u, p0)
            du2 = p0_tangent(M23, rng, u, p0)
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
            rng = rng_for(20, trial)
            algebra = M2 if trial % 2 == 0 else M23
            p0 = random_projection(algebra, rng, allow_zero=False)
            d0 = corner_positive(algebra, rng, p0)
            rho0 = NormalFunctional(algebra, d0)
            u = partial_isometry_onto(
                algebra, rng, p0, equivalent_frames(rng, frames_of(algebra, p0)).projection
            )
            a = random_antihermitian(algebra, rng)
            b_raw = random_antihermitian(algebra, rng)
            b = p0 @ b_raw @ p0
            exact = dGamma0(rho0, u, a @ u, u @ b, DEFAULT_TOL)
            approx = fd_surface_dGamma0(rho0, u, a, b, 1e-4, DEFAULT_TOL)
            assert abs(exact - approx) <= 1e-6 * (1.0 + abs(exact))

    def test_finite_difference_second_order(self):
        # A rank-2 corner: on a rank-1 corner exp(t b) commutes with the
        # density, the O(h^2) term vanishes and the errors are roundoff.
        rng = rng_for(21)
        p0 = random_projection(M3, rng, ranks=(2,))
        rho0 = NormalFunctional(M3, corner_positive(M3, rng, p0))
        u = partial_isometry_onto(M3, rng, p0, equivalent_frames(rng, frames_of(M3, p0)).projection)
        a = random_antihermitian(M3, rng)
        b = p0 @ random_antihermitian(M3, rng) @ p0
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

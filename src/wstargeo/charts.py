"""Charts on projection orbits and on the partial-isometry groupoid.

Around a base projection ``p`` the equivalent projections ``q`` with
invertible overlap ``p q`` form a chart domain.  The chart sends ``q`` to the
off-diagonal coordinate ``y = (p q)^+ - p`` (``^+`` the partial inverse), and
its inverse recovers ``q`` as the left support of ``p + y``.  Transition maps
between overlapping charts are matrix fractional-linear.  The same overlap
data charts the groupoid of partially invertible elements (three-component
charts: source coordinate, middle corner, target coordinate) and, in a
polar-corrected form, the groupoid of partial isometries, where the inversion
acts on the middle component alone.

Each chart leg factors its overlap once: :func:`sigma_p` decides the domain
from the singular values of the SVD of ``p q`` that it then inverts (first the
unguarded rank, raising :class:`NotInDomain`, then the guard of the partial
inverse), and the polar-corrected charts read the coordinate ``sigma - p``
and the isometry ``u_p``, the polar part of ``sigma``, off that one ``sigma``.

The bundle of partial isometries with fixed source carries the canonical
connection ``u -> u* du``; its curvature and the orbit one-form
``Gamma0(u)(du) = Re(i Tr(d u* du))`` with exterior derivative
``i Tr(d (du1* du2 - du2* du1))`` are evaluated here, together with a
finite-difference surface integral that recovers the exterior derivative
from ``Gamma0`` alone.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .algebra import NormalFunctional, functional_support
from .errors import InvalidArrow, InvalidTangent, NotInDomain, NotInOverlap
from .linalg import (
    DEFAULT_TOL,
    ToleranceProfile,
    _pinv_from_svd,
    expect_real,
    frobenius,
    is_partial_isometry,
    left_support,
    partial_inverse,
    polar_decompose,
    projection_rank,
    retained_rank,
    singular_values,
    svd,
)

# ---------------------------------------------------------------------------
# projection charts


def chart_domain_member(
    p: np.ndarray, q: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> bool:
    """True when q lies in the chart domain of p: the overlap p q has full
    rank relative to both projections (rank(p q) = rank p = rank q)."""
    return _in_chart_domain(p, q, singular_values(p @ q), tol)


def _in_chart_domain(
    p: np.ndarray, q: np.ndarray, s: np.ndarray, tol: ToleranceProfile
) -> bool:
    """The chart-domain rank rule, rank(p q) = rank p = rank q, with the
    rank of p q read off its descending singular values ``s`` (unguarded)
    and the ranks of p and q off their traces."""
    rp = projection_rank(p)
    return rp == projection_rank(q) and retained_rank(s, tol) == rp


def sigma_p(
    p: np.ndarray, q: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """Overlap inverse x = (p q)^+, the element with (p q) x = p and
    x (p q) = q; raises NotInDomain when q is outside the chart of p.

    One SVD of p q decides the domain (unguarded rank) and then, guarded
    like :func:`partial_inverse`, gives the inverse."""
    w, s, vh = svd(p @ q)
    if not _in_chart_domain(p, q, s, tol):
        raise NotInDomain("q is outside the chart domain of p")
    return _pinv_from_svd(w, s, vh, tol)


def phi_p(
    p: np.ndarray, q: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """Chart coordinate y = (p q)^+ - p, supported on (1-p) . p."""
    return sigma_p(p, q, tol) - p


def phi_p_inv(
    p: np.ndarray, y: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """Inverse chart: the projection q = left support of p + y."""
    return left_support(p + y, tol)


def transition_L(
    p: np.ndarray,
    p_new: np.ndarray,
    y: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> np.ndarray:
    """Fractional-linear transition between the charts of p and p_new:
    y -> (b + d y)(a + c y)^+ with a = p' p, b = (1-p') p, c = p'(1-p),
    d = (1-p')(1-p).  Requires the charted projection to lie in both
    domains."""
    q = phi_p_inv(p, y, tol)
    if not chart_domain_member(p_new, q, tol):
        raise NotInOverlap("the charted projection is outside the chart of p_new")
    n = p.shape[0]
    one = np.eye(n, dtype=complex)
    a = p_new @ p
    b = (one - p_new) @ p
    c = p_new @ (one - p)
    d = (one - p_new) @ (one - p)
    return (b + d @ y) @ partial_inverse(a + c @ y, tol)


# ---------------------------------------------------------------------------
# groupoid charts


def chart_G(
    p: np.ndarray,
    p_tilde: np.ndarray,
    x: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chart a partially invertible x near the corner p . p_tilde as
    (phi_p(l), (p l) x ((p_tilde r)^+)*-free middle, phi_{p_tilde}(r)) where
    l, r are the left and right supports of x.  The middle component
    (p l) x sigma_{p_tilde}(r) lands in the p . p_tilde corner."""
    l = left_support(x, tol)
    r = left_support(x.conj().T, tol)
    y_l = phi_p(p, l, tol)
    sigma_r = sigma_p(p_tilde, r, tol)
    middle = (p @ l) @ x @ sigma_r
    return y_l, middle, sigma_r - p_tilde


def chart_G_inv(
    p: np.ndarray,
    p_tilde: np.ndarray,
    coords: tuple[np.ndarray, np.ndarray, np.ndarray],
    tol: ToleranceProfile = DEFAULT_TOL,
) -> np.ndarray:
    """Inverse groupoid chart: x = sigma_p(l) z (p_tilde r) from coordinates
    (y_l, z, y_r)."""
    y_l, z, y_r = coords
    l = phi_p_inv(p, y_l, tol)
    r = phi_p_inv(p_tilde, y_r, tol)
    return sigma_p(p, l, tol) @ z @ (p_tilde @ r)


def u_p(
    p: np.ndarray, q: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """Polar isometry of the overlap inverse: the partial isometry with
    u_p u_p* = q and u_p* u_p = p singled out by the chart of p."""
    u, _ = polar_decompose(sigma_p(p, q, tol), tol)
    return u


def _chart_leg(
    p: np.ndarray, q: np.ndarray, tol: ToleranceProfile
) -> tuple[np.ndarray, np.ndarray]:
    """``(phi_p(q), u_p(q))`` read off one overlap inverse sigma_p(q)."""
    sigma = sigma_p(p, q, tol)
    u, _ = polar_decompose(sigma, tol)
    return sigma - p, u


def chart_Theta(
    p: np.ndarray,
    p_tilde: np.ndarray,
    x: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polar-corrected groupoid chart (y_l, m, y_r) with middle
    m = u_p(l)* x u_{p_tilde}(r); when x is a partial isometry the middle is
    itself a partial isometry with m* m = p_tilde."""
    l = left_support(x, tol)
    r = left_support(x.conj().T, tol)
    y_l, u_l = _chart_leg(p, l, tol)
    y_r, u_r = _chart_leg(p_tilde, r, tol)
    return y_l, u_l.conj().T @ x @ u_r, y_r


def chart_Theta_inv(
    p: np.ndarray,
    p_tilde: np.ndarray,
    coords: tuple[np.ndarray, np.ndarray, np.ndarray],
    tol: ToleranceProfile = DEFAULT_TOL,
) -> np.ndarray:
    """Inverse polar-corrected chart: x = u_p(l) m u_{p_tilde}(r)*."""
    y_l, m, y_r = coords
    l = phi_p_inv(p, y_l, tol)
    r = phi_p_inv(p_tilde, y_r, tol)
    return u_p(p, l, tol) @ m @ u_p(p_tilde, r, tol).conj().T


def jay_corner(m: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Action of the involution x -> (partial inverse)* on the middle chart
    component: the chart legs are untouched and the middle maps to
    (partial inverse of m)*."""
    return partial_inverse(m, tol).conj().T


# ---------------------------------------------------------------------------
# isometry-bundle chart over a base projection


def theta_P0(
    p: np.ndarray,
    u: np.ndarray,
    p0: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Chart the bundle of partial isometries with source p0 near the fibre
    over p: u -> (phi_p(u u*), ((p u u* p)^+)^{1/2} u).  The second component
    is the fibre coordinate u_{p}(u u*)* u, a partial isometry from p0 to p."""
    if not is_partial_isometry(u, tol):
        raise InvalidArrow("u is not a partial isometry")
    if frobenius(u.conj().T @ u - p0) > tol.residual_tol * (1.0 + frobenius(p0)):
        raise InvalidArrow("u* u is not the base projection")
    y, w = _chart_leg(p, u @ u.conj().T, tol)
    return y, w.conj().T @ u


def theta_P0_inv(
    p: np.ndarray,
    coords: tuple[np.ndarray, np.ndarray],
    p0: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> np.ndarray:
    """Inverse bundle chart: u = u_p(q) w from (y, w) with q the projection
    charted by y."""
    y, w = coords
    q = phi_p_inv(p, y, tol)
    return u_p(p, q, tol) @ w


# ---------------------------------------------------------------------------
# connection, curvature, orbit one-form


def connection_alpha(u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Canonical connection form alpha_u(du) = u* du."""
    return u.conj().T @ du


def hv_split(u: np.ndarray, du: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a bundle tangent into horizontal (1 - u u*) du and vertical
    u u* du components."""
    q = u @ u.conj().T
    vertical = q @ du
    return du - vertical, vertical


def curvature_Omega(
    u: np.ndarray, du1: np.ndarray, du2: np.ndarray
) -> np.ndarray:
    """Curvature of the canonical connection:
    Omega_u(du1, du2) = (du1* (1 - u u*) du2 - du2* (1 - u u*) du1) / 2."""
    n = u.shape[0]
    comp = np.eye(n, dtype=complex) - u @ u.conj().T
    return 0.5 * (du1.conj().T @ comp @ du2 - du2.conj().T @ comp @ du1)


def Gamma0(
    rho0: NormalFunctional,
    u: np.ndarray,
    du: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> float:
    """Orbit one-form Gamma0(u)(du) = Re(i Tr(d0 u* du)) for the base
    density d0."""
    value = 1j * np.trace(rho0.density @ u.conj().T @ du)
    return float(value.real)


def dGamma0(
    rho0: NormalFunctional,
    u: np.ndarray,
    du1: np.ndarray,
    du2: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> float:
    """Exterior derivative of the orbit one-form on the isometry bundle:
    dGamma0_u(du1, du2) = i Tr(d0 (du1* du2 - du2* du1)).

    On a vertical pair du_j = u x_j this is -i Tr(d0 [x1, x2]); on a
    horizontal pair it is i Tr(d0 (h1* h2 - h2* h1)); the mixed terms vanish
    because u* h = 0."""
    d0 = rho0.density
    value = 1j * np.trace(d0 @ (du1.conj().T @ du2 - du2.conj().T @ du1))
    return expect_real(value, tol, "exterior derivative of the orbit one-form")


def fd_surface_dGamma0(
    rho0: NormalFunctional,
    u: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    step: float = 1e-4,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> float:
    """Finite-difference exterior derivative of Gamma0 on the coordinate
    surface u(s, t) = exp(s a) u exp(t b): central differences of the two
    partial pairings

        d/ds Gamma0(u(s,0))(u(s,0) b) - d/dt Gamma0(u(0,t))(a u(0,t))

    evaluated at the origin; converges to dGamma0(a u, u b) at second order
    in ``step``.  ``a`` must be anti-Hermitian and ``b`` an anti-Hermitian
    corner element of the source projection."""
    p0 = functional_support(rho0, tol)
    if frobenius(a + a.conj().T) > tol.residual_tol * (1.0 + frobenius(a)):
        raise InvalidTangent("the left generator is not anti-Hermitian")
    corner_gap = max(
        frobenius(p0 @ b @ p0 - b),
        frobenius(b + b.conj().T),
    )
    if corner_gap > tol.residual_tol * (1.0 + frobenius(b)):
        raise InvalidTangent(
            "the right generator is not an anti-Hermitian corner element"
        )

    def g_t(s: float) -> float:
        us = scipy.linalg.expm(s * a) @ u
        return Gamma0(rho0, us, us @ b, tol)

    def g_s(t: float) -> float:
        ut = u @ scipy.linalg.expm(t * b)
        return Gamma0(rho0, ut, a @ ut, tol)

    return (g_t(step) - g_t(-step) - g_s(step) + g_s(-step)) / (2.0 * step)

"""
Charts on the projection manifold and the bundle connection
===========================================================

Projections of a fixed rank form a manifold.  Around a base projection p the
chart sends a nearby projection q to the corner coordinate y = (pq)^+ - p,
and two overlapping charts are glued by a fractional-linear transition map.
On top of the projection manifold sits the bundle of partial isometries with
a fixed source; its canonical connection u* du splits tangents into
horizontal and vertical parts and measures curvature.  This script runs the
round trips, the cocycle, and the connection identities on explicit data.
"""

import numpy as np

from wstargeo import (
    DEFAULT_TOL,
    BlockAlgebra,
    Gamma0,
    NotInDomain,
    chart_domain_member,
    connection_alpha,
    curvature_Omega,
    dGamma0,
    fd_surface_dGamma0,
    frobenius,
    hv_split,
    phi_p,
    phi_p_inv,
    sigma_p,
    theta_P0,
    theta_P0_inv,
    transition_L,
)
from wstargeo import sampling

np.set_printoptions(precision=4, suppress=True)

algebra = BlockAlgebra((2,))
p = np.diag([1.0, 0.0]).astype(complex)
q = 0.5 * np.ones((2, 2), dtype=complex)  # projection onto span(e1 + e2)

# --- the chart around p -------------------------------------------------------
# q lies in the chart around p exactly when the corner pq has full rank
# against both supports.
print("q in the chart around p:", chart_domain_member(p, q, DEFAULT_TOL))
y = phi_p(p, q, DEFAULT_TOL)
print("chart coordinate y =")
print(y)
print("coordinate lives in the complementary corner (1-p) y p:",
      frobenius(y - (np.eye(2) - p) @ y @ p))
back = phi_p_inv(p, y, DEFAULT_TOL)
print("round trip back to q:", frobenius(back - q))

# The chart refuses projections with the wrong corner rank.
try:
    phi_p(p, np.diag([0.0, 1.0]).astype(complex), DEFAULT_TOL)
except NotInDomain as exc:
    print("orthogonal projection rejected:", exc)

# --- transitions between overlapping charts ------------------------------------
# Reading the same q in the chart around q itself gives coordinate 0; the
# transition map reproduces that directly from y without reconstructing q.
moved = transition_L(p, q, y, DEFAULT_TOL)
print("\ntransition to the chart at q sends y to 0:", frobenius(moved))
print("sigma slice at p of q =")
print(sigma_p(p, q, DEFAULT_TOL))

# --- the frame bundle over the orbit -------------------------------------------
# One trial drawn from a stream: each sampler returns a stack of one.  The
# arrow u is built from the frames of its source p0 and its target, as drawn.
rng = sampling.Stream((2026, 3), [0])
algebra5 = BlockAlgebra((2, 3))
f0 = sampling.random_frames(algebra5, rng, allow_zero=False)
ft = sampling.equivalent_frames(rng, f0)
p0, target = f0.projection[0], ft.projection[0]
u = sampling.isometry_between(rng, f0, ft)[0]

# Bundle chart around the fibre over the target: u is encoded by the base
# coordinate of its target together with a fibre isometry; the round trip
# reproduces u.
y0, fibre = theta_P0(target, u, p0, DEFAULT_TOL)
u_back = theta_P0_inv(target, (y0, fibre), p0, DEFAULT_TOL)
print("\nbundle chart round trip:", frobenius(u_back - u))

# Tangent directions split into a horizontal part killed by the connection
# and a vertical part it reproduces.
du = sampling.p0_tangent(algebra5, rng, u, p0)[0]
h, v = hv_split(u, du)
alpha_h = connection_alpha(u, h)
alpha_v = connection_alpha(u, v)
print("connection kills the horizontal part:", frobenius(alpha_h))
print("connection reproduces the vertical part:",
      frobenius(u @ alpha_v - v))
print("split reassembles the tangent:", frobenius(h + v - du))

# Curvature pairs two tangents into an anti-Hermitian corner element.
du2 = sampling.p0_tangent(algebra5, rng, u, p0)[0]
omega = curvature_Omega(u, du, du2)
print("curvature is anti-Hermitian:", frobenius(omega + omega.conj().T))
print("curvature is antisymmetric:",
      frobenius(omega + curvature_Omega(u, du2, du)))

# --- the orbit one-form ---------------------------------------------------------
# Gamma0 pairs a fibre density with the connection; its exterior derivative
# has a closed form, and a centered finite difference of Gamma0 over a
# two-parameter surface reproduces it to second order.
rho0 = sampling.density_on(rng, f0)[0]
a = sampling.unit_norm(sampling.random_antihermitian(algebra5, rng))[0]
b = sampling.unit_norm(sampling.corner_antihermitian(algebra5, rng, p0))[0]
exact = dGamma0(rho0, u, a @ u, u @ b, DEFAULT_TOL)
approx = fd_surface_dGamma0(rho0, u, a, b, 1e-4, DEFAULT_TOL)
print("\nGamma0 at (rho0, u):", Gamma0(rho0, u, a @ u, DEFAULT_TOL))
print("exterior derivative, closed form:", exact)
print("finite-difference surface value: ", approx)
print("difference:", abs(exact - approx))

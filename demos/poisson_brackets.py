"""
Two Poisson brackets and the bridge between them
================================================

Functionals on the algebra carry the Lie-Poisson bracket
{f, g}(phi) = -i Tr(d [df, dg]); vectors in the standard form carry the
canonical bracket of the symplectic form 2 Im <.|.>.  Pulling observables
back along the expectations turns the second into the first, the two
expectations are symplectically orthogonal to each other, and on a rank-one
orbit everything collapses to the Fubini-Study form of projective space.
"""

import numpy as np

from wstargeo import (
    DEFAULT_TOL,
    BlockAlgebra,
    NormalFunctional,
    Observable,
    calibrate_kappa,
    commutant_bracket_check,
    dual_pair_orthogonality_check,
    expectation_E,
    feynman_amplitude,
    fubini_study_compare,
    hamiltonian_field,
    jacobi_residual,
    kks_check,
    leibniz_residual,
    lp_bracket,
    poisson_map_residual,
    symplectic_omega,
)
from wstargeo import sampling

np.set_printoptions(precision=4, suppress=True)

algebra = BlockAlgebra((2,))
sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sy = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sz = np.diag([1.0, -1.0]).astype(complex)
phi = NormalFunctional(algebra, np.diag([1.0, 0.0]).astype(complex))

# --- the Lie-Poisson bracket ------------------------------------------------------
# Linear observables f_x(phi) = Re phi(x) close the Lie algebra: the spin
# commutation relations appear as bracket values.
fx, fy, fz = (Observable.linear(s, DEFAULT_TOL) for s in (sx, sy, sz))
print("{f_x, f_y} at the north pole:", lp_bracket(fx, fy, phi, DEFAULT_TOL))
print("f_z at the north pole:      ", fz.value(phi))

# The Hamiltonian field of f_x rotates the density: it is Hermitian,
# traceless, and tangent to the unitary orbit.
field = hamiltonian_field(fx, phi, DEFAULT_TOL)
print("Hamiltonian field of f_x =")
print(field)

# Jacobi and Leibniz hold at machine precision for smooth observables.
rng = sampling.Stream((2026, 8), [0])  # one trial: each draw is a stack of one
psi = sampling.random_density(algebra, rng)[0]
print("Jacobi residual: ", jacobi_residual(sx, sy, sz, psi, DEFAULT_TOL))
print("Leibniz residual:", leibniz_residual(fx, fy, fz, psi, DEFAULT_TOL))

# --- the canonical bracket upstairs -----------------------------------------------
# Pulled back along the left expectation E(g) = g g*, the linear observable
# f_x becomes F_x(g) = Re <g|x g>, with gradient x g.  The canonical bracket
# of two pullbacks is omega of their gradients, and it descends to the
# Lie-Poisson bracket: E is a Poisson map.  Observables pulled back along E
# and along the right expectation E'(g) = g* g Poisson-commute.
g = sampling.random_element(algebra, rng)[0]
print("\ncanonical bracket {F_x, F_y}(g):", symplectic_omega(sx @ g, sy @ g))
print("Lie-Poisson bracket after E:    ",
      lp_bracket(fx, fy, expectation_E(algebra, g), DEFAULT_TOL))
print("Poisson-map residual:", *poisson_map_residual([(fx, fy)], algebra, g, DEFAULT_TOL))
print("{f_x o E, f_y o E'}(g):", commutant_bracket_check(fx, fy, algebra, g, DEFAULT_TOL))

# The two expectations form a dual pair: their fibre directions are
# symplectically orthogonal, with complementary dimensions.
report = dual_pair_orthogonality_check(algebra, g, DEFAULT_TOL)
print("dual-pair orthogonality:", report.orthogonality)

# --- the orbit form and projective space --------------------------------------------
# On lifts a1 g0, a2 g0 of orbit directions the symplectic form equals the
# calibrated moment pairing kappa 2 Im Tr(g0 g0* a1 a2).
a1 = 1j * sx
a2 = 1j * sy
kks = kks_check(phi, a1, a2, DEFAULT_TOL)
print(f"\nkappa = {calibrate_kappa():+.1f}")
print(f"omega on lifts = {kks.omega:+.4f}, moment pairing = {kks.moment:+.4f},"
      f" residual = {kks.residual:.3e}")

# A rank-one orbit of radius r is projective space with r times the
# Fubini-Study form.
delta = np.array([1.0, 0.0], dtype=complex)
X = np.array([0.0, 1.0], dtype=complex)
Y = 1j * X
fs = fubini_study_compare(1.0, delta, X, Y, DEFAULT_TOL)
print(f"omega on the rank-one orbit = {fs.omega:+.4f},"
      f" Fubini-Study value = {fs.fs_value:+.4f}")

# Successive overlaps of unit vectors multiply like one-dimensional arrows.
e1 = np.array([1.0, 0.0], dtype=complex)
mid = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
amp = feynman_amplitude([e1, mid, np.array([0.0, 1.0], dtype=complex)], DEFAULT_TOL)
print(f"\npath amplitude e1 -> (e1+e2)/sqrt2 -> e2: {amp.amplitude:+.4f},"
      f" probability {amp.probability:.4f} over {amp.steps} steps")

"""
The standard form and the modular flow
======================================

The algebra acts on itself as a Hilbert space with inner product
<x|y> = Tr(x* y).  Vectors carry two expectations -- densities g g* and
g* g -- and compose as arrows between them.  A faithful positive functional
equips this space with modular data: the operator Delta, the conjugation J,
and a one-parameter flow that preserves every piece of the structure.  This
script builds all of it on explicit matrices.
"""

import numpy as np

from wstargeo import (
    DEFAULT_TOL,
    BlockAlgebra,
    NormalFunctional,
    NotComposable,
    conjugation_J,
    expectation_E,
    expectation_Eprime,
    frobenius,
    iso_Phi,
    iso_Phi_inv,
    modular_Delta,
    modular_flow,
    std_mul,
    std_unit,
    symplectic_omega,
    tomita_S,
)
from wstargeo import sampling
from wstargeo.standard import flow_residuals, flow_sample

np.set_printoptions(precision=4, suppress=True)

algebra = BlockAlgebra((2,))

# --- vectors as arrows ----------------------------------------------------------
g1 = np.array([[0.0, 0.0], [2.0, 0.0]], dtype=complex)
g2 = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
print("left density of g2  (target):", expectation_E(algebra, g2).density.diagonal().real)
print("right density of g2 (source):", expectation_Eprime(algebra, g2).density.diagonal().real)

# Arrows compose when the source of the first matches the target of the
# second; the product multiplies the isometry parts and keeps the modulus of
# the second factor.
prod = std_mul(g1, g2, DEFAULT_TOL)
print("g1 . g2 =")
print(prod)
print("source of the product = source of g2:",
      frobenius(expectation_Eprime(algebra, prod).density
                - expectation_Eprime(algebra, g2).density))

# Mismatched arrows refuse to compose.
try:
    std_mul(g2, g2, DEFAULT_TOL)
except NotComposable:
    print("g2 . g2 rejected: target of the second is not the source of the first")

# The unit at a functional is the canonical cone vector d^{1/2}.
phi = NormalFunctional(algebra, np.diag([0.0, 9.0]).astype(complex))
unit = std_unit(phi, DEFAULT_TOL)
print("unit vector at diag(0, 9):")
print(unit)
print("absorbs on the left:", frobenius(std_mul(unit, unit, DEFAULT_TOL) - unit))

# Phi dresses a coadjoint arrow (u, rho) as the vector u d_rho^{1/2} and back.
u = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
g = iso_Phi(u, phi, DEFAULT_TOL)
u_back, source_back = iso_Phi_inv(algebra, g, DEFAULT_TOL)
print("\nPhi(u, rho) =")
print(g)
print("round trip recovers the isometry:", frobenius(u_back - u))
print("and the source functional:", source_back.distance(phi))

# --- modular data of a faithful state --------------------------------------------
# Every piece is read from the one eigendecomposition the functional keeps.
state = NormalFunctional(algebra, np.diag([1.0, 4.0]).astype(complex))
omega = std_unit(state, DEFAULT_TOL)

# S is the closure of x d^{1/2} -> x* d^{1/2}; it factors as J Delta^{1/2}.
x = sampling.random_element(algebra, sampling.Stream((2026, 5), [0]))[0]
vec = x @ omega
print("\nS(x Omega) = x* Omega residual:",
      frobenius(tomita_S(state, vec, DEFAULT_TOL) - x.conj().T @ omega))
print("S = J Delta^{1/2} residual:",
      frobenius(tomita_S(state, vec, DEFAULT_TOL)
                - conjugation_J(modular_Delta(state, vec, 0.5, DEFAULT_TOL))))

# The flow g -> d^{it} g d^{-it} fixes the cone vector and acts
# symplectically.
t = 0.7
flow = modular_flow(state, t, DEFAULT_TOL)
print("flow fixes the canonical vector:", frobenius(flow(omega) - omega))
h = sampling.random_element(algebra, sampling.Stream((2026, 6), [0]))[0]
print("flow preserves the symplectic form:",
      abs(symplectic_omega(flow(x), flow(h)) - symplectic_omega(x, h)))

# One call checks every invariance on a stack of 25 sampled configurations,
# drawn at once from a stream of 25 trials, and gives one residual per
# sample; keep the worst of each.  The cone residual is how far a flowed positive element
# is from positive and Hermitian.
t, samples = 1.7, 25
draws = flow_sample(algebra, sampling.Stream((11,), range(samples)))
residuals = flow_residuals(state, t, *draws)
print(f"\nflow invariances at t = {t} over {samples} samples:")
for name, values in sorted(residuals.items()):
    print(f"  {name:<18} {values.max():.3e}")

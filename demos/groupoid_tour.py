"""
Five pictures of one groupoid
=============================

Partial isometries compose like arrows: u is an arrow from its source
projection u*u to its target uu*, and two arrows compose exactly when the
source of the first matches the target of the second.  The same arrows can
be dressed up four more ways -- as partially invertible matrices, as
functionals with a polar angle, as pairs (isometry, positive functional)
acting on the coadjoint side, and as vectors of the standard form.  This
script composes chains in all five pictures, checks the groupoid laws, and
crosses between pictures with the structure-preserving maps.
"""

import numpy as np

from wstargeo import (
    DEFAULT_TOL,
    BlockAlgebra,
    GROUPOIDS,
    NotComposable,
    axiom_check,
    chain_law_residuals,
    coadjoint_apply,
    composable_chain,
    frobenius,
    g_compose,
    g_inverse,
    g_source,
    g_target,
    iso_Xi,
    jay,
    pi_compose,
    pi_source,
    pi_target,
)
from wstargeo import sampling

np.set_printoptions(precision=4, suppress=True)

algebra = BlockAlgebra((2, 3))
# The chains are drawn from a stream of one trial: each arrow is a stack of
# one, and [a[0] for a in ...] takes its one arrow.
rng = sampling.Stream((2026, 1), [0])

# --- the isometry picture ---------------------------------------------------
# Draw a composable chain u1, u2, u3 with source(u_i) = target(u_{i+1}).
u1, u2, u3 = [a[0] for a in composable_chain("pi", algebra, rng, 3)]
print("source of u1 = target of u2 residual:",
      frobenius(pi_source(u1) - pi_target(u2)))
prod = pi_compose(u1, u2, DEFAULT_TOL)
print("composite is again a partial isometry:",
      frobenius(prod @ prod.conj().T @ prod - prod))

# Composition refuses mismatched arrows instead of multiplying garbage.
try:
    pi_compose(u2, u1, DEFAULT_TOL)
except NotComposable as exc:
    print("mismatched arrows refuse to compose:", type(exc).__name__)

# --- the partially invertible picture ----------------------------------------
# An arrow is now x = u h with h positive on the source; jay inverts the
# isometry part while keeping the modulus on the new source.
x1, x2, x3 = [a[0] for a in composable_chain("g", algebra, rng, 3)]
y = g_compose(x1, x2, DEFAULT_TOL)
print("\nsource of product = source of second:",
      frobenius(g_source(y, DEFAULT_TOL) - g_source(x2, DEFAULT_TOL)))
inv = g_inverse(x1, DEFAULT_TOL)
print("x1 . jay(x1) lands on the target unit:",
      frobenius(g_compose(x1, inv, DEFAULT_TOL) - g_target(x1, DEFAULT_TOL)))
print("jay is an involution:", frobenius(jay(jay(x1)) - x1))

# --- one chain, all laws ------------------------------------------------------
# chain_law_residuals evaluates associativity, units, inverses, and the
# antihomomorphism property on a single composable chain of three arrows.
for tag in GROUPOIDS:
    chain = [a[0] for a in composable_chain(tag, algebra, rng, 3)]
    worst = max(chain_law_residuals(tag, chain, DEFAULT_TOL).values())
    print(f"worst law residual on one {tag!r} chain: {worst:.3e}")

# --- sampled axiom sweep ------------------------------------------------------
report = axiom_check("coadjoint", algebra, trials=50, seed=7)
print("\ncoadjoint axiom sweep over 50 chains:")
for law, value in sorted(report.law_residuals.items()):
    print(f"  {law:<20} {value:.3e}")

# --- crossing between pictures ------------------------------------------------
# Xi forgets the isometry of a coadjoint arrow into a functional with polar
# angle; pushing the source along the arrow gives the target.
arrow = composable_chain("coadjoint", algebra, rng, 3)[0][0]
phi = iso_Xi(arrow)
pushed = coadjoint_apply(arrow.u, arrow.rho, DEFAULT_TOL)
print("\ncoadjoint target = source pushed along the arrow:",
      pushed.distance(GROUPOIDS["coadjoint"].target(arrow, DEFAULT_TOL)))
print("Xi lands in the functional picture with the same modulus:",
      frobenius(arrow.u @ arrow.rho.density - phi.density))

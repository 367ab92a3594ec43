"""Standard form of a block algebra on its Hilbert–Schmidt space.

The algebra acts by left multiplication on itself with inner product
``<x|y> = Tr(x* y)``; the modular conjugation is ``J(g) = g*``, the positive
cone is the set of positive matrices, and every normal positive functional
``phi`` has the canonical vector representative ``d_phi^{1/2}``.  Vectors
``g`` carry two expectations — ``E(g)`` with density ``g g*`` and ``E'(g)``
with density ``g* g`` — whose supports are the momentum projections.  The
polar decomposition of vectors induces a groupoid structure on the Hilbert
space itself (source/target the two expectations, product through the shared
modulus, inverse ``J``), isomorphic to the coadjoint-action groupoid via
``Phi(u, rho) = u d_rho^{1/2}``.

Modular data of a positive functional are functions of its density ``d``,
read from the one eigendecomposition the functional keeps
(:func:`~wstargeo.algebra.density_spectrum`): the canonical vector
``d^{1/2}`` (:func:`std_unit`), the relative operator ``Delta(g) = d g d^+``,
the closure ``S = J Delta^{1/2}`` acting as ``S(x d^{1/2}) = x* d^{1/2}``,
and for faithful functionals the modular flow ``g -> d^{it} g d^{-it}``
(:func:`~wstargeo.algebra.modular_flow`), which implements the modular
automorphism group on vectors.  :func:`flow_residuals` checks the flow's
invariances on one sample.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sampling
from .algebra import (
    BlockAlgebra,
    NormalFunctional,
    block_ranks,
    density_spectrum,
    modular_flow,
    orbit_invariant,
)
from .errors import (
    DegenerateBase,
    InvalidArrow,
    NotComposable,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceProfile,
    _worst,
    frobenius,
    herm,
    hermitian_eigvals,
    hs_inner,
    left_support,
    null_space_rows,
    partial_inverse,
    polar_decompose,
)

# ---------------------------------------------------------------------------
# Hilbert-space structure


def symplectic_omega(x: np.ndarray, y: np.ndarray) -> float:
    """Canonical symplectic form omega(x, y) = 2 Im <x|y> on the
    Hilbert–Schmidt space."""
    return 2.0 * float(hs_inner(x, y).imag)


def conjugation_J(g: np.ndarray) -> np.ndarray:
    """Modular conjugation J(g) = g*."""
    return np.asarray(g, dtype=complex).conj().T


def expectation_E(algebra: BlockAlgebra, g: np.ndarray) -> NormalFunctional:
    """Left expectation of the vector g: the functional with density g g*."""
    g = np.asarray(g, dtype=complex)
    return NormalFunctional(algebra, g @ g.conj().T)


def expectation_Eprime(algebra: BlockAlgebra, g: np.ndarray) -> NormalFunctional:
    """Right expectation of the vector g: the functional with density g* g."""
    g = np.asarray(g, dtype=complex)
    return NormalFunctional(algebra, g.conj().T @ g)


def momentum_mu(g: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Left momentum projection: the support of g g*."""
    return left_support(g, tol)


# ---------------------------------------------------------------------------
# standard groupoid on the Hilbert space


def std_unit(
    phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """Unit arrow at a positive functional: its canonical vector d^{1/2}."""
    return density_spectrum(phi, tol).power(0.5)


def std_inverse(g: np.ndarray) -> np.ndarray:
    """Groupoid inverse of a vector arrow: the modular conjugation J(g) = g*."""
    return conjugation_J(g)


def std_mul(
    g1: np.ndarray,
    g2: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> np.ndarray:
    """Vector product u1 u2 |g2| through the polar decompositions
    g_j = u_j |g_j|, defined when |g1| = u2 |g2| u2* (source of g1 equals
    target of g2)."""
    u1, h1 = polar_decompose(g1, tol)
    u2, h2 = polar_decompose(g2, tol)
    gap = frobenius(h1 - u2 @ h2 @ u2.conj().T)
    if gap > tol.residual_tol * (1.0 + frobenius(h1)):
        raise NotComposable(f"source of g1 != target of g2 (gap {gap:.3e})")
    return u1 @ u2 @ h2


# ---------------------------------------------------------------------------
# isomorphism with the coadjoint-action groupoid


def iso_Phi(u: np.ndarray, rho: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Phi(u, rho) = u d_rho^{1/2}: coadjoint arrows to vector arrows."""
    return np.asarray(u, dtype=complex) @ std_unit(rho, tol)


def iso_Phi_inv(
    algebra: BlockAlgebra, g: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> tuple[np.ndarray, NormalFunctional]:
    """Inverse of Phi: the polar isometry of g together with the source
    functional of density g* g."""
    u, _ = polar_decompose(g, tol)
    return u, expectation_Eprime(algebra, g)


# ---------------------------------------------------------------------------
# left-translation orbits


def transport_witness(
    g1: np.ndarray, g2: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """Partial isometry w with w g1 = g2 and w* w = mu(g1), when g2 lies on
    the left-translation orbit of g1 (same right expectation).  Raises
    InvalidArrow otherwise."""
    if frobenius(g1.conj().T @ g1 - g2.conj().T @ g2) > tol.residual_tol * (
        1.0 + frobenius(g1) ** 2
    ):
        raise InvalidArrow("g1 and g2 have different right expectations")
    w = g2 @ partial_inverse(g1, tol)
    if frobenius(w @ g1 - g2) > tol.residual_tol * (1.0 + frobenius(g2)):
        raise InvalidArrow("no partial isometry transports g1 to g2")
    return w


# ---------------------------------------------------------------------------
# fibre kernels of the two expectations


def fiber_kernel_E(
    algebra: BlockAlgebra, g: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> list[np.ndarray]:
    """Real basis of the kernel of the differential of E at g: directions
    delta in the algebra with delta g* + g delta* = 0 and
    supp(g g*) delta = delta.  Raises DegenerateBase at g = 0."""
    g = np.asarray(g, dtype=complex)
    return list(_fiber_kernel(algebra, g, momentum_mu(g, tol), tol))


def _fiber_kernel(
    algebra: BlockAlgebra, g: np.ndarray, mu: np.ndarray, tol: ToleranceProfile
) -> np.ndarray:
    """:func:`fiber_kernel_E` at g with its left momentum ``mu`` given.

    Both conditions act within each block, so each block's null space is
    taken over its 2 n^2 realified matrix units, all evaluated at once."""
    if frobenius(g) <= 1e-12:
        raise DegenerateBase("the expectation differential has no fibre at zero")
    parts = []
    for s in algebra.slices:
        n, gb = s.stop - s.start, g[s, s]
        units = np.eye(n * n).reshape(-1, n, n)
        d = np.concatenate([units, 1j * units])
        c = np.concatenate(
            [d @ gb.conj().T + gb @ d.conj().transpose(0, 2, 1), mu[s, s] @ d - d],
            axis=1,
        )
        mat = np.concatenate([c.real, c.imag], axis=1).reshape(len(d), -1).T
        parts.append((s, np.tensordot(null_space_rows(mat, tol), d, axes=1)))
    return algebra.embed_stacks(parts)


def fiber_kernel_Eprime(
    algebra: BlockAlgebra, g: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> list[np.ndarray]:
    """Real basis of the kernel of the differential of E' at g: directions
    delta with g* delta + delta* g = 0 and delta supp(g* g) = delta.

    E' = E o J, so this is J applied to the kernel of E at J g."""
    return [conjugation_J(d) for d in fiber_kernel_E(algebra, conjugation_J(g), tol)]


def fiber_kernel_dimension(algebra: BlockAlgebra, rank_per_block: list[int]) -> int:
    """Real dimension of either expectation's fibre kernel at a vector whose
    blockwise momentum ranks are ``rank_per_block``: per block
    r^2 + 2 r (n - r)."""
    return sum(
        r * r + 2 * r * (n - r) for r, n in zip(rank_per_block, algebra.blocks)
    )


@dataclass(frozen=True)
class DualPairReport:
    """Residuals of the dual-pair relations at one vector: the symplectic
    form vanishes between the two fibre kernels, and their dimensions match
    the blockwise rank formula."""

    orthogonality: float
    dim_E: int
    dim_Eprime: int
    expected_dim_E: int
    expected_dim_Eprime: int

    @property
    def dimension_residual(self) -> int:
        return max(
            abs(self.dim_E - self.expected_dim_E),
            abs(self.dim_Eprime - self.expected_dim_Eprime),
        )


def dual_pair_orthogonality_check(
    algebra: BlockAlgebra, g: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> DualPairReport:
    """Evaluate omega on all pairs from fibre_kernel_E(g) x
    fiber_kernel_Eprime(g) and compare both kernel dimensions to the rank
    formula.  Each side's kernel and expected dimension read the same
    momentum projection: mu(g) for E and mu(J g) = mu'(g) for E'."""
    g = np.asarray(g, dtype=complex)
    jg = conjugation_J(g)
    mu, mu_j = momentum_mu(g, tol), momentum_mu(jg, tol)
    ker_e = _fiber_kernel(algebra, g, mu, tol)
    ker_ep = [conjugation_J(d) for d in _fiber_kernel(algebra, jg, mu_j, tol)]
    # omega(x, y) = 2 Im <x|y> on all pairs at once.
    left = ker_e.reshape(len(ker_e), -1)
    right = np.array(ker_ep).reshape(len(ker_ep), -1)
    omega = 2.0 * (left.conj() @ right.T).imag
    worst = float(np.max(np.abs(omega), initial=0.0))
    return DualPairReport(
        orthogonality=worst,
        dim_E=len(ker_e),
        dim_Eprime=len(ker_ep),
        expected_dim_E=fiber_kernel_dimension(algebra, block_ranks(algebra, mu, tol)),
        expected_dim_Eprime=fiber_kernel_dimension(algebra, block_ranks(algebra, mu_j, tol)),
    )


# ---------------------------------------------------------------------------
# modular structure


def modular_Delta(
    phi: NormalFunctional,
    g: np.ndarray,
    power: float = 1.0,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> np.ndarray:
    """Relative modular operator Delta^power(g) = d^power g (d^+)^power,
    with both powers restricted to the support of d."""
    spectrum = density_spectrum(phi, tol)
    return spectrum.power(power) @ g @ spectrum.power(-power)


def tomita_S(
    phi: NormalFunctional, g: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """Closure of the map x d^{1/2} -> x* d^{1/2}: S(g) = J Delta^{1/2} g =
    (d^+)^{1/2} g* d^{1/2}."""
    spectrum = density_spectrum(phi, tol)
    return spectrum.power(-0.5) @ conjugation_J(g) @ spectrum.power(0.5)


def flow_residuals(
    phi: NormalFunctional,
    t: float,
    rng: np.random.Generator,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> dict[str, float]:
    """Residuals of the modular-flow invariances of ``phi`` at time t on one
    sample drawn from ``rng``: groupoid multiplicativity, symplectic
    invariance, positive-cone preservation, J-covariance, orbit-invariant
    preservation, and the one-parameter group law.  Raises
    :class:`NotFaithful` unless the density is faithful."""
    algebra = phi.algebra
    s = 0.5 * t + 0.1
    flow, flow_s, flow_st = (modular_flow(phi, time, tol) for time in (t, s, s + t))
    q1 = sampling.random_frames(algebra, rng)
    q0 = sampling.equivalent_frames(rng, q1)
    q2 = sampling.equivalent_frames(rng, q1)
    u1 = sampling.isometry_between(rng, q1, q0)
    u2 = sampling.isometry_between(rng, q2, q1)
    h2 = sampling.positive_on(rng, q2)
    x = sampling.random_element(algebra, rng)
    y = sampling.random_element(algebra, rng)
    pos = sampling.random_positive(algebra, rng)
    g2 = u2 @ h2
    g1 = u1 @ (u2 @ h2 @ u2.conj().T)
    fp = flow(pos)
    wmin = float(hermitian_eigvals(herm(fp)).min())
    return {
        "multiplicativity": frobenius(
            flow(std_mul(g1, g2, tol)) - std_mul(flow(g1), flow(g2), tol)
        ),
        "symplectic": abs(symplectic_omega(flow(x), flow(y)) - symplectic_omega(x, y)),
        "cone": _worst(0.0, -wmin) + frobenius(fp - fp.conj().T),
        "conjugation": frobenius(flow(conjugation_J(x)) - conjugation_J(flow(x))),
        "orbit_invariants": _invariant_distance(
            orbit_invariant(expectation_E(algebra, g1), tol),
            orbit_invariant(expectation_E(algebra, flow(g1)), tol),
        ),
        "group_law": frobenius(flow_s(flow(x)) - flow_st(x)),
    }


def _invariant_distance(
    a: tuple[tuple[float, ...], ...], b: tuple[tuple[float, ...], ...]
) -> float:
    if len(a) != len(b):
        return float("inf")
    worst = 0.0
    for xs, ys in zip(a, b):
        if len(xs) != len(ys):
            return float("inf")
        for x, y in zip(xs, ys):
            worst = _worst(worst, abs(x - y))
    return worst

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
automorphism group on vectors.  :func:`flow_sample` draws one sample of
vectors and elements, and :func:`flow_residuals` checks the flow's
invariances on it, or on a stack of samples, each with its own functional
and flow time, at once.
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
)
from .errors import (
    DegenerateBase,
    InvalidArrow,
    NotComposable,
)
from .linalg import (
    DEFAULT_TOL,
    PositiveSpectrum,
    ToleranceProfile,
    excess,
    frobenius,
    herm,
    hermitian_eigvals,
    hs_inner,
    in_parts,
    partial_inverse,
    polar_decompose,
    _truncated,
    refuse,
    right_singular,
    supports,
)

# ---------------------------------------------------------------------------
# Hilbert-space structure


def symplectic_omega(x: np.ndarray, y: np.ndarray):
    """Canonical symplectic form omega(x, y) = 2 Im <x|y> on the
    Hilbert–Schmidt space; of each pair of matrices of two stacks, as an
    array.  One pair gives a ``float``."""
    return 2.0 * hs_inner(x, y).imag


def conjugation_J(g: np.ndarray) -> np.ndarray:
    """Modular conjugation J(g) = g*, of each vector of a stack."""
    return np.asarray(g, dtype=complex).conj().mT


def expectation_E(algebra: BlockAlgebra, g: np.ndarray) -> NormalFunctional:
    """Left expectation of the vector g: the functional with density g g*;
    of each vector of a stack."""
    g = np.asarray(g, dtype=complex)
    return NormalFunctional(algebra, g @ g.conj().mT)


def expectation_Eprime(algebra: BlockAlgebra, g: np.ndarray) -> NormalFunctional:
    """Right expectation of the vector g: the functional with density g* g;
    of each vector of a stack."""
    g = np.asarray(g, dtype=complex)
    return NormalFunctional(algebra, g.conj().mT @ g)


def momentum_mu(g: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Left momentum projection: the support of g g*."""
    return supports(g, tol)[0]


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


def _std_product(
    g1: np.ndarray, g2: np.ndarray, tol: ToleranceProfile
) -> tuple[np.ndarray, float]:
    """``u1 u2 |g2|`` through the polar decompositions ``g_j = u_j |g_j|``,
    and the composability gap ``‖|g1| − u2 |g2| u2*‖`` where it exceeds the
    residual tolerance, else 0 (per vector of a stack)."""
    u1, h1 = polar_decompose(g1, tol)
    u2, h2 = polar_decompose(g2, tol)
    return u1 @ u2 @ h2, excess(h1, u2 @ h2 @ u2.conj().mT, tol, frobenius(h1))


def std_mul(
    g1: np.ndarray,
    g2: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> np.ndarray:
    """Vector product u1 u2 |g2| through the polar decompositions
    g_j = u_j |g_j|, defined when |g1| = u2 |g2| u2* (source of g1 equals
    target of g2); on stacks, per pair."""
    product, gap = _std_product(g1, g2, tol)
    refuse(NotComposable, gap, "source of g1 != target of g2 (gap {:.3e})")
    return product


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
    InvalidArrow otherwise.  On stacks, per pair."""
    refuse(InvalidArrow, excess(g1.conj().mT @ g1, g2.conj().mT @ g2, tol, frobenius(g1) ** 2),
           "g1 and g2 have different right expectations")
    w = g2 @ partial_inverse(g1, tol)
    refuse(InvalidArrow, excess(w @ g1, g2, tol, frobenius(g2)),
           "no partial isometry transports g1 to g2")
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
    vhs, nullity = _fiber_rows(algebra, g, momentum_mu(g, tol), tol)
    return list(_fiber_kernel(algebra, vhs, nullity))


def _fiber_units(n: int) -> np.ndarray:
    """The ``2 n^2`` realified matrix units of one ``n x n`` block."""
    units = np.eye(n * n).reshape(-1, n, n)
    return np.concatenate([units, 1j * units])


def _fiber_rows(
    algebra: BlockAlgebra, g: np.ndarray, mu: np.ndarray, tol: ToleranceProfile
) -> tuple[list[np.ndarray], np.ndarray]:
    """The null spaces behind :func:`fiber_kernel_E` at g, with its left
    momentum ``mu`` given, or at each vector of a stack: per block the right
    singular vectors of the realified conditions on the block's units
    (:func:`_fiber_units`), and the dimension of each block's null space
    (one row per vector of a stack).

    Both conditions act within each block, so each block's null space is
    taken over its 2 n^2 realified matrix units, all evaluated at once."""
    refuse(DegenerateBase, frobenius(g) <= 1e-12,
           "the expectation differential has no fibre at zero")
    vhs, nullity = [], []
    for s in algebra.slices:
        d = _fiber_units(s.stop - s.start)
        gb = g[..., None, s, s]
        c = np.concatenate(
            [d @ gb.conj().mT + gb @ d.conj().transpose(0, 2, 1), mu[..., None, s, s] @ d - d],
            axis=-2,
        )
        mat = np.concatenate([c.real, c.imag], axis=-2).reshape(*c.shape[:-3], len(d), -1).mT
        vh, rank = right_singular(mat, tol)
        vhs.append(vh)
        nullity.append(len(d) - rank)
    return vhs, np.stack(nullity, axis=-1)


def _fiber_kernel(algebra: BlockAlgebra, vhs: list[np.ndarray], nullity) -> np.ndarray:
    """The kernel basis from the rows of :func:`_fiber_rows`, for one vector
    or a stack of vectors whose blocks have the null-space dimensions
    ``nullity`` (one int per block)."""
    parts = []
    for s, vh, k in zip(algebra.slices, vhs, nullity):
        d = _fiber_units(s.stop - s.start)
        parts.append((s, np.tensordot(vh[..., len(d) - k :, :], d, axes=1)))
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
    the blockwise rank formula.  Of a stack of vectors, each field holds one
    value per vector."""

    orthogonality: float | np.ndarray
    dim_E: int | np.ndarray
    dim_Eprime: int | np.ndarray
    expected_dim_E: int | np.ndarray
    expected_dim_Eprime: int | np.ndarray

    @property
    def dimension_residual(self):
        return np.maximum(
            abs(self.dim_E - self.expected_dim_E),
            abs(self.dim_Eprime - self.expected_dim_Eprime),
        )


def dual_pair_orthogonality_check(
    algebra: BlockAlgebra, g: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> DualPairReport:
    """Evaluate omega on all pairs from fibre_kernel_E(g) x
    fiber_kernel_Eprime(g) and compare both kernel dimensions to the rank
    formula.  Each side's kernel and expected dimension read the same
    momentum projection, both from one SVD of g: the left support mu(g) for
    E and the right support mu(J g) = mu'(g) for E'.

    On a stack of vectors each block's null spaces are found with one SVD
    for all vectors, and the kernels are built and paired once per pattern
    of null-space dimensions (:func:`~wstargeo.linalg._truncated`), in parts
    of bounded size (:func:`~wstargeo.linalg.in_parts`, the realified
    conditions being ``4 n^2 x 2 n^2`` per block of each vector)."""
    entries = sum(8 * n**4 for n in algebra.blocks)
    check = lambda g: _dual_pair_report(algebra, g, tol)  # noqa: E731
    return in_parts(check, entries, np.asarray(g, dtype=complex))


def _dual_pair_report(algebra: BlockAlgebra, g: np.ndarray, tol: ToleranceProfile):
    """:func:`dual_pair_orthogonality_check` of one vector or one stack."""
    mu, mu_j = supports(g, tol)
    vhs_e, null_e = _fiber_rows(algebra, g, mu, tol)
    vhs_ep, null_ep = _fiber_rows(algebra, conjugation_J(g), mu_j, tol)
    blocks = len(vhs_e)

    def orthogonality(*args):
        *vhs, nullity = args
        ker_e = _fiber_kernel(algebra, vhs[:blocks], nullity[:blocks])
        ker_ep = conjugation_J(_fiber_kernel(algebra, vhs[blocks:], nullity[blocks:]))
        # omega(x, y) = 2 Im <x|y> on all pairs at once.
        left = ker_e.reshape(*ker_e.shape[:-2], -1)
        right = ker_ep.reshape(*ker_ep.shape[:-2], -1)
        omega = 2.0 * (left.conj() @ right.mT).imag
        return np.max(np.abs(omega), axis=(-2, -1), initial=0.0)

    key = np.concatenate([null_e, null_ep], axis=-1)
    if g.ndim == 2:
        key = tuple(key.tolist())
    return DualPairReport(
        orthogonality=_truncated(key, orthogonality, *vhs_e, *vhs_ep),
        dim_E=np.sum(null_e, axis=-1),
        dim_Eprime=np.sum(null_ep, axis=-1),
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
    with both powers restricted to the support of d; the negative one is
    guarded near the rank cutoff, as is the one in :func:`tomita_S`."""
    spectrum = density_spectrum(phi, tol)
    return spectrum.power(power) @ g @ spectrum.power(-power)


def tomita_S(
    phi: NormalFunctional, g: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """Closure of the map x d^{1/2} -> x* d^{1/2}: S(g) = J Delta^{1/2} g =
    (d^+)^{1/2} g* d^{1/2}."""
    spectrum = density_spectrum(phi, tol)
    return spectrum.power(-0.5) @ conjugation_J(g) @ spectrum.power(0.5)


def flow_sample(algebra: BlockAlgebra, rng: sampling.Source) -> list:
    """One sample for :func:`flow_residuals`, drawn from ``rng`` (a stack of
    them, from a stream of trials): the isometries ``u1``, ``u2``
    and the positive ``h2`` of a composable pair of vector arrows, two
    elements ``x``, ``y`` and a positive element ``pos``."""
    q1 = sampling.random_frames(algebra, rng)
    q0 = sampling.equivalent_frames(rng, q1)
    q2 = sampling.equivalent_frames(rng, q1)
    u1 = sampling.isometry_between(rng, q1, q0)
    u2 = sampling.isometry_between(rng, q2, q1)
    h2 = sampling.positive_on(rng, q2)
    x = sampling.random_element(algebra, rng)
    y = sampling.random_element(algebra, rng)
    pos = sampling.random_positive(algebra, rng)
    return [u1, u2, h2, x, y, pos]


def flow_residuals(
    phi: NormalFunctional, t, u1, u2, h2, x, y, pos, tol: ToleranceProfile = DEFAULT_TOL
) -> dict:
    """Residuals of the modular-flow invariances of ``phi`` at time ``t`` on
    one sample of :func:`flow_sample`: groupoid multiplicativity on the
    composable pair ``g1 = u1 u2 h2 u2*``, ``g2 = u2 h2``, symplectic
    invariance, positive-cone preservation, J-covariance, orbit-invariant
    preservation, and the one-parameter group law.  Raises
    :class:`NotFaithful` unless the density is faithful.

    On stacks (a functional of stacked densities, ``t`` one time for all or
    one per density, and stacked samples) one residual array per key, each
    trial with the bits it gets alone, and a refused density named by its
    trial; floats for one matrix."""
    algebra = phi.algebra
    s = 0.5 * t + 0.1
    flow, flow_s, flow_st = (modular_flow(phi, time, tol) for time in (t, s, s + t))
    g2 = u2 @ h2
    g1 = u1 @ (u2 @ h2 @ u2.conj().mT)
    fx, fg1, fp = flow(x), flow(g1), flow(pos)
    wmin = hermitian_eigvals(herm(fp)).min(axis=-1)
    # A flow that is not multiplicative may leave the flowed pair
    # non-composable; its gap is then the residual.
    flowed_product, gap = _std_product(fg1, flow(g2), tol)
    residuals = {
        "multiplicativity": np.where(
            gap != 0, gap, frobenius(flow(std_mul(g1, g2, tol)) - flowed_product)
        ),
        "symplectic": np.abs(symplectic_omega(fx, flow(y)) - symplectic_omega(x, y)),
        "cone": np.maximum(0.0, -wmin) + frobenius(fp - fp.conj().mT),
        "conjugation": frobenius(flow(conjugation_J(x)) - conjugation_J(fx)),
        "orbit_invariants": _spectrum_distance(
            density_spectrum(expectation_E(algebra, g1), tol),
            density_spectrum(expectation_E(algebra, fg1), tol),
        ),
        "group_law": frobenius(flow_s(fx) - flow_st(x)),
    }
    return {key: r if np.ndim(r) else float(r) for key, r in residuals.items()}


def _spectrum_distance(a: PositiveSpectrum, b: PositiveSpectrum):
    """Distance of two orbit invariants (:func:`~wstargeo.algebra.orbit_invariant`),
    per matrix of a stack: ``inf`` where their blockwise ranks differ, else
    the largest ``|w1 - w2|`` over the retained values (NaN if one is)."""
    worst, same = 0.0, True
    for (_, w1, _), (_, w2, _), r1, r2 in zip(a.blocks, b.blocks, a.ranks, b.ranks):
        kept = np.arange(w1.shape[-1]) < np.asarray(r1)[..., None]
        worst = np.maximum(worst, np.where(kept, np.abs(w1 - w2), 0.0).max(axis=-1))
        same = same & (r1 == r2)
    return np.where(same, worst, np.inf)

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
    matrix_units,
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
    as_count,
    excess,
    frobenius,
    gram_defect,
    herm,
    hermitian_eigvals,
    hs_inner,
    partial_inverse,
    polar_decompose,
    _retained,
    realified_rank,
    refuse,
    supports,
    svd,
    unitarity_defect,
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
    supp(g g*) delta = delta (:func:`_pair_kernels`).  Raises DegenerateBase
    at g = 0."""
    return list(_pair_kernels(algebra, _pair_factors(algebra, np.asarray(g, dtype=complex), tol))[0])


def fiber_kernel_Eprime(
    algebra: BlockAlgebra, g: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> list[np.ndarray]:
    """Real basis of the kernel of the differential of E' at g: directions
    delta with g* delta + delta* g = 0 and delta supp(g* g) = delta.

    E' = E o J, so this is J applied to the kernel of E at J g, read from
    the same SVDs as :func:`fiber_kernel_E`."""
    return list(_pair_kernels(algebra, _pair_factors(algebra, np.asarray(g, dtype=complex), tol))[1])


def _coordinate_kernel(sigma: np.ndarray, kept: np.ndarray) -> tuple[np.ndarray, ...]:
    """The solutions of ``X S + S X* = 0``, ``S = diag(sigma)``, whose rows
    past the rank vanish (``kept`` masks the retained values).  It couples
    only ``x_ij`` and ``x_ji``: ``x_ii`` is imaginary, ``x_ji = -(sigma_j /
    sigma_i) conj(x_ij)`` for ``i < j <= r``, ``x_ij`` is free for ``i <= r
    < j``.  Per slot, the ``i``, ``j``, ``x_ij`` and ``x_ji`` of a unit
    direction ``x_ii = i``, or ``x_ij = 1`` or ``i`` for ``i < j``; 0 past r:
    the diagonal slots, then the real and the imaginary ones of the pairs."""
    n = sigma.shape[-1]
    d, (i, j) = np.arange(n), np.triu_indices(n, 1)
    c = np.repeat([1j, 1.0, 1j], [n, len(i), len(i)])
    i, j = np.concatenate([d, i, i]), np.concatenate([d, j, j])
    ratio = np.divide(sigma[..., j], sigma[..., i], out=np.zeros(kept.shape[:-1] + i.shape),
                      where=kept[..., j] & (i != j))
    scale = kept[..., i] / np.sqrt(1.0 + ratio**2)
    return i, j, c * scale, -c.conj() * ratio * scale


def _pair_factors(algebra: BlockAlgebra, g: np.ndarray, tol: ToleranceProfile) -> list:
    """Per block of g, or of each vector of a stack, ``(slice, V, S, W,
    kept)``: one SVD ``g_b = V S W*`` per block (that of all of g may mix
    blocks across equal singular values), and the mask of the values that
    the rank cut of :func:`~wstargeo.linalg.supports` keeps."""
    refuse(DegenerateBase, frobenius(g) <= 1e-12,
           "the expectation differential has no fibre at zero")
    factors = [svd(b) for b in algebra.block_views(g)]
    top = np.max([s[..., 0] for _, s, _ in factors], axis=0)
    return [(sl, v, s, wh.conj().mT, _retained(s, tol, top=top))
            for sl, (v, s, wh) in zip(algebra.slices, factors)]


def _pair_kernels(algebra: BlockAlgebra, factors: list) -> list:
    """Both fibre kernels at one vector, in the algebra, from its blocks of
    :func:`_pair_factors`: ``V X W*`` for the X of :func:`_coordinate_kernel`
    within the rank, and for E' = E o J the same at ``J g_b = W S V*``, so
    ``J (W X V*) = V X* W*``."""
    blocks = []
    for sl, v, s, w, kept in factors:
        n = s.shape[-1]
        i, j, x_ij, x_ji = _coordinate_kernel(s, kept)
        # left X right* from the units a b* of the columns a and b of both.
        e, e_j = (x_ij[:, None, None] * u[i * n + j] + x_ji[:, None, None] * u[j * n + i]
                  for u in (matrix_units(v, w), matrix_units(w, v)))
        blocks.append((sl, e[kept[i]], conjugation_J(e_j[kept[i]])))
    return [algebra.embed_stacks((b[0], b[k]) for b in blocks) for k in (1, 2)]


def _coordinate_defect(sigma: np.ndarray, kept: np.ndarray, scale) -> tuple[np.ndarray, np.ndarray]:
    """The largest defect of the X of :func:`_coordinate_kernel` at one
    block's values ``sigma``, and the mask of the slots within the rank; per
    vector of a stack.  Slot ``k`` holds ``a = X_k[i, j]`` and ``b = X_k[j,
    i]``: its defect in ``X S + S X* = 0`` (relative to the norm ``scale``)
    and in the rows past the rank, and, for unitary V and W, in the Gram
    ``Re Tr(X_k* X_l)`` of both kernels against the mask and in omega ``2 Im
    Tr(X_k* X_l*)``, which vanish unless ``l`` is ``k`` or its partner."""
    n = sigma.shape[-1]
    i, j, x_ij, x_ji = _coordinate_kernel(sigma, kept)
    within, diagonal = kept[..., i], i == j
    a = np.where(diagonal, x_ij + x_ji, x_ij)
    b = np.where(diagonal, a, x_ji)
    defect = (np.abs(a * sigma[..., j] + sigma[..., i] * b.conj()) / np.asarray(scale)[..., None]
              + np.abs(a * ~kept[..., i]) + np.abs(b * ~kept[..., j]))
    # The partner of a real pair slot is its imaginary one, and back; a
    # diagonal entry is counted once.
    q = np.concatenate([np.arange(n), np.roll(np.arange(n, len(i)), (len(i) - n) // 2)])
    half, a_q, b_q = np.where(diagonal, 0.5, 1.0), a[..., q], b[..., q]
    defect += np.abs(half * (a.conj() * a + b.conj() * b).real - within)
    defect += np.abs(np.where(diagonal, 0.0, (a.conj() * a_q + b.conj() * b_q).real))
    for x, y in ((a, b), (a_q, b_q)):
        defect += np.abs(2.0 * half * (a * y + b * x).imag)
    return np.max(defect, axis=-1, initial=0.0), within


def _ambient_nullity(g: np.ndarray, mu: np.ndarray, mu_j: np.ndarray, tol: ToleranceProfile):
    """The dimensions of the kernels of E and E' at one block ``g`` with left
    and right momenta ``mu`` and ``mu_j``: the nullities of the conditions
    realified on the block's ``2 n^2`` real matrix units, E' as E at ``g*``,
    from the realified rank of one stack."""
    n = g.shape[-1]
    d = np.concatenate([np.eye(n * n), 1j * np.eye(n * n)]).reshape(-1, n, n)
    h, m = np.stack([g, g.conj().T])[:, None], np.stack([mu, mu_j])[:, None]
    c = np.concatenate([d @ h.conj().mT + h @ d.conj().mT, m @ d - d], axis=-2)
    return len(d) - realified_rank(c, tol)


def _kernel_oracle(algebra: BlockAlgebra, g, mu, mu_j, kernels, tol: ToleranceProfile):
    """How far the ``kernels`` of one vector (:func:`_pair_kernels`) are from
    the ambient kernels, through the nullity of their conditions
    (:func:`_ambient_nullity`), which shares no factorization with them: per
    side, the nullity against the kernel's length and its realified rank.
    And the largest defect of their directions in their equations (relative
    to the norm of ``g``), in their supports and from orthonormal, plus
    omega between the two kernels.  Orthonormal members of a kernel as many
    as its nullity span it, so no second basis is built."""
    nullity = sum(_ambient_nullity(g[s, s], mu[s, s], mu_j[s, s], tol) for s in algebra.slices)
    defect = sum(abs(len(k) - m) + abs(realified_rank(k, tol) - m) for k, m in zip(kernels, nullity))
    # delta g* + g delta* = 0 and mu delta = delta for E, g* delta + delta*
    # g = 0 and delta mu_j = delta for E'.
    halves = [kernels[0] @ g.conj().T, g.conj().T @ kernels[1]]
    members = sum(np.max(frobenius(h + h.conj().mT), initial=0.0) for h in halves) / frobenius(g)
    for k, held in zip(kernels, (mu @ kernels[0], kernels[1] @ mu_j)):
        members += np.max(frobenius(held - k), initial=0.0) + gram_defect(k, np.ones(len(k), dtype=bool))
    left, right = (k.reshape(len(k), -1) for k in kernels)
    return defect, members + np.max(np.abs(2.0 * (left.conj() @ right.T).imag), initial=0.0)


def fiber_kernel_dimension(algebra: BlockAlgebra, rank_per_block: list[int]) -> int:
    """Real dimension of either expectation's fibre kernel at a vector whose
    blockwise momentum ranks are ``rank_per_block``: per block
    r^2 + 2 r (n - r)."""
    return sum(r * r + 2 * r * (n - r) for r, n in zip(rank_per_block, algebra.blocks))


@dataclass(frozen=True)
class DualPairReport:
    """Residuals of the dual-pair relations at one vector: the symplectic
    form vanishes between the two fibre kernels, which solve their equations
    and match the rank formula and, at a first vector, the nullity of the
    ambient conditions (``oracle``).  Of a stack of vectors, each field holds
    one per vector."""

    orthogonality: float | np.ndarray
    dim_E: int | np.ndarray
    dim_Eprime: int | np.ndarray
    expected_dim_E: int | np.ndarray
    expected_dim_Eprime: int | np.ndarray
    oracle: int | np.ndarray

    @property
    def dimension_residual(self):
        return self.oracle + np.maximum(
            abs(self.dim_E - self.expected_dim_E),
            abs(self.dim_Eprime - self.expected_dim_Eprime),
        )


def dual_pair_orthogonality_check(
    algebra: BlockAlgebra, g: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> DualPairReport:
    """Check the fibre kernels of E and E' at g, or at each vector of a
    stack, through the SVD ``g_b = V S W*`` of each block, in which they are
    ``V X W*`` and ``V X* W*``: per vector, ``|V S W* - g_b| / |g|``, ``|V*
    V - 1|``, ``|W* W - 1|``, the kept columns of V and W within mu(g) and
    mu'(g), and the coordinates X (:func:`_coordinate_defect`).  Both kernel
    dimensions are compared to the rank formula, read off mu(g) and mu(J g)
    = mu'(g).  At the first vector the kernels are checked in the algebra,
    as a gap beyond the residual tolerance (:func:`~wstargeo.linalg.excess`),
    and their lengths and ranks against the nullity of the ambient
    conditions (:func:`_kernel_oracle`)."""
    g = np.asarray(g, dtype=complex)
    mu, mu_j = supports(g, tol)
    scale, orthogonality, dims = frobenius(g), 0.0, 0
    factors = _pair_factors(algebra, g, tol)
    for s, v, sigma, w, kept in factors:
        frames = frobenius((v * sigma[..., None, :]) @ w.conj().mT - g[..., s, s]) / scale
        for f, m in [(v, mu[..., s, s]), (w, mu_j[..., s, s])]:
            held = f * kept[..., None, :]
            frames = frames + unitarity_defect(f) + frobenius(m @ held - held)
        coordinates, within = _coordinate_defect(sigma, kept, scale)
        orthogonality = np.maximum(orthogonality, frames + coordinates)
        dims = dims + np.sum(within, axis=-1)
    first = (0,) * (g.ndim - 2)
    kernels = _pair_kernels(algebra, [(s, *(x[first] for x in f)) for s, *f in factors])
    oracle, residual = _kernel_oracle(algebra, g[first], mu[first], mu_j[first], kernels, tol)
    orthogonality, defects = np.array(orthogonality), np.zeros_like(dims)
    orthogonality[first] += excess(residual, 0.0, tol)
    defects[first] = oracle
    return DualPairReport(
        orthogonality=orthogonality[()],
        dim_E=as_count(dims),
        dim_Eprime=as_count(dims),
        expected_dim_E=fiber_kernel_dimension(algebra, block_ranks(algebra, mu, tol)),
        expected_dim_Eprime=fiber_kernel_dimension(algebra, block_ranks(algebra, mu_j, tol)),
        oracle=as_count(defects),
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


def flow_sample(algebra: BlockAlgebra, rng: sampling.Stream) -> list:
    """The samples for :func:`flow_residuals` of the stream's trials, as
    stacks: the isometries ``u1``, ``u2``
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

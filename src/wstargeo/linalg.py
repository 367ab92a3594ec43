"""Dense complex matrix kernels with an explicit rank policy.

Every rank-sensitive operation (supports, polar factors, partial inverses,
restricted functional calculus) makes its rank decision once per input,
relative to the largest singular value, and reuses it for all derived
quantities.  Operations whose output is discontinuous across a rank change
(the partial inverse and every negative power) refuse inputs whose
smallest retained singular value sits within a factor ``GUARD_FACTOR`` of
the cutoff, so downstream geometry never sees an ambiguous support.
Eigenvalue clustering (:func:`eigen_clusters`) refuses a gap within the same
factor of its threshold, so no stabilizer dimension depends on noise.

Each kind of support has one reader: :func:`supports` gives both supports
of a general matrix from one SVD, :func:`positive_spectrum` the support of
a positive matrix, and :func:`~wstargeo.algebra.frames_of` the blockwise
frames of a projection.

This is the only module that factorizes a matrix.  It calls the LAPACK
drivers through the gufuncs that ``numpy.linalg`` itself dispatches to
(``numpy.linalg._umath_linalg``), without NumPy's per-call wrapper:
``svd_f``/``svd`` (``?gesdd``) for singular values and vectors (:func:`svd`,
:func:`singular_values`, :func:`null_space_rows`), ``eigh_lo``/
``eigvalsh_lo`` (``?heevd`` on the lower triangle) for Hermitian spectra
(:func:`hermitian_eig`, :func:`hermitian_eigvals`, and the unitary
:func:`exp_antihermitian` of an anti-Hermitian matrix), and ``qr_r_raw``
followed by ``qr_reduced`` (``zgeqrf``, ``zungqr``) for the QR factor of a
Haar sample (:func:`phase_fixed_q`).  The results therefore equal
``numpy.linalg.svd``, ``eigh``, ``eigvalsh`` and ``qr`` bit for bit.  A
driver that fails, NaN input included, fills the gufunc's outputs with NaN
and NumPy warns (``RuntimeWarning``, under the default ``numpy.errstate``);
the kernel reads the NaN and raises :class:`NoConvergence`.

Every domain check decides an identity ``a = b`` by one rule,
:func:`excess`: the gap ``frobenius(a - b)`` is accepted when it is at most
``residual_tol * (1 + scale)``, with the ``scale`` the check names (a norm
of its input, or ``0`` for an absolute bound).  A NaN gap or bound is never
accepted: a non-finite input fails the check instead of passing it.

The kernels check shape and LAPACK status only.  A function whose domain
needs Hermitian, positive or member input checks its own arguments, once,
where they enter: the functional calculus on positive matrices
(:func:`positive_spectrum`, read by :func:`restricted_power`) checks through
:func:`check_hermitian`, and matrices the code builds Hermitian go straight
to :func:`hermitian_eig`.  A caller that needs several functions of one
positive matrix builds its :class:`PositiveSpectrum` once and reads them all
from it; the same blockwise type holds a functional's density
(:func:`~wstargeo.algebra.density_spectrum`), so both refuse the same ranks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    AmbiguousCluster,
    NoConvergence,
    NotHermitian,
    NotPartiallyInvertible,
    NotPositive,
)

GUARD_FACTOR = 10.0


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical policy shared by all operations.

    ``rank_rel_tol``  — singular values / eigenvalues below
    ``rank_rel_tol * sigma_max`` are treated as zero;
    ``residual_tol``  — acceptance threshold for algebraic identities;
    ``fd_step``       — default step for central finite differences.
    """

    rank_rel_tol: float = 1e-9
    residual_tol: float = 1e-8
    fd_step: float = 1e-5

    def __post_init__(self) -> None:
        if not (0.0 < self.rank_rel_tol < 1.0):
            raise ValueError("rank_rel_tol must lie strictly between 0 and 1")
        if self.residual_tol <= 0.0 or self.fd_step <= 0.0:
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = ToleranceProfile()


def as_square(a: np.ndarray) -> np.ndarray:
    """Return ``a`` as a square complex ndarray."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm, computed as ``numpy.linalg.norm(a)`` computes it."""
    v = np.asarray(a).ravel(order="K")
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    v = v.astype(float, copy=False)
    return math.sqrt(v.dot(v))


def _worst(*values: float) -> float:
    """Largest of the residuals, or NaN as soon as one of them is NaN.

    The built-in ``max`` drops a NaN that is not its first argument, so a
    running maximum over trials would let a non-finite trial pass."""
    out = values[0]
    for v in values:
        if v != v:
            return v
        if v > out:
            out = v
    return out


def hs_inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(x* y), antilinear in the first slot."""
    return complex(np.vdot(x, y))


def herm(x: np.ndarray) -> np.ndarray:
    """Hermitian part (x + x*) / 2."""
    return (x + x.conj().T) / 2.0


def antiherm(x: np.ndarray) -> np.ndarray:
    """Anti-Hermitian part (x - x*) / 2."""
    return (x - x.conj().T) / 2.0


def expect_real(z: complex, tol: ToleranceProfile = DEFAULT_TOL, what: str = "value") -> float:
    """Assert that ``z`` is real up to residual tolerance and return its real part."""
    if abs(z.imag) > tol.residual_tol * max(1.0, abs(z)):
        raise NotHermitian(f"{what} has a non-negligible imaginary part: {z!r}")
    return float(z.real)


def expect_real_array(
    z: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL, what: str = "value"
) -> np.ndarray:
    """:func:`expect_real` applied to every entry of an array."""
    bad = np.abs(z.imag) > tol.residual_tol * np.maximum(1.0, np.abs(z))
    if bad.any():
        raise NotHermitian(
            f"{what} has a non-negligible imaginary part: {z[bad].flat[0]!r}"
        )
    return z.real


def excess(a, b, tol: ToleranceProfile, scale: float = 0.0) -> float:
    """The gap ``frobenius(a - b)`` of the identity ``a = b`` where it is not
    within ``residual_tol * (1 + scale)``, else ``0.0``.

    The one acceptance rule of the domain checks, used as ``if gap :=
    excess(...): raise ...``.  A NaN gap or bound is never within: the
    result is then NaN, which is true, even for a zero gap."""
    gap = frobenius(a - b)
    bound = tol.residual_tol * (1.0 + scale)
    return 0.0 if gap <= bound else gap or bound


def check_hermitian(h: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Validate Hermitianity of ``h`` within residual tolerance."""
    h = as_square(h)
    if defect := excess(h, h.conj().T, tol, frobenius(h)):
        raise NotHermitian(f"matrix is not Hermitian (defect {defect:.3e})")
    return h


def _checked(values: np.ndarray, routine: str) -> np.ndarray:
    """The singular values or eigenvalues from a LAPACK gufunc, unless one is
    NaN: the driver failed (the gufunc then fills every output with NaN, and
    warns) or passed NaN input through."""
    square = values.dot(values)
    if square != square:
        raise NoConvergence(f"LAPACK {routine} failed or met NaN input")
    return values


def _real_or_complex(a: np.ndarray) -> np.ndarray:
    """``a`` as a float64 or complex128 array; real input stays real."""
    a = np.asarray(a)
    if a.dtype != np.float64 and a.dtype != np.complex128:
        a = a.astype(complex if a.dtype.kind == "c" else float)
    return a


def _gesdd(a: np.ndarray, compute_uv: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD (or, with ``compute_uv=0``, singular values only, ``u`` and
    ``vh`` ``None``) of a float64 or complex128 matrix through ``?gesdd``."""
    if compute_uv:
        u, s, vh = _umath_linalg.svd_f(a)
    else:
        u, s, vh = None, _umath_linalg.svd(a), None
    return u, _checked(s, "gesdd"), vh


def _heevd(h: np.ndarray, compute_v: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (and eigenvectors, else ``None``) of a float64
    or complex128 matrix from its lower triangle, through ``?heevd``."""
    if compute_v:
        w, v = _umath_linalg.eigh_lo(h)
    else:
        w, v = _umath_linalg.eigvalsh_lo(h), None
    return _checked(w, "heevd"), v


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and a unitary of eigenvectors of a Hermitian
    matrix read from its lower triangle; always the complex driver.

    Returns ``(w, v)`` with ``h = v @ diag(w) @ v*`` and ``w`` sorted in
    descending order; column ``v[:, i]`` belongs to ``w[i]``.  No Hermitian
    check: a caller whose input may not be Hermitian checks it first.
    """
    w, v = _heevd(as_square(h), 1)
    return w[::-1].copy(), v[:, ::-1].copy()


def hermitian_eigvals(h: np.ndarray) -> np.ndarray:
    """Eigenvalues, descending, of a Hermitian matrix read from its lower
    triangle; real input uses the real driver.  No Hermitian check."""
    return _heevd(_real_or_complex(h), 0)[0][::-1]


def exp_antihermitian(x: np.ndarray) -> np.ndarray:
    """The unitary ``exp(x)`` of an anti-Hermitian ``x``: with ``i x = v
    diag(w) v*`` from :func:`hermitian_eig`, ``exp(x) = v diag(e^{-i w}) v*``.
    No anti-Hermitian check: a caller whose input may not be anti-Hermitian
    checks it first."""
    w, v = hermitian_eig(1j * as_square(x))
    return (v * np.exp(-1j * w)) @ v.conj().T


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``a = u @ diag(s) @ vh`` with singular values descending."""
    return _gesdd(as_square(a), 1)


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values, descending, of a matrix of any shape; real input
    uses the real driver.  ``singular_values(a)[0]`` is the operator norm."""
    return _gesdd(_real_or_complex(a), 0)[1]


def null_space_rows(a: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal rows ``r`` spanning the numerical kernel of ``a``, in the
    sense ``a @ r.conj() = 0``; real input gives real rows.

    Singular values at or below ``rank_rel_tol * max(sigma_max, 1)`` count as
    zero (:func:`floored_rank`).
    """
    _, s, vh = _gesdd(_real_or_complex(a), 1)
    return vh[floored_rank(s, tol):]


def floored_rank(s: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Number of the descending singular values ``s`` above ``rank_rel_tol *
    max(s[0], 1)``: the relative rank rule with an absolute floor for
    matrices of small norm."""
    scale = max(s[0], 1.0) if s.size else 1.0
    return int(np.sum(s > tol.rank_rel_tol * scale))


def phase_fixed_q(g: np.ndarray) -> np.ndarray:
    """Thin QR factor ``q`` of a complex ``m x n`` matrix ``g = q r``
    (``m >= n``) with the phases of ``r``'s diagonal moved into it; a complex
    Gaussian ``g`` gives a Haar unitary (square) or a Haar isometry (thin).
    ``zgeqrf`` overwrites a copy of ``g`` with ``r`` above ``q``'s
    reflectors, and the phases are read off that packed factor."""
    packed = np.asarray(g).astype(complex)
    q = _umath_linalg.qr_reduced(packed, _umath_linalg.qr_r_raw(packed))
    d = packed.diagonal()
    return q * (d / np.abs(d))


def retained_rank(
    s: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL, guard: bool = False
) -> int:
    """Numerical rank of a descending singular-value sequence.

    Values at or below ``rank_rel_tol * s[0]`` are treated as zero.  With
    ``guard=True`` the decision is refused (:class:`NotPartiallyInvertible`)
    when the smallest retained value lies within ``GUARD_FACTOR`` times the
    cutoff, because the result of a rank-discontinuous operation would then
    depend on noise.
    """
    s = np.asarray(s, dtype=float)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    cutoff = tol.rank_rel_tol * s[0]
    rank = int(np.count_nonzero(s > cutoff))
    if guard and rank > 0:
        _refuse_near_cutoff(float(s[rank - 1]), cutoff)
    return rank


def polar_decompose(
    a: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition ``a = u @ h``.

    ``h = (a* a)^{1/2}`` is positive semidefinite and ``u`` is the partial
    isometry carrying the support of ``h`` onto the range of ``a``; singular
    directions below the rank cutoff are annihilated by ``u``.
    """
    a = as_square(a)
    w, s, vh = svd(a)
    r = retained_rank(s, tol)
    u = w[:, :r] @ vh[:r, :]
    v = vh.conj().T
    h = (v * s) @ v.conj().T
    return u, h


def supports(
    a: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Left and right supports of ``a``, the projections onto the ranges of
    ``a`` and ``a*``, from one SVD and one rank decision: with ``a = w diag(s)
    vh`` and rank ``r``, left ``w_r w_r*`` and right ``vh_r* vh_r``."""
    w, s, vh = svd(a)
    r = retained_rank(s, tol)
    return w[:, :r] @ w[:, :r].conj().T, vh[:r, :].conj().T @ vh[:r, :]


def partial_inverse(a: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse under the rank cutoff.

    Satisfies ``a @ partial_inverse(a) = l`` and ``partial_inverse(a) @ a
    = r`` with ``l, r = supports(a)``.  Raises
    :class:`NotPartiallyInvertible` when the retained singular values are
    ill-separated from the cutoff (guard band), because the inverse is
    discontinuous across a rank change.
    """
    return _pinv_from_svd(*svd(a), tol)


def _pinv_from_svd(
    w: np.ndarray, s: np.ndarray, vh: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """:func:`partial_inverse` of the matrix ``w @ diag(s) @ vh``, read off
    that full SVD, guard included: a caller that has decided a rank from the
    same SVD inverts without a second one."""
    r = retained_rank(s, tol, guard=True)
    if r == 0:
        return np.zeros((vh.shape[0], w.shape[0]), dtype=complex)
    return (vh[:r, :].conj().T / s[:r]) @ w[:, :r].conj().T


def _refuse_near_cutoff(smallest: float, cutoff: float) -> None:
    """Refuses a smallest retained value within the guard band."""
    if smallest < GUARD_FACTOR * cutoff:
        raise NotPartiallyInvertible(
            f"smallest retained singular value {smallest:.3e} is within a "
            f"factor {GUARD_FACTOR:g} of the rank cutoff {cutoff:.3e}"
        )


@dataclass(frozen=True, eq=False)
class PositiveSpectrum:
    """Eigen-data of a positive semidefinite block-diagonal matrix, block by
    block, with its rank decided once; a matrix is the one-block case.

    ``blocks`` holds ``(slice, w, v)`` per diagonal block, from
    :func:`hermitian_eig`.  Values at or below the one ``cutoff``,
    ``rank_rel_tol * max(w_max, 0)`` over all blocks, count as zero; the
    first ``ranks[k]`` values of block ``k`` are retained.  Every function
    read from here is written block by block from the block's own
    eigenpairs, restricted to the support and zero on the kernel, so fuzz
    below the cutoff never reaches a root, an inverse or a logarithm.
    """

    blocks: tuple[tuple[slice, np.ndarray, np.ndarray], ...]
    cutoff: float
    ranks: tuple[int, ...]

    @classmethod
    def from_blocks(cls, blocks, tol: ToleranceProfile) -> "PositiveSpectrum":
        """The spectrum of the Hermitian matrix with these block eigenpairs;
        raises :class:`NotPositive` when its smallest eigenvalue lies below
        ``-residual_tol * max(1, w_max)``."""
        w_max = max((float(w[0]) for _, w, _ in blocks if w.size), default=0.0)
        w_min = min((float(w[-1]) for _, w, _ in blocks if w.size), default=0.0)
        if w_min < -tol.residual_tol * max(1.0, w_max):
            raise NotPositive(f"matrix has a negative eigenvalue ({w_min:.3e})")
        cutoff = tol.rank_rel_tol * max(w_max, 0.0)
        ranks = tuple(int(np.count_nonzero(w > cutoff)) for _, w, _ in blocks)
        return cls(tuple(blocks), cutoff, ranks)

    def require_separated(self) -> None:
        """Refuses (:class:`NotPartiallyInvertible`) a retained value within
        ``GUARD_FACTOR`` times the cutoff, as :func:`retained_rank` does."""
        for (_, w, _), r in zip(self.blocks, self.ranks):
            if r:
                _refuse_near_cutoff(float(w[r - 1]), self.cutoff)

    def _blockwise(self, block: Callable) -> np.ndarray:
        """The matrix with ``block(w, v, rank)`` in each diagonal block."""
        out = np.zeros((self.blocks[-1][0].stop,) * 2, dtype=complex)
        for (s, w, v), r in zip(self.blocks, self.ranks):
            out[s, s] = block(w, v, r)
        return out

    def _function(self, f: Callable, dtype) -> np.ndarray:
        """``v diag(f(w)) v*`` per block, with the values past the rank zeroed."""

        def block(w, v, r):
            vals = np.zeros(w.shape, dtype=dtype)
            vals[:r] = f(w[:r])
            return (v * vals) @ v.conj().T

        return self._blockwise(block)

    @property
    def support(self) -> np.ndarray:
        """Projection onto the eigenvectors above the rank cutoff."""
        return self._blockwise(lambda w, v, r: v[:, :r] @ v[:, :r].conj().T)

    def power(self, p: float) -> np.ndarray:
        """``h ** p`` on the support, zero on the kernel; a negative power
        is guarded (:meth:`require_separated`) like the partial inverse."""
        if p < 0.0:
            self.require_separated()
        return self._function(lambda w: w**p, float)

    def imaginary_power(self, t: float) -> np.ndarray:
        """``h ** (i t)`` on the support, zero on the kernel: unitary on the
        support, with the empty-support convention ``0 ** (i t) = 0``."""
        return self._function(lambda w: np.exp(1j * t * np.log(w)), complex)


def positive_spectrum(h: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> PositiveSpectrum:
    """One eigendecomposition of a positive semidefinite matrix, the
    one-block :class:`PositiveSpectrum`.  Raises :class:`NotHermitian` or
    :class:`NotPositive` on input outside the domain."""
    w, v = hermitian_eig(check_hermitian(h, tol))
    return PositiveSpectrum.from_blocks([(slice(0, len(w)), w, v)], tol)


def restricted_power(
    h: np.ndarray, power: float, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """``h ** power`` on the support of ``h``, zero on the kernel.  Negative
    powers are guarded like the partial inverse."""
    return positive_spectrum(h, tol).power(power)


def is_partial_isometry(u: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """Whether ``u* u`` is a projection within residual tolerance."""
    u = np.asarray(u, dtype=complex)
    p = u.conj().T @ u
    return not excess(p @ p, p, tol, frobenius(p))


def is_projection(p: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """Whether ``p`` is a Hermitian idempotent within residual tolerance."""
    p = np.asarray(p, dtype=complex)
    scale = frobenius(p)
    return not (excess(p, p.conj().T, tol, scale) or excess(p @ p, p, tol, scale))


def projection_rank(p: np.ndarray) -> int:
    """Rank of a projection, read off its trace."""
    return int(round(float(np.trace(p).real)))


def eigen_clusters(w: np.ndarray, rel_gap: float) -> list[list[int]]:
    """Group indices of a descending eigenvalue sequence into clusters.

    A new cluster starts wherever the gap between consecutive eigenvalues
    exceeds ``threshold = rel_gap * max(|w|)``.  A zero sequence forms one
    cluster.  A gap within a factor ``GUARD_FACTOR`` of the threshold, on
    either side, is refused (:class:`AmbiguousCluster`): whether it splits
    a cluster would depend on noise.
    """
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        return []
    scale = float(np.max(np.abs(w)))
    if scale == 0.0:
        return [list(range(w.size))]
    threshold = rel_gap * scale
    clusters: list[list[int]] = [[0]]
    for i in range(1, w.size):
        gap = w[i - 1] - w[i]
        if threshold / GUARD_FACTOR <= gap <= GUARD_FACTOR * threshold:
            raise AmbiguousCluster(
                f"eigenvalue gap {gap:.3e} is within a factor {GUARD_FACTOR:g} "
                f"of the clustering threshold {threshold:.3e}"
            )
        if gap > threshold:
            clusters.append([i])
        else:
            clusters[-1].append(i)
    return clusters

"""Dense complex matrix kernels with an explicit rank policy.

Every rank-sensitive operation (supports, polar factors, partial inverses,
restricted functional calculus) makes its rank decision once per input,
relative to the largest singular value, and reuses it for all derived
quantities.  Operations whose output is discontinuous across a rank change
(the partial inverse and negative restricted powers) refuse inputs whose
smallest retained singular value sits within a factor ``GUARD_FACTOR`` of
the cutoff, so downstream geometry never sees an ambiguous support.

This is the only module that factorizes a matrix.  It calls the LAPACK
drivers that ``numpy.linalg`` calls, through ``scipy.linalg.lapack``, without
NumPy's per-call wrapper: ``zgesdd``/``dgesdd`` for singular values and
vectors (:func:`svd`, :func:`singular_values`, :func:`null_space_rows`),
``zheevd``/``dsyevd`` on the lower triangle for Hermitian spectra
(:func:`hermitian_eig`, :func:`hermitian_eigvals`), and ``zgeqrf`` followed
by ``zungqr`` for the QR factor of a Haar sample (:func:`phase_fixed_q`).
Each call requests LAPACK's optimal workspace, as NumPy does, so the results
equal ``numpy.linalg.svd``, ``eigh``, ``eigvalsh`` and ``qr`` bit for bit
where NumPy and SciPy link the same LAPACK kernels.  A driver that reports
failure (``info != 0``, including NaN input) raises :class:`NoConvergence`.

The kernels check shape and LAPACK status only.  A function whose domain
needs Hermitian, positive or member input checks its own arguments, once,
where they enter: the functional calculus on positive matrices
(:func:`positive_spectrum`, read by :func:`support_projection`,
:func:`matrix_sqrt` and :func:`restricted_power`) checks through
:func:`check_hermitian`, and matrices the code builds Hermitian go straight
to :func:`hermitian_eig`.  A caller that needs several functions of one
positive matrix builds its :class:`PositiveSpectrum` once and reads them all
from it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import (
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


def check_hermitian(h: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Validate Hermitianity of ``h`` within residual tolerance."""
    h = as_square(h)
    defect = frobenius(h - h.conj().T)
    if defect > tol.residual_tol * (1.0 + frobenius(h)):
        raise NotHermitian(f"matrix is not Hermitian (defect {defect:.3e})")
    return h


#: LAPACK drivers and their workspace queries by dtype: the routines
#: ``numpy.linalg`` calls for the same input.
_GESDD = {
    np.dtype(float): (lapack.dgesdd, lapack.dgesdd_lwork),
    np.dtype(complex): (lapack.zgesdd, lapack.zgesdd_lwork),
}
_HEEVD = {
    np.dtype(float): (lapack.dsyevd, lapack.dsyevd_lwork),
    np.dtype(complex): (lapack.zheevd, lapack.zheevd_lwork),
}


def _zungqr_lwork(m: int, n: int) -> tuple[complex, int]:
    """Workspace query of ``zungqr``, returned like SciPy's ``*_lwork`` helpers."""
    _, work, info = lapack.zungqr(np.zeros((m, n), complex), np.zeros(n, complex), -1)
    return work[0], info


@functools.lru_cache(maxsize=256)
def _workspace(query, *args: int) -> tuple[int, ...]:
    """Optimal workspace sizes from a LAPACK query, in the driver's argument
    order.  The workspace can select a blocked code path, so it is what NumPy
    requests that keeps the results equal to NumPy's."""
    *sizes, info = query(*args)
    if info:
        raise _lapack_error(query, info)
    return tuple(int(np.real(x)) for x in sizes)


def _lapack_error(routine, info: int) -> NoConvergence:
    # info < 0 is an argument LAPACK rejected; gesdd reports NaN input so.
    name = routine.__name__.removeprefix("function ")
    return NoConvergence(f"LAPACK {name} failed (info = {info})")


def _real_or_complex(a: np.ndarray) -> np.ndarray:
    """``a`` as a float64 or complex128 array; real input stays real."""
    a = np.asarray(a)
    if a.dtype != np.float64 and a.dtype != np.complex128:
        a = a.astype(complex if a.dtype.kind == "c" else float)
    return a


def _gesdd(a: np.ndarray, compute_uv: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD (or, with ``compute_uv=0``, singular values) of a float64 or
    complex128 matrix through ``dgesdd``/``zgesdd``."""
    m, n = a.shape
    if a.size == 0:  # LAPACK rejects a zero leading dimension
        return np.eye(m, dtype=a.dtype), np.zeros(0), np.eye(n, dtype=a.dtype)
    driver, query = _GESDD[a.dtype]
    # Positional order: a, compute_uv, full_matrices, lwork.
    u, s, vh, info = driver(a, compute_uv, 1, *_workspace(query, m, n, compute_uv, 1))
    if info:
        raise _lapack_error(driver, info)
    return u, s, vh


def _heevd(h: np.ndarray, compute_v: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (and eigenvectors) of a float64 or complex128
    matrix from its lower triangle, through ``dsyevd``/``zheevd``."""
    n = h.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=h.dtype)
    driver, query = _HEEVD[h.dtype]
    # Positional order: a, compute_v, lower, lwork, liwork[, lrwork].
    w, v, info = driver(h, compute_v, 1, *_workspace(query, n, compute_v, 1))
    if info:
        raise _lapack_error(driver, info)
    return w, v


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
    zero: an absolute floor for matrices of small norm.
    """
    _, s, vh = _gesdd(_real_or_complex(a), 1)
    scale = max(s[0], 1.0) if s.size else 1.0
    return vh[int(np.sum(s > tol.rank_rel_tol * scale)):]


def phase_fixed_q(g: np.ndarray) -> np.ndarray:
    """Thin QR factor ``q`` of a complex ``m x n`` matrix ``g = q r``
    (``m >= n``) with the phases of ``r``'s diagonal moved into it; a complex
    Gaussian ``g`` gives a Haar unitary (square) or a Haar isometry (thin).
    ``zgeqrf`` packs ``r`` above ``q``'s reflectors, so the phases are read
    off the packed factor before ``zungqr`` expands ``q``."""
    g = np.asarray(g, dtype=complex)
    m, n = g.shape
    packed, tau, _, info = lapack.zgeqrf(g, *_workspace(lapack.zgeqrf_lwork, m, n))
    if info:
        raise _lapack_error(lapack.zgeqrf, info)
    d = packed.diagonal().copy()
    # Positional order: a, tau, lwork, overwrite_a.
    q, _, info = lapack.zungqr(packed, tau, *_workspace(_zungqr_lwork, m, n), 1)
    if info:
        raise _lapack_error(lapack.zungqr, info)
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
    if guard and rank > 0 and s[rank - 1] < GUARD_FACTOR * cutoff:
        raise NotPartiallyInvertible(
            f"smallest retained singular value {s[rank - 1]:.3e} is within a "
            f"factor {GUARD_FACTOR:g} of the rank cutoff {cutoff:.3e}"
        )
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


def left_support(a: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Projection onto the range of ``a`` (numerical rank decision)."""
    w, s, _ = svd(a)
    r = retained_rank(s, tol)
    return w[:, :r] @ w[:, :r].conj().T


def right_support(a: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Projection onto the range of ``a*`` (numerical rank decision)."""
    _, s, vh = svd(a)
    r = retained_rank(s, tol)
    return vh[:r, :].conj().T @ vh[:r, :]


def partial_inverse(a: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse under the rank cutoff.

    Satisfies ``a @ partial_inverse(a) = left_support(a)`` and
    ``partial_inverse(a) @ a = right_support(a)``.  Raises
    :class:`NotPartiallyInvertible` when the retained singular values are
    ill-separated from the cutoff (guard band), because the inverse is
    discontinuous across a rank change.
    """
    w, s, vh = svd(a)
    r = retained_rank(s, tol, guard=True)
    if r == 0:
        return np.zeros_like(np.asarray(a, dtype=complex)).T.conj()
    return (vh[:r, :].conj().T / s[:r]) @ w[:, :r].conj().T


@dataclass(frozen=True, eq=False)
class PositiveSpectrum:
    """Eigen-data of a positive semidefinite matrix with its rank decided once.

    ``values`` are the eigenvalues, descending and clipped at zero; column
    ``vectors[:, i]`` belongs to ``values[i]``; the first ``rank`` values lie
    above the rank cutoff.  Every function of the matrix read from here is
    restricted to that support and maps the kernel to zero, so numerical fuzz
    below the cutoff never reaches a root, an inverse or a logarithm.
    """

    values: np.ndarray
    vectors: np.ndarray
    rank: int

    @property
    def support(self) -> np.ndarray:
        """Projection onto the eigenvectors above the rank cutoff."""
        v = self.vectors[:, : self.rank]
        return v @ v.conj().T

    def power(self, p: float) -> np.ndarray:
        """``h ** p`` on the support, zero on the kernel."""
        vals = np.zeros_like(self.values)
        vals[: self.rank] = self.values[: self.rank] ** p
        return (self.vectors * vals) @ self.vectors.conj().T

    def imaginary_power(self, t: float) -> np.ndarray:
        """``h ** (i t)`` on the support, zero on the kernel: unitary on the
        support, with the empty-support convention ``0 ** (i t) = 0``."""
        vals = np.zeros(self.values.shape, dtype=complex)
        vals[: self.rank] = np.exp(1j * t * np.log(self.values[: self.rank]))
        return (self.vectors * vals) @ self.vectors.conj().T


def positive_spectrum(
    h: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL, guard: bool = False
) -> PositiveSpectrum:
    """One eigendecomposition of a positive semidefinite matrix.

    Raises :class:`NotHermitian` or :class:`NotPositive` on input outside the
    domain.  The rank is decided by :func:`retained_rank`; ``guard=True``
    refuses an ambiguous rank, as negative powers need.
    """
    w, v = hermitian_eig(check_hermitian(h, tol))
    if w.size and w[-1] < -tol.residual_tol * max(1.0, float(w[0])):
        raise NotPositive(f"matrix has a negative eigenvalue ({float(w[-1]):.3e})")
    w = np.clip(w, 0.0, None)
    return PositiveSpectrum(w, v, retained_rank(w, tol, guard=guard))


def support_projection(h: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Support projection of a positive semidefinite matrix: the span of the
    eigenvectors with eigenvalue above ``rank_rel_tol * lambda_max``."""
    return positive_spectrum(h, tol).support


def matrix_sqrt(h: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix, exactly zero
    on the kernel; a bare ``sqrt`` would amplify the kernel's fuzz."""
    return restricted_power(h, 0.5, tol)


def restricted_power(
    h: np.ndarray, power: float, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """``h ** power`` on the support of ``h``, zero on the kernel.  Negative
    powers are guarded like the partial inverse."""
    return positive_spectrum(h, tol, guard=power < 0.0).power(power)


def is_partial_isometry(u: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """Whether ``u* u`` is a projection within residual tolerance."""
    u = np.asarray(u, dtype=complex)
    p = u.conj().T @ u
    return frobenius(p @ p - p) <= tol.residual_tol * (1.0 + frobenius(p))


def is_projection(p: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """Whether ``p`` is a Hermitian idempotent within residual tolerance."""
    p = np.asarray(p, dtype=complex)
    scale = 1.0 + frobenius(p)
    return (
        frobenius(p - p.conj().T) <= tol.residual_tol * scale
        and frobenius(p @ p - p) <= tol.residual_tol * scale
    )


def projection_rank(p: np.ndarray) -> int:
    """Rank of a projection, read off its trace."""
    return int(round(float(np.trace(p).real)))


def eigen_clusters(w: np.ndarray, rel_gap: float) -> list[list[int]]:
    """Group indices of a descending eigenvalue sequence into clusters.

    A new cluster starts wherever the gap between consecutive eigenvalues
    exceeds ``rel_gap * max(|w|)``.  A zero sequence forms one cluster.
    """
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        return []
    scale = float(np.max(np.abs(w)))
    if scale == 0.0:
        return [list(range(w.size))]
    clusters: list[list[int]] = [[0]]
    for i in range(1, w.size):
        if w[i - 1] - w[i] > rel_gap * scale:
            clusters.append([i])
        else:
            clusters[-1].append(i)
    return clusters

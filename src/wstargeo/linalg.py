"""Dense complex matrix kernels with an explicit rank policy.

Every rank-sensitive operation (supports, polar factors, partial inverses,
restricted functional calculus) makes its rank decision once per input,
relative to the largest singular value, and reuses it for all derived
quantities.  Operations whose output is discontinuous across a rank change
(the partial inverse and every negative power) refuse inputs whose
smallest retained singular value sits within a factor ``GUARD_FACTOR`` of
the cutoff, so downstream geometry never sees an ambiguous support.
Eigenvalue clustering (:func:`~wstargeo.algebra.cluster_pattern`) refuses a
gap within the same factor of its threshold, so no stabilizer dimension
depends on noise.

The kernels take a leading trial axis: a ``(T, n, n)`` stack of matrices
is factored by one LAPACK call, and the rank decision (cutoff, guard band,
positivity) is then made once per matrix of the stack, against that
matrix's own largest value, so matrices of different ranks share one stack
and each gets the bits it gets alone.  A 2-D input is the unstacked case of
the same code, but for three rules that every one-matrix command runs:
:func:`frobenius`, :func:`excess` and :meth:`PositiveSpectrum.from_blocks`
keep a form on Python scalars for one matrix beside the vectorized form for
a stack, since the vectorized forms made the command-line batch of the
benchmark (``cli-files``) 2-3% slower each.  The other rules, the rank
rule of :func:`retained_rank` and block membership in
:mod:`~wstargeo.algebra` among them, have one vectorized form.  A product
truncated to the rank (a polar factor, a support, a partial inverse) is one
product over the whole stack, with the columns past each matrix's rank
zeroed by the mask of the rank rule itself (:func:`_retained`), so matrices
of all ranks share one product.  So does a basis whose length follows the
ranks and eigenvalue clusters of each matrix: it fills a fixed grid of
slots, with a mask of the slots it holds (:func:`gram_defect` checks it
against its mask).  A domain check that fails on a stack raises the error
it raises for one matrix, naming the first failing matrix as its trial
(:func:`refuse`).

In one check (:func:`factor_once`), :func:`svd`, :func:`supports`,
:func:`polar_decompose` and :func:`partial_inverse` compute once per matrix
object (:func:`kept_per_check`): the maps that read one arrow share its SVD.

Each kind of support has one reader: :func:`supports` gives both supports
of a general matrix from one SVD, :func:`positive_spectrum` the support of
a positive matrix, and :func:`~wstargeo.algebra._block_frames` the
blockwise frames of a projection.

This is the only module that factorizes a matrix.  It calls the LAPACK
drivers through the gufuncs that ``numpy.linalg`` itself dispatches to
(``numpy.linalg._umath_linalg``), without NumPy's per-call wrapper:
``svd_f``/``svd`` (``?gesdd``, full and values only) for singular values
and vectors (:func:`svd`, :func:`singular_values`), ``eigh_lo``/
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

import contextlib
import contextvars
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    DomainError,
    NoConvergence,
    NotHermitian,
    NotPartiallyInvertible,
    NotPositive,
    NotUnitVector,
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
    """Return ``a`` as a square complex ndarray, or a ``(T, n, n)`` stack of
    square matrices."""
    m = np.asarray(a, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def frobenius(a: np.ndarray):
    """Frobenius norm, computed as ``numpy.linalg.norm(a)`` computes it: the
    dot products of the real and imaginary parts in memory order, as
    ``ravel(order="K")`` reads them.  A ``(T, n, n)`` stack gives the norm of
    each matrix, as an array, with the bits each matrix gives alone."""
    a = np.asarray(a)
    if a.ndim == 3:
        # Each matrix as one row in memory order.
        if a.strides[-1] > a.strides[-2]:
            a = a.swapaxes(-1, -2)
        v = a.reshape(len(a), -1)
        if v.dtype.kind == "c":
            re, im = v.real, v.imag
            return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
        v = v.astype(float, copy=False)
        return np.sqrt(np.vecdot(v, v))
    # One matrix: the same sums through ndarray.dot and math.sqrt.
    v = a.ravel(order="K")
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


def hs_inner(x: np.ndarray, y: np.ndarray):
    """Hilbert-Schmidt inner product Tr(x* y), antilinear in the first slot;
    of each pair of matrices of two stacks, as an array.

    Each matrix is flattened in row-major order and paired by
    ``numpy.vecdot``, which gives the bits ``numpy.vdot`` gives one pair;
    one pair gives a ``complex``."""
    x, y = np.asarray(x), np.asarray(y)
    z = np.vecdot(x.reshape(x.shape[:-2] + (-1,)), y.reshape(y.shape[:-2] + (-1,)))
    return complex(z) if z.ndim == 0 else z


def herm(x: np.ndarray) -> np.ndarray:
    """Hermitian part (x + x*) / 2, of each matrix of a stack."""
    return (x + x.conj().mT) / 2.0


def antiherm(x: np.ndarray) -> np.ndarray:
    """Anti-Hermitian part (x - x*) / 2, of each matrix of a stack."""
    return (x - x.conj().mT) / 2.0


def expect_real(z, tol: ToleranceProfile = DEFAULT_TOL, what: str = "value"):
    """Assert that ``z`` is real up to residual tolerance and return its real
    part: a ``float`` for one value, an array for an array of values
    (:func:`expect_real_array`).  A NaN part is never real."""
    if isinstance(z, np.ndarray) and z.ndim:
        return expect_real_array(z, tol, what)
    if z != z or not abs(z.imag) <= tol.residual_tol * max(1.0, abs(z)):
        raise NotHermitian(f"{what} has a non-negligible imaginary part: {z!r}")
    return float(z.real)


def expect_real_array(
    z: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL, what: str = "value"
) -> np.ndarray:
    """:func:`expect_real` applied to every entry of an array.  On one value
    per matrix of a stack, a refusal names the first failing matrix as its
    trial (:func:`refuse`)."""
    bad = ~(np.abs(z.imag) <= tol.residual_tol * np.maximum(1.0, np.abs(z)))
    message = f"{what} has a non-negligible imaginary part: {{!r}}"
    if z.ndim == 1:
        refuse(NotHermitian, bad, message, z)
    elif bad.any():
        raise NotHermitian(message.format(z[bad].flat[0]))
    return z.real


def excess(a, b, tol: ToleranceProfile, scale=0.0):
    """The gap ``frobenius(a - b)`` of the identity ``a = b`` where it is not
    within ``residual_tol * (1 + scale)``, else ``0.0``; on a stack, that of
    each matrix, as an array, with a ``scale`` per matrix or one for all.

    The one acceptance rule of the domain checks, used as ``if gap :=
    excess(...): raise ...``, or through :func:`refuse`.  A NaN gap or bound
    is never within: the result is then NaN, which is true, even for a zero
    gap."""
    gap = frobenius(a - b)
    bound = tol.residual_tol * (1.0 + scale)
    if isinstance(gap, np.ndarray):
        return np.where(gap <= bound, 0.0, np.where(gap == 0.0, bound, gap))
    # One matrix: the rule above on Python floats.
    return 0.0 if gap <= bound else gap or bound


#: How :func:`refuse` names the failing matrix ``k`` of a stack: trial
#: ``k``, unless the caller that stacked the matrices set what its axis
#: holds (as the central differences of an observable do).
STACK_NAME: contextvars.ContextVar[Callable[[int], str]] = contextvars.ContextVar(
    "STACK_NAME", default="trial {}".format
)


def refuse(error: type[Exception], failed, message: str, *values) -> None:
    """Raises ``error`` when ``failed`` is true or nonzero (NaN included): for
    one matrix, a scalar; for a stack, an array with one entry per matrix,
    and the first failing one is named as trial ``k`` (:data:`STACK_NAME`).
    The message is ``message.format(*values)``, with ``values`` read at that
    trial; they default to ``failed`` itself, a gap from :func:`excess`."""
    if isinstance(failed, np.ndarray) and failed.ndim:
        bad = np.flatnonzero(failed)
        if bad.size:
            k = int(bad[0])
            at = (np.asarray(v)[k] for v in values or (failed,))
            raise error(message.format(*at) + f" at {STACK_NAME.get()(k)}")
    elif failed:
        raise error(message.format(*values or (failed,)))


def check_hermitian(h: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Validate Hermitianity of ``h``, or of each matrix of a stack, within
    residual tolerance."""
    h = as_square(h)
    refuse(NotHermitian, excess(h, h.conj().mT, tol, frobenius(h)),
           "matrix is not Hermitian (defect {:.3e})")
    return h


def _checked(values: np.ndarray, routine: str) -> np.ndarray:
    """The singular values or eigenvalues from a LAPACK gufunc, unless one is
    NaN: the driver failed (the gufunc then fills every output with NaN, and
    warns) or passed NaN input through."""
    flat = values.ravel()
    square = flat.dot(flat)
    if square != square:
        refuse(NoConvergence, np.isnan(values).any(axis=-1),
               f"LAPACK {routine} failed or met NaN input")
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
    matrix read from its lower triangle, or of each matrix of a stack;
    always the complex driver.

    Returns ``(w, v)`` with ``h = v @ diag(w) @ v*`` and ``w`` sorted in
    descending order; column ``v[:, i]`` belongs to ``w[i]``.  No Hermitian
    check: a caller whose input may not be Hermitian checks it first.
    """
    w, v = _heevd(as_square(h), 1)
    return w[..., ::-1].copy(), v[..., ::-1].copy()


def hermitian_eigvals(h: np.ndarray) -> np.ndarray:
    """Eigenvalues, descending, of a Hermitian matrix read from its lower
    triangle, or of each matrix of a stack (one row per matrix); real input
    uses the real driver.  No Hermitian check."""
    return _heevd(_real_or_complex(h), 0)[0][..., ::-1]


def exp_antihermitian(x: np.ndarray) -> np.ndarray:
    """The unitary ``exp(x)`` of an anti-Hermitian ``x``: with ``i x = v
    diag(w) v*`` from :func:`hermitian_eig`, ``exp(x) = v diag(e^{-i w}) v*``.
    No anti-Hermitian check: a caller whose input may not be anti-Hermitian
    checks it first.  On a stack, the unitary of each matrix."""
    w, v = hermitian_eig(1j * as_square(x))
    return (v * np.exp(-1j * w)[..., None, :]) @ v.conj().mT


#: The results of the :func:`kept_per_check` functions in the open
#: :func:`factor_once` scope, by the identity of their arguments.
_KEPT: contextvars.ContextVar[dict | None] = contextvars.ContextVar("_KEPT", default=None)


@contextlib.contextmanager
def factor_once():
    """The scope of one check: each :func:`kept_per_check` function computes
    in it once per tuple of argument objects.  An inner scope is the outer."""
    token = _KEPT.set({}) if _KEPT.get() is None else None
    try:
        yield
    finally:
        if token is not None:
            _KEPT.reset(token)


def kept_per_check(fn: Callable) -> Callable:
    """``fn``, kept in :func:`factor_once` per tuple of positional arguments
    by their identity, not their bytes.  The scope holds the arguments and
    hands every caller the same result: neither may change in place in it."""

    @functools.wraps(fn)
    def kept(*args, **kwargs):
        memo = _KEPT.get()
        if memo is None or kwargs:
            return fn(*args, **kwargs)
        key = (fn, *map(id, args))
        if key not in memo:
            memo[key] = (args, fn(*args))
        return memo[key][1]

    return kept


@kept_per_check
def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``a = u @ diag(s) @ vh`` with singular values descending, of
    a matrix or of each matrix of a stack."""
    return _gesdd(as_square(a), 1)


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values, descending, of a matrix of any shape; real input
    uses the real driver.  ``singular_values(a)[0]`` is the operator norm."""
    return _gesdd(_real_or_complex(a), 0)[1]


def realified(units: np.ndarray) -> np.ndarray:
    """A stack of complex matrices as the rows of one real matrix, each entry
    as its real and imaginary parts side by side, so that ``Re Tr(x* y)``
    is the dot product of two rows; of a stack of stacks, one per stack."""
    flat = np.ascontiguousarray(units, dtype=complex)
    return flat.reshape(*units.shape[:-3], units.shape[-3], -1).view(float)


def gram_defect(units: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """How far a stack of directions with a mask of the slots it fills is
    from orthonormal on the mask and zero off it, under ``Re Tr(x* y)``:
    the largest entry of ``|G - diag(mask)|`` for its Gram matrix ``G``; of
    a stack of stacks, per stack."""
    rows = realified(units)
    gram = rows @ rows.mT
    return np.max(np.abs(gram - np.eye(mask.shape[-1]) * mask[..., None, :]), axis=(-2, -1), initial=0.0)


def unitarity_defect(frame: np.ndarray):
    """How far the columns of ``frame`` are from orthonormal: the largest
    entry of ``|F* F - 1|``; of a stack of frames, per frame."""
    gram = frame.conj().mT @ frame
    return np.max(np.abs(gram - np.eye(frame.shape[-1])), axis=(-2, -1))


def realified_rank(units: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL):
    """The dimension of the real span of a stack of complex matrices (of each
    of a stack of stacks): the floored rank (:func:`floored_rank`) of
    :func:`realified`."""
    return floored_rank(singular_values(realified(units)), tol)


def floored_rank(s: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL):
    """Number of the singular values ``s``, in any order, above
    ``rank_rel_tol * max(max s, 1)``: the relative rank rule with an
    absolute floor for matrices of small norm.  For a stack of them (one
    row per matrix), an array with the number of each row."""
    scale = np.max(s, axis=-1, initial=1.0)
    return as_count(np.count_nonzero(s > tol.rank_rel_tol * np.asarray(scale)[..., None], axis=-1))


def as_count(n):
    """A count as a Python ``int``, or the counts of a stack as an array."""
    return n if np.ndim(n) else int(n)


def phase_fixed_q(g: np.ndarray) -> np.ndarray:
    """Thin QR factor ``q`` of a complex ``m x n`` matrix ``g = q r``
    (``m >= n``) with the phases of ``r``'s diagonal moved into it, of each
    matrix of a stack; a complex Gaussian ``g`` gives a Haar unitary
    (square) or a Haar isometry (thin).  ``zgeqrf`` overwrites a copy of
    ``g`` with ``r`` above ``q``'s reflectors, and the phases are read off
    the diagonal of each packed factor."""
    packed = np.asarray(g).astype(complex)
    q = _umath_linalg.qr_reduced(packed, _umath_linalg.qr_r_raw(packed))
    d = np.diagonal(packed, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def retained_rank(s: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL):
    """Numerical rank of a descending singular-value sequence; for a stack of
    them (one row per matrix), an array with the rank of each row.

    Values at or below ``rank_rel_tol * s[0]`` are treated as zero.  The
    decision is not guarded: :func:`partial_inverse`, whose result depends
    on it discontinuously, refuses a retained value near the cutoff itself.
    """
    return np.count_nonzero(_retained(s, tol), axis=-1)


def _retained(s: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL, guard: bool = False, top=None):
    """The mask of the values that :func:`retained_rank` counts, one row per
    matrix of a stack: its first ``rank`` entries, as the values descend.
    The rank-truncated products multiply by it.  A block's values are cut
    against ``top``, the largest value of all blocks (one per matrix)."""
    s = np.asarray(s, dtype=float)
    # Row by row, each against its own largest value: a leading value at or
    # below 0 retains nothing, as the sequence descends.
    cutoff = tol.rank_rel_tol * (s[..., 0] if top is None else np.asarray(top))
    kept = s > cutoff[..., None]
    if guard:
        _refuse_near_cutoff(np.where(kept, s, np.inf).min(axis=-1), cutoff)
    return kept


@kept_per_check
def polar_decompose(
    a: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition ``a = u @ h``, of a matrix or of each matrix of a
    stack.

    ``h = (a* a)^{1/2}`` is positive semidefinite and ``u`` is the partial
    isometry carrying the support of ``h`` onto the range of ``a``; singular
    directions below the rank cutoff are annihilated by ``u``.
    """
    w, s, vh = svd(a)
    u = (w * _retained(s, tol)[..., None, :]) @ vh
    v = vh.conj().mT
    h = (v * s[..., None, :]) @ v.conj().mT
    return u, h


@kept_per_check
def supports(
    a: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Left and right supports of ``a``, the projections onto the ranges of
    ``a`` and ``a*``, from one SVD and one rank decision: with ``a = w diag(s)
    vh`` and rank ``r``, left ``w_r w_r*`` and right ``vh_r* vh_r``.  On a
    stack, per matrix."""
    w, s, vh = svd(a)
    kept = _retained(s, tol)
    w, vh = w * kept[..., None, :], vh * kept[..., :, None]
    return w @ w.conj().mT, vh.conj().mT @ vh


@kept_per_check
def partial_inverse(a: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse under the rank cutoff, of a matrix or of
    each matrix of a stack.

    Satisfies ``a @ partial_inverse(a) = l`` and ``partial_inverse(a) @ a
    = r`` with ``l, r = supports(a)``.  Raises
    :class:`NotPartiallyInvertible` when the retained singular values are
    ill-separated from the cutoff (guard band), because the inverse is
    discontinuous across a rank change.
    """
    w, s, vh = svd(a)
    kept = _retained(s, tol, guard=True)[..., None, :]
    v = vh.conj().mT
    return np.divide(v, s[..., None, :], out=np.zeros_like(v), where=kept) @ w.conj().mT


_NEAR_CUTOFF = (
    f"smallest retained singular value {{:.3e}} is within a factor {GUARD_FACTOR:g} "
    "of the rank cutoff {:.3e}"
)


def _refuse_near_cutoff(smallest, cutoff) -> None:
    """Refuses a smallest retained value within the guard band; on arrays, per
    matrix of a stack (:func:`refuse`)."""
    near = smallest < GUARD_FACTOR * cutoff
    refuse(NotPartiallyInvertible, near, _NEAR_CUTOFF, smallest, cutoff)


@dataclass(frozen=True, eq=False)
class PositiveSpectrum:
    """Eigen-data of a positive semidefinite block-diagonal matrix, block by
    block, with its rank decided once; a matrix is the one-block case, and a
    stack holds the eigen-data of each of its matrices.

    ``blocks`` holds ``(slice, w, v)`` per diagonal block, from
    :func:`hermitian_eig`.  Values at or below the one ``cutoff``,
    ``rank_rel_tol * max(w_max, 0)`` over all blocks, count as zero; the
    first ``ranks[k]`` values of block ``k`` are retained.  On a stack each
    matrix has its own cutoff and ranks (arrays over the stack).  Every
    function read from here is written block by block from the block's own
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
        ``-residual_tol * max(1, w_max)``.  Eigenpairs of a stack (block
        values ``(T, n_b)``) give the spectrum of each matrix."""
        ws = [w for _, w, _ in blocks]
        if ws[0].ndim == 2:  # a stack: the same rule, matrix by matrix
            w_max = np.max([w[:, 0] for w in ws], axis=0)
            w_min = np.min([w[:, -1] for w in ws], axis=0)
            scale, cutoff = np.maximum(1.0, w_max), tol.rank_rel_tol * np.maximum(w_max, 0.0)
            ranks = tuple(np.count_nonzero(w > cutoff[:, None], axis=1) for w in ws)
        else:
            w_max = max((float(w[0]) for w in ws if w.size), default=0.0)
            w_min = min((float(w[-1]) for w in ws if w.size), default=0.0)
            scale, cutoff = max(1.0, w_max), tol.rank_rel_tol * max(w_max, 0.0)
            ranks = tuple(int(np.count_nonzero(w > cutoff)) for w in ws)
        refuse(NotPositive, w_min < -tol.residual_tol * scale,
               "matrix has a negative eigenvalue ({:.3e})", w_min)
        return cls(tuple(blocks), cutoff, ranks)

    def require_separated(self) -> None:
        """Refuses (:class:`NotPartiallyInvertible`) a retained value within
        ``GUARD_FACTOR`` times the cutoff, as :func:`retained_rank` does; on
        a stack, per matrix, its smallest over all blocks."""
        w = np.concatenate([w for _, w, _ in self.blocks], axis=-1)
        retained = np.where(w > np.asarray(self.cutoff)[..., None], w, np.inf)
        _refuse_near_cutoff(retained.min(axis=-1), self.cutoff)

    def _blockwise(self, block: Callable) -> np.ndarray:
        """The matrix (or stack) with ``block(w, v, kept)`` in each diagonal
        block, ``kept`` the mask of the block's retained values (per matrix
        of a stack, its own first ``rank``)."""
        _, w, _ = self.blocks[0]
        out = np.zeros(w.shape[:-1] + (self.blocks[-1][0].stop,) * 2, dtype=complex)
        for (s, w, v), r in zip(self.blocks, self.ranks):
            out[..., s, s] = block(w, v, np.arange(w.shape[-1]) < np.asarray(r)[..., None])
        return out

    def _function(self, f: Callable, dtype) -> np.ndarray:
        """``v diag(f(w, kept)) v*`` per block, with the values past the rank
        zeroed: ``f`` maps the retained values ``w[kept]`` and reads the
        mask ``kept`` (one row per matrix of a stack)."""

        def block(w, v, kept):
            vals = np.zeros(w.shape, dtype=dtype)
            vals[kept] = f(w[kept], kept)
            return (v * vals[..., None, :]) @ v.conj().mT

        return self._blockwise(block)

    @property
    def support(self) -> np.ndarray:
        """Projection onto the eigenvectors above the rank cutoff: ``vk vk*``
        per block, with ``vk`` the eigenvectors past the rank zeroed."""

        def block(w, v, kept):
            v = v * kept[..., None, :]
            return v @ v.conj().mT

        return self._blockwise(block)

    def power(self, p: float) -> np.ndarray:
        """``h ** p`` on the support, zero on the kernel; a negative power
        is guarded (:meth:`require_separated`) like the partial inverse."""
        if p < 0.0:
            self.require_separated()
        return self._function(lambda w, kept: w**p, float)

    def imaginary_power(self, t) -> np.ndarray:
        """``h ** (i t)`` on the support, zero on the kernel: unitary on the
        support, with the empty-support convention ``0 ** (i t) = 0``.  On a
        stack ``t`` is one time for all matrices or a ``(T,)`` array, one
        time per matrix."""
        t = np.asarray(t, dtype=float)[..., None]
        return self._function(
            lambda w, kept: np.exp(1j * np.broadcast_to(t, kept.shape)[kept] * np.log(w)),
            complex,
        )


def positive_spectrum(h: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> PositiveSpectrum:
    """One eigendecomposition of a positive semidefinite matrix, the
    one-block :class:`PositiveSpectrum`, or of each matrix of a stack.
    Raises :class:`NotHermitian` or :class:`NotPositive` on input outside
    the domain."""
    w, v = hermitian_eig(check_hermitian(h, tol))
    return PositiveSpectrum.from_blocks([(slice(0, w.shape[-1]), w, v)], tol)


def restricted_power(
    h: np.ndarray, power: float, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """``h ** power`` on the support of ``h``, zero on the kernel.  Negative
    powers are guarded like the partial inverse."""
    return positive_spectrum(h, tol).power(power)


def is_partial_isometry(u: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """Whether ``u* u`` is a projection within residual tolerance; on a
    stack, per matrix."""
    u = np.asarray(u, dtype=complex)
    p = u.conj().mT @ u
    return excess(p @ p, p, tol, frobenius(p)) == 0.0


def is_projection(p: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """Whether ``p`` is a Hermitian idempotent within residual tolerance; on
    a stack, per matrix."""
    p = np.asarray(p, dtype=complex)
    scale = frobenius(p)
    return (excess(p, p.conj().mT, tol, scale) == 0.0) & (excess(p @ p, p, tol, scale) == 0.0)


def projection_rank(p: np.ndarray):
    """Rank of a projection, read off its trace; of each matrix of a stack,
    as an array."""
    return as_count(np.rint(p.trace(axis1=-2, axis2=-1).real).astype(int))


def _unit_vector(v: np.ndarray, tol: ToleranceProfile) -> np.ndarray:
    """``v`` as a complex vector, or each row of a ``(T, n)`` stack, refused
    (:class:`NotUnitVector`) unless of unit norm (NaN included): the input
    check of :func:`feynman_amplitude` and of the Fubini-Study checks in
    :mod:`~wstargeo.poisson`."""
    v = np.asarray(v, dtype=complex)
    norm = np.sqrt(np.vecdot(v, v).real)
    refuse(NotUnitVector, ~(np.abs(norm - 1.0) <= tol.residual_tol * 10),
           "vector norm {:.6f} differs from 1", norm)
    return v


@dataclass(frozen=True)
class AmplitudeReport:
    """Composite transition amplitude of a path of unit vectors and its
    probability."""

    amplitude: complex
    probability: float
    steps: int


def feynman_amplitude(
    vectors: Sequence[np.ndarray], tol: ToleranceProfile = DEFAULT_TOL
) -> AmplitudeReport:
    """Product of successive overlaps <v_k | v_{k+1}> along a path of unit
    vectors; the probability is the squared modulus.  Composing amplitudes is
    the one-dimensional shadow of the groupoid product.  It sits with the
    kernels so that ``wstargeo amplitude`` loads no checker module."""
    if len(vectors) < 2:
        raise DomainError("an amplitude needs a path of at least two vectors")
    units = [_unit_vector(np.ravel(v), tol) for v in vectors]
    amp = complex(1.0)
    for a, b in zip(units, units[1:]):
        amp *= complex(np.vdot(a, b))
    return AmplitudeReport(amplitude=amp, probability=float(abs(amp) ** 2), steps=len(units) - 1)

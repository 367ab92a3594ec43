"""Groupoids over a block algebra and the isomorphisms between them.

Five structures share one interface:

* ``pi``        — partial isometries over projections: compose ``u v`` when
                  ``u* u = v v*``, inverse ``u*``;
* ``g``         — partially invertible elements over projections: supports
                  and the partial inverse as the inverse, from one SVD;
* ``predual``   — normal functionals over positive functionals: the polar
                  decomposition of densities drives source, target, product,
                  and the adjoint inverse;
* ``coadjoint`` — pairs (u, rho) of a partial isometry and a positive
                  functional with ``u* u = support(rho)``, acting by
                  conjugation;
* ``standard``  — vectors g of the standard form over density matrices:
                  source ``g* g``, target ``g g*``, product through the
                  shared modulus (``std_mul``), inverse ``g*``, unit ``d^{1/2}``.

``chain_law_residuals`` evaluates every groupoid law on one
``composable_chain``, or on all of a row's trials at once: every map above
broadcasts over a leading trial axis (a ``(T, dim, dim)`` stack of matrices,
a functional of stacked densities, a coadjoint arrow of both), and gives
each trial the bits it gives alone.  ``composable_chain`` draws the chains
of all trials of a :class:`~wstargeo.sampling.Stream` as one chain of
stacks, and one ``chain_law_residuals`` call returns one residual per trial
and law.  ``axiom_check`` and each law row of the ``groupoid-axioms`` suite
make that one call, in which each arrow is factored once
(:func:`~wstargeo.linalg.factor_once`): every ``g`` map that reads an arrow
reads its one SVD, and ``std_mul`` its one polar decomposition.  A domain
check that fails on a stack names its first failing trial.

``iso_Xi`` (to the predual groupoid), ``iso_Phi`` (to the standard form) and
``gauge_iso_Psi`` (from the pair structure on the isometry bundle) realize
the structure-preserving identifications; ``intertwining_residual`` checks
the functor laws of the first two, and ``psi_intertwining_residual`` those
of the third.  They too broadcast over the trial axis: on stacks of pairs
they return one residual per pair, so the ``isomorphisms`` row checks all
of its trials with one call each.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sampling
from .algebra import (
    BlockAlgebra,
    NormalFunctional,
    coadjoint_apply,
    functional_polar,
    functional_support,
    require_positive,
)
from .errors import InvalidArrow, InvalidTrials, NotComposable
from .linalg import (
    DEFAULT_TOL,
    ToleranceProfile,
    _worst,
    excess,
    factor_once,
    frobenius,
    partial_inverse,
    refuse,
    restricted_power,
    supports,
)
from .standard import iso_Phi, iso_Phi_inv, std_inverse, std_mul

# ---------------------------------------------------------------------------
# partial-isometry groupoid ("pi")


def pi_source(u: np.ndarray) -> np.ndarray:
    """Source projection r(u) = u* u."""
    return u.conj().mT @ u


def pi_target(u: np.ndarray) -> np.ndarray:
    """Target projection l(u) = u u*."""
    return u @ u.conj().mT


def pi_compose(
    u: np.ndarray,
    v: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> np.ndarray:
    """Product u v, defined when r(u) = l(v)."""
    refuse(NotComposable, excess(pi_source(u), pi_target(v), tol, frobenius(u)),
           "r(u) != l(v) (gap {:.3e})")
    return u @ v


def pi_inverse(u: np.ndarray) -> np.ndarray:
    return u.conj().mT


def pi_unit(p: np.ndarray) -> np.ndarray:
    return np.asarray(p, dtype=complex)


# ---------------------------------------------------------------------------
# partially-invertible groupoid ("g")


def g_source(x: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    return supports(x, tol)[1]


def g_target(x: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    return supports(x, tol)[0]


def g_compose(
    x: np.ndarray,
    y: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> np.ndarray:
    refuse(NotComposable, excess(g_source(x, tol), g_target(y, tol), tol, frobenius(x)),
           "right support of x != left support of y (gap {:.3e})")
    return x @ y


def g_inverse(x: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Groupoid inverse: the partial inverse, equal to h^{-1} u* for x = u h."""
    return partial_inverse(x, tol)


def jay(x: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """The involution x -> (partial inverse of x)*; partial isometries are
    exactly its fixed points."""
    return partial_inverse(x, tol).conj().mT


# ---------------------------------------------------------------------------
# predual groupoid ("predual")


def predual_source(
    phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> NormalFunctional:
    """s(phi) = |phi|, the modulus from the polar decomposition of the density."""
    _, mod = functional_polar(phi, tol)
    return mod


def predual_target(
    phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> NormalFunctional:
    """t(phi) = u |phi| u* for the polar part u of the density."""
    u, mod = functional_polar(phi, tol)
    return NormalFunctional(phi.algebra, u @ mod.density @ u.conj().mT)


def predual_compose(
    phi1: NormalFunctional,
    phi2: NormalFunctional,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> NormalFunctional:
    """Product with density u1 u2 |phi2|, defined when s(phi1) = t(phi2):
    the standard-form product of the densities."""
    return NormalFunctional(phi1.algebra, std_mul(phi1.density, phi2.density, tol))


def predual_inverse(phi: NormalFunctional) -> NormalFunctional:
    """phi* (density d*)."""
    return phi.adjoint()


def predual_unit(
    rho: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> NormalFunctional:
    """The unit at a positive functional is the functional itself."""
    require_positive(rho, tol)
    return rho


# ---------------------------------------------------------------------------
# coadjoint-action groupoid ("coadjoint")


@dataclass(frozen=True)
class CoadjointArrow:
    """Arrow (u, rho): a partial isometry with u* u = support(rho) acting on
    the positive functional rho; a stack of ``u`` with a stack of functionals
    holds one arrow per matrix."""

    u: np.ndarray
    rho: NormalFunctional

    def __getitem__(self, index) -> "CoadjointArrow":
        """The arrows of a stack that ``index`` selects."""
        return CoadjointArrow(self.u[index], self.rho[index])


def coadjoint_source(arrow: CoadjointArrow) -> NormalFunctional:
    return arrow.rho


def coadjoint_target(arrow: CoadjointArrow) -> NormalFunctional:
    return NormalFunctional(arrow.rho.algebra, arrow.u @ arrow.rho.density @ arrow.u.conj().mT)


def coadjoint_compose(
    a: CoadjointArrow,
    b: CoadjointArrow,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> CoadjointArrow:
    """(u, rho) . (w, delta) = (u w, delta), defined when rho = w delta w*."""
    d = a.rho.density
    refuse(NotComposable, excess(coadjoint_target(b).density, d, tol, frobenius(d)),
           "source of left arrow != target of right arrow (gap {:.3e})")
    return CoadjointArrow(a.u @ b.u, b.rho)


def coadjoint_inverse(arrow: CoadjointArrow) -> CoadjointArrow:
    return CoadjointArrow(arrow.u.conj().mT, coadjoint_target(arrow))


def coadjoint_unit(
    rho: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> CoadjointArrow:
    return CoadjointArrow(functional_support(rho, tol), rho)


# ---------------------------------------------------------------------------
# shared interface

def _dist_matrix(a: np.ndarray, b: np.ndarray) -> float:
    return frobenius(a - b)


def _dist_functional(a: NormalFunctional, b: NormalFunctional) -> float:
    return a.distance(b)


def _dist_coadjoint(a: CoadjointArrow, b: CoadjointArrow) -> float:
    return np.maximum(frobenius(a.u - b.u), a.rho.distance(b.rho))


@dataclass(frozen=True)
class GroupoidOps:
    """Uniform access to one groupoid's structural maps.

    ``source``/``target`` map an arrow to an object, ``unit`` maps an object
    to an arrow, and ``distance`` compares two arrows (units are arrows, so it
    also compares objects embedded as units).
    """

    source: Callable
    target: Callable
    compose: Callable
    inverse: Callable
    unit: Callable
    arrow_distance: Callable
    object_distance: Callable


# Each map is a lambda that looks its function up as a module global at call
# time, so a rebound ``groupoids.<name>`` (a tracer span, a planted fault)
# reaches every law check.
GROUPOIDS: dict[str, GroupoidOps] = {
    "pi": GroupoidOps(
        source=lambda u, tol: pi_source(u),
        target=lambda u, tol: pi_target(u),
        compose=lambda a, b, tol: pi_compose(a, b, tol),
        inverse=lambda u, tol: pi_inverse(u),
        unit=lambda p, tol: pi_unit(p),
        arrow_distance=_dist_matrix,
        object_distance=_dist_matrix,
    ),
    "g": GroupoidOps(
        source=lambda x, tol: g_source(x, tol),
        target=lambda x, tol: g_target(x, tol),
        compose=lambda x, y, tol: g_compose(x, y, tol),
        inverse=lambda x, tol: g_inverse(x, tol),
        unit=lambda p, tol: pi_unit(p),
        arrow_distance=_dist_matrix,
        object_distance=_dist_matrix,
    ),
    "predual": GroupoidOps(
        source=lambda phi, tol: predual_source(phi, tol),
        target=lambda phi, tol: predual_target(phi, tol),
        compose=lambda a, b, tol: predual_compose(a, b, tol),
        inverse=lambda phi, tol: predual_inverse(phi),
        unit=lambda rho, tol: predual_unit(rho, tol),
        arrow_distance=_dist_functional,
        object_distance=_dist_functional,
    ),
    "coadjoint": GroupoidOps(
        source=lambda a, tol: coadjoint_source(a),
        target=lambda a, tol: coadjoint_target(a),
        compose=lambda a, b, tol: coadjoint_compose(a, b, tol),
        inverse=lambda a, tol: coadjoint_inverse(a),
        unit=lambda rho, tol: coadjoint_unit(rho, tol),
        arrow_distance=_dist_coadjoint,
        object_distance=_dist_functional,
    ),
    # Objects are densities: a vector does not carry its BlockAlgebra.
    "standard": GroupoidOps(
        source=lambda g, tol: pi_source(g),
        target=lambda g, tol: pi_target(g),
        compose=lambda g1, g2, tol: std_mul(g1, g2, tol),
        inverse=lambda g, tol: std_inverse(g),
        unit=lambda rho, tol: restricted_power(rho, 0.5, tol),
        arrow_distance=_dist_matrix,
        object_distance=_dist_matrix,
    ),
}


def composable_chain(
    tag: str,
    algebra: BlockAlgebra,
    rng: sampling.Stream,
    length: int = 3,
) -> list:
    """Chain (a_1, ..., a_length) with s(a_i) = t(a_{i+1}), built backwards
    from mutually equivalent projections so every consecutive pair composes
    exactly: one chain of stacks, an entry per trial of the stream."""
    if tag not in GROUPOIDS:
        raise InvalidTrials(f"unknown groupoid tag {tag!r}")
    qs = sampling.frame_chain(algebra, rng, length, allow_zero=tag != "standard")
    isometries = [
        sampling.isometry_between(rng, qs[i + 1], qs[i]) for i in range(length)
    ]
    if tag == "pi":
        return isometries
    if tag == "g":
        return [u @ sampling.positive_on(rng, q) for u, q in zip(isometries, qs[1:])]
    # Moduli m_i = u_{i+1} m_{i+1} u_{i+1}*, so arrow i's source is arrow
    # (i+1)'s target.
    mods = [sampling.positive_on(rng, qs[-1])]
    for u in reversed(isometries[1:]):
        mods.insert(0, u @ mods[0] @ u.conj().mT)
    if tag == "predual":
        return [NormalFunctional(algebra, u @ m) for u, m in zip(isometries, mods)]
    if tag == "coadjoint":
        return [
            CoadjointArrow(u, NormalFunctional(algebra, m))
            for u, m in zip(isometries, mods)
        ]
    return [u @ m for u, m in zip(isometries, mods)]


@factor_once()
def chain_law_residuals(tag: str, chain: list, tol: ToleranceProfile = DEFAULT_TOL) -> dict:
    """Residuals of the groupoid laws on one composable chain of three arrows;
    on a chain of stacks (:func:`composable_chain` given a stream of
    trials), an array per law with one residual per chain, each with the bits
    that chain gives alone."""
    ops = GROUPOIDS[tag]
    a, b, c = chain
    comp = lambda x, y: ops.compose(x, y, tol)  # noqa: E731

    ab = comp(a, b)
    bc = comp(b, c)
    res: dict[str, float] = {}
    res["associativity"] = ops.arrow_distance(comp(ab, c), comp(a, bc))
    res["source_of_product"] = ops.object_distance(
        ops.source(ab, tol), ops.source(b, tol)
    )
    res["target_of_product"] = ops.object_distance(
        ops.target(ab, tol), ops.target(a, tol)
    )

    unit_s = ops.unit(ops.source(a, tol), tol)
    unit_t = ops.unit(ops.target(a, tol), tol)
    res["unit_right"] = ops.arrow_distance(comp(a, unit_s), a)
    res["unit_left"] = ops.arrow_distance(comp(unit_t, a), a)

    inv = ops.inverse(a, tol)
    res["inverse_right"] = ops.arrow_distance(comp(a, inv), unit_t)
    res["inverse_left"] = ops.arrow_distance(comp(inv, a), unit_s)
    res["double_inverse"] = ops.arrow_distance(ops.inverse(inv, tol), a)
    res["antihomomorphism"] = ops.arrow_distance(
        ops.inverse(ab, tol), comp(ops.inverse(b, tol), inv)
    )
    return res


@dataclass(frozen=True)
class AxiomReport:
    """Worst residual of each groupoid law over the sampled chains."""

    tag: str
    trials: int
    seed: int
    law_residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        return _worst(*self.law_residuals.values())


def axiom_check(
    tag: str,
    algebra: BlockAlgebra,
    trials: int,
    seed: int,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> AxiomReport:
    """The worst residual of every groupoid law over ``trials`` composable
    chains, chain ``k`` row ``k`` of the stream keyed ``(seed,)``, all
    checked by one call on their stack."""
    if trials < 1:
        raise InvalidTrials(f"trials must be positive, got {trials}")
    chain = composable_chain(tag, algebra, sampling.Stream((seed,), range(trials)), 3)
    laws = chain_law_residuals(tag, chain, tol)
    worst = {law: _worst(0.0, *values.tolist()) for law, values in laws.items()}
    return AxiomReport(tag=tag, trials=trials, seed=seed, law_residuals=worst)


# ---------------------------------------------------------------------------
# isomorphisms


def iso_Xi(arrow: CoadjointArrow) -> NormalFunctional:
    """Identify a coadjoint arrow (u, rho) with the functional of density
    u d_rho; objects map identically."""
    return NormalFunctional(arrow.rho.algebra, arrow.u @ arrow.rho.density)


def iso_Xi_inv(
    phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> CoadjointArrow:
    u, mod = functional_polar(phi, tol)
    return CoadjointArrow(u, mod)


def intertwining_residual(
    src: str,
    dst: str,
    functor: Callable,
    functor_inv: Callable,
    on_objects: Callable,
    pair: tuple,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> float:
    """Worst deviation of ``functor`` (arrows of ``src`` to arrows of
    ``dst``, with ``on_objects`` on objects) from commuting with source,
    target, inverse, unit and product on a composable pair, and of
    ``functor_inv`` from undoing it; NaN if any deviation is NaN.  On a pair
    of stacks, an array with the deviation of each pair, with the bits that
    pair gives alone."""
    S, T = GROUPOIDS[src], GROUPOIDS[dst]
    a, b = pair
    fa = functor(a, tol)
    s_a = S.source(a, tol)
    return np.max([
        T.object_distance(T.source(fa, tol), on_objects(s_a)),
        T.object_distance(T.target(fa, tol), on_objects(S.target(a, tol))),
        T.arrow_distance(T.inverse(fa, tol), functor(S.inverse(a, tol), tol)),
        T.arrow_distance(
            T.unit(on_objects(s_a), tol), functor(S.unit(s_a, tol), tol)
        ),
        T.arrow_distance(
            T.compose(fa, functor(b, tol), tol), functor(S.compose(a, b, tol), tol)
        ),
        S.arrow_distance(functor_inv(fa, tol), a),
    ], axis=0)


def xi_intertwining_residual(
    pair: tuple[CoadjointArrow, CoadjointArrow], tol: ToleranceProfile = DEFAULT_TOL
) -> float:
    """Worst deviation of Xi from commuting with source, target, unit,
    inverse, and the product, on a composable pair of coadjoint arrows (of
    each pair of a stack)."""
    return intertwining_residual(
        "coadjoint", "predual", lambda a, tol: iso_Xi(a), iso_Xi_inv,
        lambda rho: rho, pair, tol,
    )


def phi_intertwining_residual(
    algebra: BlockAlgebra,
    a: CoadjointArrow,
    b: CoadjointArrow,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> float:
    """Worst deviation of Phi from commuting with source, target, unit,
    inverse, and product on a composable pair of coadjoint arrows (of each
    pair of a stack)."""
    return intertwining_residual(
        "coadjoint", "standard",
        lambda arrow, tol: iso_Phi(arrow.u, arrow.rho, tol),
        lambda g, tol: CoadjointArrow(*iso_Phi_inv(algebra, g, tol)),
        lambda rho: rho.density, (a, b), tol,
    )


def gauge_iso_Psi(
    u: np.ndarray,
    v: np.ndarray,
    rho0: NormalFunctional,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> CoadjointArrow:
    """Map a pair (u, v) of partial isometries with common source
    support(rho0) to the coadjoint arrow (u v*, v rho0 v*); on stacks, per
    triple."""
    p0 = functional_support(rho0, tol)
    for w, name in ((u, "u"), (v, "v")):
        refuse(InvalidArrow, excess(w.conj().mT @ w, p0, tol, frobenius(p0)),
               f"{name}* {name} is not the support of rho0")
    return CoadjointArrow(
        u @ v.conj().mT,
        NormalFunctional(rho0.algebra, v @ rho0.density @ v.conj().mT),
    )


def psi_intertwining_residual(
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    rho0: NormalFunctional,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> float:
    """Worst deviation of Psi from commuting with the pair-groupoid structure
    on a composable pair (u, v), (v, w) (of each of a stack, as an array;
    NaN if any deviation is NaN)."""
    A = gauge_iso_Psi(u, v, rho0, tol)
    B = gauge_iso_Psi(v, w, rho0, tol)
    rho_u = coadjoint_apply(u, rho0, tol)
    return np.max([
        coadjoint_source(A).distance(coadjoint_apply(v, rho0, tol)),
        coadjoint_target(A).distance(rho_u),
        _dist_coadjoint(coadjoint_inverse(A), gauge_iso_Psi(v, u, rho0, tol)),
        _dist_coadjoint(coadjoint_compose(A, B, tol), gauge_iso_Psi(u, w, rho0, tol)),
        _dist_coadjoint(coadjoint_unit(rho_u, tol), gauge_iso_Psi(u, u, rho0, tol)),
    ], axis=0)

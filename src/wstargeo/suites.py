"""Named verification suites.

Each suite is a list of row groups.  A group (:class:`_Group`) draws
deterministic pseudo-random data once, from the stream
:meth:`RowCtx.stream` keyed ``(seed, group key)``, and checks one family of
identities on it; each of its rows reports the worst of some of the
residuals against a row-specific tolerance.  Rows are deterministic
functions of ``(algebra, trials, seed)``.

The draw (``_draw_*``) gives the data of all the trials at once, trial ``k``
from row ``k`` of each slot; the check (``_check_*``) runs once, on the
stacks, and returns residual arrays by name, one entry per trial with the
bits the trial gets alone, besides values of no one trial: fixed cases
(``charts/transition-oracle`` and ``kks/calibration``, whose draws take no
slot) and aggregates across trials (``exactness/order``).  Group keys are
literals, no two alike in all the suites, so adding or reordering a row or
a group moves no other group's stream.

The registry is consumed by :func:`run_suite` and by the command line's
``verify`` subcommand; suite and row names are stable identifiers.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sampling
from .algebra import (
    BlockAlgebra,
    NormalFunctional,
    centralizer_basis,
    coadjoint_apply,
    combination,
    conditional_expectation,
    functional_support,
    modular_flow,
    mvn_equivalent,
    mvn_witness,
    orbit_equivalent,
    stabilizer_direction,
    stabilizer_lie_algebra,
    unitary_equivalent,
    unitary_witness,
)
from .charts import (
    chart_G,
    chart_G_inv,
    chart_Theta,
    chart_Theta_inv,
    chart_domain_member,
    connection_alpha,
    curvature_Omega,
    dGamma0,
    fd_surface_dGamma0,
    hv_split,
    jay_corner,
    phi_p,
    phi_p_inv,
    sigma_p,
    theta_P0,
    theta_P0_inv,
    transition_L,
    u_p,
)
from .errors import InvalidTrials, UnknownSuite
from .groupoids import (
    chain_law_residuals,
    composable_chain,
    gauge_iso_Psi,
    jay,
    phi_intertwining_residual,
    psi_intertwining_residual,
    xi_intertwining_residual,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceProfile,
    _worst,
    exp_antihermitian,
    excess,
    expect_real,
    expect_real_array,
    factor_once,
    frobenius,
    gram_defect,
    polar_decompose,
    realified_rank,
    supports,
    unitarity_defect,
)
from .poisson import (
    Observable,
    calibrate_kappa,
    commutant_bracket_check,
    degeneracy_kernel_check,
    draw_family_data,
    exactness_residual,
    families_on,
    field_duality_residual,
    field_morphism_residual,
    fubini_study_compare,
    jacobi_residual,
    kks_check,
    leibniz_residual,
    linear_closure_residual,
    multiplicativity_residual,
    orbit_form_invariance_residual,
    orbit_form_sample,
    pair_groupoid_fs_residual,
    poisson_map_residual,
    vertical_form_residual,
)
# Bound as a module global and looked up at each call, so it can be wrapped
# (for instance to count draws) by rebinding ``suites._retry``.  A stacked
# redraw passes it one closure per row (``sampling.redraw_failures``).
from .sampling import sample_with_retry as _retry
from .standard import (
    conjugation_J,
    dual_pair_orthogonality_check,
    flow_residuals,
    flow_sample,
    modular_Delta,
    std_unit,
    tomita_S,
    transport_witness,
)

__all__ = [
    "SUITE_NAMES",
    "SuiteResult",
    "run_suite",
    "suite_rows",
]

#: Flow times exercised by the modular-flow suite (includes the fixed point
#: t = 0 and both signs at two scales): each trial of the flow report draws
#: one, and the orbit-form row takes all of them.
FLOW_TIMES = (0.0, 0.3, -0.3, 1.7, -1.7)


@dataclass(frozen=True)
class RowCtx:
    """Everything a group's draw and check need to run deterministically."""

    algebra: BlockAlgebra
    trials: int
    seed: int
    key: int
    profile: ToleranceProfile

    def stream(self, trials=None) -> sampling.Stream:
        """The stream keyed ``(seed, key)`` of the given trial indices, by
        default all of them: trial ``k`` reads row ``k`` of every slot."""
        trials = range(self.trials) if trials is None else trials
        return sampling.Stream((self.seed, self.key), trials)


@dataclass(frozen=True)
class SuiteResult:
    """One row of a verification report."""

    suite: str
    trials: int
    seed: int
    max_residual: float
    tolerance: float
    passed: bool
    wall_time: float

    @property
    def status(self) -> str:
        return "pass" if self.passed else "FAIL"


@dataclass(frozen=True)
class _Group:
    """Rows that read one run of a draw and a check: ``draw(ctx, rng)`` gives
    the data of the trials of the stream ``rng``, as stacks, and
    ``check(ctx, *data)`` their residual arrays by name.  Each row ``(name,
    tolerance, keys)`` reports :func:`_residual` of the arrays ``keys``.
    Trial ``k`` alone is ``check(ctx, *draw(ctx, ctx.stream([k])))``, with
    the bits it has in the stack."""

    key: int
    draw: Callable
    check: Callable
    rows: list[tuple[str, float, tuple[str, ...]]]

    def run(self, algebra: BlockAlgebra, trials: int, seed: int,
            profile: ToleranceProfile = DEFAULT_TOL) -> dict:
        """The arrays of the check on the draw of ``trials`` trials from the
        stream keyed ``(seed, key)``."""
        ctx = RowCtx(algebra, trials, seed, self.key, profile)
        return self.check(ctx, *self.draw(ctx, ctx.stream()))


def _residual(checks: dict, keys: tuple[str, ...]) -> float:
    """The worst entry of the arrays ``keys`` of ``checks`` (of all of them
    if ``keys`` is empty), NaN if any entry is."""
    return _worst(0.0, *(r for key in keys or checks for r in np.ravel(checks[key]).tolist()))


def _coefficient_width(algebra: BlockAlgebra) -> int:
    """The width of a slot of coefficients of a stabilizer or centralizer
    basis, ``sum n_b^2``, its grid of slots: each trial reads those of the
    slots its basis holds."""
    return sum(n * n for n in algebra.blocks)


# ---------------------------------------------------------------------------
# groupoid-axioms
# ---------------------------------------------------------------------------


def _draw_chain(tag: str) -> Callable:
    """The draw of the picture ``tag``'s law row: the tag, then one
    composable chain of three arrows per trial, as one chain of stacks."""

    def draw(ctx: RowCtx, rng) -> list:
        return [tag, *composable_chain(tag, ctx.algebra, rng, 3)]

    return draw


@factor_once()
def _check_laws(ctx: RowCtx, tag: str, *chain) -> dict:
    """The groupoid laws of the picture ``tag`` on the chain; for the
    standard form also the polar data of its arrows, read off the polar
    decomposition that the laws took of the first arrow."""
    prof = ctx.profile
    checks = chain_law_residuals(tag, chain, prof)
    if tag == "standard":
        # Polar data of an arrow gamma = u m: gamma = (u m u*) u relates
        # the left and right moduli through the isometry leg.
        a = chain[0]
        u, h = polar_decompose(a, prof)
        checks["polar"] = frobenius(a - (u @ h @ u.conj().mT) @ u)
    return checks


def _draw_isomorphisms(ctx: RowCtx, rng) -> list:
    alg, prof = ctx.algebra, ctx.profile
    a, b = composable_chain("coadjoint", alg, rng, 2)
    f0 = sampling.random_frames(alg, rng, allow_zero=False)
    rho0 = sampling.density_on(rng, f0)
    u, v, w = [
        sampling.isometry_between(rng, f0, sampling.equivalent_frames(rng, f0))
        for _ in range(3)
    ]
    # The direction reads the coefficients of the stabilizer slots of its
    # base density.
    coeff = rng.take("standard_normal", shape=(_coefficient_width(alg),))
    return [a, b, u, v, w, rho0, stabilizer_direction(rho0, coeff, prof)]


@factor_once()
def _check_isomorphisms(ctx: RowCtx, a, b, u, v, w, rho0, x) -> dict:
    """The three structure-preserving maps between the arrow pictures, on
    composable random pairs; each arrow of Phi's image factored once."""
    alg, prof = ctx.algebra, ctx.profile
    # Gauge invariance: right translation by a stabilizer element of the
    # base density leaves the quotient map unchanged.
    g = exp_antihermitian(x)
    arrow = gauge_iso_Psi(u, v, rho0, prof)
    arrow_g = gauge_iso_Psi(u @ g, v @ g, rho0, prof)
    return {
        "xi": xi_intertwining_residual((a, b), prof),
        "phi": phi_intertwining_residual(alg, a, b, prof),
        "psi": psi_intertwining_residual(u, v, w, rho0, prof),
        "gauge": frobenius(arrow.u - arrow_g.u) + arrow.rho.distance(arrow_g.rho),
    }


def _draw_equivalences(ctx: RowCtx, rng) -> list:
    alg = ctx.algebra
    pf = sampling.random_frames(alg, rng)
    q = sampling.equivalent_frames(rng, pf).projection
    x = sampling.random_element(alg, rng)
    rho_f = sampling.random_frames(alg, rng, allow_zero=False)
    rho = sampling.density_on(rng, rho_f)
    u = sampling.isometry_between(rng, rho_f, sampling.equivalent_frames(rng, rho_f))
    # Negative control: a rank change breaks equivalence.
    ranks = np.array(pf.ranks)
    ranks[..., 0] = (ranks[..., 0] + 1) % (alg.blocks[0] + 1)
    p_bad = sampling.random_projection(alg, rng, ranks=ranks)
    return [pf.projection, q, x, rho_f.projection, rho, u, p_bad]


def _check_equivalences(ctx: RowCtx, p, q, x, rho_supp, rho, u, p_bad) -> dict:
    """Whether each equivalence notion (Murray-von Neumann, unitary orbit,
    support equivalence) disagrees with what the data force: true where a
    notion fails on equivalent data, or holds on a negative control, so the
    row reads 1 if any trial disagrees."""
    alg, prof = ctx.algebra, ctx.profile
    # The two supports of any functional are equivalent.
    l_supp, r_supp = supports(x, prof)
    # Pushing a positive functional along an arrow preserves its orbit
    # invariants and maps supports to equivalent supports.
    pushed = coadjoint_apply(u, rho, prof)
    # Negative control: a spectral shift breaks orbit equivalence.
    shifted = NormalFunctional(alg, rho.density + 0.25 * rho_supp)
    must_hold = {
        "mvn": mvn_equivalent(alg, p, q, prof),
        "unitary": unitary_equivalent(alg, p, q, prof),
        "supports": mvn_equivalent(alg, l_supp, r_supp, prof),
        "orbit": orbit_equivalent(rho, pushed, prof),
        "pushed-support": mvn_equivalent(alg, supports(pushed.density, prof)[0], rho_supp, prof),
    }
    must_fail = {
        "mvn-rank-change": mvn_equivalent(alg, p, p_bad, prof),
        "orbit-shift": orbit_equivalent(rho, shifted, prof),
    }
    return {**{k: np.logical_not(v) for k, v in must_hold.items()}, **must_fail}


def _draw_witnesses(ctx: RowCtx, rng) -> list:
    alg = ctx.algebra
    pf = sampling.random_frames(alg, rng)
    q = sampling.equivalent_frames(rng, pf).projection
    phi1 = sampling.random_density(alg, rng)
    uu = sampling.random_unitary(alg, rng)
    qs = sampling.frame_chain(alg, rng, 2, allow_zero=False)
    h = sampling.positive_on(rng, qs[2])
    u1 = sampling.isometry_between(rng, qs[2], qs[1])
    w0 = sampling.isometry_between(rng, qs[1], qs[0])
    return [pf.projection, q, phi1, uu, h, u1, w0]


def _check_witnesses(ctx: RowCtx, p, q, phi1, uu, h, u1, w0) -> dict:
    """Constructive witnesses for the three equivalences actually implement
    them."""
    alg, prof = ctx.algebra, ctx.profile
    w = mvn_witness(alg, p, q, prof)
    phi2 = NormalFunctional(alg, uu @ phi1.density @ uu.conj().mT)
    v = unitary_witness(phi1, phi2, prof)
    g1 = u1 @ h
    g2 = w0 @ g1
    wt = transport_witness(g1, g2, prof)
    return {
        "mvn-source": frobenius(w.conj().mT @ w - p),
        "mvn-target": frobenius(w @ w.conj().mT - q),
        "unitary": frobenius(v @ v.conj().mT - alg.identity()),
        "unitary-orbit": frobenius(v @ phi1.density @ v.conj().mT - phi2.density),
        "transport": frobenius(wt @ g1 - g2),
    }


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


def _draw_equivalent_in_domain(alg, rng, prof, count: int):
    """count projections per trial, mutually equivalent, each pair in each
    other's chart domain."""

    def draw(rng):
        ps = [f.projection for f in sampling.frame_chain(alg, rng, count - 1, allow_zero=False)]
        # Membership is symmetric (q p = (p q)* has the same singular
        # values) and holds on the diagonal, so one test per unordered pair.
        inside = [chart_domain_member(a, b, prof) for i, a in enumerate(ps) for b in ps[i + 1:]]
        return ps, np.logical_and.reduce(inside)

    return sampling.redraw_failures(rng, draw, _retry)


def _draw_round_trip(ctx: RowCtx, rng) -> list:
    alg, prof = ctx.algebra, ctx.profile
    p, q = _draw_equivalent_in_domain(alg, rng, prof, 2)

    def draw_g(rng):
        fs = sampling.frame_chain(alg, rng, 3, allow_zero=False)
        p_, pt, l, r = (f.projection for f in fs)
        inside = chart_domain_member(p_, l, prof) & chart_domain_member(pt, r, prof)
        return [p_, pt, fs[2], fs[3]], inside

    p_, pt, f2, f3 = sampling.redraw_failures(rng, draw_g, _retry)
    return [p, q, p_, pt, sampling.isometry_between(rng, f3, f2), sampling.positive_on(rng, f3)]


@factor_once()
def _check_round_trip(ctx: RowCtx, p, q, p_, pt, wiso, h) -> dict:
    """Projection and groupoid charts composed with their inverses.  ``wiso``
    and ``jay(x)`` have the supports ``l, r`` of ``x = wiso h`` (``h`` is
    positive on ``r``), so their Theta middles read the chart legs of ``x``."""
    prof = ctx.profile
    sigma = sigma_p(p, q, prof)
    x = wiso @ h
    coords = chart_G(p_, pt, x, prof)
    z = coords[1]
    coords_t = chart_Theta(p_, pt, x, prof)
    l, r = supports(x, prof)
    left, right = u_p(p_, l, prof).conj().mT, u_p(pt, r, prof)
    # On a partial isometry the polar chart's middle is a partial
    # isometry between the legs, and the node reflection acts cornerwise.
    m = left @ wiso @ right
    m_jay = left @ jay(x, prof) @ right
    return {
        "sigma-left": frobenius((p @ q) @ sigma - p),
        "sigma-right": frobenius(sigma @ (p @ q) - q),
        "sigma-corner": frobenius(sigma @ p - sigma),
        "phi": frobenius(phi_p_inv(p, phi_p(p, q, prof), prof) - q),
        "chart-G": frobenius(chart_G_inv(p_, pt, coords, prof) - x),
        "chart-G-corner": frobenius(p_ @ z - z) + frobenius(z @ pt - z),
        "chart-Theta": frobenius(chart_Theta_inv(p_, pt, coords_t, prof) - x),
        "Theta-middle": frobenius(m.conj().mT @ m - pt),
        "jay": frobenius(m_jay - jay_corner(coords_t[1], prof)),
    }


def _draw_cocycle(ctx: RowCtx, rng) -> list:
    return _draw_equivalent_in_domain(ctx.algebra, rng, ctx.profile, 4)


@factor_once()
def _check_cocycle(ctx: RowCtx, p, p1, p2, q) -> dict:
    """Transition maps between three charts: the chart change and the
    cocycle identity; the chart-change and the cocycle share the overlaps
    ``phi_p_inv(p, y)`` and ``phi_p_inv(p1, y1)``, factored once."""
    prof = ctx.profile
    y = phi_p(p, q, prof)
    y1 = transition_L(p, p1, y, prof)
    y2_direct = transition_L(p, p2, y, prof)
    y2_via = transition_L(p1, p2, y1, prof)
    zero = np.zeros_like(y)
    return {
        "chart-change": frobenius(phi_p_inv(p1, y1, prof) - q),
        "cocycle": frobenius(y2_direct - y2_via),
        "base-point": frobenius(transition_L(p, p1, zero, prof) - phi_p(p1, p, prof)),
    }


def _draw_transition_case(ctx: RowCtx, rng) -> list:
    """The hand-computed two-by-two chart example, ``p = diag(1, 0)`` and
    ``q`` the projection onto ``(1, 1) / sqrt 2``: a fixed case that takes
    no slot."""
    return [np.diag([1.0, 0.0]).astype(complex), 0.5 * np.ones((2, 2), dtype=complex)]


def _check_transition_case(ctx: RowCtx, p, q) -> dict:
    """The chart maps of the example against their values by hand."""
    prof = ctx.profile
    y = phi_p(p, q, prof)
    return {
        "sigma": frobenius(sigma_p(p, q, prof) - np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)),
        "phi": frobenius(y - np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)),
        "phi-inverse": frobenius(phi_p_inv(p, y, prof) - q),
        "transition": frobenius(transition_L(p, q, y, prof)),
        "base-point": frobenius(
            transition_L(p, q, np.zeros((2, 2), dtype=complex), prof)
            - np.array([[0.5, 0.5], [-0.5, -0.5]], dtype=complex)
        ),
    }


def _draw_theta(ctx: RowCtx, rng) -> list:
    alg, prof = ctx.algebra, ctx.profile

    def draw(rng):
        fs = sampling.frame_chain(alg, rng, 2, allow_zero=False)
        p0, q, p = (f.projection for f in fs)
        return [p0, q, p, fs[0], fs[1]], chart_domain_member(p, q, prof)

    p0, q, p, f0, f1 = sampling.redraw_failures(rng, draw, _retry)
    return [p0, q, p, sampling.isometry_between(rng, f0, f1)]


def _check_theta(ctx: RowCtx, p0, q, p, u) -> dict:
    """The bundle chart over a base projection, its inverse and its closed
    form."""
    prof = ctx.profile
    y, w = theta_P0(p, u, p0, prof)
    # The closed form ((p u u* p)^+)^{1/2} u is the polar isometry of p u,
    # taken from one SVD of p u: inverting p u u* p would square its
    # condition number and lose the digits this residual measures.
    closed, _ = polar_decompose(p @ u, prof)
    return {
        "round-trip": frobenius(theta_P0_inv(p, (y, w), p0, prof) - u),
        "fibre-source": frobenius(w.conj().mT @ w - p0),
        "fibre-target": frobenius(w @ w.conj().mT - p),
        "closed-form": frobenius(w - closed),
        "base": frobenius(y - phi_p(p, q, prof)),
    }


def _draw_connection(ctx: RowCtx, rng) -> list:
    alg = ctx.algebra
    f0 = sampling.random_frames(alg, rng, allow_zero=False)
    p0 = f0.projection
    rho0 = sampling.density_on(rng, f0)
    u = sampling.isometry_between(rng, f0, sampling.equivalent_frames(rng, f0))
    du1 = sampling.p0_tangent(alg, rng, u, p0)
    du2 = sampling.p0_tangent(alg, rng, u, p0)
    x1 = sampling.corner_antihermitian(alg, rng, p0)
    return [rho0, u, du1, du2, x1]


def _check_connection(ctx: RowCtx, rho0, u, du1, du2, x1) -> dict:
    """The canonical connection: the horizontal/vertical split, the
    connection form, its curvature and the exterior derivative of the orbit
    one-form."""
    prof = ctx.profile
    h1, v1 = hv_split(u, du1)
    h2, _ = hv_split(u, du2)
    om = curvature_Omega(u, du1, du2)
    # The two-form evaluates identically through the split formula.
    d0 = rho0.density
    a1c = connection_alpha(u, du1)
    a2c = connection_alpha(u, du2)
    split = _real_trace(d0 @ (h1.conj().mT @ h2 - h2.conj().mT @ h1), prof) - _real_trace(
        d0 @ (a1c @ a2c - a2c @ a1c), prof
    )
    return {
        "split": frobenius(h1 + v1 - du1),
        "horizontal": frobenius(u.conj().mT @ h1),
        "alpha": frobenius(connection_alpha(u, u @ x1) - x1),
        "Omega-antisymmetric": frobenius(om + curvature_Omega(u, du2, du1)),
        "Omega-antihermitian": frobenius(om + om.conj().mT),
        "Omega-vertical": frobenius(curvature_Omega(u, u @ x1, du2)),
        "Omega-horizontal": frobenius(om - curvature_Omega(u, h1, h2)),
        "dGamma0": abs(dGamma0(rho0, u, du1, du2, prof) - split),
    }


def _real_trace(a, prof: ToleranceProfile):
    """``i Tr a``, checked real, per matrix of a stack."""
    return expect_real_array(1j * np.trace(a, axis1=-2, axis2=-1), prof)


# ---------------------------------------------------------------------------
# multiplicativity / exactness
# ---------------------------------------------------------------------------


def _draw_family_pair(ctx: RowCtx, rng) -> list:
    """Two families on one composable base per trial
    (:func:`~wstargeo.poisson.draw_family_data`)."""
    return draw_family_data(ctx.algebra, rng, 2)


def _draw_family(ctx: RowCtx, rng) -> list:
    return draw_family_data(ctx.algebra, rng, 1)


def _check_multiplicativity(ctx: RowCtx, *data) -> dict:
    fam, fam2 = families_on(ctx.algebra, data, ctx.profile)
    return {"multiplicativity": multiplicativity_residual(fam, fam2, ctx.profile)}


def _draw_vertical(ctx: RowCtx, rng) -> list:
    alg = ctx.algebra
    qf = sampling.random_frames(alg, rng, allow_zero=False)
    q = qf.projection
    u = sampling.isometry_between(rng, qf, sampling.equivalent_frames(rng, qf))
    xi = sampling.positive_on(rng, qf)
    b = sampling.corner_antihermitian(alg, rng, q)
    b2 = sampling.corner_antihermitian(alg, rng, q)
    return [u, xi, b, b2]


def _check_vertical(ctx: RowCtx, u, xi, b, b2) -> dict:
    return {"vertical": vertical_form_residual(u, xi, b, b2, ctx.profile)}


#: The two steps of ``exactness/order``, the second half the first.
ORDER_STEPS = (1e-3, 5e-4)


def _check_exactness(ctx: RowCtx, *data) -> dict:
    """The finite-difference defect of each trial's family at the profile's
    step and at each of :data:`ORDER_STEPS`, and how far the median ratio of
    the two across the trials is from 4, the ratio of a second-order scheme:
    NaN if a defect is not finite, 0 if no defect at the second step exceeds
    ``1e-13``."""
    prof = ctx.profile
    [fam] = families_on(ctx.algebra, data, prof)
    steps = {f"h={h:g}": exactness_residual(fam, h, prof) for h in ORDER_STEPS}
    r1, r2 = steps.values()
    kept = r2 > 1e-13
    if not np.isfinite(r1 + r2).all():
        order = float("nan")
    else:
        order = abs(float(np.median(r1[kept] / r2[kept])) - 4.0) if kept.any() else 0.0
    return {"defect": exactness_residual(fam, prof.fd_step, prof), **steps, "order": order}


# ---------------------------------------------------------------------------
# dual-pair
# ---------------------------------------------------------------------------


def _draw_dual_pair(ctx: RowCtx, rng) -> list:
    """Per trial, a generic element or, with even odds, a polar product
    ``u h``: each kind drawn once, for its trials only."""
    alg = ctx.algebra
    generic = rng.take("uniform") < 0.5
    g = np.empty((len(rng), alg.dim, alg.dim), dtype=complex)
    g[generic] = sampling.random_element(alg, rng.part(generic))
    polar = rng.part(~generic)
    qf = sampling.random_frames(alg, polar, allow_zero=False)
    u = sampling.isometry_between(polar, qf, sampling.equivalent_frames(polar, qf))
    g[~generic] = u @ sampling.positive_on(polar, qf)
    return [g]


def _check_dual_pair(ctx: RowCtx, g) -> dict:
    """The fibre-kernel report of each trial's vector."""
    report = dual_pair_orthogonality_check(ctx.algebra, g, ctx.profile)
    return {"orthogonality": report.orthogonality, "dimension": report.dimension_residual}


# ---------------------------------------------------------------------------
# poisson-map
# ---------------------------------------------------------------------------


def _draw_observables(point: Callable, count: int = 3) -> Callable:
    """The draw of a poisson-map group: ``count`` Hermitian elements per
    trial, then ``point(algebra, rng)`` (a vector of the standard form or a
    density), all stacked, the elements scaled to unit operator norm."""

    def draw(ctx: RowCtx, rng) -> list:
        elements = [sampling.random_hermitian(ctx.algebra, rng) for _ in range(count)]
        at = point(ctx.algebra, rng)
        return [*(sampling.unit_norm(m) for m in elements), at]

    return draw


_draw_poisson_vector = _draw_observables(sampling.random_element)
_draw_poisson_density = _draw_observables(sampling.random_density_matrix)
_draw_commutant = _draw_observables(sampling.random_element, 2)


def _observables(ctx: RowCtx, x, y, z) -> tuple:
    """The observables ``f = Re phi(x)``, ``g_fd = Re phi(y)`` (by central
    differences) and ``h = Tr(d^2 z)``."""
    prof = ctx.profile
    g_fd = Observable(value=lambda phi: expect_real(phi(y), prof))
    return Observable.linear(x, prof), g_fd, Observable.quadratic(z, prof)


def _check_poisson_vector(ctx: RowCtx, x, y, z, gamma) -> dict:
    """The quadratic-map residual of three pairs of observables at each
    trial's vector."""
    f, g_fd, h = _observables(ctx, x, y, z)
    residuals = poisson_map_residual([(f, g_fd), (f, h), (g_fd, h)], ctx.algebra, gamma, ctx.profile)
    return dict(zip(("f-g", "f-h", "g-h"), residuals))


def _check_commutant(ctx: RowCtx, x, z, gamma) -> dict:
    """The brackets of ``f = Re phi(x)`` and ``h = Tr(d^2 z)`` with the
    commutant, both ways, at each trial's vector."""
    alg, prof = ctx.algebra, ctx.profile
    f, h = Observable.linear(x, prof), Observable.quadratic(z, prof)
    return {"f-h": commutant_bracket_check(f, h, alg, gamma, prof),
            "h-f": commutant_bracket_check(h, f, alg, gamma, prof)}


def _check_poisson_density(ctx: RowCtx, x, y, z, d) -> dict:
    """The Jacobi, closure, Leibniz and Hamiltonian-field identities at each
    trial's density, on one functional of the stack."""
    prof = ctx.profile
    f, g_fd, h = _observables(ctx, x, y, z)
    phi = NormalFunctional(ctx.algebra, d)
    return {
        "jacobi": jacobi_residual(x, y, z, phi, prof),
        "linear-closure": linear_closure_residual(x, y, phi, prof),
        "leibniz": leibniz_residual(f, g_fd, h, phi, prof),
        # g_fd = Re phi(y) has exact differential y: an oracle for the
        # central differences, which the bracket identities cannot see
        # (both of their sides are linear in the one differential).
        "differential": frobenius(g_fd.differential_at(phi, prof) - y),
        "morphism": field_morphism_residual(x, y, phi, prof),
        "duality": field_duality_residual(f, h, phi, prof),
    }


# ---------------------------------------------------------------------------
# degeneracy
# ---------------------------------------------------------------------------


def _draw_bundle_point(alg, rng, repeat_chance: float = 0.0):
    """Per trial, frames of a support p0, a unit-trace density on it, an
    isometry from it and the frames of that isometry's target, as stacks."""
    f0 = sampling.random_frames(alg, rng, allow_zero=False)
    d = sampling.positive_on(rng, f0)
    if repeat_chance > 0.0:
        # Collapse the corner spectrum of some trials to create a nontrivial
        # stabilizer: only they draw the flat spectrum.
        flat = rng.take("uniform") < repeat_chance
        d[flat] = sampling.positive_on(rng.part(flat), f0[flat], 1.0, 1.0)
    q = sampling.equivalent_frames(rng, f0)
    return f0, sampling.unit_trace(d), sampling.isometry_between(rng, f0, q), q


def _draw_invariance(ctx: RowCtx, rng) -> list:
    alg, prof = ctx.algebra, ctx.profile
    _, d0, u, q = _draw_bundle_point(alg, rng, repeat_chance=0.5)
    rho0 = NormalFunctional(alg, d0)
    p0 = functional_support(rho0, prof)
    sample = orbit_form_sample(alg, rng, u, p0, q)
    coeff = rng.take("standard_normal", shape=(_coefficient_width(alg),))
    return [rho0, u, *sample, coeff]


def _check_invariance(ctx: RowCtx, rho0, u, *sample) -> dict:
    return {"invariance": orbit_form_invariance_residual(rho0, u, *sample, ctx.profile)}


def _draw_fd(ctx: RowCtx, rng) -> list:
    alg = ctx.algebra
    f0, d0, u, _ = _draw_bundle_point(alg, rng)
    a = sampling.random_antihermitian(alg, rng)
    return [d0, u, a, sampling.corner_antihermitian(alg, rng, f0.projection)]


def _check_fd(ctx: RowCtx, d0, u, a, b) -> dict:
    alg, prof = ctx.algebra, ctx.profile
    rho0 = NormalFunctional(alg, d0)
    a, b = sampling.unit_norm(a), sampling.unit_norm(b)
    val_fd = fd_surface_dGamma0(rho0, u, a, b, 1e-4, prof)
    return {"fd-exterior": np.abs(val_fd - dGamma0(rho0, u, a @ u, u @ b, prof))}


def _draw_degeneracy(ctx: RowCtx, rng) -> list:
    alg = ctx.algebra
    f0, d0, u, _ = _draw_bundle_point(alg, rng, repeat_chance=0.5)
    return [d0, u, sampling.isometry_between(rng, f0, sampling.equivalent_frames(rng, f0))]


def _check_degeneracy(ctx: RowCtx, d0, u, v) -> dict:
    """The degeneracy report of each trial's base point and two legs."""
    report = degeneracy_kernel_check(NormalFunctional(ctx.algebra, d0), u, v, ctx.profile)
    s = report.complement_min_singular
    return {
        "radical-pairing": report.radical_pairing,
        "complement-inverse-gap": np.where(s <= 0.0, np.inf, 1.0 / np.where(s <= 0.0, 1.0, s)),
        "dimensions": report.dimension_residual,
    }


# ---------------------------------------------------------------------------
# kks / fubini-study
# ---------------------------------------------------------------------------


def _draw_kks(ctx: RowCtx, rng) -> list:
    """A unit-trace density on a random support and two anti-Hermitian
    directions per trial."""
    alg = ctx.algebra
    frames = sampling.random_frames(alg, rng, allow_zero=False)
    d0 = sampling.unit_trace(sampling.positive_on(rng, frames))
    return [d0, sampling.random_antihermitian(alg, rng), sampling.random_antihermitian(alg, rng)]


def _check_kks(ctx: RowCtx, d0, a1, a2) -> dict:
    rho0 = NormalFunctional(ctx.algebra, d0)
    return {"kks": kks_check(rho0, a1, a2, ctx.profile).residual}


def _draw_calibration(ctx: RowCtx, rng) -> list:
    """The calibration's reference instance is fixed in
    :func:`~wstargeo.poisson.calibrate_kappa`: a case that takes no slot."""
    return []


def _check_calibration(ctx: RowCtx) -> dict:
    return {"calibration": abs(calibrate_kappa() + 1.0)}


def _fs_dimension(alg: BlockAlgebra) -> int:
    return max(2, max(alg.blocks))


def _radii(rng) -> np.ndarray:
    """A radius in ``[0.5, 2]`` per trial."""
    return rng.take("uniform", 0.5, 2.0)


def _draw_fs(ctx: RowCtx, rng) -> list:
    """Radius, base direction and two tangent vectors of each Fubini–Study
    trial."""
    n = _fs_dimension(ctx.algebra)
    delta = sampling.random_unit_vector(n, rng)
    x_t = sampling.complex_normal(rng, (n,))
    y_t = sampling.complex_normal(rng, (n,))
    return [_radii(rng), delta, x_t, y_t]


def _check_fs(ctx: RowCtx, r, delta, x_t, y_t) -> dict:
    """The orbit form against the Fubini–Study form at radius ``r``, and
    the orbit form's scaling when the radius doubles."""
    at_r = fubini_study_compare(r, delta, x_t, y_t, ctx.profile)
    two = fubini_study_compare(2.0 * r, delta, x_t, y_t, ctx.profile).omega
    return {"orbit-vs-fs": at_r.residual, "r-scaling": np.abs(two - 2.0 * at_r.omega)}


def _draw_pair_groupoid(ctx: RowCtx, rng) -> list:
    n = _fs_dimension(ctx.algebra)
    psi = sampling.random_unit_vector(n, rng)
    phi_vec = sampling.random_unit_vector(n, rng)
    delta = sampling.random_unit_vector(n, rng)
    vecs = [sampling.complex_normal(rng, (n,)) for _ in range(4)]
    return [_radii(rng), delta, psi, phi_vec, *vecs]


def _check_pair_groupoid(ctx: RowCtx, *data) -> dict:
    return {"pair-groupoid": pair_groupoid_fs_residual(*data, ctx.profile)}


# ---------------------------------------------------------------------------
# modular-flow
# ---------------------------------------------------------------------------


def _draw_flow(ctx: RowCtx, rng) -> list:
    """Per trial, a flow time from :data:`FLOW_TIMES`, a faithful density
    and one sample of vectors and elements
    (:func:`~wstargeo.standard.flow_sample`)."""
    t = np.array(FLOW_TIMES)[rng.take("integers", len(FLOW_TIMES))]
    d = sampling.random_density_matrix(ctx.algebra, rng)
    return [t, d, *flow_sample(ctx.algebra, rng)]


def _check_flow(ctx: RowCtx, t, d, *sample) -> dict:
    """The modular-flow invariances of each trial's density and sample, at
    the trial's own flow time."""
    return flow_residuals(NormalFunctional(ctx.algebra, d), t, *sample, ctx.profile)


def _draw_orbit_form(ctx: RowCtx, rng) -> list:
    alg = ctx.algebra
    f0, d0, u, _ = _draw_bundle_point(alg, rng)
    p0 = f0.projection
    du1 = sampling.p0_tangent(alg, rng, u, p0)
    du2 = sampling.p0_tangent(alg, rng, u, p0)
    return [d0, p0, u, du1, du2, _radii(rng)]


def _check_orbit_form(ctx: RowCtx, d0, p0, u, du1, du2, c) -> dict:
    """The orbit two-form is invariant under the flow of any faithful
    extension of the base density (the flow restricts to the bundle), at
    each of :data:`FLOW_TIMES`."""
    alg, prof = ctx.algebra, ctx.profile
    rho0 = NormalFunctional(alg, d0)
    extension = NormalFunctional(alg, rho0.density + c[:, None, None] * (alg.identity() - p0))
    base = dGamma0(rho0, u, du1, du2, prof)
    checks = {}
    for t in FLOW_TIMES:
        flow = modular_flow(extension, t, prof)
        checks[f"t={t}"] = np.abs(dGamma0(rho0, flow(u), flow(du1), flow(du2), prof) - base)
    return checks


def _draw_density_pair(ctx: RowCtx, rng) -> list:
    """A faithful density and two elements per trial."""
    alg = ctx.algebra
    d = sampling.random_density_matrix(alg, rng)
    return [d, sampling.random_element(alg, rng), sampling.random_element(alg, rng)]


def _check_density_pair(ctx: RowCtx, d, x, g) -> dict:
    """S(x Omega) = x* Omega, S is an involution, and S factors as the
    conjugation after the square root of the modular operator; the modular
    flow's group law, multiplicativity, adjoint and invariant state."""
    prof = ctx.profile
    phi = NormalFunctional(ctx.algebra, d)
    omega_vec = std_unit(phi, prof)
    s_g = tomita_S(phi, g, prof)
    s, t = 0.7, -1.3
    flow = modular_flow(phi, t, prof)
    sx, sg = flow(x), flow(g)
    # The modulus as Python's abs takes it (see ``exactness_residual``).
    value = phi(sx) - phi(x)
    return {
        "S": frobenius(tomita_S(phi, x @ omega_vec, prof) - x.conj().mT @ omega_vec),
        "involution": frobenius(tomita_S(phi, s_g, prof) - g),
        "polar": frobenius(s_g - conjugation_J(modular_Delta(phi, g, 0.5, prof))),
        "group": frobenius(modular_flow(phi, s, prof)(sx) - modular_flow(phi, s + t, prof)(x)),
        "multiplicative": frobenius(flow(x @ g) - sx @ sg),
        "adjoint": frobenius(flow(x.conj().mT) - sx.conj().mT),
        "state": np.hypot(value.real, value.imag),
    }


def _draw_conditional_expectation(ctx: RowCtx, rng) -> list:
    alg = ctx.algebra
    phi = NormalFunctional(alg, sampling.random_density_matrix(alg, rng, repeat_chance=0.5))
    x = sampling.random_element(alg, rng)
    # The centralizer's coefficients, one per slot: each trial reads those
    # of the slots its centralizer holds.
    coeff = sampling.complex_normal(rng, (_coefficient_width(alg),))
    return [phi, x, coeff]


def _check_conditional_expectation(ctx: RowCtx, phi, x, coeff) -> dict:
    prof, d = ctx.profile, phi.density
    ex = conditional_expectation(phi, x, prof)
    a = combination(coeff, stabilizer_lie_algebra(phi, prof), centralizer=True)
    moved = phi(ex) - phi(x)
    return {
        "idempotent": frobenius(conditional_expectation(phi, ex, prof) - ex),
        "state": np.hypot(moved.real, moved.imag),
        "centralizer": frobenius(ex @ d - d @ ex),
        "flow": frobenius(modular_flow(phi, 0.7, prof)(ex) - ex),
        "bimodule": frobenius(conditional_expectation(phi, a @ x, prof) - a @ ex),
    }


def _dimension_defects(algebra: BlockAlgebra, d: np.ndarray, expected, prof) -> np.ndarray:
    """Centralizer and stabilizer dimensions of the functional of each
    density of the stack ``d`` minus ``expected``, each the count of the
    slot mask, the stabilizer's plus the largest defect from unitary of a
    block's eigenvectors (:func:`~wstargeo.linalg.unitarity_defect`), whose
    units are its basis.  At the first density also each basis's gap from
    the floored rank of the realified basis, which reads the basis, not the
    mask, and the stabilizer basis's defect from orthonormal on the mask
    (:func:`~wstargeo.linalg.gram_defect`) where it exceeds the residual
    tolerance.  One row of two per density."""
    phi = NormalFunctional(algebra, d)
    stab = stabilizer_lie_algebra(phi, prof)
    gap = np.abs(stab.dimension - expected)
    rows = np.stack([gap, gap + np.max([unitarity_defect(v) for v in stab.vectors], axis=0)], -1)
    first = stabilizer_lie_algebra(phi[:1], prof)
    bases = np.stack([centralizer_basis(phi[:1], prof)[0], first.basis[0]])
    rows[0] += abs(realified_rank(bases, prof) - stab.dimension[0])
    rows[0, 1] += excess(gram_defect(first.basis[0], first.mask[0]), 0.0, prof)
    return rows


def _draw_planted(ctx: RowCtx, rng) -> list:
    """Per trial, a density with a planted multiplicity pattern, and its
    predicted dimension, the sum of the squared multiplicities: the number
    of pairs of positions in one block with the same label."""
    d, labels = sampling.planted_positive(ctx.algebra, rng, (0.5, 1.0, 1.5, 2.0))
    predicted = sum(
        np.count_nonzero(lb[:, :, None] == lb[:, None, :], axis=(1, 2))
        for lb in (labels[:, s] for s in ctx.algebra.slices)
    )
    return [d, predicted]


def _check_dimensions(ctx: RowCtx, d, predicted) -> dict:
    """Centralizer and stabilizer dimensions: fixed hand-counted instances,
    one row each, stacked per algebra, plus the random densities with a
    planted multiplicity pattern."""
    fixed = [
        ((3,), [np.diag([1.0, 1.0, 2.0]) / 4.0, np.diag([1.0, 2.0, 3.0])], [5, 3]),
        ((2,), [np.diag([1.0, 2.0]), 0.7 * np.eye(2)], [2, 4]),
    ]
    return {
        "fixed": np.concatenate([
            _dimension_defects(BlockAlgebra(b), np.array(ds, dtype=complex), dims, ctx.profile)
            for b, ds, dims in fixed
        ]),
        "planted": _dimension_defects(ctx.algebra, d, predicted, ctx.profile),
    }


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: Each suite's groups.  A group's key is its stream's, a literal that no
#: other group of any suite has: a new group takes a new one.
_SUITES: dict[str, list[_Group]] = {
    "groupoid-axioms": [
        _Group(0, _draw_chain("pi"), _check_laws, [("pi", 1e-10, ())]),
        _Group(1, _draw_chain("g"), _check_laws, [("g", 1e-10, ())]),
        _Group(2, _draw_chain("predual"), _check_laws, [("predual", 1e-10, ())]),
        _Group(3, _draw_chain("coadjoint"), _check_laws, [("coadjoint", 1e-10, ())]),
        _Group(4, _draw_chain("standard"), _check_laws, [("standard", 1e-10, ())]),
        _Group(5, _draw_isomorphisms, _check_isomorphisms, [("isomorphisms", 1e-10, ())]),
        _Group(6, _draw_equivalences, _check_equivalences, [("equivalence-agreement", 0.5, ())]),
        _Group(7, _draw_witnesses, _check_witnesses, [("witnesses", 1e-10, ())]),
    ],
    "charts": [
        _Group(8, _draw_round_trip, _check_round_trip, [("round-trip", 1e-9, ())]),
        _Group(9, _draw_cocycle, _check_cocycle, [("cocycle", 1e-9, ())]),
        _Group(10, _draw_transition_case, _check_transition_case,
               [("transition-oracle", 1e-10, ())]),
        _Group(11, _draw_theta, _check_theta, [("theta", 1e-9, ())]),
        _Group(12, _draw_connection, _check_connection, [("connection", 1e-10, ())]),
    ],
    "multiplicativity": [
        _Group(13, _draw_family_pair, _check_multiplicativity, [("residual", 1e-9, ())]),
        _Group(14, _draw_vertical, _check_vertical, [("vertical", 1e-10, ())]),
    ],
    "exactness": [
        _Group(15, _draw_family, _check_exactness, [
            ("residual", 1e-7, ("defect",)),
            ("order", 0.5, ("order",))]),
    ],
    "dual-pair": [
        _Group(16, _draw_dual_pair, _check_dual_pair, [
            ("orthogonality", 1e-10, ("orthogonality",)),
            ("dimension", 0.5, ("dimension",))]),
    ],
    "poisson-map": [
        _Group(17, _draw_poisson_vector, _check_poisson_vector, [("quadratic", 1e-10, ())]),
        _Group(18, _draw_poisson_density, _check_poisson_density, [
            ("jacobi", 1e-8, ("jacobi", "linear-closure")),
            ("leibniz", 1e-8, ("leibniz", "differential")),
            ("field-morphism", 1e-10, ("morphism", "duality"))]),
        _Group(19, _draw_commutant, _check_commutant, [("commutant", 1e-10, ())]),
    ],
    "degeneracy": [
        _Group(20, _draw_invariance, _check_invariance, [("orbit-form-invariance", 1e-10, ())]),
        _Group(21, _draw_fd, _check_fd, [("fd-exterior", 1e-6, ())]),
        _Group(22, _draw_degeneracy, _check_degeneracy, [
            ("radical-pairing", 1e-10, ("radical-pairing",)),
            ("complement-inverse-gap", 1e7, ("complement-inverse-gap",)),
            ("dimensions", 0.5, ("dimensions",))]),
    ],
    "kks": [
        _Group(23, _draw_kks, _check_kks, [("identity", 1e-10, ())]),
        _Group(24, _draw_calibration, _check_calibration, [("calibration", 1e-10, ())]),
    ],
    "fubini-study": [
        _Group(25, _draw_fs, _check_fs, [
            ("orbit-vs-fs", 1e-10, ("orbit-vs-fs",)),
            ("r-scaling", 1e-10, ("r-scaling",))]),
        _Group(26, _draw_pair_groupoid, _check_pair_groupoid, [("pair-groupoid", 1e-10, ())]),
    ],
    "modular-flow": [
        _Group(27, _draw_flow, _check_flow, [
            ("automorphism", 1e-9, ("multiplicativity", "conjugation", "group_law")),
            ("symplectic", 1e-9, ("symplectic",)),
            ("cone", 1e-9, ("cone",)),
            ("orbit-invariants", 1e-9, ("orbit_invariants",))]),
        _Group(28, _draw_orbit_form, _check_orbit_form, [("orbit-form", 1e-9, ())]),
        _Group(29, _draw_density_pair, _check_density_pair, [
            ("tomita", 1e-10, ("S", "involution", "polar")),
            ("group-law", 1e-10, ("group", "multiplicative", "adjoint", "state"))]),
        _Group(30, _draw_conditional_expectation, _check_conditional_expectation,
               [("conditional-expectation", 1e-10, ())]),
        _Group(31, _draw_planted, _check_dimensions, [("dimensions", 0.5, ())]),
    ],
}

SUITE_NAMES: tuple[str, ...] = tuple(_SUITES)


def _suite(name: str) -> list[_Group]:
    if name not in _SUITES:
        raise UnknownSuite(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}"
        )
    return _SUITES[name]


def suite_rows(name: str) -> tuple[str, ...]:
    """Row names of one suite (raises :class:`UnknownSuite`)."""
    return tuple(row for group in _suite(name) for row, _, _ in group.rows)


def run_suite(
    name: str,
    algebra: BlockAlgebra,
    trials: int,
    seed: int,
    tol: float | None = None,
    profile: ToleranceProfile = DEFAULT_TOL,
) -> list[SuiteResult]:
    """Run every group of the named suite once and return its report rows.

    ``tol`` overrides every row's tolerance uniformly; ``profile`` carries the
    numerical rank/residual policy used inside the computations.  A group's
    draw and check are charged to the ``wall_time`` of its first row.
    """
    groups = _suite(name)
    if trials < 1:
        raise InvalidTrials(f"trials must be positive, got {trials}")
    results = []
    for group in groups:
        start = time.perf_counter()
        checks = group.run(algebra, trials, seed, profile)
        for row, row_tol, keys in group.rows:
            residual = _residual(checks, keys)
            tolerance = float(tol) if tol is not None else row_tol
            end = time.perf_counter()
            results.append(
                SuiteResult(
                    suite=f"{name}/{row}",
                    trials=trials,
                    seed=seed,
                    max_residual=residual,
                    tolerance=tolerance,
                    passed=bool(residual <= tolerance),
                    wall_time=end - start,
                )
            )
            start = end
    return results

"""Named verification suites.

Each suite is a list of rows; a row draws deterministic pseudo-random data,
evaluates one family of identities, and reports its worst residual against a
row-specific tolerance.  Rows are deterministic functions of
``(algebra, trials, seed)``, so two runs with the same arguments produce the
same residuals.

The registry is consumed by :func:`run_suite` and by the command line's
``verify`` subcommand; suite and row names are stable identifiers.
"""
from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
import scipy.linalg

from . import sampling
from .algebra import (
    BlockAlgebra,
    NormalFunctional,
    centralizer_basis,
    coadjoint_apply,
    conditional_expectation,
    functional_supports,
    modular_flow,
    mvn_equivalent,
    mvn_witness,
    orbit_equivalent,
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
)
from .errors import InvalidTrials, NotInDomain, UnknownSuite
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
    expect_real,
    frobenius,
    polar_decompose,
)
from .poisson import (
    Observable,
    calibrate_kappa,
    commutant_bracket_check,
    degeneracy_kernel_check,
    exactness_residual,
    field_duality_residual,
    field_morphism_residual,
    fubini_study_compare,
    jacobi_residual,
    kks_check,
    leibniz_residual,
    linear_closure_residual,
    multiplicativity_residual,
    orbit_form_invariance_residual,
    pair_groupoid_fs_residual,
    poisson_map_residual,
    sample_family,
    sample_family_pair,
    vertical_form_residual,
)
# Bound as a module global and looked up at each call, so it can be wrapped
# (for instance to count draws) by rebinding ``suites._retry``.
from .sampling import sample_with_retry as _retry
from .standard import (
    conjugation_J,
    dual_pair_orthogonality_check,
    flow_residuals,
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
#: t = 0 and both signs at two scales): each flow report draws one, and the
#: orbit-form row takes all of them.
FLOW_TIMES = (0.0, 0.3, -0.3, 1.7, -1.7)


@dataclass(frozen=True)
class RowCtx:
    """Everything a suite row needs to run deterministically."""

    algebra: BlockAlgebra
    trials: int
    seed: int
    subindex: int
    profile: ToleranceProfile
    #: Reports shared by a group of rows, keyed by the function that draws
    #: them; one dict per :func:`run_suite` call.
    shared: dict = field(default_factory=dict, compare=False, repr=False)

    def rng(self, trial: int) -> np.random.Generator:
        return sampling.rng_for(self.seed, self.subindex, trial)


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


def _trials(
    ctx: RowCtx, trial: Callable[[RowCtx, np.random.Generator], object]
) -> Iterator:
    """``trial(ctx, ctx.rng(k))`` for each trial ``k`` in turn: every row
    draws trial ``k`` from the generator keyed ``(seed, subindex, k)``."""
    return (trial(ctx, ctx.rng(k)) for k in range(ctx.trials))


def _per_trial(
    trial: Callable[[RowCtx, np.random.Generator], Iterator[float]],
) -> Callable[[RowCtx], float]:
    """A row that returns the worst residual yielded by any of its trials
    (NaN if any of them is NaN)."""

    @functools.wraps(trial)
    def fn(ctx: RowCtx) -> float:
        return _worst(0.0, *(r for rs in _trials(ctx, trial) for r in rs))

    return fn


def _group_row(
    report: Callable[[RowCtx, np.random.Generator], object],
    read: Callable[..., float],
) -> Callable[[RowCtx], float]:
    """A row that reads one residual from each of its group's per-trial
    reports and returns the worst.  The group's first row draws the reports
    (so with its own subindex) once per :func:`run_suite` call and keeps them
    in ``ctx.shared`` for the rows after it."""

    def fn(ctx: RowCtx) -> float:
        if report not in ctx.shared:
            ctx.shared[report] = list(_trials(ctx, report))
        return _worst(0.0, *(read(r) for r in ctx.shared[report]))

    return fn


# ---------------------------------------------------------------------------
# groupoid-axioms
# ---------------------------------------------------------------------------


def _row_laws(tag: str) -> Callable[[RowCtx], float]:
    """Groupoid laws of the picture ``tag`` on one composable chain of three
    arrows per trial; for the standard form also the polar data of its
    arrows."""

    @_per_trial
    def trial(ctx: RowCtx, rng):
        prof = ctx.profile
        chain = composable_chain(tag, ctx.algebra, rng, 3)
        yield from chain_law_residuals(tag, chain, prof).values()
        if tag == "standard":
            # Polar data of an arrow gamma = u m: gamma = (u m u*) u relates
            # the left and right moduli through the isometry leg.
            a = chain[0]
            u, h = polar_decompose(a, prof)
            yield frobenius(a - (u @ h @ u.conj().T) @ u)

    return trial


@_per_trial
def _row_isomorphisms(ctx: RowCtx, rng):
    """The three structure-preserving maps between the arrow pictures, on
    composable random pairs."""
    alg, prof = ctx.algebra, ctx.profile
    a, b = composable_chain("coadjoint", alg, rng, 2)
    yield xi_intertwining_residual((a, b), prof)
    yield phi_intertwining_residual(alg, a, b, prof)

    f0 = sampling.random_frames(alg, rng, allow_zero=False)
    rho0 = sampling.density_on(rng, f0)
    u, v, w = [
        sampling.isometry_between(rng, f0, sampling.equivalent_frames(rng, f0))
        for _ in range(3)
    ]
    yield psi_intertwining_residual(u, v, w, rho0, prof)
    # Gauge invariance: right translation by a stabilizer element of the
    # base density leaves the quotient map unchanged.
    stab = stabilizer_lie_algebra(rho0, prof)
    g = scipy.linalg.expm(sampling.stabilizer_direction(rng, stab.basis))
    arrow = gauge_iso_Psi(u, v, rho0, prof)
    arrow_g = gauge_iso_Psi(u @ g, v @ g, rho0, prof)
    yield frobenius(arrow.u - arrow_g.u) + arrow.rho.distance(arrow_g.rho)


def _row_equivalence_agreement(ctx: RowCtx) -> float:
    """Count of disagreements between the equivalence notions (Murray-von
    Neumann, unitary orbit, support equivalence) on data where they must
    coincide, plus negative controls where they must not."""
    return float(sum(_trials(ctx, _equivalence_disagreements)))


def _equivalence_disagreements(ctx: RowCtx, rng) -> int:
    alg, prof = ctx.algebra, ctx.profile
    pf = sampling.random_frames(alg, rng)
    p, q = pf.projection, sampling.equivalent_frames(rng, pf).projection
    # The two supports of any functional are equivalent.
    x = sampling.random_element(alg, rng)
    l_supp, r_supp = functional_supports(NormalFunctional(alg, x), prof)
    # Pushing a positive functional along an arrow preserves its orbit
    # invariants and maps supports to equivalent supports.
    rho_f = sampling.random_frames(alg, rng, allow_zero=False)
    rho_supp = rho_f.projection
    rho = sampling.density_on(rng, rho_f)
    u = sampling.isometry_between(rng, rho_f, sampling.equivalent_frames(rng, rho_f))
    pushed = coadjoint_apply(u, rho, prof)
    # Negative controls: a rank change breaks equivalence, a spectral
    # shift breaks orbit equivalence.
    ranks = list(pf.ranks)
    ranks[0] = (ranks[0] + 1) % (alg.blocks[0] + 1)
    p_bad = sampling.random_projection(alg, rng, ranks=tuple(ranks))
    shifted = NormalFunctional(alg, rho.density + 0.25 * rho_supp)
    must_hold = (
        mvn_equivalent(alg, p, q, prof),
        unitary_equivalent(alg, p, q, prof),
        mvn_equivalent(alg, l_supp, r_supp, prof),
        orbit_equivalent(rho, pushed, prof),
        mvn_equivalent(alg, functional_supports(pushed, prof)[0], rho_supp, prof),
    )
    must_fail = (
        mvn_equivalent(alg, p, p_bad, prof),
        orbit_equivalent(rho, shifted, prof),
    )
    return must_hold.count(False) + must_fail.count(True)


@_per_trial
def _row_witnesses(ctx: RowCtx, rng):
    """Constructive witnesses for the three equivalences actually implement
    them."""
    alg, prof = ctx.algebra, ctx.profile
    pf = sampling.random_frames(alg, rng)
    p, q = pf.projection, sampling.equivalent_frames(rng, pf).projection
    w = mvn_witness(alg, p, q, prof)
    yield frobenius(w.conj().T @ w - p)
    yield frobenius(w @ w.conj().T - q)

    phi1 = sampling.random_density(alg, rng)
    uu = sampling.random_unitary(alg, rng)
    phi2 = NormalFunctional(alg, uu @ phi1.density @ uu.conj().T)
    v = unitary_witness(phi1, phi2, prof)
    yield frobenius(v @ v.conj().T - alg.identity())
    yield frobenius(v @ phi1.density @ v.conj().T - phi2.density)

    qs = sampling.frame_chain(alg, rng, 2, allow_zero=False)
    h = sampling.positive_on(rng, qs[2])
    u1 = sampling.isometry_between(rng, qs[2], qs[1])
    w0 = sampling.isometry_between(rng, qs[1], qs[0])
    g1 = u1 @ h
    g2 = w0 @ g1
    wt = transport_witness(g1, g2, prof)
    yield frobenius(wt @ g1 - g2)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


def _draw_equivalent_in_domain(alg, rng, prof, count: int):
    """count projections, mutually equivalent, each pair in each other's
    chart domain."""

    def draw():
        ps = sampling.projection_chain(alg, rng, count - 1, allow_zero=False)
        # Membership is symmetric (q p = (p q)* has the same singular
        # values) and holds on the diagonal, so one test per unordered pair.
        for i, a in enumerate(ps):
            for b in ps[i + 1:]:
                if not chart_domain_member(a, b, prof):
                    raise NotInDomain("redraw: pair outside chart domain")
        return ps

    return _retry(draw)


@_per_trial
def _row_charts_round_trip(ctx: RowCtx, rng):
    alg, prof = ctx.algebra, ctx.profile
    p, q = _draw_equivalent_in_domain(alg, rng, prof, 2)
    x = sigma_p(p, q, prof)
    yield frobenius((p @ q) @ x - p)
    yield frobenius(x @ (p @ q) - q)
    yield frobenius(x @ p - x)
    yield frobenius(phi_p_inv(p, phi_p(p, q, prof), prof) - q)

    def draw_g():
        fs = sampling.frame_chain(alg, rng, 3, allow_zero=False)
        p_, pt, l, r = (f.projection for f in fs)
        if not (chart_domain_member(p_, l, prof)
                and chart_domain_member(pt, r, prof)):
            raise NotInDomain("redraw")
        wiso = sampling.isometry_between(rng, fs[3], fs[2])
        h = sampling.positive_on(rng, fs[3])
        return p_, pt, l, r, wiso, h

    p_, pt, l, r, wiso, h = _retry(draw_g)
    x = wiso @ h
    coords = chart_G(p_, pt, x, prof)
    yield frobenius(chart_G_inv(p_, pt, coords, prof) - x)
    z = coords[1]
    yield frobenius(p_ @ z - z) + frobenius(z @ pt - z)

    coords_t = chart_Theta(p_, pt, x, prof)
    yield frobenius(chart_Theta_inv(p_, pt, coords_t, prof) - x)
    # On a partial isometry the polar chart's middle is a partial
    # isometry between the legs, and the node reflection acts cornerwise.
    coords_w = chart_Theta(p_, pt, wiso, prof)
    m = coords_w[1]
    yield frobenius(m.conj().T @ m - pt)
    xj = jay(x, prof)
    coords_j = chart_Theta(p_, pt, xj, prof)
    yield frobenius(coords_j[1] - jay_corner(coords_t[1], prof))


@_per_trial
def _row_charts_cocycle(ctx: RowCtx, rng):
    alg, prof = ctx.algebra, ctx.profile
    p, p1, p2, q = _draw_equivalent_in_domain(alg, rng, prof, 4)
    y = phi_p(p, q, prof)
    y1 = _retry(lambda: transition_L(p, p1, y, prof))
    yield frobenius(phi_p_inv(p1, y1, prof) - q)
    y2_direct = _retry(lambda: transition_L(p, p2, y, prof))
    y2_via = _retry(lambda: transition_L(p1, p2, y1, prof))
    yield frobenius(y2_direct - y2_via)
    zero = np.zeros_like(y)
    yield frobenius(transition_L(p, p1, zero, prof) - phi_p(p1, p, prof))


def _row_charts_transition_oracle(ctx: RowCtx) -> float:
    """Hand-computed two-by-two chart example."""
    prof = ctx.profile
    p = np.diag([1.0, 0.0]).astype(complex)
    q = 0.5 * np.ones((2, 2), dtype=complex)
    x = sigma_p(p, q, prof)
    y = phi_p(p, q, prof)
    res = [
        frobenius(x - np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)),
        frobenius(y - np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)),
        frobenius(phi_p_inv(p, y, prof) - q),
        frobenius(transition_L(p, q, y, prof)),
        frobenius(
            transition_L(p, q, np.zeros((2, 2), dtype=complex), prof)
            - np.array([[0.5, 0.5], [-0.5, -0.5]], dtype=complex)
        ),
    ]
    return _worst(*res)


@_per_trial
def _row_charts_theta(ctx: RowCtx, rng):
    alg, prof = ctx.algebra, ctx.profile

    def draw():
        fs = sampling.frame_chain(alg, rng, 2, allow_zero=False)
        p0, q, p = (f.projection for f in fs)
        if not chart_domain_member(p, q, prof):
            raise NotInDomain("redraw")
        u = sampling.isometry_between(rng, fs[0], fs[1])
        return p0, q, p, u

    p0, q, p, u = _retry(draw)
    y, w = theta_P0(p, u, p0, prof)
    yield frobenius(theta_P0_inv(p, (y, w), p0, prof) - u)
    yield frobenius(w.conj().T @ w - p0)
    yield frobenius(w @ w.conj().T - p)
    # The closed form ((p u u* p)^+)^{1/2} u is the polar isometry of p u,
    # taken from one SVD of p u: inverting p u u* p would square its
    # condition number and lose the digits this residual measures.
    closed, _ = polar_decompose(p @ u, prof)
    yield frobenius(w - closed)
    yield frobenius(y - phi_p(p, q, prof))


@_per_trial
def _row_charts_connection(ctx: RowCtx, rng):
    alg, prof = ctx.algebra, ctx.profile

    f0 = sampling.random_frames(alg, rng, allow_zero=False)
    p0 = f0.projection
    rho0 = sampling.density_on(rng, f0)
    u = sampling.isometry_between(rng, f0, sampling.equivalent_frames(rng, f0))
    du1 = sampling.p0_tangent(alg, rng, u, p0)
    du2 = sampling.p0_tangent(alg, rng, u, p0)
    x1 = sampling.corner_antihermitian(alg, rng, p0)
    x2 = sampling.corner_antihermitian(alg, rng, p0)

    h1, v1 = hv_split(u, du1)
    h2, _ = hv_split(u, du2)
    yield frobenius(h1 + v1 - du1)
    yield frobenius(u.conj().T @ h1)
    yield frobenius(connection_alpha(u, u @ x1) - x1)
    om = curvature_Omega(u, du1, du2)
    yield frobenius(om + curvature_Omega(u, du2, du1))
    yield frobenius(om + om.conj().T)
    yield frobenius(curvature_Omega(u, u @ x1, du2))
    yield frobenius(om - curvature_Omega(u, h1, h2))
    # The two-form evaluates identically through the split formula.
    d0 = rho0.density
    a1c = connection_alpha(u, du1)
    a2c = connection_alpha(u, du2)
    split = expect_real(
        1j * np.trace(d0 @ (h1.conj().T @ h2 - h2.conj().T @ h1)), prof
    ) - expect_real(1j * np.trace(d0 @ (a1c @ a2c - a2c @ a1c)), prof)
    yield abs(dGamma0(rho0, u, du1, du2, prof) - split)


# ---------------------------------------------------------------------------
# multiplicativity / exactness
# ---------------------------------------------------------------------------


@_per_trial
def _row_multiplicativity(ctx: RowCtx, rng):
    fam, fam2 = sample_family_pair(ctx.algebra, rng, ctx.profile)
    yield multiplicativity_residual(fam, fam2, ctx.profile)


@_per_trial
def _row_vertical(ctx: RowCtx, rng):
    alg, prof = ctx.algebra, ctx.profile

    qf = sampling.random_frames(alg, rng, allow_zero=False)
    q = qf.projection
    u = sampling.isometry_between(rng, qf, sampling.equivalent_frames(rng, qf))
    xi = sampling.positive_on(rng, qf)
    b = sampling.corner_antihermitian(alg, rng, q)
    b2 = sampling.corner_antihermitian(alg, rng, q)
    yield vertical_form_residual(u, xi, b, b2, prof)


@_per_trial
def _row_exactness(ctx: RowCtx, rng):
    prof = ctx.profile
    fam = sample_family(ctx.algebra, rng, prof)
    yield exactness_residual(fam, prof.fd_step, prof)


def _exactness_defects(ctx: RowCtx, rng) -> tuple[float, float]:
    """Finite-difference defects of one family at steps 1e-3 and 5e-4."""
    fam = sample_family(ctx.algebra, rng, ctx.profile)
    return tuple(exactness_residual(fam, h, ctx.profile) for h in (1e-3, 5e-4))


def _row_exactness_order(ctx: RowCtx) -> float:
    """Median convergence ratio of the finite-difference defect when the step
    halves; a second-order scheme gives 4."""
    ratios = []
    for r1, r2 in _trials(ctx, _exactness_defects):
        if not np.isfinite(r1 + r2):
            return float("nan")
        if r2 > 1e-13:
            ratios.append(r1 / r2)
    if not ratios:
        return 0.0
    return abs(statistics.median(ratios) - 4.0)


# ---------------------------------------------------------------------------
# dual-pair
# ---------------------------------------------------------------------------


def _dual_pair_report(ctx: RowCtx, rng):
    """Fibre-kernel report at a generic element or, with even odds, at a
    polar product ``u h``."""
    alg = ctx.algebra
    if rng.uniform() < 0.5:
        g = sampling.random_element(alg, rng)
    else:
        qf = sampling.random_frames(alg, rng, allow_zero=False)
        u = sampling.isometry_between(rng, qf, sampling.equivalent_frames(rng, qf))
        g = u @ sampling.positive_on(rng, qf)
    return dual_pair_orthogonality_check(alg, g, ctx.profile)


# ---------------------------------------------------------------------------
# poisson-map
# ---------------------------------------------------------------------------


def _observable_triple(alg, rng, prof):
    x = sampling.unit_norm(sampling.random_hermitian(alg, rng))
    y = sampling.unit_norm(sampling.random_hermitian(alg, rng))
    z = sampling.unit_norm(sampling.random_hermitian(alg, rng))
    f = Observable.linear(x, prof)
    g_fd = Observable(value=lambda phi, y=y: expect_real(phi(y), prof))
    h = Observable.quadratic(z, prof)
    return (x, y, z), (f, g_fd, h)


@_per_trial
def _row_poisson_quadratic(ctx: RowCtx, rng):
    alg, prof = ctx.algebra, ctx.profile
    _, (f, g_fd, h) = _observable_triple(alg, rng, prof)
    gamma = sampling.random_element(alg, rng)
    yield from poisson_map_residual([(f, g_fd), (f, h), (g_fd, h)], alg, gamma, prof)


@_per_trial
def _row_poisson_jacobi(ctx: RowCtx, rng):
    alg, prof = ctx.algebra, ctx.profile
    (x, y, z), _ = _observable_triple(alg, rng, prof)
    phi = sampling.random_density(alg, rng)
    yield jacobi_residual(x, y, z, phi, prof)
    yield linear_closure_residual(x, y, phi, prof)


@_per_trial
def _row_poisson_leibniz(ctx: RowCtx, rng):
    alg, prof = ctx.algebra, ctx.profile
    (_, y, _), (f, g_fd, h) = _observable_triple(alg, rng, prof)
    phi = sampling.random_density(alg, rng)
    yield leibniz_residual(f, g_fd, h, phi, prof)
    # g_fd = Re phi(y) has exact differential y: an oracle for the central
    # differences, which the bracket identities above cannot see (both of
    # their sides are linear in the one differential).
    yield frobenius(g_fd.differential_at(phi, prof) - y)


@_per_trial
def _row_poisson_field_morphism(ctx: RowCtx, rng):
    alg, prof = ctx.algebra, ctx.profile
    (x, y, z), (f, _, h) = _observable_triple(alg, rng, prof)
    phi = sampling.random_density(alg, rng)
    yield field_morphism_residual(x, y, phi, prof)
    yield field_duality_residual(f, h, phi, prof)


@_per_trial
def _row_poisson_commutant(ctx: RowCtx, rng):
    alg, prof = ctx.algebra, ctx.profile
    _, (f, _, h) = _observable_triple(alg, rng, prof)
    gamma = sampling.random_element(alg, rng)
    yield commutant_bracket_check(f, h, alg, gamma, prof)
    yield commutant_bracket_check(h, f, alg, gamma, prof)


# ---------------------------------------------------------------------------
# degeneracy
# ---------------------------------------------------------------------------


def _draw_bundle_point(alg, rng, repeat_chance: float = 0.0):
    """Frames of a support p0, a density on it and an isometry from it."""
    f0 = sampling.random_frames(alg, rng, allow_zero=False)
    d = sampling.positive_on(rng, f0)
    if repeat_chance > 0.0 and rng.uniform() < repeat_chance:
        # Collapse the corner spectrum to create a nontrivial stabilizer.
        d = sampling.positive_on(rng, f0, 1.0, 1.0)
    rho0 = NormalFunctional(alg, d / float(np.trace(d).real))
    u = sampling.isometry_between(rng, f0, sampling.equivalent_frames(rng, f0))
    return f0, rho0, u


@_per_trial
def _row_degeneracy_invariance(ctx: RowCtx, rng):
    prof = ctx.profile
    _, rho0, u = _draw_bundle_point(ctx.algebra, rng, repeat_chance=0.5)
    yield orbit_form_invariance_residual(rho0, u, rng, prof)


@_per_trial
def _row_degeneracy_fd(ctx: RowCtx, rng):
    alg, prof = ctx.algebra, ctx.profile
    f0, rho0, u = _draw_bundle_point(alg, rng)
    a = sampling.unit_norm(sampling.random_antihermitian(alg, rng))
    b = sampling.unit_norm(sampling.corner_antihermitian(alg, rng, f0.projection))
    val_fd = fd_surface_dGamma0(rho0, u, a, b, 1e-4, prof)
    val = dGamma0(rho0, u, a @ u, u @ b, prof)
    yield abs(val_fd - val)


def _degeneracy_report(ctx: RowCtx, rng):
    f0, rho0, u = _draw_bundle_point(ctx.algebra, rng, repeat_chance=0.5)
    v = sampling.isometry_between(rng, f0, sampling.equivalent_frames(rng, f0))
    return degeneracy_kernel_check(rho0, u, v, ctx.profile)


def _inverse_gap(report) -> float:
    s = report.complement_min_singular
    return float("inf") if s <= 0.0 else 1.0 / s


# ---------------------------------------------------------------------------
# kks / fubini-study
# ---------------------------------------------------------------------------


@_per_trial
def _row_kks_identity(ctx: RowCtx, rng):
    alg, prof = ctx.algebra, ctx.profile
    rho0 = sampling.density_on(rng, sampling.random_frames(alg, rng, allow_zero=False))
    a1 = sampling.random_antihermitian(alg, rng)
    a2 = sampling.random_antihermitian(alg, rng)
    yield kks_check(rho0, a1, a2, prof).residual


def _row_kks_calibration(ctx: RowCtx) -> float:
    return abs(calibrate_kappa() + 1.0)


def _fs_dimension(alg: BlockAlgebra) -> int:
    return max(2, max(alg.blocks))


def _fs_point(ctx: RowCtx, rng):
    """Radius, base direction and two tangent vectors of a Fubini–Study
    trial."""
    n = _fs_dimension(ctx.algebra)
    delta = sampling.random_unit_vector(n, rng)
    x_t = sampling.complex_normal(rng, (n,))
    y_t = sampling.complex_normal(rng, (n,))
    return float(rng.uniform(0.5, 2.0)), delta, x_t, y_t


@_per_trial
def _row_fs_orbit(ctx: RowCtx, rng):
    yield fubini_study_compare(*_fs_point(ctx, rng), ctx.profile).residual


@_per_trial
def _row_fs_scaling(ctx: RowCtx, rng):
    r, delta, x_t, y_t = _fs_point(ctx, rng)
    one = fubini_study_compare(r, delta, x_t, y_t, ctx.profile).omega
    two = fubini_study_compare(2.0 * r, delta, x_t, y_t, ctx.profile).omega
    yield abs(two - 2.0 * one)


@_per_trial
def _row_fs_pair_groupoid(ctx: RowCtx, rng):
    n = _fs_dimension(ctx.algebra)
    psi = sampling.random_unit_vector(n, rng)
    phi_vec = sampling.random_unit_vector(n, rng)
    delta = sampling.random_unit_vector(n, rng)
    vecs = [sampling.complex_normal(rng, (n,)) for _ in range(4)]
    r = float(rng.uniform(0.5, 2.0))
    yield pair_groupoid_fs_residual(r, delta, psi, phi_vec, *vecs, ctx.profile)


# ---------------------------------------------------------------------------
# modular-flow
# ---------------------------------------------------------------------------


def _flow_report(ctx: RowCtx, rng) -> dict[str, float]:
    """The modular-flow invariances of one faithful density and one sample,
    at a flow time drawn from :data:`FLOW_TIMES`."""
    t = FLOW_TIMES[rng.integers(len(FLOW_TIMES))]
    phi = sampling.faithful_density(ctx.algebra, rng)
    return flow_residuals(phi, t, rng, ctx.profile)


@_per_trial
def _row_flow_orbit_form(ctx: RowCtx, rng):
    """The orbit two-form is invariant under the flow of any faithful
    extension of the base density (the flow restricts to the bundle)."""
    alg, prof = ctx.algebra, ctx.profile
    f0, rho0, u = _draw_bundle_point(alg, rng)
    p0 = f0.projection
    du1 = sampling.p0_tangent(alg, rng, u, p0)
    du2 = sampling.p0_tangent(alg, rng, u, p0)
    c = float(rng.uniform(0.5, 2.0))
    extension = NormalFunctional(alg, rho0.density + c * (alg.identity() - p0))
    base = dGamma0(rho0, u, du1, du2, prof)
    for t in FLOW_TIMES:
        flow = modular_flow(extension, t, prof)
        yield abs(dGamma0(rho0, flow(u), flow(du1), flow(du2), prof) - base)


@_per_trial
def _row_flow_tomita(ctx: RowCtx, rng):
    """S(x Omega) = x* Omega, S is an involution, and S factors as the
    conjugation after the square root of the modular operator."""
    alg, prof = ctx.algebra, ctx.profile
    phi = sampling.faithful_density(alg, rng)
    x = sampling.random_element(alg, rng)
    omega_vec = std_unit(phi, prof)
    yield frobenius(tomita_S(phi, x @ omega_vec, prof) - x.conj().T @ omega_vec)
    g = sampling.random_element(alg, rng)
    yield frobenius(tomita_S(phi, tomita_S(phi, g, prof), prof) - g)
    yield frobenius(
        tomita_S(phi, g, prof) - conjugation_J(modular_Delta(phi, g, 0.5, prof))
    )


@_per_trial
def _row_flow_group_law(ctx: RowCtx, rng):
    alg, prof = ctx.algebra, ctx.profile
    phi = sampling.faithful_density(alg, rng)
    x = sampling.random_element(alg, rng)
    y = sampling.random_element(alg, rng)
    s, t = 0.7, -1.3
    flow = modular_flow(phi, t, prof)
    yield frobenius(modular_flow(phi, s, prof)(flow(x)) - modular_flow(phi, s + t, prof)(x))
    sx, sy = flow(x), flow(y)
    yield frobenius(flow(x @ y) - sx @ sy)
    yield frobenius(flow(x.conj().T) - sx.conj().T)
    yield abs(phi(sx) - phi(x))


@_per_trial
def _row_flow_conditional_expectation(ctx: RowCtx, rng):
    alg, prof = ctx.algebra, ctx.profile
    phi = sampling.faithful_density(alg, rng, repeat_chance=0.5)
    d = phi.density
    x = sampling.random_element(alg, rng)
    ex = conditional_expectation(phi, x, prof)
    yield frobenius(conditional_expectation(phi, ex, prof) - ex)
    yield abs(phi(ex) - phi(x))
    yield frobenius(ex @ d - d @ ex)
    yield frobenius(modular_flow(phi, 0.7, prof)(ex) - ex)
    basis = centralizer_basis(phi, prof)
    coeff = sampling.complex_normal(rng, (len(basis),))
    a = sum(c * b for c, b in zip(coeff, basis))
    yield frobenius(
        conditional_expectation(phi, a @ x, prof)
        - a @ conditional_expectation(phi, x, prof)
    )


def _dimension_defects(phi: NormalFunctional, expected: int, prof) -> tuple:
    """Centralizer and stabilizer dimensions of ``phi`` minus ``expected``."""
    return (
        float(abs(len(centralizer_basis(phi, prof)) - expected)),
        float(abs(stabilizer_lie_algebra(phi, prof).dimension - expected)),
    )


@_per_trial
def _flow_planted_dimensions(ctx: RowCtx, rng):
    """Random densities with a planted multiplicity pattern: the predicted
    dimension is the sum of the squared multiplicities."""
    grid = (0.5, 1.0, 1.5, 2.0)
    mats, predicted = [], 0
    for n in ctx.algebra.blocks:
        labels = rng.integers(0, len(grid), size=n)
        vals = np.array([grid[int(i)] for i in labels], dtype=float)
        for lab in set(labels.tolist()):
            predicted += int(np.sum(labels == lab)) ** 2
        q = sampling.haar_unitary(rng, n)
        mats.append((q * vals) @ q.conj().T)
    phi = NormalFunctional(ctx.algebra, ctx.algebra.embed_blocks(mats))
    yield from _dimension_defects(phi, predicted, ctx.profile)


def _row_flow_dimensions(ctx: RowCtx) -> float:
    """Centralizer and stabilizer dimensions: fixed hand-counted instances
    plus random densities with a planted multiplicity pattern."""
    alg2 = BlockAlgebra((2,))
    alg3 = BlockAlgebra((3,))
    fixed = [
        (alg3, np.diag([1.0, 1.0, 2.0]) / 4.0, 5),
        (alg3, np.diag([1.0, 2.0, 3.0]), 3),
        (alg2, np.diag([1.0, 2.0]), 2),
        (alg2, 0.7 * np.eye(2), 4),
    ]
    res = []
    for alg_f, d, dim in fixed:
        phi = NormalFunctional(alg_f, d.astype(complex))
        res.extend(_dimension_defects(phi, dim, ctx.profile))
    return _worst(*res, _flow_planted_dimensions(ctx))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_SUITES: dict[str, list[tuple[str, float, Callable[[RowCtx], float]]]] = {
    "groupoid-axioms": [
        ("pi", 1e-10, _row_laws("pi")),
        ("g", 1e-10, _row_laws("g")),
        ("predual", 1e-10, _row_laws("predual")),
        ("coadjoint", 1e-10, _row_laws("coadjoint")),
        ("standard", 1e-10, _row_laws("standard")),
        ("isomorphisms", 1e-10, _row_isomorphisms),
        ("equivalence-agreement", 0.5, _row_equivalence_agreement),
        ("witnesses", 1e-10, _row_witnesses),
    ],
    "charts": [
        ("round-trip", 1e-9, _row_charts_round_trip),
        ("cocycle", 1e-9, _row_charts_cocycle),
        ("transition-oracle", 1e-10, _row_charts_transition_oracle),
        ("theta", 1e-9, _row_charts_theta),
        ("connection", 1e-10, _row_charts_connection),
    ],
    "multiplicativity": [
        ("residual", 1e-9, _row_multiplicativity),
        ("vertical", 1e-10, _row_vertical),
    ],
    "exactness": [
        ("residual", 1e-7, _row_exactness),
        ("order", 0.5, _row_exactness_order),
    ],
    "dual-pair": [
        ("orthogonality", 1e-10,
         _group_row(_dual_pair_report, lambda r: r.orthogonality)),
        ("dimension", 0.5,
         _group_row(_dual_pair_report, lambda r: float(r.dimension_residual))),
    ],
    "poisson-map": [
        ("quadratic", 1e-10, _row_poisson_quadratic),
        ("jacobi", 1e-8, _row_poisson_jacobi),
        ("leibniz", 1e-8, _row_poisson_leibniz),
        ("field-morphism", 1e-10, _row_poisson_field_morphism),
        ("commutant", 1e-10, _row_poisson_commutant),
    ],
    "degeneracy": [
        ("orbit-form-invariance", 1e-10, _row_degeneracy_invariance),
        ("fd-exterior", 1e-6, _row_degeneracy_fd),
        ("radical-pairing", 1e-10,
         _group_row(_degeneracy_report, lambda r: r.radical_pairing)),
        ("complement-inverse-gap", 1e7,
         _group_row(_degeneracy_report, _inverse_gap)),
        ("dimensions", 0.5,
         _group_row(_degeneracy_report, lambda r: float(r.dimension_residual))),
    ],
    "kks": [
        ("identity", 1e-10, _row_kks_identity),
        ("calibration", 1e-10, _row_kks_calibration),
    ],
    "fubini-study": [
        ("orbit-vs-fs", 1e-10, _row_fs_orbit),
        ("r-scaling", 1e-10, _row_fs_scaling),
        ("pair-groupoid", 1e-10, _row_fs_pair_groupoid),
    ],
    "modular-flow": [
        ("automorphism", 1e-9,
         _group_row(_flow_report, lambda r: _worst(
             r["multiplicativity"], r["conjugation"], r["group_law"]
         ))),
        ("symplectic", 1e-9, _group_row(_flow_report, lambda r: r["symplectic"])),
        ("cone", 1e-9, _group_row(_flow_report, lambda r: r["cone"])),
        ("orbit-invariants", 1e-9,
         _group_row(_flow_report, lambda r: r["orbit_invariants"])),
        ("orbit-form", 1e-9, _row_flow_orbit_form),
        ("tomita", 1e-10, _row_flow_tomita),
        ("group-law", 1e-10, _row_flow_group_law),
        ("conditional-expectation", 1e-10, _row_flow_conditional_expectation),
        ("dimensions", 0.5, _row_flow_dimensions),
    ],
}

SUITE_NAMES: tuple[str, ...] = tuple(_SUITES)


def _suite(name: str) -> list[tuple[str, float, Callable[[RowCtx], float]]]:
    if name not in _SUITES:
        raise UnknownSuite(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}"
        )
    return _SUITES[name]


def suite_rows(name: str) -> tuple[str, ...]:
    """Row names of one suite (raises :class:`UnknownSuite`)."""
    return tuple(row for row, _, _ in _suite(name))


def run_suite(
    name: str,
    algebra: BlockAlgebra,
    trials: int,
    seed: int,
    tol: float | None = None,
    profile: ToleranceProfile = DEFAULT_TOL,
) -> list[SuiteResult]:
    """Run every row of the named suite and return its report rows.

    ``tol`` overrides every row's tolerance uniformly; ``profile`` carries the
    numerical rank/residual policy used inside the computations.
    """
    rows = _suite(name)
    if trials < 1:
        raise InvalidTrials(f"trials must be positive, got {trials}")
    results = []
    shared: dict = {}
    for subindex, (row, row_tol, fn) in enumerate(rows):
        ctx = RowCtx(algebra, trials, seed, subindex, profile, shared)
        start = time.perf_counter()
        residual = float(fn(ctx))
        wall = time.perf_counter() - start
        tolerance = float(tol) if tol is not None else row_tol
        results.append(
            SuiteResult(
                suite=f"{name}/{row}",
                trials=trials,
                seed=seed,
                max_residual=residual,
                tolerance=tolerance,
                passed=bool(residual <= tolerance),
                wall_time=wall,
            )
        )
    return results

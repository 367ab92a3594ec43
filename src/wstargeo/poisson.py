"""Poisson structures carried by the dual of a block algebra and the
symplectic structure on its standard-form Hilbert space, together with the
compatibility checks connecting them.

On the Hermitian functionals the Lie–Poisson bracket is
``{f, g}(phi) = -i Tr(d [df, dg])`` with Hamiltonian field ``i [df, d]``
tangent to the unitary orbit of the density ``d``.  On the Hilbert space the
canonical bracket of real observables is ``2 Im <grad F | grad G>`` for the
symplectic form ``omega = 2 Im <.|.>``; the expectation ``E`` (density
``g g*``) is a Poisson map between the two, expectations through ``E`` and
``E'`` Poisson-commute, and on unitary orbits the canonical structure
restricts to the orbit two-form with a calibration constant fixed once by a
rank-one reference instance (Fubini–Study geometry).

Observables, brackets, fields, their residuals and the moment identity take
one functional or a ``(T, dim, dim)`` stack of them, with elements of the
same stack, and act per matrix: each trial gets the bits it gets alone, and
a refusal names the first failing trial.  The central differences of an
observable given by its values run once per Hermitian basis element ``e``,
on one functional of the ``2T`` densities ``d + h e`` and ``d - h e``.

Composable curve families through the standard groupoid provide the
multiplicativity and exactness checks of the symplectic form: the form adds
over the groupoid product, and the primitive ``Tr(g* dg)`` is compatible
with multiplication up to the source-modulus term.  A family holds one
trial's data or a ``(T, dim, dim)`` stack of trials: :func:`draw_family_data`
draws the stacks of a stream's trials, :func:`families_on` builds and
validates their families at once, and the residuals give one value per
trial.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

from . import sampling, standard
from .algebra import (
    BlockAlgebra,
    Frames,
    NormalFunctional,
    antihermitian_units,
    density_spectrum,
    functional_support,
    stabilizer_direction,
    stabilizer_lie_algebra,
    trace_pairing,
)
from .charts import Gamma0, dGamma0
from .errors import (
    DegenerateBase,
    InvalidFamily,
    InvalidTangent,
    NotHermitian,
    NotPositive,
)
from .linalg import (
    DEFAULT_TOL,
    STACK_NAME,
    ToleranceProfile,
    _unit_vector,
    as_count,
    check_hermitian,
    excess,
    exp_antihermitian,
    expect_real,
    expect_real_array,
    floored_rank,
    frobenius,
    gram_defect,
    herm,
    hermitian_eig,
    hs_inner,
    is_partial_isometry,
    positive_spectrum,
    projection_rank,
    realified_rank,
    refuse,
    singular_values,
    unitarity_defect,
)
# The symplectic form is looked up as ``standard.symplectic_omega`` at call
# time, so a rebound one (a tracer span, a planted fault) reaches every check
# here as well as the modular-flow checks in ``standard``.
from .standard import (
    expectation_E,
    expectation_Eprime,
    std_mul,
    std_unit,
)

# ---------------------------------------------------------------------------
# observables on the functional side


@dataclass(frozen=True, eq=False)
class Observable:
    """Real function of a Hermitian functional, with an optional analytic
    differential ``differential(phi, tol)`` (a Hermitian algebra element);
    when absent the differential is taken by central differences along an
    orthonormal Hermitian basis.

    Both act per matrix of a stacked functional: ``value`` gives one value
    per density, the differential one element per density.  The central
    differences evaluate ``value`` once per basis element, at the ``2T``
    densities ``d + h e`` and then ``d - h e`` of a ``T``-stack, so a value
    that pairs the densities with ``T`` matrices of its own pairs them run
    by run, as ``phi(x)`` does.

    An observable is a fixed function of the functional, so its differential
    at ``phi`` is kept on ``phi``, one per observable and profile
    (:meth:`differential_at`)."""

    value: Callable[[NormalFunctional], float | np.ndarray]
    differential: Callable[[NormalFunctional, ToleranceProfile], np.ndarray] | None = None

    def value_at(self, phi: NormalFunctional) -> float | np.ndarray:
        """The value at ``phi``: a ``float``, or one per matrix of a stack."""
        value = self.value(phi)
        return float(value) if np.ndim(value) == 0 else value

    def differential_at(
        self, phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
    ) -> np.ndarray:
        """The differential at ``phi``: the analytic one, checked Hermitian,
        or central differences of step ``tol.fd_step``.  It is computed on
        the first call with ``(self, tol)`` and kept on ``phi`` as a
        read-only view, so a later call returns the same array; a
        computation that raises keeps nothing."""
        return phi._memoized(
            self,
            tol,
            lambda: _readonly_view(
                check_hermitian(self.differential(phi, tol), tol)
                if self.differential is not None
                else self._central_differences(phi, tol)
            ),
        )

    def _central_differences(self, phi: NormalFunctional, tol: ToleranceProfile) -> np.ndarray:
        """``sum_e (f(d + h e) - f(d - h e)) / 2h e`` over the Hermitian units
        ``e``, in their order, for every density of ``phi`` at once: one
        functional of the ``2T`` densities ``d + h e``, then ``d - h e``, per
        unit.  A refusal there names the unit and the trial."""
        h = tol.fd_step
        algebra, d = phi.algebra, phi.density
        grad = np.zeros(d.shape, dtype=complex)
        trials = len(d) if d.ndim == 3 else 0

        def where(k: int) -> str:
            return f"basis element {i}" + (f" of trial {k % trials}" if trials else "")

        token = STACK_NAME.set(where)
        try:
            for i, e in enumerate(algebra.hermitian_units()):
                step = h * e
                sides = np.stack([d + step, d - step]).reshape(-1, algebra.dim, algebra.dim)
                values = self.value_at(NormalFunctional(algebra, sides))
                plus, minus = np.reshape(values, (2,) + d.shape[:-2] + (1, 1))
                grad += (plus - minus) / (2 * h) * e
        finally:
            STACK_NAME.reset(token)
        return grad

    @classmethod
    def linear(cls, x: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> "Observable":
        """The evaluation observable phi -> Re phi(x) for Hermitian x."""
        x = check_hermitian(np.asarray(x, dtype=complex), tol)
        return cls(value=lambda phi: phi(x).real, differential=lambda phi, tol: x)

    @classmethod
    def quadratic(cls, x: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> "Observable":
        """phi -> Tr(d^2 x) for Hermitian x, with differential d x + x d."""
        x = check_hermitian(np.asarray(x, dtype=complex), tol)
        return cls(
            value=lambda phi: trace_pairing(phi.density @ phi.density, x).real,
            differential=lambda phi, tol: herm(phi.density @ x + x @ phi.density),
        )

    def times(self, other: "Observable") -> "Observable":
        """Pointwise product, with the Leibniz differential
        f dg + g df, both factors' differentials taken under the profile
        the product's is."""
        return Observable(
            value=lambda phi: self.value_at(phi) * other.value_at(phi),
            differential=lambda phi, tol: np.asarray(self.value_at(phi))[..., None, None]
            * other.differential_at(phi, tol)
            + np.asarray(other.value_at(phi))[..., None, None] * self.differential_at(phi, tol),
        )


def _readonly_view(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; ``a`` itself, which may be a caller's
    array, keeps its flags."""
    view = a.view()
    view.flags.writeable = False
    return view


def lp_bracket(
    f: Observable,
    g: Observable,
    phi: NormalFunctional,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """Lie–Poisson bracket {f, g}(phi) = -i Tr(d [df, dg])."""
    df = f.differential_at(phi, tol)
    dg = g.differential_at(phi, tol)
    value = -1j * np.trace(phi.density @ (df @ dg - dg @ df), axis1=-2, axis2=-1)
    return expect_real(value, tol, "Lie-Poisson bracket")


def hamiltonian_field(
    f: Observable, phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """Hamiltonian vector field of f at phi, as the density-space direction
    i [df, d]; it is Hermitian, traceless, and tangent to the unitary orbit
    of the density."""
    df = f.differential_at(phi, tol)
    d = phi.density
    return 1j * (df @ d - d @ df)


def field_duality_residual(
    f: Observable,
    g: Observable,
    phi: NormalFunctional,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """|Tr(X_f dg) - {f, g}(phi)|: the Hamiltonian field reproduces the
    bracket through the dual pairing."""
    field = hamiltonian_field(f, phi, tol)
    dg = g.differential_at(phi, tol)
    paired = expect_real(np.trace(field @ dg, axis1=-2, axis2=-1), tol, "field pairing")
    return abs(paired - lp_bracket(f, g, phi, tol))


def _closure(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``-i [x, y]``: the bracket {f_x, f_y} of evaluations is f of it."""
    return herm(-1j * (x @ y - y @ x))


def jacobi_residual(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    phi: NormalFunctional,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """Jacobi identity on evaluation observables, using the closure
    {f_x, f_y} = f_{-i[x,y]} of the bracket on linear functions."""
    total = (
        lp_bracket(Observable.linear(x, tol), Observable.linear(_closure(y, z), tol), phi, tol)
        + lp_bracket(Observable.linear(y, tol), Observable.linear(_closure(z, x), tol), phi, tol)
        + lp_bracket(Observable.linear(z, tol), Observable.linear(_closure(x, y), tol), phi, tol)
    )
    return abs(total)


def linear_closure_residual(
    x: np.ndarray,
    y: np.ndarray,
    phi: NormalFunctional,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """|{f_x, f_y}(phi) - phi(-i[x,y])|: the bracket of evaluations is the
    evaluation of -i[x, y]."""
    lhs = lp_bracket(Observable.linear(x, tol), Observable.linear(y, tol), phi, tol)
    rhs = expect_real(phi(_closure(x, y)), tol, "closure evaluation")
    return abs(lhs - rhs)


def leibniz_residual(
    f: Observable,
    g: Observable,
    h: Observable,
    phi: NormalFunctional,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """|{f, g h} - {f, g} h - g {f, h}| at phi."""
    lhs = lp_bracket(f, g.times(h), phi, tol)
    rhs = lp_bracket(f, g, phi, tol) * h.value_at(phi) + g.value_at(phi) * lp_bracket(
        f, h, phi, tol
    )
    return abs(lhs - rhs)


def field_morphism_residual(
    x: np.ndarray,
    y: np.ndarray,
    phi: NormalFunctional,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """The Hamiltonian field of the bracket closure equals the commutator of
    the two fields (as linear maps on density directions, composed in the
    order field-of-y after field-of-x minus the reverse)."""
    d = phi.density
    lhs = hamiltonian_field(Observable.linear(_closure(x, y), tol), phi, tol)

    def field_of(a: np.ndarray, at: np.ndarray) -> np.ndarray:
        return 1j * (a @ at - at @ a)

    rhs = field_of(y, field_of(x, d)) - field_of(x, field_of(y, d))
    return frobenius(lhs - rhs)


def poisson_map_residual(
    pairs: Sequence[tuple[Observable, Observable]],
    algebra: BlockAlgebra,
    gamma: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> list:
    """|{f o E, g o E}_canonical(gamma) - {f, g}_Lie-Poisson(E(gamma))| for
    each pair ``(f, g)``: the left expectation is a Poisson map.

    Every side reads the differentials at the one functional E(gamma), so
    an observable in several pairs is differentiated once: the canonical
    side is omega of the pullback gradients df(E(gamma)) gamma and
    dg(E(gamma)) gamma."""
    phi = expectation_E(algebra, gamma)
    omega = standard.symplectic_omega
    return [
        abs(omega(f.differential_at(phi, tol) @ gamma, g.differential_at(phi, tol) @ gamma)
            - lp_bracket(f, g, phi, tol))
        for f, g in pairs
    ]


def commutant_bracket_check(
    f: Observable,
    g: Observable,
    algebra: BlockAlgebra,
    gamma: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """|{f o E, g o E'}(gamma)|: observables pulled back through the two
    expectations Poisson-commute.  The canonical bracket is omega of the
    pullback gradients df(E(gamma)) gamma and gamma dg(E'(gamma))."""
    return abs(
        standard.symplectic_omega(
            f.differential_at(expectation_E(algebra, gamma), tol) @ gamma,
            gamma @ g.differential_at(expectation_Eprime(algebra, gamma), tol),
        )
    )


# ---------------------------------------------------------------------------
# composable curve families through the standard groupoid


@dataclass(frozen=True, eq=False)
class ComposableFamily:
    """Curve t -> (gamma1(t), gamma2(t)) of composable standard-groupoid
    arrows with analytic tangents.

    The base is a composable pair built from partial isometries u1, u2 and a
    positive corner element xi2 with u1* u1 = u2 u2* and u2* u2 = supp(xi2):

        gamma2(t) = u2(t) xi2(t),
        gamma1(t) = u1(t) [u2(t) xi2(t) u2(t)*],
        product   = u1(t) u2(t) xi2(t),

    where u1(t) = exp(t a1) u1 exp(-t a2), u2(t) = exp(t a2) u2 exp(t b2),
    xi2(t) = exp(t h2) xi2 exp(t h2).  The right generator of u1 is locked to
    -a2 and b2 commutes with supp(xi2), which keeps the pair composable for
    every t, not only to first order.

    Every field may be one matrix or a ``(T, dim, dim)`` stack of them, one
    family per trial.  The checks, curves and tangents then act trial by
    trial, and family ``k`` of a stack gets the bits it gets alone; a
    failing check names the first trial that fails it.

    Each generator is diagonalised once: ``x = v diag(lam) v*`` gives
    ``exp(t x) = v diag(e^{t lam}) v*``, with an anti-Hermitian ``a``
    written ``-i (i a)`` so that ``lam`` is imaginary.  Each curve point
    ``(u1(t), u2(t), xi2(t))`` is evaluated once per ``t`` and shared by
    every curve read at that ``t``; at ``t = 0`` it is the base itself.
    """

    algebra: BlockAlgebra
    u1: np.ndarray
    u2: np.ndarray
    xi2: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    b2: np.ndarray
    h2: np.ndarray
    tol: ToleranceProfile = DEFAULT_TOL
    #: ``supp(xi2)`` of a base already checked: :func:`families_on` hands
    #: the first family's to the others on the same base, which then check
    #: their generators only.
    _support: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        tol = self.tol
        u1, u2, a1, a2, b2, h2 = self.u1, self.u2, self.a1, self.a2, self.b2, self.h2
        q2, checks = self._support, {}
        if q2 is None:
            try:
                q2 = positive_spectrum(self.xi2, tol).support
            except (NotHermitian, NotPositive) as exc:
                raise InvalidFamily(f"xi2: {exc}") from exc
            object.__setattr__(self, "_support", q2)
            checks = {
                "u1 is not a partial isometry": np.logical_not(is_partial_isometry(u1, tol)),
                "u2 is not a partial isometry": np.logical_not(is_partial_isometry(u2, tol)),
                "u1* u1 != u2 u2*": excess(u1.conj().mT @ u1, u2 @ u2.conj().mT, tol),
                "u2* u2 != supp(xi2)": excess(u2.conj().mT @ u2, q2, tol),
            }
        checks |= {
            "a1 is not anti-Hermitian": excess(a1, -a1.conj().mT, tol),
            "a2 is not anti-Hermitian": excess(a2, -a2.conj().mT, tol),
            "b2 is not anti-Hermitian": excess(b2, -b2.conj().mT, tol),
            "b2 does not commute with supp(xi2)": excess(b2 @ q2, q2 @ b2, tol),
            "h2 is not a Hermitian corner element": np.logical_or(
                excess(h2, q2 @ h2 @ q2, tol), excess(h2, h2.conj().mT, tol)
            ),
        }
        for message, failed in checks.items():
            refuse(InvalidFamily, failed, message)

    @property
    def b1(self) -> np.ndarray:
        """Right generator of the u1 curve, locked to -a2."""
        return -self.a2

    # -- curves ------------------------------------------------------------

    @cached_property
    def _spectra(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """``(lam, v)`` with ``x = v diag(lam) v*`` for each generator x."""
        spectra = {}
        for name in ("a1", "a2", "b2"):
            w, v = hermitian_eig(1j * getattr(self, name))
            spectra[name] = (-1j * w, v)
        spectra["b1"] = (-spectra["a2"][0], spectra["a2"][1])
        spectra["h2"] = hermitian_eig(self.h2)
        return spectra

    def _exp(self, name: str, t: float) -> np.ndarray:
        """exp(t x) for the generator called ``name``."""
        lam, v = self._spectra[name]
        return (v * np.exp(t * lam)[..., None, :]) @ v.conj().mT

    @cached_property
    def _points(self) -> dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The curve points evaluated so far, by ``t``."""
        return {}

    def _at(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(u1(t), u2(t), xi2(t))``: the base itself at ``t = 0``, otherwise
        evaluated once per ``t`` and kept read-only."""
        if t == 0.0:
            return self.u1, self.u2, self.xi2
        try:
            return self._points[t]
        except KeyError:
            e = self._exp("h2", t)
            point = (
                self._exp("a1", t) @ self.u1 @ self._exp("b1", t),
                self._exp("a2", t) @ self.u2 @ self._exp("b2", t),
                e @ self.xi2 @ e,
            )
            for x in point:
                x.flags.writeable = False
            self._points[t] = point
            return point

    def u1_at(self, t: float) -> np.ndarray:
        return self._at(t)[0]

    def u2_at(self, t: float) -> np.ndarray:
        return self._at(t)[1]

    def xi2_at(self, t: float) -> np.ndarray:
        return self._at(t)[2]

    def gamma2_at(self, t: float) -> np.ndarray:
        return self.u2_at(t) @ self.xi2_at(t)

    def gamma1_at(self, t: float) -> np.ndarray:
        u2t = self.u2_at(t)
        return self.u1_at(t) @ (u2t @ self.xi2_at(t) @ u2t.conj().mT)

    def product_at(self, t: float) -> np.ndarray:
        return self.u1_at(t) @ self.u2_at(t) @ self.xi2_at(t)

    # -- analytic tangents at t = 0 ------------------------------------------

    def du1(self) -> np.ndarray:
        return self.a1 @ self.u1 + self.u1 @ self.b1

    def du2(self) -> np.ndarray:
        return self.a2 @ self.u2 + self.u2 @ self.b2

    def dxi2(self) -> np.ndarray:
        return self.h2 @ self.xi2 + self.xi2 @ self.h2

    def dgamma2(self) -> np.ndarray:
        return self.du2() @ self.xi2 + self.u2 @ self.dxi2()

    def dgamma1(self) -> np.ndarray:
        eta = self.u2 @ self.xi2 @ self.u2.conj().mT
        deta = (
            self.du2() @ self.xi2 @ self.u2.conj().mT
            + self.u2 @ self.dxi2() @ self.u2.conj().mT
            + self.u2 @ self.xi2 @ self.du2().conj().mT
        )
        return self.du1() @ eta + self.u1 @ deta

    def dproduct(self) -> np.ndarray:
        return (
            self.du1() @ self.u2 @ self.xi2
            + self.u1 @ self.du2() @ self.xi2
            + self.u1 @ self.u2 @ self.dxi2()
        )


def draw_family_data(
    algebra: BlockAlgebra, rng: sampling.Stream, directions: int = 1
) -> list[np.ndarray]:
    """The data of ``directions`` families on one composable base, as drawn:
    the base ``(u1, u2, xi2)``, then each family's generators ``(a1, a2, b2,
    h2)`` before :func:`families_on` scales them, as stacks over the
    stream's trials."""
    q2 = sampling.random_frames(algebra, rng)
    q1 = sampling.equivalent_frames(rng, q2)
    q0 = sampling.equivalent_frames(rng, q2)
    u2 = sampling.isometry_between(rng, q2, q1)
    u1 = sampling.isometry_between(rng, q1, q0)
    base = [u1, u2, sampling.positive_on(rng, q2)]
    # supp(xi2) = u2* u2 on a valid base, as ComposableFamily checks.
    p2 = u2.conj().mT @ u2
    generators = []
    for _ in range(directions):
        generators += [
            sampling.random_antihermitian(algebra, rng),
            sampling.random_antihermitian(algebra, rng),
            sampling.corner_antihermitian(algebra, rng, p2),
            sampling.corner_hermitian(algebra, rng, p2),
        ]
    return [*base, *generators]


def families_on(
    algebra: BlockAlgebra,
    data: Sequence[np.ndarray],
    tol: ToleranceProfile = DEFAULT_TOL,
) -> list[ComposableFamily]:
    """The families of :func:`draw_family_data`, or of a stack of such data
    (one draw per trial): each generator scaled to unit operator norm, and
    each family validated once, the shared base with the first."""
    u1, u2, xi2, *generators = data
    generators = [sampling.unit_norm(x) for x in generators]
    families, support = [], None
    for i in range(0, len(generators), 4):
        families.append(
            ComposableFamily(algebra, u1, u2, xi2, *generators[i:i + 4], tol=tol, _support=support)
        )
        support = families[-1]._support
    return families


def multiplicativity_residual(
    fam: ComposableFamily,
    fam2: ComposableFamily,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """Multiplicativity of the symplectic form over the groupoid product:
    for two tangent directions at the same composable pair,

        omega(d(g1 g2), d(g1 g2)') = omega(dg1, dg1') + omega(dg2, dg2').

    Both families must share the base (u1, u2, xi2), trial by trial.  One
    residual per trial of a stack."""
    refuse(
        InvalidFamily,
        np.logical_or.reduce(
            [excess(getattr(fam, x), getattr(fam2, x), tol) for x in ("u1", "u2", "xi2")]
        ),
        "the two families have different base points",
    )
    omega = standard.symplectic_omega
    lhs = omega(fam.dproduct(), fam2.dproduct())
    rhs = omega(fam.dgamma1(), fam2.dgamma1()) + omega(fam.dgamma2(), fam2.dgamma2())
    return abs(lhs - rhs)


def vertical_form_residual(
    u: np.ndarray,
    xi: np.ndarray,
    b: np.ndarray,
    b_prime: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """Closed form of omega on vertical directions u b xi:
    omega(u b xi, u b' xi) = -2 Im Tr(xi^2 b b') for anti-Hermitian corner
    generators b, b' at the support of xi.  One residual per matrix of a
    stack."""
    lhs = standard.symplectic_omega(u @ b @ xi, u @ b_prime @ xi)
    rhs = -2.0 * np.trace(xi @ xi @ b @ b_prime, axis1=-2, axis2=-1).imag
    return abs(lhs - rhs)


def _product_difference(fam: ComposableFamily, h: float, tol: ToleranceProfile) -> np.ndarray:
    """Central difference ``(P(h) - P(-h)) / 2h`` of the groupoid product
    ``P(t) = gamma1(t) gamma2(t)`` along the family, through ``std_mul``."""
    plus = std_mul(fam.gamma1_at(h), fam.gamma2_at(h), tol)
    minus = std_mul(fam.gamma1_at(-h), fam.gamma2_at(-h), tol)
    return (plus - minus) / (2.0 * h)


def exactness_residual(
    fam: ComposableFamily,
    step: float | None = None,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """Compatibility of the primitive Gamma(g)(dg) = Tr(g* dg) of the
    symplectic form with the groupoid product:

        Gamma(g1)(dg1) + Gamma(g2)(dg2)
            = Gamma(g1 g2)(d(g1 g2)) + Tr(xi2 dxi2),

    where the product derivative is taken by central differences of the
    groupoid multiplication itself, so the identity holds up to an O(step^2)
    discretization error.  One residual per trial of a stacked family."""
    h = tol.fd_step if step is None else step
    lhs = hs_inner(fam.gamma1_at(0.0), fam.dgamma1()) + hs_inner(
        fam.gamma2_at(0.0), fam.dgamma2()
    )
    rhs = hs_inner(fam.product_at(0.0), _product_difference(fam, h, tol)) + np.trace(
        fam.xi2 @ fam.dxi2(), axis1=-2, axis2=-1
    )
    defect = lhs - rhs
    # The modulus as Python's abs takes it, through hypot; numpy.abs of a
    # complex array can differ from it in the last bit.
    return np.hypot(defect.real, defect.imag)


# ---------------------------------------------------------------------------
# orbit two-form, calibration, Fubini–Study geometry


def calibrate_kappa() -> float:
    """Normalization constant relating the symplectic form on orbit lifts to
    the moment pairing, fixed on a rank-one reference instance in two
    dimensions: lifts a_j gamma0 of the directions a1 = i sigma_x,
    a2 = i sigma_y at gamma0 = diag(1, 0) give

        kappa = omega(a1 gamma0, a2 gamma0) / (2 Im Tr(gamma0 gamma0* a1 a2)).
    """
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    gamma0 = np.diag([1.0, 0.0]).astype(complex)
    a1 = 1j * sx
    a2 = 1j * sy
    omega = standard.symplectic_omega(a1 @ gamma0, a2 @ gamma0)
    moment = 2.0 * float(np.trace(gamma0 @ gamma0.conj().T @ a1 @ a2).imag)
    return float(omega / moment)


@dataclass(frozen=True)
class KKSReport:
    """Symplectic form on orbit lifts against the calibrated moment pairing:
    omega(a1 g0, a2 g0) = kappa 2 Im Tr(g0 g0* a1 a2); ``pairing`` reports
    the moment functional 2i E(g0) evaluated on [a1, a2].  Each field holds
    one value, or one per trial of a stack."""

    omega: float | np.ndarray
    moment: float | np.ndarray
    pairing: float | np.ndarray
    kappa: float

    @property
    def residual(self):
        return abs(self.omega - self.moment)


def kks_check(
    rho0: NormalFunctional,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> KKSReport:
    """Evaluate the orbit symplectic identity at the canonical vector of
    rho0 with anti-Hermitian directions a1, a2; per matrix of a stack."""
    for a, name in ((a1, "a1"), (a2, "a2")):
        refuse(InvalidTangent, excess(a, -a.conj().mT, tol, frobenius(a)),
               f"{name} is not anti-Hermitian")
    gamma0 = std_unit(rho0, tol)
    kappa = calibrate_kappa()
    omega = standard.symplectic_omega(a1 @ gamma0, a2 @ gamma0)
    d0 = gamma0 @ gamma0.conj().mT
    moment = kappa * 2.0 * np.trace(d0 @ a1 @ a2, axis1=-2, axis2=-1).imag
    commutator = a1 @ a2 - a2 @ a1
    pairing = (2j * np.trace(d0 @ commutator, axis1=-2, axis2=-1)).real
    return KKSReport(omega=omega, moment=moment, pairing=pairing, kappa=kappa)


@dataclass(frozen=True)
class FubiniStudyReport:
    """Symplectic form on source-side lifts of projective tangents against
    the Fubini–Study value kappa r 2 Im <X|Y> at radius r; each field holds
    one value, or one per row of a stack."""

    omega: float | np.ndarray
    fs_value: float | np.ndarray
    radius: float | np.ndarray

    @property
    def residual(self):
        return abs(self.omega - self.fs_value)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``|a><b|`` of two vectors, as ``np.outer(a, b.conj())`` forms it; of
    each pair of rows of two ``(T, n)`` stacks."""
    return a[..., :, None] * b.conj()[..., None, :]


def fubini_study_compare(
    r,
    delta: np.ndarray,
    X: np.ndarray,
    Y: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> FubiniStudyReport:
    """Rank-one orbit through rho0 = r |delta><delta|: the symplectic form on
    the lifts gamma0 a_X, gamma0 a_Y (a_X = |X><delta| - |delta><X|, tangents
    X, Y orthogonal to delta) equals the scaled Fubini–Study form
    kappa r 2 Im <X|Y>.  On ``(T, n)`` stacks of vectors with ``T`` radii,
    per row."""
    r = np.asarray(r, dtype=float)
    refuse(DegenerateBase, r <= 0, "the orbit radius must be positive")
    delta = _unit_vector(delta, tol)
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    X = X - delta * np.vecdot(delta, X)[..., None]
    Y = Y - delta * np.vecdot(delta, Y)[..., None]
    gamma0 = np.sqrt(r)[..., None, None] * _outer(delta, delta)

    def generator(t: np.ndarray) -> np.ndarray:
        return _outer(t, delta) - _outer(delta, t)

    lift_x = gamma0 @ generator(X)
    lift_y = gamma0 @ generator(Y)
    omega = standard.symplectic_omega(lift_x, lift_y)
    kappa = calibrate_kappa()
    fs_value = kappa * r * 2.0 * np.vecdot(X, Y).imag
    return FubiniStudyReport(omega=omega, fs_value=fs_value, radius=r)


def pair_groupoid_fs_residual(
    r,
    delta: np.ndarray,
    psi: np.ndarray,
    phi_vec: np.ndarray,
    X: np.ndarray,
    X_prime: np.ndarray,
    Y: np.ndarray,
    Y_prime: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """Rank-one pair-groupoid identity: for arrows Lambda(u, v) = u gamma0 v*
    over the base |delta>, with leg tangents |X><delta| at u = |psi><delta|
    (X orthogonal to psi) and |Y><delta| at v = |phi><delta| (Y orthogonal to
    phi), the symplectic form splits into target minus source Fubini–Study
    terms:

        omega(dLambda, dLambda') = 2 r Im <X|X'> - 2 r Im <Y|Y'>.

    On ``(T, n)`` stacks of vectors with ``T`` radii, one residual per row.
    """
    r = np.asarray(r, dtype=float)
    delta = _unit_vector(delta, tol)
    psi = _unit_vector(psi, tol)
    phi_vec = _unit_vector(phi_vec, tol)
    gamma0 = np.sqrt(r)[..., None, None] * _outer(delta, delta)

    def orth(t: np.ndarray, against: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=complex)
        return t - against * np.vecdot(against, t)[..., None]

    X, X_prime = orth(X, psi), orth(X_prime, psi)
    Y, Y_prime = orth(Y, phi_vec), orth(Y_prime, phi_vec)
    u = _outer(psi, delta)
    v = _outer(phi_vec, delta)
    du, du_p = _outer(X, delta), _outer(X_prime, delta)
    dv, dv_p = _outer(Y, delta), _outer(Y_prime, delta)

    def dLambda(duu: np.ndarray, dvv: np.ndarray) -> np.ndarray:
        return duu @ gamma0 @ v.conj().mT + u @ gamma0 @ dvv.conj().mT

    lhs = standard.symplectic_omega(dLambda(du, dv), dLambda(du_p, dv_p))
    rhs = 2.0 * r * np.vecdot(X, X_prime).imag - 2.0 * r * np.vecdot(Y, Y_prime).imag
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# degeneracy of the arrow two-form


@dataclass(frozen=True)
class DegeneracyReport:
    """Kernel analysis of the arrow two-form dGamma0_u - dGamma0_v on a pair
    of isometry-bundle tangent spaces: the radical is spanned by the
    stabilizer directions of the base density on each leg, and the form is
    uniformly nondegenerate transverse to it.  ``radical_pairing`` adds the
    defects of the frames the closed form reads, and at a first base the
    gaps of the ambient form from it; ``oracle`` adds the realified rank
    gaps of the tangent directions and of the radical there.  Of a stack of
    bases, each field holds one value per base."""

    radical_pairing: float | np.ndarray
    kernel_dimension: int | np.ndarray
    expected_kernel_dimension: int | np.ndarray
    complement_min_singular: float | np.ndarray
    tangent_dimension: int | np.ndarray
    oracle: int | np.ndarray

    @property
    def dimension_residual(self):
        return abs(self.kernel_dimension - self.expected_kernel_dimension) + self.oracle


def _leg_frame(w: np.ndarray, v: np.ndarray, rank) -> np.ndarray:
    """The frame of an isometry ``w`` of one block (of each of a stack, or of
    a stack of legs) with source spanned by the first ``rank`` columns of
    ``v``: column ``a`` is ``w v_a`` below the rank and the kernel of ``w
    w*`` past it."""
    n = v.shape[-1]
    q = w @ w.conj().mT
    kernel = hermitian_eig(q.reshape(-1, n, n))[1].reshape(q.shape)
    return np.where((np.arange(n) < np.asarray(rank)[..., None])[..., None, :], w @ v, kernel)


def _leg_directions(w: np.ndarray, v: np.ndarray, rank) -> tuple[np.ndarray, np.ndarray]:
    """The tangent directions at a leg ``w`` (as :func:`_leg_frame`) on the
    block's slot grid, zero off their mask, and the mask: slot ``(a, c)``
    holds ``X w`` for the anti-Hermitian unit ``X`` of the leg frame.  That
    is ``w`` times a unit of the source corner (vertical) for ``a, c`` below
    the rank, ``(1 - w w*) z p0`` (horizontal, scaled to unit norm) for one
    of them past it, and masked for neither."""
    n = v.shape[-1]
    a, c = np.divmod(np.arange(n * n), n)
    r = np.asarray(rank)[..., None]
    frame = _leg_frame(w, v, rank)
    kept = (a < r) | (c < r)
    weight = np.where((a < r) & (c < r), 1.0, np.sqrt(2.0)) * kept
    return antihermitian_units(frame, w.conj().mT @ frame) * weight[..., None, None], kept


def _form_spectrum(w: np.ndarray, rank) -> tuple[np.ndarray, np.ndarray]:
    """The singular values of one leg's form on a block's slot grid
    (:func:`_leg_directions`) in closed form, one per slot, and the mask of
    the slots: with the block's eigenvalues ``w`` (descending; per row of a
    stack), ``|w_a - w_c|`` for ``a, c`` below the rank, ``2 w_a`` for
    ``a`` below it and ``c`` past it (and back), and zero on the masked
    slots.  The diagonal and the pairs within a cluster are the radical."""
    n = w.shape[-1]
    a, c = np.divmod(np.arange(n * n), n)
    r = np.asarray(rank)[..., None]
    kept, vertical = (a < r) | (c < r), (a < r) & (c < r)
    values = np.where(vertical, np.abs(w[..., a] - w[..., c]), 2.0 * w[..., np.minimum(a, c)])
    return values * kept, kept


def _orbit_form(directions: np.ndarray, d0: np.ndarray, tol: ToleranceProfile) -> np.ndarray:
    """dGamma0 at base density ``d0`` on all pairs of a stack of directions:
    with ``T[i, j] = Tr(d0 e_i* e_j)``, ``i (T - T^T)``."""
    n = directions.shape[-1]
    flat = directions.reshape(*directions.shape[:-2], -1)
    # e_j d0 for all j at once: the rows of all directions times d0.
    t = flat.conj() @ (directions.reshape(*flat.shape[:-2], -1, n) @ d0).reshape(flat.shape).mT
    return expect_real_array(1j * (t - t.mT), tol, "exterior derivative of the orbit one-form")


def degeneracy_kernel_check(
    rho0: NormalFunctional,
    u: np.ndarray,
    v: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> DegeneracyReport:
    """Analyse the two-form dGamma0_u (+) (-dGamma0_v) on the product of the
    bundle tangent spaces at u and v (both with source supp(rho0)): its
    radical consists of the stabilizer directions of rho0 pushed to each leg,
    so the kernel dimension is twice the stabilizer dimension, and away from
    the radical the form has singular values bounded below.

    The form splits by leg and by block, with the same singular values on
    both legs, in closed form (:func:`_form_spectrum`): the kernel is
    counted from them against the largest of all blocks.  Each base grades
    the frames they are read in: the block eigenvectors (unitary, and
    rebuilding the density) and both legs' frames (:func:`_leg_frame`).  At
    the first base of a stack the ambient form (:func:`_orbit_form` on
    :func:`_leg_directions`) is compared with the closed form: its singular
    values, its entries on the radical and its directions' Gram defect, each
    as a gap beyond the residual tolerance (:func:`~wstargeo.linalg.excess`),
    and the realified ranks of the directions and of the radical."""
    algebra, d0 = rho0.algebra, rho0.density
    p0 = functional_support(rho0, tol)
    refuse(DegenerateBase, projection_rank(p0) == 0, "the base functional vanishes")
    for w, name in ((u, "u"), (v, "v")):
        refuse(InvalidTangent, excess(w.conj().mT @ w, p0, tol, frobenius(p0)),
               f"{name}* {name} is not the support of the base")
    spectrum = density_spectrum(rho0, tol)
    stab = stabilizer_lie_algebra(rho0, tol)
    first = (0,) * (d0.ndim - 2)
    frames, slots, ambient, closed, defect, ranks = 0.0, [], [], [], 0.0, 0
    for (s, w, vectors), r, k in zip(spectrum.blocks, spectrum.ranks, algebra.slot_slices):
        legs = np.stack([u[..., s, s], v[..., s, s]])
        rebuilt = frobenius((vectors * w[..., None, :]) @ vectors.conj().mT - d0[..., s, s])
        frames = frames + unitarity_defect(vectors) + rebuilt / frobenius(d0)
        frames = frames + np.max(unitarity_defect(_leg_frame(legs, vectors, r)), axis=0)
        values, kept = _form_spectrum(w, r)
        slots.append((values, kept))
        # Both legs' ambient forms at the first base.
        kept, radical = kept[first], stab.mask[first][k]
        both = legs[(slice(None), *first)]
        directions, _ = _leg_directions(both, vectors[first], np.asarray(r)[first])
        forms = _orbit_form(directions, d0[first][s, s], tol)
        ambient.append(singular_values(forms))
        closed.append(np.sort(values[first])[::-1])
        defect += np.max(np.abs(forms) * (radical[:, None] & kept))
        defect += np.max(gram_defect(directions, kept))
        # Both legs' directions, then their radical slots alone.
        spans = np.concatenate([directions, directions * radical[:, None, None]])
        ranks = ranks + realified_rank(spans, tol)
    values, kept = (np.concatenate(x, axis=-1) for x in zip(*slots))
    tangent, expected = 2 * np.count_nonzero(kept, axis=-1), 2 * np.asarray(stab.dimension)
    kernel, closed = tangent - 2 * floored_rank(values, tol), np.concatenate(closed)
    radical_pairing, oracle = np.array(frames), np.zeros_like(tangent)
    radical_pairing[first] += (excess(np.concatenate(ambient, axis=-1), closed, tol, np.max(closed))
                               + excess(defect, 0.0, tol))
    oracle[first] = abs(ranks[:2].sum() - tangent[first]) + abs(ranks[2:].sum() - expected[first])
    return DegeneracyReport(
        radical_pairing=radical_pairing[()],
        kernel_dimension=as_count(kernel),
        expected_kernel_dimension=as_count(expected),
        complement_min_singular=np.min(values, axis=-1, initial=np.inf, where=kept & ~stab.mask),
        tangent_dimension=as_count(tangent),
        oracle=as_count(oracle),
    )


def orbit_form_sample(
    algebra: BlockAlgebra,
    rng: sampling.Stream,
    u: np.ndarray,
    p0: np.ndarray,
    q: Frames,
) -> list:
    """One sample for :func:`orbit_form_invariance_residual` at u, an
    isometry with source p0 whose target ``u u*`` has the frames ``q``,
    drawn from ``rng`` (stacks over the stream's trials): two bundle
    tangents, two anti-Hermitian corner directions of p0, a unitary and an
    arrow out of ``q``.  The stabilizer coefficients are drawn after it; the
    residual reads those of the stabilizer's slots."""
    du = sampling.p0_tangent(algebra, rng, u, p0)
    du2 = sampling.p0_tangent(algebra, rng, u, p0)
    x1 = sampling.corner_antihermitian(algebra, rng, p0)
    x2 = sampling.corner_antihermitian(algebra, rng, p0)
    w = sampling.random_unitary(algebra, rng)
    wg = sampling.isometry_between(rng, q, sampling.equivalent_frames(rng, q))
    return [du, du2, x1, x2, w, wg]


def orbit_form_invariance_residual(
    rho0: NormalFunctional,
    u: np.ndarray,
    du: np.ndarray,
    du2: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
    w: np.ndarray,
    wg: np.ndarray,
    coeff: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """Worst residual of the structural invariances of the orbit one- and
    two-forms at u, on one sample of :func:`orbit_form_sample`: invariance
    of Gamma0 under the global unitary left translation ``w``, invariance
    of the two-form on the vertical pair ``u x1``, ``u x2`` under left
    translation by the groupoid element ``wg``, invariance under right
    translation by the stabilizer element ``exp(s)`` of the base, and
    invariance under adding the radical (stabilizer) direction ``s`` to one
    argument, with ``s`` the combination of the stabilizer basis with
    ``coeff`` (unread off the stabilizer's slots).

    On stacks (a functional of stacked densities, and stacked samples) one
    residual per trial (:func:`~wstargeo.algebra.stabilizer_direction`)."""
    s = stabilizer_direction(rho0, coeff, tol)
    # Right translation by exp(s): the identity off the support corner, so
    # u exp(s) stays an isometry from p0.
    g = exp_antihermitian(s)
    residuals = [
        abs(Gamma0(rho0, w @ u, w @ du, tol) - Gamma0(rho0, u, du, tol)),
        abs(dGamma0(rho0, wg @ u, wg @ u @ x1, wg @ u @ x2, tol)
            - dGamma0(rho0, u, u @ x1, u @ x2, tol)),
    ]
    base = dGamma0(rho0, u, du, du2, tol)
    residuals += [
        abs(dGamma0(rho0, u @ g, du @ g, du2 @ g, tol) - base),
        abs(dGamma0(rho0, u, du + u @ s, du2, tol) - base),
    ]
    return reduce(np.maximum, residuals)

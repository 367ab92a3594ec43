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

Composable curve families through the standard groupoid provide the
multiplicativity and exactness checks of the symplectic form: the form adds
over the groupoid product, and the primitive ``Tr(g* dg)`` is compatible
with multiplication up to the source-modulus term.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from . import sampling, standard
from .algebra import (
    BlockAlgebra,
    NormalFunctional,
    antihermitian_units,
    functional_support,
    matrix_units,
    stabilizer_lie_algebra,
)
from .charts import Gamma0, dGamma0
from .errors import (
    DegenerateBase,
    DomainError,
    InvalidFamily,
    InvalidTangent,
    NotUnitVector,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceProfile,
    _worst,
    check_hermitian,
    expect_real,
    expect_real_array,
    frobenius,
    herm,
    hermitian_eig,
    hs_inner,
    is_partial_isometry,
    projection_rank,
    retained_rank,
    singular_values,
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

    An observable is a fixed function of the functional, so its differential
    at ``phi`` is kept on ``phi``, one per observable and profile
    (:meth:`differential_at`)."""

    value: Callable[[NormalFunctional], float]
    differential: Callable[[NormalFunctional, ToleranceProfile], np.ndarray] | None = None

    def value_at(self, phi: NormalFunctional) -> float:
        return float(self.value(phi))

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
        h = tol.fd_step
        algebra, d = phi.algebra, phi.density
        grad = algebra.zero()
        for e in algebra.hermitian_units():
            step = h * e
            plus = self.value_at(NormalFunctional(algebra, d + step))
            minus = self.value_at(NormalFunctional(algebra, d - step))
            grad += ((plus - minus) / (2 * h)) * e
        return grad

    @classmethod
    def linear(cls, x: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> "Observable":
        """The evaluation observable phi -> phi(x) for Hermitian x."""
        x = check_hermitian(np.asarray(x, dtype=complex), tol)
        return cls(
            value=lambda phi: float(phi(x).real),
            differential=lambda phi, tol: x,
        )

    @classmethod
    def quadratic(cls, x: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> "Observable":
        """phi -> Tr(d^2 x) for Hermitian x, with differential d x + x d."""
        x = check_hermitian(np.asarray(x, dtype=complex), tol)
        return cls(
            value=lambda phi: float(np.trace(phi.density @ phi.density @ x).real),
            differential=lambda phi, tol: herm(phi.density @ x + x @ phi.density),
        )

    def times(self, other: "Observable") -> "Observable":
        """Pointwise product, with the Leibniz differential
        f dg + g df, both factors' differentials taken under the profile
        the product's is."""
        return Observable(
            value=lambda phi: self.value_at(phi) * other.value_at(phi),
            differential=lambda phi, tol: self.value_at(phi) * other.differential_at(phi, tol)
            + other.value_at(phi) * self.differential_at(phi, tol),
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
) -> float:
    """Lie–Poisson bracket {f, g}(phi) = -i Tr(d [df, dg])."""
    df = f.differential_at(phi, tol)
    dg = g.differential_at(phi, tol)
    value = -1j * np.trace(phi.density @ (df @ dg - dg @ df))
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
) -> float:
    """|Tr(X_f dg) - {f, g}(phi)|: the Hamiltonian field reproduces the
    bracket through the dual pairing."""
    field = hamiltonian_field(f, phi, tol)
    dg = g.differential_at(phi, tol)
    paired = expect_real(np.trace(field @ dg), tol, "field pairing")
    return abs(paired - lp_bracket(f, g, phi, tol))


def jacobi_residual(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    phi: NormalFunctional,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> float:
    """Jacobi identity on evaluation observables, using the closure
    {f_x, f_y} = f_{-i[x,y]} of the bracket on linear functions."""

    def closure(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return herm(-1j * (a @ b - b @ a))

    total = (
        lp_bracket(Observable.linear(x, tol), Observable.linear(closure(y, z), tol), phi, tol)
        + lp_bracket(Observable.linear(y, tol), Observable.linear(closure(z, x), tol), phi, tol)
        + lp_bracket(Observable.linear(z, tol), Observable.linear(closure(x, y), tol), phi, tol)
    )
    return abs(total)


def linear_closure_residual(
    x: np.ndarray,
    y: np.ndarray,
    phi: NormalFunctional,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> float:
    """|{f_x, f_y}(phi) - phi(-i[x,y])|: the bracket of evaluations is the
    evaluation of -i[x, y]."""
    lhs = lp_bracket(Observable.linear(x, tol), Observable.linear(y, tol), phi, tol)
    rhs = expect_real(phi(herm(-1j * (x @ y - y @ x))), tol, "closure evaluation")
    return abs(lhs - rhs)


def leibniz_residual(
    f: Observable,
    g: Observable,
    h: Observable,
    phi: NormalFunctional,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> float:
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
) -> float:
    """The Hamiltonian field of the bracket closure equals the commutator of
    the two fields (as linear maps on density directions, composed in the
    order field-of-y after field-of-x minus the reverse)."""
    d = phi.density
    z = herm(-1j * (x @ y - y @ x))
    lhs = hamiltonian_field(Observable.linear(z, tol), phi, tol)

    def field_of(a: np.ndarray, at: np.ndarray) -> np.ndarray:
        return 1j * (a @ at - at @ a)

    rhs = field_of(y, field_of(x, d)) - field_of(x, field_of(y, d))
    return frobenius(lhs - rhs)


def poisson_map_residual(
    pairs: Sequence[tuple[Observable, Observable]],
    algebra: BlockAlgebra,
    gamma: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> list[float]:
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
) -> float:
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

    Each generator is diagonalised once: ``x = v diag(lam) v*`` gives
    ``exp(t x) = v diag(e^{t lam}) v*``, with an anti-Hermitian ``a``
    written ``-i (i a)`` so that ``lam`` is imaginary.
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

    def __post_init__(self) -> None:
        tol = self.tol
        if frobenius(self.xi2 - self.xi2.conj().T) > tol.residual_tol:
            raise InvalidFamily("xi2 is not Hermitian")
        w, v = hermitian_eig(herm(self.xi2))
        if w[-1] < -tol.residual_tol:
            raise InvalidFamily("xi2 is not positive")
        f2 = v[:, : retained_rank(w, tol)]
        q2 = f2 @ f2.conj().T
        checks = {
            "u1 is not a partial isometry": not is_partial_isometry(self.u1, tol),
            "u2 is not a partial isometry": not is_partial_isometry(self.u2, tol),
            "u1* u1 != u2 u2*": frobenius(
                self.u1.conj().T @ self.u1 - self.u2 @ self.u2.conj().T
            )
            > tol.residual_tol,
            "u2* u2 != supp(xi2)": frobenius(self.u2.conj().T @ self.u2 - q2)
            > tol.residual_tol,
            "a1 is not anti-Hermitian": frobenius(self.a1 + self.a1.conj().T)
            > tol.residual_tol,
            "a2 is not anti-Hermitian": frobenius(self.a2 + self.a2.conj().T)
            > tol.residual_tol,
            "b2 is not anti-Hermitian": frobenius(self.b2 + self.b2.conj().T)
            > tol.residual_tol,
            "b2 does not commute with supp(xi2)": frobenius(self.b2 @ q2 - q2 @ self.b2)
            > tol.residual_tol,
            "h2 is not a Hermitian corner element": frobenius(
                self.h2 - q2 @ self.h2 @ q2
            )
            + frobenius(self.h2 - self.h2.conj().T)
            > tol.residual_tol,
        }
        for message, failed in checks.items():
            if failed:
                raise InvalidFamily(message)

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
        return (v * np.exp(t * lam)) @ v.conj().T

    def u1_at(self, t: float) -> np.ndarray:
        return self._exp("a1", t) @ self.u1 @ self._exp("b1", t)

    def u2_at(self, t: float) -> np.ndarray:
        return self._exp("a2", t) @ self.u2 @ self._exp("b2", t)

    def xi2_at(self, t: float) -> np.ndarray:
        e = self._exp("h2", t)
        return e @ self.xi2 @ e

    def gamma2_at(self, t: float) -> np.ndarray:
        return self.u2_at(t) @ self.xi2_at(t)

    def gamma1_at(self, t: float) -> np.ndarray:
        u2t = self.u2_at(t)
        return self.u1_at(t) @ (u2t @ self.xi2_at(t) @ u2t.conj().T)

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
        eta = self.u2 @ self.xi2 @ self.u2.conj().T
        deta = (
            self.du2() @ self.xi2 @ self.u2.conj().T
            + self.u2 @ self.dxi2() @ self.u2.conj().T
            + self.u2 @ self.xi2 @ self.du2().conj().T
        )
        return self.du1() @ eta + self.u1 @ deta

    def dproduct(self) -> np.ndarray:
        return (
            self.du1() @ self.u2 @ self.xi2
            + self.u1 @ self.du2() @ self.xi2
            + self.u1 @ self.u2 @ self.dxi2()
        )


def sample_family_base(
    algebra: BlockAlgebra, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base data (u1, u2, xi2) of a composable pair."""
    q2 = sampling.random_frames(algebra, rng)
    q1 = sampling.equivalent_frames(rng, q2)
    q0 = sampling.equivalent_frames(rng, q2)
    u2 = sampling.isometry_between(rng, q2, q1)
    u1 = sampling.isometry_between(rng, q1, q0)
    xi2 = sampling.positive_on(rng, q2)
    return u1, u2, xi2


def family_with_generators(
    algebra: BlockAlgebra,
    base: tuple[np.ndarray, np.ndarray, np.ndarray],
    rng: np.random.Generator,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> ComposableFamily:
    """Fresh unit-operator-norm generators on a fixed composable base."""
    u1, u2, xi2 = base
    # supp(xi2) = u2* u2 on a valid base, as ComposableFamily checks.
    q2 = u2.conj().T @ u2
    a1 = sampling.unit_norm(sampling.random_antihermitian(algebra, rng))
    a2 = sampling.unit_norm(sampling.random_antihermitian(algebra, rng))
    b2 = sampling.unit_norm(sampling.corner_antihermitian(algebra, rng, q2))
    h2 = sampling.unit_norm(sampling.corner_hermitian(algebra, rng, q2))
    return ComposableFamily(
        algebra=algebra, u1=u1, u2=u2, xi2=xi2, a1=a1, a2=a2, b2=b2, h2=h2, tol=tol
    )


def sample_family(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> ComposableFamily:
    """Random composable family with unit-operator-norm generators."""
    base = sample_family_base(algebra, rng)
    return family_with_generators(algebra, base, rng, tol)


def sample_family_pair(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> tuple[ComposableFamily, ComposableFamily]:
    """Two independent tangent directions on one shared composable base."""
    base = sample_family_base(algebra, rng)
    return (
        family_with_generators(algebra, base, rng, tol),
        family_with_generators(algebra, base, rng, tol),
    )


def multiplicativity_residual(
    fam: ComposableFamily,
    fam2: ComposableFamily,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> float:
    """Multiplicativity of the symplectic form over the groupoid product:
    for two tangent directions at the same composable pair,

        omega(d(g1 g2), d(g1 g2)') = omega(dg1, dg1') + omega(dg2, dg2').

    Both families must share the base (u1, u2, xi2)."""
    gap = max(
        frobenius(fam.u1 - fam2.u1),
        frobenius(fam.u2 - fam2.u2),
        frobenius(fam.xi2 - fam2.xi2),
    )
    if gap > tol.residual_tol:
        raise InvalidFamily("the two families have different base points")
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
) -> float:
    """Closed form of omega on vertical directions u b xi:
    omega(u b xi, u b' xi) = -2 Im Tr(xi^2 b b') for anti-Hermitian corner
    generators b, b' at the support of xi."""
    lhs = standard.symplectic_omega(u @ b @ xi, u @ b_prime @ xi)
    rhs = -2.0 * float(np.trace(xi @ xi @ b @ b_prime).imag)
    return abs(lhs - rhs)


def exactness_residual(
    fam: ComposableFamily,
    step: float | None = None,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> float:
    """Compatibility of the primitive Gamma(g)(dg) = Tr(g* dg) of the
    symplectic form with the groupoid product:

        Gamma(g1)(dg1) + Gamma(g2)(dg2)
            = Gamma(g1 g2)(d(g1 g2)) + Tr(xi2 dxi2),

    where the product derivative is taken by central differences of the
    groupoid multiplication itself, so the identity holds up to an O(step^2)
    discretization error."""
    h = tol.fd_step if step is None else step
    plus = std_mul(fam.gamma1_at(h), fam.gamma2_at(h), tol)
    minus = std_mul(fam.gamma1_at(-h), fam.gamma2_at(-h), tol)
    dprod_fd = (plus - minus) / (2.0 * h)
    lhs = hs_inner(fam.gamma1_at(0.0), fam.dgamma1()) + hs_inner(
        fam.gamma2_at(0.0), fam.dgamma2()
    )
    rhs = hs_inner(fam.product_at(0.0), dprod_fd) + np.trace(fam.xi2 @ fam.dxi2())
    return abs(complex(lhs - rhs))


# ---------------------------------------------------------------------------
# orbit two-form, calibration, Fubini–Study geometry


@lru_cache(maxsize=1)
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
    the moment functional 2i E(g0) evaluated on [a1, a2]."""

    omega: float
    moment: float
    pairing: float
    kappa: float

    @property
    def residual(self) -> float:
        return abs(self.omega - self.moment)


def kks_check(
    rho0: NormalFunctional,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> KKSReport:
    """Evaluate the orbit symplectic identity at the canonical vector of
    rho0 with anti-Hermitian directions a1, a2."""
    for a, name in ((a1, "a1"), (a2, "a2")):
        if frobenius(a + a.conj().T) > tol.residual_tol * (1.0 + frobenius(a)):
            raise InvalidTangent(f"{name} is not anti-Hermitian")
    gamma0 = std_unit(rho0, tol)
    kappa = calibrate_kappa()
    omega = standard.symplectic_omega(a1 @ gamma0, a2 @ gamma0)
    d0 = gamma0 @ gamma0.conj().T
    moment = kappa * 2.0 * float(np.trace(d0 @ a1 @ a2).imag)
    commutator = a1 @ a2 - a2 @ a1
    pairing = float((2j * np.trace(d0 @ commutator)).real)
    return KKSReport(omega=omega, moment=moment, pairing=pairing, kappa=kappa)


@dataclass(frozen=True)
class FubiniStudyReport:
    """Symplectic form on source-side lifts of projective tangents against
    the Fubini–Study value kappa r 2 Im <X|Y> at radius r."""

    omega: float
    fs_value: float
    radius: float

    @property
    def residual(self) -> float:
        return abs(self.omega - self.fs_value)


def _unit_vector(v: np.ndarray, tol: ToleranceProfile) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= tol.residual_tol * 10:  # also refuses NaN
        raise NotUnitVector(f"vector norm {norm:.6f} differs from 1")
    return v


def fubini_study_compare(
    r: float,
    delta: np.ndarray,
    X: np.ndarray,
    Y: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> FubiniStudyReport:
    """Rank-one orbit through rho0 = r |delta><delta|: the symplectic form on
    the lifts gamma0 a_X, gamma0 a_Y (a_X = |X><delta| - |delta><X|, tangents
    X, Y orthogonal to delta) equals the scaled Fubini–Study form
    kappa r 2 Im <X|Y>."""
    if r <= 0:
        raise DegenerateBase("the orbit radius must be positive")
    delta = _unit_vector(delta, tol)
    X = np.asarray(X, dtype=complex).reshape(-1)
    Y = np.asarray(Y, dtype=complex).reshape(-1)
    X = X - delta * np.vdot(delta, X)
    Y = Y - delta * np.vdot(delta, Y)
    gamma0 = np.sqrt(r) * np.outer(delta, delta.conj())

    def generator(t: np.ndarray) -> np.ndarray:
        return np.outer(t, delta.conj()) - np.outer(delta, t.conj())

    lift_x = gamma0 @ generator(X)
    lift_y = gamma0 @ generator(Y)
    omega = standard.symplectic_omega(lift_x, lift_y)
    kappa = calibrate_kappa()
    fs_value = kappa * float(r) * 2.0 * float(np.vdot(X, Y).imag)
    return FubiniStudyReport(omega=omega, fs_value=fs_value, radius=float(r))


def pair_groupoid_fs_residual(
    r: float,
    delta: np.ndarray,
    psi: np.ndarray,
    phi_vec: np.ndarray,
    X: np.ndarray,
    X_prime: np.ndarray,
    Y: np.ndarray,
    Y_prime: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> float:
    """Rank-one pair-groupoid identity: for arrows Lambda(u, v) = u gamma0 v*
    over the base |delta>, with leg tangents |X><delta| at u = |psi><delta|
    (X orthogonal to psi) and |Y><delta| at v = |phi><delta| (Y orthogonal to
    phi), the symplectic form splits into target minus source Fubini–Study
    terms:

        omega(dLambda, dLambda') = 2 r Im <X|X'> - 2 r Im <Y|Y'>.
    """
    delta = _unit_vector(delta, tol)
    psi = _unit_vector(psi, tol)
    phi_vec = _unit_vector(phi_vec, tol)
    gamma0 = np.sqrt(float(r)) * np.outer(delta, delta.conj())

    def orth(t: np.ndarray, against: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=complex).reshape(-1)
        return t - against * np.vdot(against, t)

    X, X_prime = orth(X, psi), orth(X_prime, psi)
    Y, Y_prime = orth(Y, phi_vec), orth(Y_prime, phi_vec)
    u = np.outer(psi, delta.conj())
    v = np.outer(phi_vec, delta.conj())
    du, du_p = np.outer(X, delta.conj()), np.outer(X_prime, delta.conj())
    dv, dv_p = np.outer(Y, delta.conj()), np.outer(Y_prime, delta.conj())

    def dLambda(duu: np.ndarray, dvv: np.ndarray) -> np.ndarray:
        return duu @ gamma0 @ v.conj().T + u @ gamma0 @ dvv.conj().T

    lhs = standard.symplectic_omega(dLambda(du, dv), dLambda(du_p, dv_p))
    rhs = 2.0 * float(r) * float(np.vdot(X, X_prime).imag) - 2.0 * float(r) * float(
        np.vdot(Y, Y_prime).imag
    )
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# transition amplitudes along a path of unit vectors


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
    the one-dimensional shadow of the groupoid product."""
    if len(vectors) < 2:
        raise DomainError("an amplitude needs a path of at least two vectors")
    units = [_unit_vector(v, tol) for v in vectors]
    amp = complex(1.0)
    for a, b in zip(units, units[1:]):
        amp *= complex(np.vdot(a, b))
    return AmplitudeReport(amplitude=amp, probability=float(abs(amp) ** 2), steps=len(units) - 1)


# ---------------------------------------------------------------------------
# degeneracy of the arrow two-form


@dataclass(frozen=True)
class DegeneracyReport:
    """Kernel analysis of the arrow two-form dGamma0_u - dGamma0_v on a pair
    of isometry-bundle tangent spaces: the radical is spanned by the
    stabilizer directions of the base density on each leg, and the form is
    uniformly nondegenerate transverse to it."""

    radical_pairing: float
    kernel_dimension: int
    expected_kernel_dimension: int
    complement_min_singular: float
    tangent_dimension: int

    @property
    def dimension_residual(self) -> int:
        return abs(self.kernel_dimension - self.expected_kernel_dimension)


def _bundle_tangent_basis(
    algebra: BlockAlgebra,
    u: np.ndarray,
    p0: np.ndarray,
) -> np.ndarray:
    """Real basis of the tangent space at u to the isometries with source
    p0, block by block: vertical directions u x (x anti-Hermitian in the p0
    corner) and horizontal directions (1 - u u*) z p0 with z running through
    a complex block basis, each complex unit followed by i times it."""
    q = u @ u.conj().T
    parts, vertical = [], []
    for s in algebra.slices:
        r = projection_rank(p0[s, s])
        if r == 0:
            continue
        _, vp = hermitian_eig(p0[s, s])
        _, vq = hermitian_eig(q[s, s])
        corner = antihermitian_units(vp[:, :r])
        # (1 - q) . p0: the complement of the range of q times the range of p0
        m = matrix_units(vq[:, r:], vp[:, :r])
        transverse = np.stack([m, 1j * m], axis=1).reshape(-1, *m.shape[1:])
        parts += [(s, corner), (s, transverse)]
        vertical += [True] * len(corner) + [False] * len(transverse)
    basis = algebra.embed_stacks(parts)
    basis[vertical] = u @ basis[vertical]
    return basis


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
    the radical the form has singular values bounded below."""
    algebra = rho0.algebra
    p0 = functional_support(rho0, tol)
    if projection_rank(p0) == 0:
        raise DegenerateBase("the base functional vanishes")
    for w, name in ((u, "u"), (v, "v")):
        if frobenius(w.conj().T @ w - p0) > tol.residual_tol * (1.0 + frobenius(p0)):
            raise InvalidTangent(f"{name}* {name} is not the support of the base")

    stab = stabilizer_lie_algebra(rho0, tol)
    radical_dirs = np.reshape(stab.basis, (-1, algebra.dim, algebra.dim))
    d0 = rho0.density

    def leg_pairings(w: np.ndarray) -> tuple[np.ndarray, float]:
        """dGamma0 on all pairs of the leg's tangent basis, and the worst
        pairing of a stabilizer direction w s against that basis."""
        basis = _bundle_tangent_basis(algebra, w, p0)
        m = len(basis)
        stacked = np.concatenate([basis, w @ radical_dirs])
        # T[i, j] = Tr(d0 e_i* e_j), so dGamma0(e_i, e_j) = i (T - T^T)[i, j].
        flat = stacked.reshape(len(stacked), -1)
        t = flat.conj() @ (stacked @ d0).reshape(len(stacked), -1).T
        form = expect_real_array(
            1j * (t - t.T), tol, "exterior derivative of the orbit one-form"
        )
        radical = float(np.max(np.abs(form[m:, :m]), initial=0.0))
        return form[:m, :m], radical

    form_u, radical_u = leg_pairings(u)
    form_v, radical_v = leg_pairings(v)
    pairing = scipy.linalg.block_diag(form_u, -form_v)
    total = len(pairing)
    radical_worst = _worst(radical_u, radical_v)

    sing = singular_values(pairing)
    scale = max(float(sing[0]), 1.0) if sing.size else 1.0
    cutoff = 1e-8 * scale
    kernel_dim = int(np.sum(sing < cutoff))
    expected = 2 * stab.dimension
    nonzero = sing[: total - expected] if expected <= total else sing[:0]
    min_sing = float(nonzero[-1]) if nonzero.size else float("inf")
    return DegeneracyReport(
        radical_pairing=radical_worst,
        kernel_dimension=kernel_dim,
        expected_kernel_dimension=expected,
        complement_min_singular=min_sing,
        tangent_dimension=total,
    )


def orbit_form_invariance_residual(
    rho0: NormalFunctional,
    u: np.ndarray,
    rng: np.random.Generator,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> float:
    """Worst residual of the structural invariances of the orbit one- and
    two-forms at u: invariance of Gamma0 under global unitary left
    translation, invariance of the two-form on vertical pairs under left
    translation by a groupoid element, invariance under right translation by
    a stabilizer element of the base, and invariance under adding a radical
    (stabilizer) direction to one argument."""
    algebra = rho0.algebra
    p0 = functional_support(rho0, tol)
    du = sampling.p0_tangent(algebra, rng, u, p0)
    du2 = sampling.p0_tangent(algebra, rng, u, p0)
    x1 = sampling.corner_antihermitian(algebra, rng, p0)
    x2 = sampling.corner_antihermitian(algebra, rng, p0)

    res = []
    # global unitary left translation of the one-form
    w = sampling.random_unitary(algebra, rng)
    res.append(abs(Gamma0(rho0, w @ u, w @ du, tol) - Gamma0(rho0, u, du, tol)))
    # left translation by a groupoid arrow on a vertical pair
    q = sampling.frames_of(algebra, u @ u.conj().T)
    wg = sampling.isometry_between(rng, q, sampling.equivalent_frames(rng, q))
    res.append(
        abs(
            dGamma0(rho0, wg @ u, wg @ u @ x1, wg @ u @ x2, tol)
            - dGamma0(rho0, u, u @ x1, u @ x2, tol)
        )
    )
    # right translation by a stabilizer element (its exponential is the
    # identity off the support corner, so u g stays an isometry from p0)
    stab = stabilizer_lie_algebra(rho0, tol)
    if stab.basis:
        s = sampling.stabilizer_direction(rng, list(stab.basis))
        g = scipy.linalg.expm(s)
        res.append(
            abs(
                dGamma0(rho0, u @ g, du @ g, du2 @ g, tol)
                - dGamma0(rho0, u, du, du2, tol)
            )
        )
        # radical shift of one argument
        res.append(
            abs(
                dGamma0(rho0, u, du + u @ s, du2, tol)
                - dGamma0(rho0, u, du, du2, tol)
            )
        )
    return _worst(*res)

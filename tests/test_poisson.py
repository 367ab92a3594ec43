"""Tests for the Lie-Poisson bracket, Hamiltonian fields, composable curve
families, the orbit two-form and its degeneracy, the moment/Fubini-Study
identities, and path amplitudes."""

import dataclasses

import numpy as np
import pytest

from wstargeo import (
    DEFAULT_TOL,
    AmplitudeReport,
    BlockAlgebra,
    ComposableFamily,
    DegenerateBase,
    DomainError,
    InvalidFamily,
    InvalidTangent,
    NormalFunctional,
    NotHermitian,
    NotUnitVector,
    Observable,
    calibrate_kappa,
    commutant_bracket_check,
    degeneracy_kernel_check,
    draw_family_data,
    exactness_residual,
    expectation_E,
    families_on,
    feynman_amplitude,
    field_duality_residual,
    field_morphism_residual,
    frobenius,
    fubini_study_compare,
    functional_support,
    hamiltonian_field,
    jacobi_residual,
    kks_check,
    leibniz_residual,
    linear_closure_residual,
    lp_bracket,
    multiplicativity_residual,
    orbit_form_invariance_residual,
    orbit_form_sample,
    pair_groupoid_fs_residual,
    poisson_map_residual,
    positive_spectrum,
    stabilizer_lie_algebra,
    std_mul,
    symplectic_omega,
    vertical_form_residual,
)
from wstargeo import suites
from wstargeo.algebra import Frames
from wstargeo.charts import dGamma0
from wstargeo.standard import dual_pair_orthogonality_check
from wstargeo.linalg import expect_real, refuse
from test_bases import _ref_bundle_tangent_basis
from wstargeo.sampling import (
    complex_normal,
    corner_antihermitian,
    equivalent_frames,
    isometry_between,
    positive_on,
    random_antihermitian,
    random_density,
    random_element,
    random_hermitian,
    random_frames,
    random_unit_vector,
    random_unitary,
    Stream,
    unit_norm,
)

M2 = BlockAlgebra((2,))
M3 = BlockAlgebra((3,))
M23 = BlockAlgebra((2, 3))

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
PHI10 = NormalFunctional(M2, np.diag([1.0, 0.0]).astype(complex))


def _families(algebra, rng, directions=1):
    """``directions`` composable families on one base, drawn from the
    one-trial stream ``rng``."""
    data = draw_family_data(algebra, rng, directions)
    return families_on(algebra, [x[0] for x in data], DEFAULT_TOL)


class TestLiePoisson:
    def test_bracket_oracle(self):
        f = Observable.linear(SX, DEFAULT_TOL)
        g = Observable.linear(SY, DEFAULT_TOL)
        # -i Tr(d [sx, sy]) = -i Tr(diag(1,0) 2i sz) = 2
        assert abs(lp_bracket(f, g, PHI10, DEFAULT_TOL) - 2.0) <= 1e-12

    def test_field_oracle(self):
        f = Observable.linear(SX, DEFAULT_TOL)
        field = hamiltonian_field(f, PHI10, DEFAULT_TOL)
        assert frobenius(field - SY) <= 1e-12
        # Hermitian and traceless
        assert frobenius(field - field.conj().T) <= 1e-12
        assert abs(np.trace(field)) <= 1e-12

    def test_finite_difference_differential(self):
        # an observable given only by values recovers the analytic gradient
        f_analytic = Observable.linear(SX, DEFAULT_TOL)
        f_fd = Observable(value=lambda phi: phi(SX).real)
        rng = Stream((40,), [0])
        phi = random_density(M2, rng)[0]
        d_an = f_analytic.differential_at(phi, DEFAULT_TOL)
        d_fd = f_fd.differential_at(phi, DEFAULT_TOL)
        assert frobenius(d_an - d_fd) <= 1e-8

    def test_quadratic_differential(self):
        rng = Stream((41,), [0])
        x = random_hermitian(M2, rng)[0]
        h_an = Observable.quadratic(x, DEFAULT_TOL)
        h_fd = Observable(
            value=lambda phi: np.trace(phi.density @ phi.density @ x, axis1=-2, axis2=-1).real
        )
        phi = random_density(M2, rng)[0]
        assert abs(h_an.value_at(phi) - h_fd.value_at(phi)) <= 1e-12
        assert frobenius(
            h_an.differential_at(phi, DEFAULT_TOL) - h_fd.differential_at(phi, DEFAULT_TOL)
        ) <= 1e-8

    def test_product_differential_keeps_the_profile(self):
        # f times the constant 1 has differential df under the profile asked
        # for, not the default one.
        x = unit_norm(random_hermitian(M23, Stream((46,), [0]))[0])
        f = Observable(
            value=lambda phi: np.trace(
                phi.density @ phi.density @ phi.density @ x, axis1=-2, axis2=-1
            ).real
        )
        one = Observable(value=lambda phi: 1.0, differential=lambda phi, tol: np.zeros((5, 5), complex))
        phi = random_density(M23, Stream((47,), [0]))[0]
        coarse = dataclasses.replace(DEFAULT_TOL, fd_step=1e-2)
        product = f.times(one).differential_at(phi, coarse)
        assert np.array_equal(product, f.differential_at(phi, coarse))
        assert frobenius(product - f.differential_at(phi, DEFAULT_TOL)) > 1e-6
        assert np.array_equal(
            f.times(one).differential_at(phi, DEFAULT_TOL), f.differential_at(phi, DEFAULT_TOL)
        )

    def test_structure_identities_random(self):
        for trial in range(60):
            rng = Stream((42, trial), [0])
            algebra = M2 if trial % 2 == 0 else M23
            phi = random_density(algebra, rng)[0]
            x, y, z = (random_hermitian(algebra, rng)[0] for _ in range(3))
            f = Observable.linear(x, DEFAULT_TOL)
            g = Observable.linear(y, DEFAULT_TOL)
            h = Observable.quadratic(z, DEFAULT_TOL)
            assert field_duality_residual(f, g, phi, DEFAULT_TOL) <= 1e-10
            assert linear_closure_residual(x, y, phi, DEFAULT_TOL) <= 1e-10
            assert jacobi_residual(x, y, z, phi, DEFAULT_TOL) <= 1e-10
            assert leibniz_residual(f, g, h, phi, DEFAULT_TOL) <= 1e-10
            assert field_morphism_residual(x, y, phi, DEFAULT_TOL) <= 1e-10

    def test_orbit_drift_second_order(self):
        # The field is tangent to the unitary orbit, so one Euler step of
        # size eps moves the spectrum of the density by O(eps^2) only.
        phi = random_density(M2, Stream((43,), [0]))[0]
        field = hamiltonian_field(Observable.linear(SX, DEFAULT_TOL), phi, DEFAULT_TOL)
        w0 = np.linalg.eigvalsh(phi.density)

        def drift(eps):
            return float(np.max(np.abs(np.linalg.eigvalsh(phi.density + eps * field) - w0)))

        small, big = drift(1e-3), drift(2e-3)
        assert small > 0
        assert 3.0 <= big / small <= 5.0


class TestCanonicalBracket:
    def test_oracle(self):
        # Tr(g g* x) = f_x(E(g)) has the pullback gradient x g, and
        # 2 Im <sx g | sy g> = 2 Im Tr(diag(1,0) sx sy) = 2; the Lie-Poisson
        # bracket at E(g) agrees.
        g = np.diag([1.0, 0.0]).astype(complex)
        fx, fy = Observable.linear(SX, DEFAULT_TOL), Observable.linear(SY, DEFAULT_TOL)
        assert abs(symplectic_omega(SX @ g, SY @ g) - 2.0) <= 1e-12
        assert abs(lp_bracket(fx, fy, expectation_E(M2, g), DEFAULT_TOL) - 2.0) <= 1e-12
        assert max(poisson_map_residual([(fx, fy)], M2, g, DEFAULT_TOL)) <= 1e-12

    def test_pullback_is_poisson_map(self):
        for trial in range(40):
            rng = Stream((44, trial), [0])
            algebra = M2 if trial % 2 == 0 else M23
            gamma = random_element(algebra, rng)[0]
            f = Observable.linear(random_hermitian(algebra, rng)[0], DEFAULT_TOL)
            g = Observable.linear(random_hermitian(algebra, rng)[0], DEFAULT_TOL)
            assert max(poisson_map_residual([(f, g)], algebra, gamma, DEFAULT_TOL)) <= 1e-10
            assert commutant_bracket_check(f, g, algebra, gamma, DEFAULT_TOL) <= 1e-10


class TestComposableFamily:
    def test_generator_lock_and_gap(self):
        rng = Stream((46,), [0])
        fam = _families(M23, rng)[0]
        assert frobenius(fam.b1 + fam.a2) == 0.0
        for t in (0.0, 0.3, -0.7):
            product = std_mul(fam.gamma1_at(t), fam.gamma2_at(t), DEFAULT_TOL)
            assert frobenius(product - fam.product_at(t)) <= 1e-10

    def test_tangents_match_finite_differences(self):
        rng = Stream((47,), [0])
        fam = _families(M2, rng)[0]
        h = 1e-5
        for curve, tangent in (
            (fam.gamma1_at, fam.dgamma1()),
            (fam.gamma2_at, fam.dgamma2()),
            (fam.product_at, fam.dproduct()),
        ):
            fd = (curve(h) - curve(-h)) / (2.0 * h)
            assert frobenius(fd - tangent) <= 1e-8 * (1.0 + frobenius(tangent))

    def test_rejects_bad_data(self):
        one = np.eye(2, dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        good = dict(algebra=M2, u1=one, u2=one, xi2=np.diag([1.0, 2.0]).astype(complex),
                    a1=zero, a2=zero, b2=zero, h2=zero, tol=DEFAULT_TOL)
        ComposableFamily(**good)  # sanity: the base case is valid
        with pytest.raises(InvalidFamily):
            ComposableFamily(**{**good, "u1": 2.0 * one})
        with pytest.raises(InvalidFamily):
            ComposableFamily(**{**good, "xi2": np.diag([1.0, -2.0]).astype(complex)})
        with pytest.raises(InvalidFamily):
            ComposableFamily(**{**good, "h2": np.array([[0.0, 1.0], [0.0, 0.0]])})
        with pytest.raises(InvalidFamily):
            ComposableFamily(**{**good, "a1": np.diag([1.0, 1.0]).astype(complex)})

    def test_positivity_and_support_read_positive_spectrum(self):
        # -2e-8 is negative beyond residual_tol in absolute terms, but within
        # residual_tol * max(1, w_max): positive, with support e11.
        xi2 = np.diag([100.0, -2e-8]).astype(complex)
        assert positive_spectrum(xi2, DEFAULT_TOL).ranks == (1,)
        e11 = np.diag([1.0, 0.0]).astype(complex)
        zero = np.zeros((2, 2), dtype=complex)
        ComposableFamily(M2, e11, e11, xi2, zero, zero, zero, zero, DEFAULT_TOL)

    def test_multiplicativity(self):
        for trial in range(60):
            rng = Stream((48, trial), [0])
            algebra = M2 if trial % 2 == 0 else M23
            fam, fam2 = _families(algebra, rng, 2)
            assert multiplicativity_residual(fam, fam2, DEFAULT_TOL) <= 1e-9

    def test_multiplicativity_needs_shared_base(self):
        rng = Stream((49,), [0])
        fam = _families(M2, rng)[0]
        other = _families(M2, rng)[0]
        with pytest.raises(InvalidFamily):
            multiplicativity_residual(fam, other, DEFAULT_TOL)

    def test_vertical_form(self):
        for trial in range(40):
            rng = Stream((50, trial), [0])
            f = random_frames(M23, rng, allow_zero=False)
            q = f.projection[0]
            u = isometry_between(rng, f, equivalent_frames(rng, f))[0]
            xi = positive_on(rng, f)[0]
            b = corner_antihermitian(M23, rng, q)[0]
            b_prime = corner_antihermitian(M23, rng, q)[0]
            assert vertical_form_residual(u, xi, b, b_prime, DEFAULT_TOL) <= 1e-10

    def test_exactness_residual_small_step(self):
        for trial in range(10):
            rng = Stream((51, trial), [0])
            fam = _families(M2 if trial % 2 == 0 else M23, rng)[0]
            assert exactness_residual(fam, 1e-5, DEFAULT_TOL) <= 1e-7

    def test_exactness_second_order(self):
        ratios = []
        for trial in range(9):
            rng = Stream((52, trial), [0])
            fam = _families(M2, rng)[0]
            r1 = exactness_residual(fam, 1e-3, DEFAULT_TOL)
            r2 = exactness_residual(fam, 5e-4, DEFAULT_TOL)
            if r2 > 1e-13:
                ratios.append(r1 / r2)
        assert ratios, "all residuals at machine precision"
        assert 3.0 <= float(np.median(ratios)) <= 5.0


def _registry_row(name):
    """The draw and check of the group of the suite row ``suite/row``."""
    suite, row = name.split("/")
    group = next(g for g in suites._suite(suite) if row in [r for r, _, _ in g.rows])
    return group.draw, group.check


#: Each random row of the multiplicativity and exactness suites: its draw
#: and its check, which run on one trial's data or on a stack of it.  The
#: residual and order rows read one check.
STACKED_FAMILY_ROWS = {
    name: _registry_row(name)
    for name in ("multiplicativity/residual", "multiplicativity/vertical", "exactness/residual")
}


def _drawn(draw, algebra, trials, seed, select=None):
    """A row's draw, keyed ``(seed, 0)``, of all ``trials`` trials or of the
    trials ``select`` names."""
    ctx = suites.RowCtx(algebra, trials, seed, 0, DEFAULT_TOL)
    return draw(ctx, ctx.stream(select))


class TestStackedFamilies:
    """The multiplicativity and exactness rows check all their trials'
    families with one call on the stack, and each trial's residuals are the
    bits it gets alone."""

    @pytest.mark.parametrize("shape", ["2,3", "1,2,2", "4,4,4,4", "12"])
    @pytest.mark.parametrize("row", sorted(STACKED_FAMILY_ROWS))
    def test_trials_are_independent(self, row, shape):
        algebra = BlockAlgebra.from_string(shape)
        draw, check = STACKED_FAMILY_ROWS[row]
        ctx = suites.RowCtx(algebra, 12, 38, 0, DEFAULT_TOL)
        drawn = _drawn(draw, algebra, 12, 38)
        # drawn[1] is the positive element of the base, of random rank.
        assert len(set(np.linalg.matrix_rank(drawn[1]).tolist())) > 1
        stacked = check(ctx, *drawn)
        for k in range(12):
            data = _drawn(draw, algebra, 12, 38, [k])
            alone = check(ctx, *data)
            unstacked = check(ctx, *(x[0] for x in data))
            assert stacked.keys() == alone.keys() == unstacked.keys()
            # exactness/order's median ratio is of all the trials, not of one.
            for name in stacked.keys() - {"order"}:
                s, a, u = stacked[name], alone[name], unstacked[name]
                assert s.shape == (12,) and a.shape == (1,)
                assert s[k].tobytes() == a[0].tobytes() == np.float64(u).tobytes(), (row, k)

    def test_generators_scale_per_matrix(self):
        [fam] = families_on(M23, _drawn(suites._draw_family, M23, 6, 40))
        for k in range(6):
            [alone] = families_on(M23, [x[0] for x in _drawn(suites._draw_family, M23, 6, 40, [k])])
            for name in ("a1", "a2", "b2", "h2"):
                assert np.array_equal(getattr(fam, name)[k], getattr(alone, name))

    def test_failing_trial_is_named(self):
        drawn = _drawn(suites._draw_family, M23, 10, 39)
        families_on(M23, [x[7] for x in drawn])  # trial 7 alone is good
        drawn[0][7] *= 2  # u1 doubled: no partial isometry
        with pytest.raises(InvalidFamily):
            families_on(M23, [x[7] for x in drawn])
        with pytest.raises(InvalidFamily, match="u1 is not a partial isometry at trial 7$"):
            families_on(M23, drawn)
        others = np.arange(10) != 7
        families_on(M23, [x[others] for x in drawn])  # the others pass


#: The draw and check of each poisson-map group and of kks/identity, which
#: run on one trial's data or on a stack of it.
OBSERVABLE_CHECKS = dict.fromkeys(
    _registry_row(f"{suite}/{row}") for suite in ("poisson-map", "kks")
    for row in suites.suite_rows(suite) if row != "calibration"
)


class TestStackedObservables:
    """The poisson-map and kks checks act per matrix of a stack: each
    trial's residuals, among them the leibniz row's oracle for its
    central-difference gradient, are the bits it gets alone, as a stack of
    one and as one matrix."""

    @pytest.mark.parametrize("shape", ["2,3", "1,2,2", "4,4,4,4", "12"])
    def test_trials_are_independent(self, shape):
        algebra = BlockAlgebra.from_string(shape)
        ctx = suites.RowCtx(algebra, 12, 50, 0, DEFAULT_TOL)
        for draw, check in OBSERVABLE_CHECKS:
            stacked = check(ctx, *_drawn(draw, algebra, 12, 50))
            for k in range(12):
                data = _drawn(draw, algebra, 12, 50, [k])
                alone = check(ctx, *data)
                unstacked = check(ctx, *(x[0] for x in data))
                assert stacked.keys() == alone.keys() == unstacked.keys()
                for name, s in stacked.items():
                    a, u = alone[name], unstacked[name]
                    assert len(s) == 12 and len(a) == 1
                    assert s[k].tobytes() == a[0].tobytes() == np.asarray(u).tobytes(), (check, k)

    def test_failing_trial_is_named(self):
        x, y, _, d = _drawn(suites._draw_poisson_density, M23, 10, 51)
        _, a1, a2 = _drawn(suites._draw_kks, M23, 10, 51)
        phi = NormalFunctional(M23, d)
        a1[7] = 1j * a1[7]
        with pytest.raises(InvalidTangent, match="a1 is not anti-Hermitian at trial 7$"):
            kks_check(phi, a1, a2, DEFAULT_TOL)
        x[7] = 1j * x[7]
        with pytest.raises(NotHermitian, match="at trial 7$"):
            Observable.linear(x, DEFAULT_TOL)
        y[7] = 1j * y[7]
        g_fd = Observable(value=lambda phi: expect_real(phi(y), DEFAULT_TOL))
        with pytest.raises(NotHermitian, match="imaginary part: .* at trial 7$"):
            g_fd.value_at(phi)

    def test_stencil_refusal_names_the_unit_and_the_trial(self):
        # The stencil of unit e holds d + h e for the ten trials, then
        # d - h e.  This value refuses the minus side of trial 7 at a
        # diagonal unit, matrix 17 of the stencil of the first unit.
        h = DEFAULT_TOL.fd_step
        d = _drawn(suites._draw_poisson_density, M23, 10, 52)[3]

        def value(phi):
            traces = np.trace(phi.density, axis1=-2, axis2=-1).real
            below = traces < 1.0 - h / 2
            refuse(DomainError, below & (np.arange(len(traces)) % 10 == 7), "trace below one")
            return traces

        with pytest.raises(DomainError, match="trace below one at basis element 0 of trial 7$"):
            Observable(value=value).differential_at(NormalFunctional(M23, d), DEFAULT_TOL)

        def one(phi):
            traces = np.trace(phi.density, axis1=-2, axis2=-1).real
            refuse(DomainError, traces < 1.0 - h / 2, "trace below one")
            return traces

        with pytest.raises(DomainError, match="trace below one at basis element 0$"):
            Observable(value=one).differential_at(NormalFunctional(M23, d[7]), DEFAULT_TOL)


class TestMomentIdentity:
    def test_kappa_is_minus_one(self):
        assert calibrate_kappa() == -1.0

    def test_oracle(self):
        report = kks_check(PHI10, 1j * SX, 1j * SY, DEFAULT_TOL)
        assert abs(report.omega - 2.0) <= 1e-12
        assert report.residual <= 1e-12
        assert abs(report.pairing - 4.0) <= 1e-12
        assert report.kappa == -1.0

    def test_random(self):
        for trial in range(60):
            rng = Stream((53, trial), [0])
            algebra = M2 if trial % 2 == 0 else M23
            rho0 = random_density(algebra, rng)[0]
            a1 = random_antihermitian(algebra, rng)[0]
            a2 = random_antihermitian(algebra, rng)[0]
            assert kks_check(rho0, a1, a2, DEFAULT_TOL).residual <= 1e-10

    def test_rejects_hermitian_direction(self):
        with pytest.raises(InvalidTangent):
            kks_check(PHI10, SX, 1j * SY, DEFAULT_TOL)


class TestFubiniStudy:
    def test_oracle(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        report = fubini_study_compare(1.0, e1, e2, 1j * e2, DEFAULT_TOL)
        # kappa r 2 Im <e2 | i e2> = -2
        assert abs(report.fs_value + 2.0) <= 1e-12
        assert abs(report.omega + 2.0) <= 1e-12
        assert report.residual <= 1e-12

    def test_closed_form_omega(self):
        # The lifts are -sqrt(r) |e1><e2| and -sqrt(r) |e1><i e2|, so
        # omega = -2 r Im <e2 | i e2> = -4 at r = 2, with no calibration.
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        report = fubini_study_compare(2.0, e1, e2, 1j * e2, DEFAULT_TOL)
        assert abs(report.omega + 4.0) <= 1e-14

    def test_radius_scaling(self):
        rng = Stream((54,), [0])
        n = 3
        delta = random_unit_vector(n, rng)[0]
        x, y = (complex_normal(rng, (n,))[0] for _ in range(2))
        base = fubini_study_compare(1.0, delta, x, y, DEFAULT_TOL)
        for r in (0.5, 2.0):
            scaled = fubini_study_compare(r, delta, x, y, DEFAULT_TOL)
            assert abs(scaled.omega - r * base.omega) <= 1e-10
            assert scaled.residual <= 1e-10

    def test_pair_groupoid(self):
        for trial in range(40):
            rng = Stream((55, trial), [0])
            n = 3
            delta = random_unit_vector(n, rng)[0]
            psi = random_unit_vector(n, rng)[0]
            phiv = random_unit_vector(n, rng)[0]
            draws = [complex_normal(rng, (n,))[0] for _ in range(4)]
            r = float(rng.take("uniform", 0.3, 2.5)[0])
            assert (
                pair_groupoid_fs_residual(
                    r, delta, psi, phiv, draws[0], draws[1], draws[2], draws[3], DEFAULT_TOL
                )
                <= 1e-10
            )

    def test_degenerate_radius(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(DegenerateBase):
            fubini_study_compare(0.0, e1, e1, e1, DEFAULT_TOL)

    def test_non_unit_base(self):
        with pytest.raises(NotUnitVector):
            fubini_study_compare(
                1.0, np.array([2.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                DEFAULT_TOL,
            )


class TestAmplitude:
    def test_oracle(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        mid = (e1 + e2) / np.sqrt(2.0)
        report = feynman_amplitude([e1, mid, e2], DEFAULT_TOL)
        assert abs(report.amplitude - 0.5) <= 1e-12
        assert abs(report.probability - 0.25) <= 1e-12
        assert report.steps == 2

    def test_composition(self):
        path = list(random_unit_vector(4, Stream((56,), range(5))))
        full = feynman_amplitude(path, DEFAULT_TOL)
        first = feynman_amplitude(path[:3], DEFAULT_TOL)
        second = feynman_amplitude(path[2:], DEFAULT_TOL)
        assert abs(full.amplitude - first.amplitude * second.amplitude) <= 1e-12

    def test_stack_is_the_product_of_vdot_overlaps(self):
        # 20 paths of every length 2-11 in every dimension 1-19: the stack
        # and the list of its rows give the in-order product of np.vdot
        # overlaps, bit for bit.
        for n in range(1, 20):
            for length in range(2, 12):
                draws = random_unit_vector(n, Stream((57, n, length), range(20 * length)))
                for path in draws.reshape(20, length, n):
                    amp = complex(1.0)
                    for a, b in zip(path, path[1:]):
                        amp *= complex(np.vdot(a, b))
                    report = feynman_amplitude(path, DEFAULT_TOL)
                    assert report == AmplitudeReport(amp, float(abs(amp) ** 2), length - 1)
                    assert feynman_amplitude(list(path), DEFAULT_TOL) == report

    def test_short_path(self):
        with pytest.raises(DomainError):
            feynman_amplitude([np.array([1.0, 0.0])], DEFAULT_TOL)

    def test_non_unit_vector(self):
        with pytest.raises(NotUnitVector, match="at vector 1$"):
            feynman_amplitude(
                [np.array([1.0, 0.0]), np.array([0.0, 2.0])], DEFAULT_TOL
            )
        with pytest.raises(NotUnitVector, match="at vector 2$"):
            feynman_amplitude(
                np.array([[1.0, 0.0], [0.0, 1.0], [np.nan, 0.0]]), DEFAULT_TOL
            )


def _pairwise_degeneracy(rho0, u, v):
    """Kernel dimension, radical pairing and smallest complement singular
    value of the arrow two-form, filled in one dGamma0 call per basis pair
    of the loop-built tangent bases."""
    p0 = functional_support(rho0, DEFAULT_TOL)
    basis_u = _ref_bundle_tangent_basis(rho0.algebra, u, p0)
    basis_v = _ref_bundle_tangent_basis(rho0.algebra, v, p0)
    m, k = len(basis_u), len(basis_v)
    pairing = np.zeros((m + k, m + k))
    for i in range(m):
        for j in range(m):
            pairing[i, j] = dGamma0(rho0, u, basis_u[i], basis_u[j], DEFAULT_TOL)
    for i in range(k):
        for j in range(k):
            pairing[m + i, m + j] = -dGamma0(rho0, v, basis_v[i], basis_v[j], DEFAULT_TOL)
    stab = stabilizer_lie_algebra(rho0, DEFAULT_TOL)
    radical = max(
        [abs(dGamma0(rho0, u, u @ s, e, DEFAULT_TOL)) for s in stab.basis for e in basis_u]
        + [abs(dGamma0(rho0, v, v @ s, e, DEFAULT_TOL)) for s in stab.basis for e in basis_v]
    )
    sing = np.linalg.svd(pairing, compute_uv=False)
    kernel_dim = int(np.sum(sing < 1e-8 * max(float(sing[0]), 1.0)))
    nonzero = sing[: m + k - 2 * stab.dimension]
    return kernel_dim, radical, float(nonzero[-1]) if nonzero.size else float("inf")


class TestDegeneracy:
    def test_rank_one_base(self):
        rng = Stream((57,), [0])
        rho0 = PHI10
        f0 = Frames(M2, np.diag([1.0, 0.0 + 0j])[None], np.array([[1]]))
        u, v = (isometry_between(rng, f0, equivalent_frames(rng, f0))[0] for _ in range(2))
        report = degeneracy_kernel_check(rho0, u, v, DEFAULT_TOL)
        # stabilizer of a rank-one corner is one-dimensional; two legs
        assert report.expected_kernel_dimension == 2
        assert report.dimension_residual == 0
        assert report.radical_pairing <= 1e-10
        assert report.complement_min_singular > 1e-7
        assert report.tangent_dimension == 6

    def test_repeated_spectrum_base(self):
        d = np.diag([0.25, 0.25, 0.5]).astype(complex)
        rho0 = NormalFunctional(M3, d)
        one = np.eye(3, dtype=complex)
        report = degeneracy_kernel_check(rho0, one, one, DEFAULT_TOL)
        # centralizer of multiplicities (2, 1) has dimension 4 + 1 = 5
        assert report.expected_kernel_dimension == 10
        assert report.dimension_residual == 0
        assert report.radical_pairing <= 1e-10
        assert report.complement_min_singular > 1e-7

    @pytest.mark.parametrize(
        "blocks, ranks, repeated",
        [
            ((2,), (1,), False),
            ((2,), (2,), False),
            ((2, 3), (1, 2), False),
            ((2, 3), (2, 2), True),
            ((4,), (2,), False),
            ((4,), (3,), True),
        ],
    )
    def test_contraction_matches_pairwise_loop(self, blocks, ranks, repeated):
        algebra = BlockAlgebra(blocks)
        rng = Stream((60, *ranks, int(repeated)), [0])
        f0 = random_frames(algebra, rng, ranks=ranks)
        if repeated:
            d = positive_on(rng, f0, 1.0, 1.0)[0]
        else:
            d = positive_on(rng, f0)[0]
        rho0 = NormalFunctional(algebra, d / np.trace(d).real)
        u, v = (isometry_between(rng, f0, equivalent_frames(rng, f0))[0] for _ in range(2))
        report = degeneracy_kernel_check(rho0, u, v, DEFAULT_TOL)
        kernel_dim, radical, min_sing = _pairwise_degeneracy(rho0, u, v)
        assert report.kernel_dimension == kernel_dim
        assert abs(report.radical_pairing - radical) <= 1e-14
        assert report.complement_min_singular == pytest.approx(min_sing, rel=1e-12)

    @pytest.mark.parametrize("blocks", [(2, 3), (1, 2, 2)])
    def test_each_base_of_a_stack_gets_its_own_report(self, blocks):
        # Each base of a stack of several cluster patterns gets the report
        # of its one-base stack, bit for bit, though only the first base of
        # a call takes the ambient form; a leg off the base's support is
        # refused by its place in the stack.
        algebra = BlockAlgebra(blocks)
        ctx = suites.RowCtx(algebra, 10, 61, 0, DEFAULT_TOL)
        d0, u, v = suites._draw_degeneracy(ctx, ctx.stream())
        whole = vars(degeneracy_kernel_check(NormalFunctional(algebra, d0), u, v, DEFAULT_TOL))
        assert len(set(whole["tangent_dimension"].tolist())) > 1
        for k in range(len(d0)):
            one = slice(k, k + 1)
            alone = degeneracy_kernel_check(NormalFunctional(algebra, d0[one]), u[one], v[one])
            for field, values in whole.items():
                assert vars(alone)[field].tobytes() == values[one].tobytes(), (field, k)
        bad = u.copy()
        bad[7] = 2.0 * bad[7]
        with pytest.raises(InvalidTangent, match="at trial 7$"):
            degeneracy_kernel_check(NormalFunctional(algebra, d0), bad, v, DEFAULT_TOL)

    @pytest.mark.parametrize("blocks, spectra, stabilizer", [
        ((2, 3), [[0.5, 0.5], [1.25, 0.0, 1.25]], 8),
        ((12,), [[1.0, 0.0, 0.75, 1.0, 2.0, 0.0, 1.0, 0.75, 1.5, 1.0, 0.0, 0.5]], 4**2 + 2**2 + 3),
        ((4, 4, 4, 4), [[2.0, 2.0, 2.0, 2.0], [0.0, 1.5, 0.0, 1.5], [0.75, 1.0, 0.0, 1.25],
                        [0.5, 0.5, 0.5, 0.0]], 16 + 4 + 3 + 9),
    ], ids=["2,3", "12", "4,4,4,4"])
    def test_one_base_with_repeated_and_zero_eigenvalues(self, blocks, spectra, stabilizer):
        # One unstacked base, as a command checks it: exactly repeated
        # eigenvalues and zeros from a grid of well-separated values, in
        # Haar eigenbases, with legs from the base's support.  The kernel is
        # twice the sum of the squared multiplicities of the positive values.
        algebra = BlockAlgebra(blocks)
        rng = Stream((62, len(blocks)), [0])
        q = random_unitary(algebra, rng)[0]
        d = q @ np.diag(np.concatenate(spectra)).astype(complex) @ q.conj().T
        rho0 = NormalFunctional(algebra, d)
        p0 = functional_support(rho0, DEFAULT_TOL)
        u, v = (random_unitary(algebra, rng)[0] @ p0 for _ in range(2))
        report = degeneracy_kernel_check(rho0, u, v)
        assert type(report.kernel_dimension) is int
        assert report.kernel_dimension == 2 * stabilizer
        assert report.dimension_residual == 0
        assert report.radical_pairing <= 1e-10

    @pytest.mark.parametrize("shape", ["2,3", "12", "4,4,4,4"])
    def test_counts_of_one_base_and_one_vector_are_ints(self, shape):
        # Counts of one unstacked input are Python ints, as the types say,
        # not NumPy integers; a stack keeps its arrays.
        algebra = BlockAlgebra.from_string(shape)
        ctx = suites.RowCtx(algebra, 1, 63, 0, DEFAULT_TOL)
        d0, u, v = (x[0] for x in suites._draw_degeneracy(ctx, ctx.stream()))
        rho0 = NormalFunctional(algebra, d0)
        report = degeneracy_kernel_check(rho0, u, v)
        [g] = suites._draw_dual_pair(ctx, ctx.stream())
        pair = dual_pair_orthogonality_check(algebra, g[0])
        counts = {
            "stabilizer": stabilizer_lie_algebra(rho0, DEFAULT_TOL).dimension,
            **{f: getattr(report, f) for f in (
                "kernel_dimension", "expected_kernel_dimension", "tangent_dimension", "oracle")},
            **{f"pair {f}": getattr(pair, f) for f in (
                "dim_E", "dim_Eprime", "expected_dim_E", "expected_dim_Eprime", "oracle")},
        }
        assert {name: type(n) for name, n in counts.items()} == dict.fromkeys(counts, int)
        stacked = degeneracy_kernel_check(NormalFunctional(algebra, d0[None]), u[None], v[None])
        assert stacked.oracle.shape == stacked.expected_kernel_dimension.shape == (1,)
        assert dual_pair_orthogonality_check(algebra, g).dim_E.shape == (1,)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DegenerateBase):
            degeneracy_kernel_check(
                NormalFunctional(M2, np.zeros((2, 2))), np.eye(2), np.eye(2), DEFAULT_TOL
            )
        with pytest.raises(InvalidTangent):
            degeneracy_kernel_check(PHI10, np.eye(2, dtype=complex), np.eye(2), DEFAULT_TOL)

    def test_orbit_form_invariance(self):
        for trial in range(30):
            rng = Stream((59, trial), [0])
            algebra = M2 if trial % 2 == 0 else M23
            rho0 = random_density(algebra, rng)[0]
            # rho0 is faithful: its support is the identity
            f0 = Frames(algebra, algebra.identity()[None], np.array([algebra.blocks]))
            p0 = f0.projection[0]
            q = equivalent_frames(rng, f0)
            u = isometry_between(rng, f0, q)[0]
            sample = [x[0] for x in orbit_form_sample(algebra, rng, u, p0, q)]
            width = stabilizer_lie_algebra(rho0, DEFAULT_TOL).mask.shape[-1]
            coeff = rng.take("standard_normal", shape=(width,))[0]
            assert orbit_form_invariance_residual(rho0, u, *sample, coeff, DEFAULT_TOL) <= 1e-10

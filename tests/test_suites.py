"""Tests for the verification-suite registry: determinism, row structure,
error handling, tolerance override, and a full small-trial smoke pass."""

import ast
import dataclasses
import math
import pathlib
import tracemalloc
import types

import numpy as np
import pytest

from wstargeo import algebra, charts, groupoids, linalg, poisson, sampling, standard, suites
from wstargeo import (
    DEFAULT_TOL,
    SUITE_NAMES,
    BlockAlgebra,
    InvalidTrials,
    NotComposable,
    NotInDomain,
    NotInOverlap,
    NotPartiallyInvertible,
    SuiteResult,
    UnknownSuite,
    dual_pair_orthogonality_check,
    polar_decompose,
    run_suite,
    suite_rows,
)

M2 = BlockAlgebra((2,))
M23 = BlockAlgebra((2, 3))


class TestRegistry:
    def test_suite_names(self):
        assert SUITE_NAMES == (
            "groupoid-axioms",
            "charts",
            "multiplicativity",
            "exactness",
            "dual-pair",
            "poisson-map",
            "degeneracy",
            "kks",
            "fubini-study",
            "modular-flow",
        )

    def test_row_names(self):
        assert suite_rows("groupoid-axioms") == (
            "pi",
            "g",
            "predual",
            "coadjoint",
            "standard",
            "isomorphisms",
            "equivalence-agreement",
            "witnesses",
        )
        assert suite_rows("exactness") == ("residual", "order")
        assert "tomita" in suite_rows("modular-flow")

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("no-such-suite", M2, 5, 0)
        with pytest.raises(UnknownSuite):
            suite_rows("no-such-suite")

    def test_invalid_trials(self):
        with pytest.raises(InvalidTrials):
            run_suite("kks", M2, 0, 0)
        with pytest.raises(InvalidTrials):
            run_suite("kks", M2, -3, 0)


class TestDeterminism:
    def test_same_seed_same_residuals(self):
        a = run_suite("charts", M2, 10, 3)
        b = run_suite("charts", M2, 10, 3)
        strip = lambda r: dataclasses.replace(r, wall_time=0.0)  # noqa: E731
        assert [strip(r) for r in a] == [strip(r) for r in b]

    def test_different_seed_different_stream(self):
        a = run_suite("kks", M2, 25, 0)
        b = run_suite("kks", M2, 25, 1)
        # residuals are tiny either way but must come from distinct draws
        assert any(
            x.max_residual != y.max_residual
            for x, y in zip(a, b)
            if x.max_residual > 0 or y.max_residual > 0
        ) or all(r.max_residual == 0.0 for r in a + b)


class TestResults:
    def test_result_shape(self):
        rows = run_suite("exactness", M2, 8, 5)
        assert [r.suite for r in rows] == ["exactness/residual", "exactness/order"]
        for r in rows:
            assert isinstance(r, SuiteResult)
            assert r.trials == 8
            assert r.seed == 5
            assert r.wall_time >= 0.0
            assert r.status in ("pass", "FAIL")
            assert r.passed is (r.status == "pass")

    def test_uniform_tolerance_override(self):
        rows = run_suite("kks", M2, 10, 0, tol=1e-30)
        assert all(r.tolerance == 1e-30 for r in rows)
        assert any(not r.passed for r in rows)
        loose = run_suite("kks", M2, 10, 0, tol=10.0)
        assert all(r.passed for r in loose)


class TestSmoke:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_all_rows_pass_small(self, name):
        for algebra in (M2, M23):
            rows = run_suite(name, algebra, 12, 0)
            bad = [(r.suite, r.max_residual, r.tolerance) for r in rows if not r.passed]
            assert not bad, bad


def _poison_one_call(monkeypatch, module, name, poison, at=3):
    """Replace ``module.name`` so that its ``at``-th call returns
    ``poison(result)`` instead of the result."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(None)
        return poison(out) if len(calls) == at else out

    monkeypatch.setattr(module, name, wrapper)


class TestNonFiniteTrial:
    def test_nan_trial_fails_row(self, monkeypatch):
        # One call checks every trial at once: poison one trial's residual.
        def poison(report):
            residual = report.residual.copy()
            residual[3] = float("nan")
            return types.SimpleNamespace(residual=residual)

        _poison_one_call(monkeypatch, suites, "kks_check", poison, at=1)
        row = run_suite("kks", M2, 10, 0)[0]
        assert row.suite == "kks/identity"
        assert math.isnan(row.max_residual)
        assert row.status == "FAIL"

    def test_nan_trial_fails_poisson_map(self, monkeypatch):
        def poison(residuals):
            first = residuals[0].copy()
            first[3] = float("nan")
            return [first, *residuals[1:]]

        _poison_one_call(monkeypatch, suites, "poisson_map_residual", poison, at=1)
        row = run_suite("poisson-map", M2, 10, 0)[0]
        assert row.suite == "poisson-map/quadratic"
        assert math.isnan(row.max_residual)
        assert row.status == "FAIL"

    def test_nan_law_fails_axiom_check(self, monkeypatch):
        # One call checks the laws on every trial's chain at once: poison
        # one trial's entry of one law in its result.
        def poison(laws):
            law = next(iter(laws))
            values = laws[law].copy()
            values[3] = float("nan")
            return {**laws, law: values}

        _poison_one_call(monkeypatch, groupoids, "chain_law_residuals", poison, at=1)
        report = groupoids.axiom_check("pi", M2, 10, 0)
        assert math.isnan(report.max_residual)
        assert sum(math.isnan(v) for v in report.law_residuals.values()) == 1

        # The suite runs the law check itself, through its own binding.
        _poison_one_call(monkeypatch, suites, "chain_law_residuals", poison, at=1)
        row = run_suite("groupoid-axioms", M2, 10, 0)[0]
        assert row.suite == "groupoid-axioms/pi"
        assert math.isnan(row.max_residual)
        assert row.status == "FAIL"

    def test_nan_arrow_fails_isomorphisms(self, monkeypatch):
        # The row composes every trial's arrows with one call on their
        # stack: poison one trial's arrow in its result.
        def poison(arrow):
            u = arrow.u.copy()
            u[3] = float("nan")
            return dataclasses.replace(arrow, u=u)

        # The coadjoint row composes through the same name first; count its
        # calls so that the poisoned one is the isomorphisms row's third.
        original, calls = groupoids.coadjoint_compose, []

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(groupoids, "coadjoint_compose", counting)
        groupoids.axiom_check("coadjoint", M2, 10, 0)
        monkeypatch.setattr(groupoids, "coadjoint_compose", original)
        _poison_one_call(
            monkeypatch, groupoids, "coadjoint_compose", poison, at=len(calls) + 3
        )
        rows = {r.suite: r for r in run_suite("groupoid-axioms", M2, 10, 0)}
        row = rows["groupoid-axioms/isomorphisms"]
        assert math.isnan(row.max_residual)
        assert row.status == "FAIL"

    @staticmethod
    def _nan_at_trial_3(values):
        values = np.array(values, dtype=float)
        values[3] = float("nan")
        return values

    def test_nan_two_form_fails_orbit_form_invariance(self, monkeypatch):
        # The second two-form of the row, on the stack of all trials.
        _poison_one_call(monkeypatch, poisson, "dGamma0", self._nan_at_trial_3, at=2)
        row = run_suite("degeneracy", M2, 10, 0)[0]
        assert row.suite == "degeneracy/orbit-form-invariance"
        assert math.isnan(row.max_residual)
        assert row.status == "FAIL"

    def test_nan_trial_fails_dual_pair(self, monkeypatch):
        def poison(report):
            poisoned = self._nan_at_trial_3(report.orthogonality)
            return dataclasses.replace(report, orthogonality=poisoned)

        _poison_one_call(monkeypatch, suites, "dual_pair_orthogonality_check", poison, at=1)
        row = run_suite("dual-pair", M23, 10, 0)[0]
        assert row.suite == "dual-pair/orthogonality"
        assert math.isnan(row.max_residual)
        assert row.status == "FAIL"

    def test_nan_trial_fails_fubini_study(self, monkeypatch):
        def poison(report):
            return dataclasses.replace(report, omega=self._nan_at_trial_3(report.omega))

        _poison_one_call(monkeypatch, suites, "fubini_study_compare", poison, at=1)
        row = run_suite("fubini-study", M23, 10, 0)[0]
        assert row.suite == "fubini-study/orbit-vs-fs"
        assert math.isnan(row.max_residual)
        assert row.status == "FAIL"

    def test_nan_trial_fails_conditional_expectation(self, monkeypatch):
        # The row checks once per cluster pattern: poison the first trial of
        # the first pattern's flowed expectation.
        def poison(flow):
            def flowed(x):
                out = flow(x).copy()
                out[0, 0, 0] = float("nan")
                return out

            return flowed

        _poison_one_call(monkeypatch, suites, "modular_flow", poison, at=1)
        subindex, (name, tolerance, fn) = next(
            (i, r) for i, r in enumerate(suites._suite("modular-flow"))
            if r[0] == "conditional-expectation"
        )
        residual = fn(suites.RowCtx(M23, 10, 0, subindex, DEFAULT_TOL))
        assert math.isnan(residual)
        assert not residual <= tolerance


class TestPlantedFaults:
    """A wrong structure map, planted where the suites look it up, fails
    the row that checks it."""

    @staticmethod
    def _row(suite, row):
        rows = {r.suite: r for r in run_suite(suite, M23, 10, 0)}
        return rows[f"{suite}/{row}"]

    @staticmethod
    def _std_mul_with_left_modulus(g1, g2, tol=DEFAULT_TOL):
        u1, h1 = polar_decompose(g1, tol)
        u2, _ = polar_decompose(g2, tol)
        return u1 @ u2 @ h1

    def test_standard_product_with_left_modulus(self, monkeypatch):
        monkeypatch.setattr(groupoids, "std_mul", self._std_mul_with_left_modulus)
        assert self._row("groupoid-axioms", "standard").status == "FAIL"

    def test_exactness_product_with_left_modulus(self, monkeypatch):
        # The finite difference of the product is taken through ``std_mul``
        # as ``poisson`` looks it up.
        monkeypatch.setattr(poisson, "std_mul", self._std_mul_with_left_modulus)
        assert self._row("exactness", "residual").status == "FAIL"
        assert self._row("exactness", "order").status == "FAIL"

    def test_dgamma1_without_its_last_term(self, monkeypatch):
        def dgamma1(fam):
            # d(u2 xi2 u2*) without the u2 xi2 du2* term
            u2h = fam.u2.conj().mT
            deta = fam.du2() @ fam.xi2 @ u2h + fam.u2 @ fam.dxi2() @ u2h
            return fam.du1() @ (fam.u2 @ fam.xi2 @ u2h) + fam.u1 @ deta

        monkeypatch.setattr(poisson.ComposableFamily, "dgamma1", dgamma1)
        assert self._row("multiplicativity", "residual").status == "FAIL"

    def test_one_sided_product_difference(self, monkeypatch):
        # First order: the defect halves, not quarters, with the step.
        def one_sided(fam, h, tol):
            at = [poisson.std_mul(fam.gamma1_at(t), fam.gamma2_at(t), tol) for t in (h, 0.0)]
            return (at[0] - at[1]) / h

        monkeypatch.setattr(poisson, "_product_difference", one_sided)
        assert self._row("exactness", "order").status == "FAIL"

    @pytest.mark.parametrize("tag", ["pi", "g", "predual", "coadjoint"])
    def test_product_in_the_wrong_order(self, monkeypatch, tag):
        compose = getattr(groupoids, f"{tag}_compose")

        def swapped(a, b, tol=DEFAULT_TOL):
            # An infinite residual tolerance skips the composability gap check.
            return compose(b, a, dataclasses.replace(tol, residual_tol=math.inf))

        monkeypatch.setattr(groupoids, f"{tag}_compose", swapped)
        assert self._row("groupoid-axioms", tag).status == "FAIL"

    def test_g_inverse_as_the_adjoint(self, monkeypatch):
        # x* inverts only the partial isometries; a g arrow carries a
        # positive modulus.  The law row reads g_inverse as groupoids looks
        # it up, beside the supports it takes of each arrow once.
        monkeypatch.setattr(groupoids, "g_inverse", lambda x, tol=DEFAULT_TOL: x.conj().mT)
        assert self._row("groupoid-axioms", "g").status == "FAIL"

    def test_g_source_as_the_left_support(self, monkeypatch):
        # The source read by the laws and by g_compose's gate: the gate may
        # refuse the chain before a law fails.
        reads = []

        def g_source(x, tol=DEFAULT_TOL):
            reads.append(x)
            return linalg.supports(x, tol)[0]

        monkeypatch.setattr(groupoids, "g_source", g_source)
        try:
            assert self._row("groupoid-axioms", "g").status == "FAIL"
        except NotComposable:
            pass
        assert reads

    def test_overlap_inverse_as_the_adjoint(self, monkeypatch):
        # (p q)* for (p q)^+: the chart legs read sigma_p as charts looks it
        # up, whether or not a leg was factored before in the check.
        monkeypatch.setattr(charts, "sigma_p", lambda p, q, tol=DEFAULT_TOL: (p @ q).conj().mT)
        subindex, (_, tolerance, fn) = next(
            (i, r) for i, r in enumerate(suites._suite("charts")) if r[0] == "round-trip"
        )
        assert not fn(suites.RowCtx(M23, 10, 0, subindex, DEFAULT_TOL)) <= tolerance

    def test_phi_without_square_root(self, monkeypatch):
        def iso_Phi(u, rho, tol=DEFAULT_TOL):
            return np.asarray(u, dtype=complex) @ rho.density

        monkeypatch.setattr(groupoids, "iso_Phi", iso_Phi)
        assert self._row("groupoid-axioms", "isomorphisms").status == "FAIL"

    def test_chart_inverse_off_by_a_phase(self, monkeypatch):
        real = suites.chart_G_inv
        monkeypatch.setattr(
            suites, "chart_G_inv", lambda *args: np.exp(1e-8j) * real(*args)
        )
        assert self._row("charts", "round-trip").status == "FAIL"

    def test_transition_with_its_numerator_sign_flipped(self, monkeypatch):
        # (b - d y)(a + c y)^+ for (b + d y)(a + c y)^+.
        def transition_L(p, p_new, y, tol=DEFAULT_TOL):
            one = np.eye(p.shape[-1], dtype=complex)
            a, b = p_new @ p, (one - p_new) @ p
            c, d = p_new @ (one - p), (one - p_new) @ (one - p)
            return (b - d @ y) @ linalg.partial_inverse(a + c @ y, tol)

        monkeypatch.setattr(suites, "transition_L", transition_L)
        assert self._row("charts", "cocycle").status == "FAIL"
        assert self._row("charts", "transition-oracle").status == "FAIL"

    def test_connection_form_doubled(self, monkeypatch):
        real = suites.connection_alpha
        monkeypatch.setattr(suites, "connection_alpha", lambda u, du: 2.0 * real(u, du))
        assert self._row("charts", "connection").status == "FAIL"

    def test_eprime_kernel_replaced_by_e_kernel(self, monkeypatch):
        # The check builds the E' kernel as J (kernel of E at J g); with J the
        # identity that is the kernel of E at g.
        monkeypatch.setattr(standard, "conjugation_J", lambda g: np.asarray(g, dtype=complex))
        assert self._row("dual-pair", "orthogonality").status == "FAIL"

    def test_left_momentum_replaced_by_identity(self, monkeypatch):
        real = standard.supports

        def supports(g, tol=DEFAULT_TOL):
            # The identity in place of each vector's left support.
            return np.broadcast_to(np.eye(g.shape[-1], dtype=complex), g.shape), real(g, tol)[1]

        monkeypatch.setattr(standard, "supports", supports)
        assert self._row("dual-pair", "dimension").status == "FAIL"

    def test_pair_kernel_with_a_wrong_ratio(self, monkeypatch):
        # x_ji = -(sigma_j / sigma_i)^2 conj(x_ij): the directions of the
        # coupled entries leave the kernel, and their defect in
        # delta g* + g delta* = 0 fails the row.
        real = standard._coordinate_kernel
        monkeypatch.setattr(standard, "_coordinate_kernel", lambda s, kept: real(s**2, kept))
        assert self._row("dual-pair", "orthogonality").status == "FAIL"

    def test_pair_kernel_without_a_free_entry(self, monkeypatch):
        # x_{0, n-1} dropped where the last column is past the rank: the
        # direction is zero, so it solves the equations and pairs to 0, and
        # the mask still counts it.  On trial 0 (ranks 1 and 2 in this draw)
        # the kernel's realified rank falls short of the ambient nullity,
        # and each trial's Gram matrix sees the unit it is missing.
        real = standard._coordinate_kernel

        def coordinate_kernel(s, kept):
            i, j, x_ij, x_ji = real(s, kept)
            drop = (i == 0) & (j == s.shape[-1] - 1) & ~kept[..., -1:]
            return i, j, np.where(drop, 0.0, x_ij), x_ji

        monkeypatch.setattr(standard, "_coordinate_kernel", coordinate_kernel)
        rows = {r.suite: r.status for r in run_suite("dual-pair", M23, 10, 0)}
        assert rows == {"dual-pair/orthogonality": "FAIL", "dual-pair/dimension": "FAIL"}

    @pytest.mark.parametrize("side", [0, 1], ids=["E", "Eprime"])
    def test_pair_kernel_leaving_its_support(self, monkeypatch, side):
        # The last direction of the first vector's kernel of E (of E')
        # swapped for the unit v_2 w_2* of the M_3 block, past its rank 2 in
        # this draw: delta g* = g* delta = 0, and the unit is orthonormal to
        # the rest and pairs to 0 with the other kernel, so the count and the
        # rank still equal the nullity.  Only mu delta = delta (delta mu' =
        # delta) sees it, in the members of trial 0, the one trial whose
        # kernels are built in the algebra.
        real = standard._pair_kernels

        def pair_kernels(alg, factors):
            kernels = real(alg, factors)
            s, v, _, w, kept = factors[-1]
            assert not kept[-1]
            kernels[side][-1] = 0.0
            kernels[side][-1, s, s] = np.outer(v[:, -1], w[:, -1].conj())
            return kernels

        monkeypatch.setattr(standard, "_pair_kernels", pair_kernels)
        rows = {r.suite: r.status for r in run_suite("dual-pair", M23, 10, 0)}
        assert rows == {"dual-pair/orthogonality": "FAIL", "dual-pair/dimension": "pass"}

    # The later-trial faults leave trial 0 alone, so the oracles that run
    # on the first trial of a stack see nothing: only the per-trial checks
    # of the frames and coordinates can fail them.

    @staticmethod
    def _later(stack: np.ndarray, ndim: int) -> np.ndarray:
        """The trials past the first of a stack of ``ndim``-dimensional
        arrays, or none of one array."""
        return np.arange(len(stack)) >= 1 if stack.ndim > ndim else np.False_

    def test_free_entry_dropped_on_later_trials(self, monkeypatch):
        real = standard._coordinate_kernel

        def coordinate_kernel(s, kept):
            i, j, x_ij, x_ji = real(s, kept)
            drop = (i == 0) & (j == s.shape[-1] - 1) & ~kept[..., -1:]
            drop &= self._later(s, 1)[..., None]
            return i, j, np.where(drop, 0.0, x_ij), x_ji

        monkeypatch.setattr(standard, "_coordinate_kernel", coordinate_kernel)
        assert "dual-pair/orthogonality" in self._failed("dual-pair", trials=10)

    def test_left_frame_off_unitary_on_later_trials(self, monkeypatch):
        # The M_3 block's left singular vectors scaled by 1 + 1e-6.
        real = standard.svd

        def svd(a):
            v, s, wh = real(a)
            if a.shape[-1] == 3:
                v = v * np.where(self._later(a, 2), 1.0 + 1e-6, 1.0)[..., None, None]
            return v, s, wh

        monkeypatch.setattr(standard, "svd", svd)
        assert "dual-pair/orthogonality" in self._failed("dual-pair")

    def test_eigenvector_frame_not_unitary_on_later_trials(self, monkeypatch):
        # The first block's second eigenvector replaced by its first: the
        # units of the frame are no longer orthonormal, though the mask and
        # so the dimensions stay right.
        real = algebra.stabilizer_lie_algebra

        def stabilizer_lie_algebra(phi, tol=DEFAULT_TOL):
            stab = real(phi, tol)
            v = stab.vectors[0].copy()
            v[..., 1] = np.where(self._later(v, 2)[..., None], v[..., 0], v[..., 1])
            return dataclasses.replace(stab, vectors=(v, *stab.vectors[1:]))

        monkeypatch.setattr(suites, "stabilizer_lie_algebra", stabilizer_lie_algebra)
        assert "modular-flow/dimensions" in self._failed("modular-flow")

    # The basis faults run at three trials: each fails its rows on every
    # trial, so a few suffice.

    @staticmethod
    def _failed(suite, algebra=M23, trials=3, seed=0):
        return {r.suite for r in run_suite(suite, algebra, trials, seed) if not r.passed}

    def test_non_stabilizer_direction_in_the_radical(self, monkeypatch):
        real = algebra.stabilizer_lie_algebra

        def stabilizer_lie_algebra(phi, tol=DEFAULT_TOL):
            # Slot (0, 1) of the first block marked as a stabilizer slot: an
            # anti-Hermitian direction that does not commute with a density
            # whose first two eigenvalues differ, counted in the dimension
            # too.
            stab = real(phi, tol)
            mask = stab.mask.copy()
            mask[..., 1] = True
            return dataclasses.replace(stab, mask=mask)

        for module in (poisson, suites):
            monkeypatch.setattr(module, "stabilizer_lie_algebra", stabilizer_lie_algebra)
        failed = self._failed("degeneracy")
        assert {"degeneracy/radical-pairing", "degeneracy/dimensions"} <= failed
        assert "modular-flow/dimensions" in self._failed("modular-flow", M2, 1)

    def test_two_clusters_merged_in_the_mask(self, monkeypatch):
        # The split after each block's first value cleared: its first two
        # clusters merge in the slot masks, which then count units that do
        # not commute with the density.
        real = algebra.cluster_pattern

        def cluster_pattern(phi, tol=DEFAULT_TOL):
            _, offset, _, _ = phi.algebra._block_layout
            return np.where(offset == 1, 0, real(phi, tol))

        monkeypatch.setattr(algebra, "cluster_pattern", cluster_pattern)
        assert "modular-flow/dimensions" in self._failed("modular-flow", M2, 1)
        assert "degeneracy/dimensions" in self._failed("degeneracy")

    def test_antihermitian_units_missing_the_last(self, monkeypatch):
        # The units of a grid fill fixed slots: a missing unit leaves its
        # slot zero.  The last (i c c* of the last column) is a stabilizer
        # and tangent slot of every block of full rank.
        real = algebra.antihermitian_units

        def antihermitian_units(*args):
            units = real(*args)
            units[..., -1, :, :] = 0.0
            return units

        for module in (algebra, poisson):
            monkeypatch.setattr(module, "antihermitian_units", antihermitian_units)
        assert "degeneracy/dimensions" in self._failed("degeneracy")
        assert "modular-flow/dimensions" in self._failed("modular-flow", M2, 1)

    def test_symplectic_form_at_half_scale(self, monkeypatch):
        # Planted in ``standard`` alone: ``poisson`` looks the form up there.
        real = standard.symplectic_omega
        monkeypatch.setattr(standard, "symplectic_omega", lambda x, y: 0.5 * real(x, y))
        assert "multiplicativity/vertical" in self._failed("multiplicativity")
        assert "fubini-study/pair-groupoid" in self._failed("fubini-study")
        # The canonical side of the Poisson-map check is omega of the
        # pullback gradients.
        assert "poisson-map/quadratic" in self._failed("poisson-map")
        # kappa is calibrated afresh from the planted form, so it takes up
        # the scale: kks/identity passes, and only the calibration fails.
        assert self._failed("kks") == {"kks/calibration"}

    def test_central_differences_at_twice_their_value(self, monkeypatch):
        # Both sides of each bracket identity are linear in the one kept
        # differential, so only the leibniz row's exact-differential oracle
        # sees the error.
        real = poisson.Observable._central_differences
        monkeypatch.setattr(
            poisson.Observable,
            "_central_differences",
            lambda self, phi, tol: 2.0 * real(self, phi, tol),
        )
        assert "poisson-map/leibniz" in self._failed("poisson-map")

    def test_bracket_without_its_second_term(self, monkeypatch):
        # -i Tr(d df dg) for -i Tr(d [df, dg]), per matrix of a stack: the
        # real part, so that the rows fail rather than refuse.
        def lp_bracket(f, g, phi, tol=DEFAULT_TOL):
            df, dg = f.differential_at(phi, tol), g.differential_at(phi, tol)
            return linalg.hs_inner(phi.density, df @ dg).imag

        monkeypatch.setattr(poisson, "lp_bracket", lp_bracket)
        failed = self._failed("poisson-map")
        assert {"poisson-map/jacobi", "poisson-map/field-morphism"} <= failed

    def test_hamiltonian_field_with_its_sign_flipped(self, monkeypatch):
        def hamiltonian_field(f, phi, tol=DEFAULT_TOL):
            df, d = f.differential_at(phi, tol), phi.density
            return -1j * (df @ d - d @ df)

        monkeypatch.setattr(poisson, "hamiltonian_field", hamiltonian_field)
        assert "poisson-map/field-morphism" in self._failed("poisson-map")

    def test_symplectic_form_from_the_real_part(self, monkeypatch):
        # 2 Re <x|y> for 2 Im <x|y>: the pullbacks through E and E' then
        # fail to commute.
        monkeypatch.setattr(
            standard, "symplectic_omega", lambda x, y: 2.0 * linalg.hs_inner(x, y).real
        )
        assert "poisson-map/commutant" in self._failed("poisson-map")

    def test_fibre_coordinate_off_by_a_small_phase(self, monkeypatch):
        # theta_P0 reads u_p off its own overlap inverse and theta_P0_inv
        # calls u_p, so the phase opens the round trip.
        real = charts.u_p
        monkeypatch.setattr(charts, "u_p", lambda p, q, tol: real(p, q, tol) * np.exp(1e-8j))
        assert "charts/theta" in self._failed("charts")

    def test_modular_flow_with_one_sign_flipped(self, monkeypatch):
        def modular_flow(phi, t, tol=DEFAULT_TOL):
            # d^{it} x d^{it} instead of d^{it} x d^{-it}, at one time or at
            # one time per density of a stack.
            u = algebra.density_spectrum(phi, tol).imaginary_power(t)
            return lambda x: u @ x @ u

        # In ``flow_residuals`` the flipped flow breaks composability: the
        # row reports the gap rather than letting ``std_mul`` raise.  The
        # flipped flow of a positive element is not Hermitian, so it leaves
        # the cone.
        for module in (standard, suites):
            monkeypatch.setattr(module, "modular_flow", modular_flow)
        failed = self._failed("modular-flow", M2, 1)
        assert {
            "modular-flow/automorphism",
            "modular-flow/cone",
            "modular-flow/group-law",
            "modular-flow/conditional-expectation",
        } <= failed

    def test_conjugation_without_the_adjoint(self, monkeypatch):
        # J(g) = g instead of g*: Tomita's S then maps x Omega to
        # d^{-1/2} x Omega d^{1/2}, not to x* Omega.
        monkeypatch.setattr(standard, "conjugation_J", lambda g: np.asarray(g, dtype=complex))
        assert "modular-flow/tomita" in self._failed("modular-flow", M2, 1)

    def test_modular_flow_off_by_a_factor(self, monkeypatch):
        real = algebra.modular_flow

        def modular_flow(phi, t, tol=DEFAULT_TOL):
            # At one time or at one time per density of a stack.
            flow = real(phi, t, tol)
            return lambda x: (1.0 + 1e-6) * flow(x)

        for module in (standard, suites):
            monkeypatch.setattr(module, "modular_flow", modular_flow)
        failed = self._failed("modular-flow", M2, 1)
        assert {
            f"modular-flow/{row}"
            for row in ("automorphism", "symplectic", "orbit-invariants", "orbit-form",
                        "group-law", "conditional-expectation")
        } <= failed

    def test_every_pair_of_projections_equivalent(self, monkeypatch):
        # The negative control, a rank change, then counts as equivalent.
        monkeypatch.setattr(suites, "mvn_equivalent", lambda *args, **kwargs: True)
        failed = self._failed("groupoid-axioms", trials=5)
        assert "groupoid-axioms/equivalence-agreement" in failed

    def test_fd_exterior_with_one_partial_pairing_flipped(self, monkeypatch):
        # d/ds Gamma0(u(s,0))(u(s,0) b) + d/dt Gamma0(u(0,t))(a u(0,t)): the
        # second partial pairing with its sign flipped.
        def fd_surface_dGamma0(rho0, u, a, b, step=1e-4, tol=DEFAULT_TOL):
            def g_t(s):
                us = linalg.exp_antihermitian(s * a) @ u
                return charts.Gamma0(rho0, us, us @ b, tol)

            def g_s(t):
                ut = u @ linalg.exp_antihermitian(t * b)
                return charts.Gamma0(rho0, ut, a @ ut, tol)

            return (g_t(step) - g_t(-step) + g_s(step) - g_s(-step)) / (2.0 * step)

        monkeypatch.setattr(suites, "fd_surface_dGamma0", fd_surface_dGamma0)
        assert "degeneracy/fd-exterior" in self._failed("degeneracy")

    def test_tangent_basis_with_a_repeated_element(self, monkeypatch):
        # A repeated direction is one more kernel direction off the radical.
        # The directions are built at the first base only, beside the
        # closed form: the ambient form's singular values no longer match
        # it, the directions are not orthonormal and their realified rank
        # falls short.  Slot (0, 1) holds the direction of slot (0, 0) again.
        real = poisson._leg_directions

        def leg_directions(w, v, rank):
            directions, kept = real(w, v, rank)
            directions[..., 1, :, :] = directions[..., 0, :, :]
            return directions, kept

        monkeypatch.setattr(poisson, "_leg_directions", leg_directions)
        failed = self._failed("degeneracy")
        assert {"degeneracy/radical-pairing", "degeneracy/dimensions"} <= failed

    # The closed-form faults leave every frame right, so the per-trial
    # frame checks cannot see them; the ambient form at the first base,
    # which shares no closed form with them, can.  Trial 0 of these runs
    # (seed 1) has a repeated eigenvalue.

    def test_closed_form_with_a_cluster_pair_off_the_radical(self, monkeypatch):
        # The first pair of slots within one cluster of a block given the
        # block's largest eigenvalue: two zeros fewer in each leg's
        # multiset.  The kernel count against the stabilizer mask sees it
        # too, on every base with a repeated eigenvalue.
        real = poisson._form_spectrum

        def form_spectrum(w, rank):
            values, kept = real(w, rank)
            n = w.shape[-1]
            a, c = np.divmod(np.arange(n * n), n)
            inside = (a < c) & kept & (values <= 1e-9 * w[..., :1])
            first = inside & (np.cumsum(inside, axis=-1) == 1)
            pair = first | first[..., c * n + a]
            return np.where(pair, w[..., :1], values), kept

        monkeypatch.setattr(poisson, "_form_spectrum", form_spectrum)
        failed = self._failed("degeneracy", trials=4, seed=1)
        assert {"degeneracy/radical-pairing", "degeneracy/dimensions"} <= failed

    def test_closed_form_of_a_perturbed_spectrum(self, monkeypatch):
        # The eigenvalues times 1 + 1e-6: the kernel and the complement
        # barely move, so the ambient form alone sees it.
        real = poisson._form_spectrum
        monkeypatch.setattr(poisson, "_form_spectrum", lambda w, rank: real(w * (1.0 + 1e-6), rank))
        assert self._failed("degeneracy", trials=4, seed=1) == {"degeneracy/radical-pairing"}

    def test_density_frame_not_unitary_on_later_trials(self, monkeypatch):
        # The first block's second eigenvector replaced by its first past
        # trial 0: the closed form reads a frame that is not unitary and
        # does not rebuild the density.
        real = poisson.density_spectrum

        def density_spectrum(phi, tol=DEFAULT_TOL):
            spectrum = real(phi, tol)
            (s, w, v), *rest = spectrum.blocks
            v = v.copy()
            v[..., 1] = np.where(self._later(v, 2)[..., None], v[..., 0], v[..., 1])
            return dataclasses.replace(spectrum, blocks=((s, w, v), *rest))

        monkeypatch.setattr(poisson, "density_spectrum", density_spectrum)
        assert "degeneracy/radical-pairing" in self._failed("degeneracy")

    def test_fubini_study_without_its_radius(self, monkeypatch):
        # The orbit through |delta><delta| in place of r |delta><delta|: the
        # form still matches the Fubini–Study value at that orbit, so only
        # the radius scaling sees the radius dropped.
        real = poisson.fubini_study_compare

        def fubini_study_compare(r, delta, x, y, tol=DEFAULT_TOL):
            return real(np.ones_like(r), delta, x, y, tol)

        monkeypatch.setattr(suites, "fubini_study_compare", fubini_study_compare)
        failed = self._failed("fubini-study")
        assert "fubini-study/r-scaling" in failed
        assert "fubini-study/orbit-vs-fs" not in failed

    def test_witness_in_the_wrong_direction(self, monkeypatch):
        def mvn_witness(alg, p, q, tol=DEFAULT_TOL):
            # F_p F_q* carries q onto p, not p onto q.
            return algebra.mvn_witness(alg, q, p, tol)

        monkeypatch.setattr(suites, "mvn_witness", mvn_witness)
        assert "groupoid-axioms/witnesses" in self._failed("groupoid-axioms", trials=5)


class TestSampleWithRetry:
    def test_redraws_until_admissible(self):
        tries = []

        def draw():
            tries.append(None)
            if len(tries) < 3:
                raise NotInDomain("outside the chart domain")
            return "drawn"

        assert sampling.sample_with_retry(draw) == "drawn"
        assert len(tries) == 3

    def test_gives_up_after_max_tries(self):
        tries = []

        def draw():
            tries.append(None)
            raise NotInOverlap("outside the overlap")

        with pytest.raises(NotPartiallyInvertible):
            sampling.sample_with_retry(draw, max_tries=5)
        assert len(tries) == 5

    def test_other_errors_propagate(self):
        def draw():
            raise ValueError("not a degenerate draw")

        with pytest.raises(ValueError):
            sampling.sample_with_retry(draw)

    def test_suites_use_the_same_helper(self):
        assert suites._retry is sampling.sample_with_retry


class TestHaarUnitary:
    def test_unitary_and_blockwise(self):
        # Each block is the Haar factor of its own block of the one Gaussian
        # that the stream's slot 0 holds.
        u = sampling.random_unitary(M23, sampling.Stream((5,), [0]))[0]
        assert np.allclose(u @ u.conj().T, np.eye(M23.dim), atol=1e-12)
        g = sampling.random_element(M23, sampling.Stream((5,), [0]), np.sqrt(2.0))[0]
        blocks = [linalg.phase_fixed_q(b) for b in M23.block_views(g)]
        assert np.array_equal(u, M23.embed_blocks(blocks))


class TestSharedReports:
    @pytest.mark.parametrize(
        "suite, check, calls",
        [
            # One check of the whole group, on the stack of its trials.
            ("degeneracy", "degeneracy_kernel_check", 1),
            ("dual-pair", "dual_pair_orthogonality_check", 1),
            ("modular-flow", "flow_residuals", 1),
        ],
    )
    def test_one_report_per_trial(self, monkeypatch, suite, check, calls):
        # Each group computes its report once per run_suite call, not once
        # per row that reads it.
        original = getattr(suites, check)
        seen = []

        def counted(*args, **kwargs):
            seen.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(suites, check, counted)
        rows = run_suite(suite, M23, 4, 1)
        assert len(seen) == calls
        assert all(r.passed for r in rows), [
            (r.suite, r.max_residual) for r in rows if not r.passed
        ]


class TestTrialKeys:
    """Every row draws from the stream keyed ``(seed, subindex)``: each slot
    from the generator keyed ``(seed, subindex, *path)``, made by the stream
    alone."""

    def test_every_key_is_seed_subindex_path(self, monkeypatch):
        original, keys = sampling.rng_for, []

        def recording(*key):
            keys.append(key)
            return original(*key)

        monkeypatch.setattr(sampling, "rng_for", recording)
        for name in SUITE_NAMES:
            keys.clear()
            run_suite(name, M23, 3, 5)
            rows = len(suite_rows(name))
            bad = [
                key for key in keys
                if len(key) < 3 or key[0] != 5 or not 0 <= key[1] < rows
            ]
            assert keys and not bad, (name, bad)

    def test_one_stream_per_row_and_no_trial_loop(self):
        tree = ast.parse(pathlib.Path(suites.__file__).read_text(encoding="utf-8"))
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        text = [ast.unparse(n.func) for n in calls]
        assert not any(t.endswith("rng_for") for t in text)
        # The streams come from ``RowCtx.stream`` alone.
        made = [n for n in calls if ast.unparse(n.func) == "sampling.Stream"]
        row_ctx = next(
            n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "RowCtx"
        )
        stream = next(n for n in row_ctx.body if getattr(n, "name", None) == "stream")
        assert len(made) == 1 and made[0] in list(ast.walk(stream))
        # No loop or comprehension runs over a stream or its trials.
        loops = {
            ast.unparse(n.iter) for n in ast.walk(tree) if isinstance(n, (ast.For, ast.comprehension))
        }
        assert not loops & {"rng", "rng.trials", "range(len(rng))", "range(ctx.trials)"}


class TestFootprint:
    """A stack of 100 trials on ``12`` is checked in one call, and its
    per-trial part holds only the frames and the slot coordinates of each
    trial: ``O(n_b^2)`` entries, not the ``n_b^2 x n_b^2`` Gram and omega
    products of ``(n_b^2, n_b, n_b)`` stacks of units, which only the
    first trial's oracles take.  ``tracemalloc`` sees NumPy's buffers.
    Measured peaks (NumPy 2, x86-64): 7.7 MB for the dual-pair check, whose
    first vector's oracle takes only the singular values of the ambient
    conditions (11.7 MB when it built a basis of their null space), and
    2.3 MB for the dimension defects.  With the units and their products
    built on every trial, the same stacks checked whole peaked at 249 MB and
    133 MB."""

    @staticmethod
    def _peak(fn, *args) -> float:
        """The peak of traced memory while ``fn(*args)`` runs, in MB."""
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("draw, check, bound", [
        (suites._draw_dual_pair, lambda ctx, g: dual_pair_orthogonality_check(ctx.algebra, g), 10.0),
        (suites._draw_planted,
         lambda ctx, d, dims: suites._dimension_defects(ctx.algebra, d, dims, ctx.profile), 4.0),
    ], ids=["dual-pair", "dimensions"])
    def test_a_stack_of_12_in_one_call(self, draw, check, bound):
        ctx = suites.RowCtx(BlockAlgebra((12,)), 100, 1, 0, DEFAULT_TOL)
        drawn = draw(ctx, ctx.stream())
        assert self._peak(check, ctx, *drawn) < bound


class TestRowReplay:
    """Every random row is a draw and a check: trial ``k`` of the stacked
    run has the bits of the row's check run on the row's draw over the
    stream of trial ``k`` alone, ``ctx.stream([k])``, so one trial can be
    replayed by itself."""

    #: The rows that are plain functions: two fixed cases and two that
    #: aggregate across trials.
    PLAIN = {
        "groupoid-axioms/equivalence-agreement", "charts/transition-oracle",
        "exactness/order", "kks/calibration",
    }

    @staticmethod
    def _rows():
        return [
            (f"{suite}/{name}", subindex, fn)
            for suite in SUITE_NAMES
            for subindex, (name, _, fn) in enumerate(suites._suite(suite))
        ]

    def test_every_random_row_is_a_draw_and_a_check(self):
        rows = self._rows()
        assert {name for name, _, fn in rows if not isinstance(fn, suites._Row)} == self.PLAIN
        assert len(rows) - len(self.PLAIN) == 39

    @pytest.mark.parametrize("shape", ["2,3", "1,2,2"])
    def test_each_trial_alone(self, shape):
        alg, trials = BlockAlgebra.from_string(shape), 8
        groups = {}
        for name, subindex, fn in self._rows():
            # A group runs its draw and check once, with its first row's
            # subindex.
            if isinstance(fn, suites._Row):
                groups.setdefault((fn.draw, fn.check), (name, subindex, fn))
        for name, subindex, fn in groups.values():
            ctx = suites.RowCtx(alg, trials, 1, subindex, DEFAULT_TOL)
            stacked = fn.check(ctx, *fn.draw(ctx, ctx.stream()))
            # Fixed instances, such as those of modular-flow/dimensions, are
            # not trials.
            per_trial = {key: v for key, v in stacked.items() if np.shape(v)[:1] == (trials,)}
            assert per_trial, name
            for k in range(trials):
                alone = fn.check(ctx, *fn.draw(ctx, ctx.stream([k])))
                assert alone.keys() == stacked.keys(), name
                for key, values in per_trial.items():
                    assert np.shape(alone[key])[:1] == (1,), (name, key)
                    got, want = np.asarray(alone[key][0]), np.asarray(values[k])
                    assert got.tobytes() == want.tobytes(), (name, key, k)

"""Tests for the verification-suite registry: determinism, row structure,
error handling, tolerance override, and a full small-trial smoke pass."""

import ast
import dataclasses
import math
import pathlib
import types

import numpy as np
import pytest

from wstargeo import algebra, charts, groupoids, poisson, sampling, standard, suites
from wstargeo import (
    DEFAULT_TOL,
    SUITE_NAMES,
    BlockAlgebra,
    InvalidTrials,
    NotInDomain,
    NotInOverlap,
    NotPartiallyInvertible,
    SuiteResult,
    UnknownSuite,
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
        nan_report = types.SimpleNamespace(residual=float("nan"))
        _poison_one_call(monkeypatch, suites, "kks_check", lambda _: nan_report)
        row = run_suite("kks", M2, 10, 0)[0]
        assert row.suite == "kks/identity"
        assert math.isnan(row.max_residual)
        assert row.status == "FAIL"

    def test_nan_law_fails_axiom_check(self, monkeypatch):
        def poison(laws):
            law = next(iter(laws))
            return {**laws, law: float("nan")}

        _poison_one_call(monkeypatch, groupoids, "chain_law_residuals", poison)
        report = groupoids.axiom_check("pi", M2, 10, 0)
        assert math.isnan(report.max_residual)
        assert sum(math.isnan(v) for v in report.law_residuals.values()) == 1

        # The suite runs the law check itself, through its own binding.
        _poison_one_call(monkeypatch, suites, "chain_law_residuals", poison)
        row = run_suite("groupoid-axioms", M2, 10, 0)[0]
        assert row.suite == "groupoid-axioms/pi"
        assert math.isnan(row.max_residual)
        assert row.status == "FAIL"

    def test_nan_arrow_fails_isomorphisms(self, monkeypatch):
        def poison(arrow):
            return dataclasses.replace(arrow, u=arrow.u * float("nan"))

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

    def test_nan_two_form_fails_orbit_form_invariance(self, monkeypatch):
        _poison_one_call(
            monkeypatch, poisson, "dGamma0", lambda _: float("nan"), at=2
        )
        row = run_suite("degeneracy", M2, 10, 0)[0]
        assert row.suite == "degeneracy/orbit-form-invariance"
        assert math.isnan(row.max_residual)
        assert row.status == "FAIL"


class TestPlantedFaults:
    """A wrong structure map, planted where the suites look it up, fails
    the row that checks it."""

    @staticmethod
    def _row(suite, row):
        rows = {r.suite: r for r in run_suite(suite, M23, 10, 0)}
        return rows[f"{suite}/{row}"]

    def test_standard_product_with_left_modulus(self, monkeypatch):
        def std_mul(g1, g2, tol=DEFAULT_TOL):
            u1, h1 = polar_decompose(g1, tol)
            u2, _ = polar_decompose(g2, tol)
            return u1 @ u2 @ h1

        monkeypatch.setattr(groupoids, "std_mul", std_mul)
        assert self._row("groupoid-axioms", "standard").status == "FAIL"

    @pytest.mark.parametrize("tag", ["pi", "g", "predual", "coadjoint"])
    def test_product_in_the_wrong_order(self, monkeypatch, tag):
        compose = getattr(groupoids, f"{tag}_compose")

        def swapped(a, b, tol=DEFAULT_TOL):
            # An infinite residual tolerance skips the composability gap check.
            return compose(b, a, dataclasses.replace(tol, residual_tol=math.inf))

        monkeypatch.setattr(groupoids, f"{tag}_compose", swapped)
        assert self._row("groupoid-axioms", tag).status == "FAIL"

    def test_phi_without_square_root(self, monkeypatch):
        def iso_Phi(u, rho, tol=DEFAULT_TOL):
            return np.asarray(u, dtype=complex) @ rho.density

        monkeypatch.setattr(groupoids, "iso_Phi", iso_Phi)
        assert self._row("groupoid-axioms", "isomorphisms").status == "FAIL"

    def test_eprime_kernel_replaced_by_e_kernel(self, monkeypatch):
        # The check builds the E' kernel as J (kernel of E at J g); with J the
        # identity that is the kernel of E at g.
        monkeypatch.setattr(standard, "conjugation_J", lambda g: np.asarray(g, dtype=complex))
        assert self._row("dual-pair", "orthogonality").status == "FAIL"

    def test_left_momentum_replaced_by_identity(self, monkeypatch):
        def momentum_mu(g, tol=DEFAULT_TOL):
            return np.eye(len(g), dtype=complex)

        monkeypatch.setattr(standard, "momentum_mu", momentum_mu)
        assert self._row("dual-pair", "dimension").status == "FAIL"

    # The basis faults run at three trials: each fails its rows on every
    # trial, so a few suffice.

    @staticmethod
    def _failed(suite, algebra=M23, trials=3):
        return {r.suite for r in run_suite(suite, algebra, trials, 0) if not r.passed}

    def test_non_stabilizer_direction_in_the_radical(self, monkeypatch):
        real = algebra.stabilizer_lie_algebra

        def stabilizer_lie_algebra(phi, tol=DEFAULT_TOL):
            # An anti-Hermitian support-corner direction that does not
            # commute with the density.
            p0 = algebra.functional_support(phi, tol)
            x = sampling.corner_antihermitian(phi.algebra, np.random.default_rng(0), p0)
            return algebra.StabilizerData(real(phi, tol).basis + (x,))

        for module in (poisson, suites):
            monkeypatch.setattr(module, "stabilizer_lie_algebra", stabilizer_lie_algebra)
        failed = self._failed("degeneracy")
        assert {"degeneracy/radical-pairing", "degeneracy/dimensions"} <= failed
        assert "modular-flow/dimensions" in self._failed("modular-flow", M2, 1)

    def test_antihermitian_units_missing_the_last(self, monkeypatch):
        real = algebra.antihermitian_units
        for module in (algebra, poisson):
            monkeypatch.setattr(module, "antihermitian_units", lambda cols: real(cols)[:-1])
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

    def test_fibre_coordinate_off_by_a_small_phase(self, monkeypatch):
        # theta_P0 reads u_p off its own overlap inverse and theta_P0_inv
        # calls u_p, so the phase opens the round trip.
        real = charts.u_p
        monkeypatch.setattr(charts, "u_p", lambda p, q, tol: real(p, q, tol) * np.exp(1e-8j))
        assert "charts/theta" in self._failed("charts")

    def test_modular_flow_with_one_sign_flipped(self, monkeypatch):
        def modular_flow(phi, t, tol=DEFAULT_TOL):
            # d^{it} x d^{it} instead of d^{it} x d^{-it}
            u = algebra.density_spectrum(phi, tol).imaginary_power(t)
            return lambda x: u @ x @ u

        # Planted in ``suites`` alone: in ``flow_residuals`` the flipped flow
        # breaks composability, so ``std_mul`` raises there.
        monkeypatch.setattr(suites, "modular_flow", modular_flow)
        failed = self._failed("modular-flow", M2, 1)
        assert {"modular-flow/group-law", "modular-flow/conditional-expectation"} <= failed

    def test_modular_flow_off_by_a_factor(self, monkeypatch):
        real = algebra.modular_flow

        def modular_flow(phi, t, tol=DEFAULT_TOL):
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
        u = sampling.random_unitary(M23, sampling.rng_for(5))
        assert np.allclose(u @ u.conj().T, np.eye(M23.dim), atol=1e-12)
        rng = sampling.rng_for(5)
        blocks = [sampling.haar_unitary(rng, n) for n in M23.blocks]
        assert np.array_equal(u, M23.embed_blocks(blocks))


class TestSharedReports:
    @pytest.mark.parametrize(
        "suite, check, calls",
        [
            ("degeneracy", "degeneracy_kernel_check", 4),
            ("dual-pair", "dual_pair_orthogonality_check", 4),
            ("modular-flow", "flow_residuals", 4),
        ],
    )
    def test_one_report_per_trial(self, monkeypatch, suite, check, calls):
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
    """Every row draws trial ``k`` from the generator keyed
    ``(seed, subindex, k)``, through one trial loop."""

    def test_every_key_is_seed_subindex_trial(self, monkeypatch):
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
                if len(key) != 3 or key[0] != 5
                or not 0 <= key[1] < rows or not 0 <= key[2] < 3
            ]
            assert keys and not bad, (name, bad)

    def test_one_trial_loop(self):
        tree = ast.parse(pathlib.Path(suites.__file__).read_text(encoding="utf-8"))
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        text = [ast.unparse(n) for n in calls]
        assert text.count("range(ctx.trials)") == 1
        assert sum(t.startswith("ctx.rng(") for t in text) == 1
        # The generators come from ``rng_for`` in ``RowCtx.rng`` alone.
        keyed = [n for n in calls if ast.unparse(n.func).endswith("rng_for")]
        row_ctx = next(
            n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "RowCtx"
        )
        rng = next(n for n in row_ctx.body if getattr(n, "name", None) == "rng")
        assert len(keyed) == 1 and keyed[0] in list(ast.walk(rng))

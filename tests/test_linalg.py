"""Matrix kernels: polar factors, supports, partial inverses, matrix
functions, the rank guard band, and the LAPACK calls underneath them."""
import ast
import pathlib

import numpy as np
import pytest

from wstargeo import sampling
from wstargeo.errors import (
    NoConvergence,
    NotHermitian,
    NotPartiallyInvertible,
    NotPositive,
)
from wstargeo.poisson import Observable
from wstargeo.linalg import (
    DEFAULT_TOL,
    GUARD_FACTOR,
    ToleranceProfile,
    frobenius,
    hermitian_eig,
    hermitian_eigvals,
    left_support,
    matrix_sqrt,
    null_space_rows,
    partial_inverse,
    polar_decompose,
    positive_spectrum,
    restricted_power,
    right_support,
    singular_values,
    support_projection,
    svd,
)

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = E12.conj().T


def _rng(k: int = 0) -> np.random.Generator:
    return np.random.default_rng(20_260_819 + k)


def _random_matrix(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestPolar:
    def test_nilpotent_oracle(self):
        u, h = polar_decompose(E12)
        assert frobenius(u - E12) <= 1e-12
        assert frobenius(h - np.diag([0.0, 1.0])) <= 1e-12

    def test_sign_matrix_oracle(self):
        a = np.diag([3.0, -4.0]).astype(complex)
        u, h = polar_decompose(a)
        assert frobenius(u - np.diag([1.0, -1.0])) <= 1e-12
        assert frobenius(h - np.diag([3.0, 4.0])) <= 1e-12

    def test_identity(self):
        u, h = polar_decompose(np.eye(3, dtype=complex))
        assert frobenius(u - np.eye(3)) <= 1e-12
        assert frobenius(h - np.eye(3)) <= 1e-12

    def test_round_trip_properties(self):
        rng = _rng()
        for k in range(1000):
            n = int(rng.integers(1, 9))
            a = _random_matrix(rng, n)
            if k % 3 == 0:
                # Exercise genuine rank deficiency.
                r = int(rng.integers(0, n))
                b = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
                c = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
                a = b @ c
            u, h = polar_decompose(a)
            uu = u.conj().T @ u
            assert frobenius(u @ h - a) <= 1e-10 * max(1.0, frobenius(a))
            assert frobenius(u @ uu - u) <= 1e-10
            assert frobenius(uu - support_projection(h)) <= 1e-10
            assert frobenius(h - h.conj().T) <= 1e-12
            assert np.linalg.eigvalsh(h).min() >= -1e-12

    def test_left_right_supports(self):
        assert frobenius(left_support(E12) - np.diag([1.0, 0.0])) <= 1e-12
        assert frobenius(right_support(E12) - np.diag([0.0, 1.0])) <= 1e-12


class TestPartialInverse:
    def test_nilpotent_oracle(self):
        assert frobenius(partial_inverse(E12) - E21) <= 1e-12

    def test_groupoid_inverse_identities(self):
        rng = _rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            r = int(rng.integers(0, n + 1))
            b = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            c = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            a = b @ c
            try:
                x = partial_inverse(a)
            except NotPartiallyInvertible:
                continue
            assert frobenius(a @ x @ a - a) <= 1e-8 * max(1.0, frobenius(a) ** 3)
            assert frobenius(x @ a @ x - x) <= 1e-8 * max(1.0, frobenius(x) ** 3)
            assert frobenius(a @ x - left_support(a)) <= 1e-8
            assert frobenius(x @ a - right_support(a)) <= 1e-8

    def test_guard_band_refusal(self):
        # Largest singular value 1, smallest sits inside the guard band
        # [cutoff, GUARD_FACTOR * cutoff): the rank decision is ambiguous.
        prof = DEFAULT_TOL
        inside = 3.0 * prof.rank_rel_tol
        assert inside < GUARD_FACTOR * prof.rank_rel_tol
        a = np.diag([1.0, inside]).astype(complex)
        with pytest.raises(NotPartiallyInvertible):
            partial_inverse(a, prof)

    def test_guard_band_clearance(self):
        prof = DEFAULT_TOL
        above = 20.0 * prof.rank_rel_tol
        a = np.diag([1.0, above]).astype(complex)
        x = partial_inverse(a, prof)
        assert frobenius(x - np.diag([1.0, 1.0 / above])) <= 1e-6 / above

    def test_below_cutoff_is_kernel(self):
        prof = DEFAULT_TOL
        below = 0.01 * prof.rank_rel_tol
        a = np.diag([1.0, below]).astype(complex)
        x = partial_inverse(a, prof)
        assert frobenius(x - np.diag([1.0, 0.0])) <= 1e-12


class TestMatrixFunctions:
    def test_sqrt_oracle(self):
        assert frobenius(matrix_sqrt(np.diag([0.0, 4.0]).astype(complex))
                         - np.diag([0.0, 2.0])) <= 1e-12

    def test_sqrt_kernel_is_exact(self):
        # The square root must not amplify numerical fuzz in the kernel.
        rng = _rng(2)
        v = np.linalg.qr(_random_matrix(rng, 4))[0]
        d = (v * np.array([2.0, 1.0, 0.0, 0.0])) @ v.conj().T
        s = matrix_sqrt(d)
        p = support_projection(d)
        off = (np.eye(4) - p) @ s
        assert frobenius(off) <= 1e-12

    def test_sqrt_rejects_negative(self):
        with pytest.raises(NotPositive):
            matrix_sqrt(np.diag([1.0, -1.0]).astype(complex))

    def test_restricted_power_inverse_guard(self):
        prof = DEFAULT_TOL
        inside = 3.0 * prof.rank_rel_tol
        h = np.diag([1.0, inside]).astype(complex)
        with pytest.raises(NotPartiallyInvertible):
            restricted_power(h, -1.0, prof)
        # Positive powers are not guarded.
        restricted_power(h, 0.5, prof)

    def test_imaginary_power_unitary_on_support(self):
        d = np.diag([1.0, 4.0, 0.0]).astype(complex)
        spectrum = positive_spectrum(d)
        w = spectrum.imaginary_power(0.7)
        assert spectrum.rank == 2
        assert frobenius(w @ w.conj().T - spectrum.support) <= 1e-12
        assert frobenius(w - np.diag([1.0, np.exp(0.7j * np.log(4.0)), 0.0])) <= 1e-12


class TestEig:
    def test_descending_order(self):
        rng = _rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            a = _random_matrix(rng, n)
            h = a + a.conj().T
            w, v = hermitian_eig(h)
            assert np.all(np.diff(w) <= 1e-12)
            assert frobenius((v * w) @ v.conj().T - h) <= 1e-10 * max(1.0, frobenius(h))

    def test_tolerance_profile_fields(self):
        prof = ToleranceProfile(rank_rel_tol=1e-6, residual_tol=1e-5, fd_step=1e-3)
        assert prof.rank_rel_tol == 1e-6
        assert prof.residual_tol == 1e-5
        assert prof.fd_step == 1e-3


class TestLapackKernels:
    """The direct LAPACK calls against their ``numpy.linalg`` references.  The
    two libraries may link different BLAS builds, so agreement is to 1e-12
    rather than bitwise."""

    SIZES = range(1, 13)

    def test_svd_and_singular_values(self):
        rng = _rng(10)
        for n in self.SIZES:
            a = _random_matrix(rng, n)
            for got, want in zip(svd(a), np.linalg.svd(a)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            want = np.linalg.svd(a, compute_uv=False)
            np.testing.assert_allclose(singular_values(a), want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                singular_values(a.real), np.linalg.svd(a.real, compute_uv=False),
                rtol=0, atol=1e-12,
            )

    def test_hermitian_spectra(self):
        rng = _rng(11)
        for n in self.SIZES:
            a = _random_matrix(rng, n)
            h = a + a.conj().T
            w, v = hermitian_eig(h)
            w_ref, v_ref = np.linalg.eigh(h)
            np.testing.assert_allclose(w, w_ref[::-1], rtol=0, atol=1e-12)
            np.testing.assert_allclose(v, v_ref[:, ::-1], rtol=0, atol=1e-12)
            # Only the lower triangle is read, as numpy.linalg does by default.
            lower = np.tril(h)
            np.testing.assert_allclose(
                hermitian_eigvals(lower), np.linalg.eigvalsh(h)[::-1], rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                hermitian_eigvals(h.real), np.linalg.eigvalsh(h.real)[::-1],
                rtol=0, atol=1e-12,
            )

    def test_haar_unitary(self):
        for n in self.SIZES:
            u = sampling.haar_unitary(_rng(n), n)
            rng = _rng(n)
            g = rng.normal(0.0, 1.0, (n, n, 2)).view(complex)[..., 0]
            q, r = np.linalg.qr(g)
            d = np.diagonal(r)
            np.testing.assert_allclose(u, q * (d / np.abs(d)), rtol=0, atol=1e-12)

    def test_null_space_rows(self):
        rng = _rng(12)
        for m, n, r in ((8, 5, 3), (20, 12, 12), (4, 9, 4), (6, 6, 0)):
            a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            rows = null_space_rows(a)
            assert rows.dtype == np.float64
            assert rows.shape == (n - r, n)
            assert frobenius(a @ rows.T) <= 1e-12 * max(1.0, frobenius(a))
            np.testing.assert_allclose(
                rows, np.linalg.svd(a)[2][r:], rtol=0, atol=1e-12
            )

    def test_real_input_stays_real(self):
        a = _random_matrix(_rng(13), 4).real
        assert singular_values(a).dtype == np.float64
        assert hermitian_eigvals(a + a.T).dtype == np.float64
        assert null_space_rows(a).dtype == np.float64

    def test_nan_input_raises(self):
        a = np.full((3, 3), np.nan, dtype=complex)
        with pytest.raises(NoConvergence):
            svd(a)
        with pytest.raises(NoConvergence):
            singular_values(a.real)

    def test_empty_input(self):
        assert singular_values(np.zeros((0, 0))).shape == (0,)
        assert singular_values(np.zeros((3, 0))).shape == (0,)
        assert hermitian_eigvals(np.zeros((0, 0), dtype=complex)).shape == (0,)

    def test_frobenius_is_numpy_norm(self):
        rng = _rng(14)
        c = _random_matrix(rng, 5)
        for x in (c, c.real, c.T, c[::2, 1:], c.real.T, (10 * c.real).astype(int),
                  np.zeros((0, 3)), np.arange(7), np.zeros((2, 2), dtype=complex)):
            got = frobenius(x)
            assert type(got) is float
            assert got == float(np.linalg.norm(x))


#: ``numpy.linalg``/``scipy.linalg`` factorizations that only ``linalg.py`` calls.
FACTORIZATIONS = {"svd", "eigh", "eigvalsh", "qr"}


def _factorization_calls(source: str) -> list[str]:
    """Calls of a matrix factorization in ``source``: ``<x>.linalg.<name>(...)``
    for a name in FACTORIZATIONS, ``<x>.linalg.norm(..., 2)``, and names
    imported from a ``linalg`` or ``lapack`` module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(
            ("numpy.linalg", "scipy.linalg", "lapack")
        ):
            found += [
                a.name for a in node.names
                if a.name in FACTORIZATIONS or node.module.endswith("lapack")
            ]
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr in ("linalg", "lapack")
        ):
            continue
        name = node.func.attr
        order = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
        spectral = any(isinstance(o, ast.Constant) and o.value == 2 for o in order)
        if name in FACTORIZATIONS or node.func.value.attr == "lapack" or (
            name == "norm" and spectral
        ):
            found.append(ast.unparse(node))
    return found


class TestOneFactorizationLayer:
    def test_scanner_finds_factorizations(self):
        source = (
            "s = np.linalg.svd(a, compute_uv=False)\n"
            "w = numpy.linalg.eigvalsh(herm(b))\n"
            "q, r = np.linalg.qr(g)\n"
            "n2 = np.linalg.norm(x @ y, ord=2)\n"
            "n3 = np.linalg.norm(x, 2)\n"
            "from scipy.linalg import eigh\n"
            "u = scipy.linalg.lapack.zgesdd(a)\n"
        )
        assert len(_factorization_calls(source)) == 7
        assert _factorization_calls("f = np.linalg.norm(v)\ne = scipy.linalg.expm(a)") == []

    def test_only_linalg_factorizes(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "wstargeo"
        modules = sorted(p for p in src.glob("*.py") if p.name != "linalg.py")
        assert modules
        found = {
            p.name: calls
            for p in modules
            if (calls := _factorization_calls(p.read_text(encoding="utf-8")))
        }
        assert found == {}


#: The functions that call ``check_hermitian``: the functional calculus on
#: positive matrices, and the observables that take a caller's matrix.  Every
#: other matrix reaching a Hermitian kernel is Hermitian by construction.
HERMITIAN_CHECK_SITES = {
    "linalg.positive_spectrum",
    "poisson.Observable.linear",
    "poisson.Observable.quadratic",
    "poisson.Observable.differential_at",
}


def _hermitian_check_sites(source: str, module: str) -> set[str]:
    """Qualified names of the functions in ``source`` that call
    ``check_hermitian`` (by name or as an attribute); a call outside any
    function counts as the module's."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and "check_hermitian" in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                found.add(".".join([module] + scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


class TestHermitianCheckedOnce:
    """Hermitian input is checked once, where it enters: the kernels check
    shape and LAPACK status only."""

    def test_scanner_finds_check_sites(self):
        source = (
            "x = check_hermitian(a)\n"
            "def f(h):\n"
            "    return g(linalg.check_hermitian(h, tol))\n"
            "def g(h):\n"
            "    return hermitian_eig(h)\n"
            "class C:\n"
            "    @classmethod\n"
            "    def make(cls, x):\n"
            "        return cls(lambda: check_hermitian(x))\n"
        )
        assert _hermitian_check_sites(source, "m") == {"m", "m.f", "m.C.make"}

    def test_check_sites(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "wstargeo"
        found = set()
        for p in sorted(src.glob("*.py")):
            found |= _hermitian_check_sites(p.read_text(encoding="utf-8"), p.stem)
        assert found == HERMITIAN_CHECK_SITES

    @pytest.mark.parametrize(
        "fn",
        [
            matrix_sqrt,
            support_projection,
            lambda h: restricted_power(h, 0.5),
            positive_spectrum,
            Observable.linear,
        ],
        ids=["matrix_sqrt", "support_projection", "restricted_power",
             "spectrum", "Observable.linear"],
    )
    def test_entry_points_reject_non_hermitian(self, fn):
        with pytest.raises(NotHermitian):
            fn(np.eye(2, dtype=complex) + E12)

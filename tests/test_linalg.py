"""Matrix kernels: polar factors, supports, partial inverses, matrix
functions, the rank guard band, and the LAPACK calls underneath them."""
import ast
import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from wstargeo import charts, groupoids, linalg, poisson, sampling, standard
from wstargeo.algebra import (
    BlockAlgebra,
    NormalFunctional,
    combination,
    require_projection,
    stabilizer_lie_algebra,
)
from wstargeo.errors import (
    InvalidArrow,
    InvalidFamily,
    InvalidTangent,
    NoConvergence,
    NotComposable,
    NotHermitian,
    NotPartiallyInvertible,
    NotPositive,
)
from wstargeo.poisson import Observable
from wstargeo.linalg import (
    DEFAULT_TOL,
    GUARD_FACTOR,
    ToleranceProfile,
    check_hermitian,
    excess,
    exp_antihermitian,
    expect_real,
    expect_real_array,
    frobenius,
    hermitian_eig,
    hermitian_eigvals,
    hs_inner,
    is_partial_isometry,
    is_projection,
    partial_inverse,
    phase_fixed_q,
    polar_decompose,
    positive_spectrum,
    restricted_power,
    retained_rank,
    singular_values,
    supports,
    svd,
)

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = E12.conj().T


def _rng(k: int = 0) -> np.random.Generator:
    return np.random.default_rng(20_260_819 + k)


def _stream(k: int = 0) -> sampling.Stream:
    """The one-trial stream keyed as ``_rng(k)``, for the samplers."""
    return sampling.Stream((20_260_819 + k,), [0])


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
            assert frobenius(uu - positive_spectrum(h).support) <= 1e-10
            assert frobenius(h - h.conj().T) <= 1e-12
            assert np.linalg.eigvalsh(h).min() >= -1e-12


def _one_sided_support(a: np.ndarray) -> np.ndarray:
    """The range projection of ``a`` from its own SVD: a reference that reads
    the right support of ``a`` as the range projection of ``a*``."""
    w, s, _ = svd(a)
    r = retained_rank(s)
    return w[:, :r] @ w[:, :r].conj().T


class TestSupports:
    def test_matches_one_sided_readers(self):
        left, right = supports(E12)
        assert frobenius(left - np.diag([1.0, 0.0])) <= 1e-12
        assert frobenius(right - np.diag([0.0, 1.0])) <= 1e-12
        rng = _stream(7)
        for algebra in (BlockAlgebra((2, 3)), BlockAlgebra((4,))):
            for _ in range(50):
                p = sampling.random_frames(algebra, rng).projection[0]
                a = sampling.random_element(algebra, rng)[0] @ p @ sampling.random_element(
                    algebra, rng
                )[0]
                left, right = supports(a)
                assert frobenius(left - _one_sided_support(a)) <= 1e-12
                assert frobenius(right - _one_sided_support(a.conj().T)) <= 1e-12


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
            left, right = supports(a)
            assert frobenius(a @ x - left) <= 1e-8
            assert frobenius(x @ a - right) <= 1e-8

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
        assert frobenius(restricted_power(np.diag([0.0, 4.0]).astype(complex), 0.5)
                         - np.diag([0.0, 2.0])) <= 1e-12

    def test_sqrt_kernel_is_exact(self):
        # The square root must not amplify numerical fuzz in the kernel.
        rng = _rng(2)
        v = np.linalg.qr(_random_matrix(rng, 4))[0]
        d = (v * np.array([2.0, 1.0, 0.0, 0.0])) @ v.conj().T
        s = restricted_power(d, 0.5)
        p = positive_spectrum(d).support
        off = (np.eye(4) - p) @ s
        assert frobenius(off) <= 1e-12

    def test_sqrt_rejects_negative(self):
        with pytest.raises(NotPositive):
            restricted_power(np.diag([1.0, -1.0]).astype(complex), 0.5)

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
        assert spectrum.ranks == (2,)
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
    """The kernels against their ``numpy.linalg`` references, bit for bit:
    both reach LAPACK through the same ``numpy.linalg._umath_linalg``
    gufuncs."""

    SIZES = range(1, 17)

    def test_svd_and_singular_values(self):
        rng = _rng(10)
        for n in self.SIZES:
            a = _random_matrix(rng, n)
            for x in (a, a.real):
                # svd always takes the complex driver; singular_values keeps
                # real input real.
                for got, ref in zip(svd(x), np.linalg.svd(x.astype(complex))):
                    np.testing.assert_array_equal(got, ref)
                want = np.linalg.svd(x, compute_uv=False)
                np.testing.assert_array_equal(singular_values(x), want)

    def test_hermitian_spectra(self):
        rng = _rng(11)
        for n in self.SIZES:
            a = _random_matrix(rng, n)
            for h in (a + a.conj().T, (a + a.conj().T).real):
                w, v = hermitian_eig(h)
                w_ref, v_ref = np.linalg.eigh(h.astype(complex))
                np.testing.assert_array_equal(w, w_ref[::-1])
                np.testing.assert_array_equal(v, v_ref[:, ::-1])
                # Only the lower triangle is read, as numpy.linalg does by
                # default; real input keeps the real driver.
                np.testing.assert_array_equal(
                    hermitian_eigvals(np.tril(h)), np.linalg.eigvalsh(h)[::-1]
                )

    def test_haar_unitary(self):
        for n in self.SIZES:
            # The stream's slot 0, as the sampler reads it.
            g = sampling.rng_for(20_260_819 + n, 0).normal(0.0, 1.0, (n, n, 2)).view(complex)[..., 0]
            q, r = np.linalg.qr(g)
            d = np.diagonal(r)
            np.testing.assert_array_equal(
                sampling.random_unitary(BlockAlgebra((n,)), _stream(n))[0], q * (d / np.abs(d))
            )
            # Thin: a Haar isometry, with the caller's matrix left as it was.
            g = g[:, : (n + 1) // 2]
            kept = g.copy()
            q, r = np.linalg.qr(g)
            d = np.diagonal(r)
            np.testing.assert_array_equal(phase_fixed_q(g), q * (d / np.abs(d)))
            np.testing.assert_array_equal(g, kept)

    @pytest.mark.parametrize("blocks", [(2, 3), (1, 2, 2), (12,), (4, 4, 4, 4)], ids=str)
    def test_phase_fixed_q_per_matrix_of_a_stack(self, blocks):
        # Each matrix of a stack gets the bits of its own call: the phases
        # come from its own packed diagonal.  The stack holds the layouts of
        # random_frames, among them ones that are the identity alone (every
        # block at rank 0 or full), whose factor is the identity exactly.
        algebra = BlockAlgebra(blocks)
        rng = _rng(13)
        layouts = []
        for k in range(len(blocks) * 6):
            ranks = [0 if k % 3 == 0 else n if k % 3 == 1 else int(rng.integers(0, n + 1))
                     for n in blocks]
            f = algebra.identity()
            for s, n, r in zip(algebra.slices, blocks, ranks):
                if 0 < r < n:
                    f[s, s.start : s.start + r] = _random_matrix(rng, n)[:, :r]
            layouts.append(f)
        stack = np.stack(layouts)
        q = phase_fixed_q(stack)
        assert q.shape == stack.shape
        for k, f in enumerate(layouts):
            assert q[k].tobytes() == phase_fixed_q(f).tobytes(), k
            if k % 3 != 2:
                assert q[k].tobytes() == algebra.identity().tobytes(), k

    def test_real_input_stays_real(self):
        a = _random_matrix(_rng(13), 4).real
        assert singular_values(a).dtype == np.float64
        assert hermitian_eigvals(a + a.T).dtype == np.float64

    def test_nan_input_raises(self):
        kernels = (svd, singular_values, hermitian_eig, hermitian_eigvals)
        for dtype in (complex, float):
            a = np.ones((3, 3), dtype=dtype)
            a[2, 0] = np.nan
            for kernel in kernels:
                # The driver fails: the gufunc warns as it fills its outputs
                # with NaN, and the kernel raises.
                with pytest.warns(RuntimeWarning, match="invalid value"):
                    with pytest.raises(NoConvergence):
                        kernel(a)
        # ?heevd splits off the NaN-free row and succeeds with eigenvalues
        # (1, nan, nan): no warning, but the kernel still raises.
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        a[2, 1] = np.nan
        for kernel in (hermitian_eig, hermitian_eigvals):
            with pytest.raises(NoConvergence):
                kernel(a)

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


class TestExpAntihermitian:
    """The unitary exponential against ``scipy.linalg.expm`` as an
    independent oracle."""

    @staticmethod
    def _generators():
        m23 = BlockAlgebra((2, 3))
        rng = _stream(15)
        # A stabilizer direction of a density that vanishes on the 3-block.
        rho0 = NormalFunctional(m23, np.diag([0.5, 0.5, 0.0, 0.0, 0.0]))
        stab = stabilizer_lie_algebra(rho0)
        return {
            "generic": sampling.random_antihermitian(m23, rng)[0],
            "zero-block": combination(rng.take("standard_normal", shape=(len(stab.basis),))[0], stab),
            "zero": np.zeros((5, 5), dtype=complex),
        }

    @pytest.mark.parametrize("name", ["generic", "zero-block", "zero"])
    def test_matches_expm(self, name):
        x = self._generators()[name]
        g = exp_antihermitian(x)
        assert frobenius(g.conj().T @ g - np.eye(len(x))) <= 1e-13
        assert frobenius(g - scipy.linalg.expm(x)) <= 1e-13


def _imported_by_the_package(module: str) -> bool:
    """Whether importing every submodule of ``wstargeo`` (``__main__``, which
    runs the command line, aside) imports ``module``, in a fresh interpreter.
    ``import wstargeo`` loads its submodules lazily, so each is named here."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    submodules = sorted(
        f"wstargeo.{p.stem}" for p in (src / "wstargeo").glob("*.py") if not p.stem.startswith("__")
    )
    assert {"wstargeo.suites", "wstargeo.sampling", "wstargeo.poisson"} <= set(submodules)
    code = f"import sys; import {', '.join(submodules)}; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout.strip() == "True"


def test_import_leaves_scipy_out():
    """The package and its command line import without SciPy."""
    assert not _imported_by_the_package("scipy")


def test_import_leaves_numpy_random_out():
    """The package and its command line import without ``numpy.random``: a
    sampler's stream makes its generators when it draws, and nothing typed
    or built at import reaches ``numpy.random``."""
    assert not _imported_by_the_package("numpy.random")


#: ``numpy.linalg``/``scipy.linalg`` factorizations that only ``linalg.py`` calls.
FACTORIZATIONS = {"svd", "eigh", "eigvalsh", "qr"}
#: NumPy's LAPACK gufunc module, which only ``linalg.py`` reads.
GUFUNCS = "_umath_linalg"


def _factorization_calls(source: str) -> list[str]:
    """Calls of a matrix factorization in ``source``: ``<x>.linalg.<name>(...)``
    for a name in FACTORIZATIONS, ``<x>.linalg.norm(..., 2)``, names
    imported from a ``linalg`` or ``lapack`` module, and any use of
    ``_umath_linalg``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [
                a.name for a in node.names
                if GUFUNCS in a.name or GUFUNCS in (getattr(node, "module", None) or "")
            ]
        if (isinstance(node, ast.Name) and node.id == GUFUNCS) or (
            isinstance(node, ast.Attribute) and node.attr == GUFUNCS
        ):
            found.append(ast.unparse(node))
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

    def test_scanner_finds_gufuncs(self):
        for source in (
            "from numpy.linalg import _umath_linalg\n",
            "from numpy.linalg._umath_linalg import svd_f\n",
            "import numpy.linalg._umath_linalg as g\n",
            "s = np.linalg._umath_linalg.svd(a)\n",
            "f = getattr(_umath_linalg, 'eigh_lo')\n",
        ):
            assert _factorization_calls(source), source

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


#: The functions outside ``linalg`` that call ``hermitian_eig``: a
#: functional's blockwise spectrum, the frames of a projection, a curve
#: family's generators, and the complement columns of the isometry-bundle
#: tangents.  Positivity and support are read from ``positive_spectrum``.
HERMITIAN_EIG_SITES = {
    "algebra.density_spectrum",
    "algebra._block_frames",
    "poisson.ComposableFamily._spectra",
    "poisson._leg_frame",
}

#: The functions outside ``linalg`` that call ``retained_rank``: only the
#: chart-domain rank rule, which reads the rank of an overlap it inverts.
RETAINED_RANK_SITES = {"charts._in_chart_domain"}


def _call_sites(source: str, module: str, callee: str) -> set[str]:
    """Qualified names of the functions in ``source`` that call ``callee``
    (by name or as an attribute) or pass it on, as to ``map``; a nested
    function counts as the function it is defined in, and a use outside
    any function as the module's."""
    found = set()

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not in_function:
                    visit(child, scope + [child.name], not isinstance(child, ast.ClassDef))
                    continue
            elif callee in (getattr(child, "id", None), getattr(child, "attr", None)):
                found.add(".".join([module] + scope))
            visit(child, scope, in_function)

    visit(ast.parse(source), [], False)
    return found


def _package_sites(callee: str, skip: str | None = None) -> set[str]:
    """:func:`_call_sites` of ``callee`` over the package's modules, but
    the one named ``skip``."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "wstargeo"
    found = set()
    for p in sorted(src.glob("*.py")):
        if p.stem != skip:
            found |= _call_sites(p.read_text(encoding="utf-8"), p.stem, callee)
    return found


class TestSpectralReadersPinned:
    """Outside ``linalg`` no function decides a rank or diagonalises a
    matrix but these: a new private rank or positivity rule shows up here."""

    def test_scanner_counts_nested_functions_and_references(self):
        source = (
            "def f(phi):\n"
            "    def compute():\n"
            "        return list(map(hermitian_eig, phi))\n"
            "    return compute()\n"
            "from .linalg import hermitian_eig\n"
        )
        assert _call_sites(source, "m", "hermitian_eig") == {"m.f"}

    def test_hermitian_eig_sites(self):
        assert _package_sites("hermitian_eig", skip="linalg") == HERMITIAN_EIG_SITES

    def test_retained_rank_sites(self):
        assert _package_sites("retained_rank", skip="linalg") == RETAINED_RANK_SITES


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
        assert _call_sites(source, "m", "check_hermitian") == {"m", "m.f", "m.C.make"}

    def test_check_sites(self):
        assert _package_sites("check_hermitian") == HERMITIAN_CHECK_SITES

    @pytest.mark.parametrize(
        "fn",
        [
            lambda h: restricted_power(h, 0.5),
            positive_spectrum,
            Observable.linear,
        ],
        ids=["restricted_power",
             "spectrum", "Observable.linear"],
    )
    def test_entry_points_reject_non_hermitian(self, fn):
        with pytest.raises(NotHermitian):
            fn(np.eye(2, dtype=complex) + E12)


#: The functions outside ``linalg`` that read ``residual_tol`` themselves:
#: block membership (a hot path that refuses NaN and inf on its own) and the
#: command line's copy of the profile.  Every other domain check decides
#: through ``excess``.
RESIDUAL_TOL_SITES = {
    "algebra.BlockAlgebra.contains",
    "cli.cmd_polar",
}

M2 = BlockAlgebra((2,))
NAN = np.full((2, 2), np.nan, dtype=complex)
I2 = np.eye(2, dtype=complex)
RHO2 = NormalFunctional(M2, np.diag([0.75, 0.25]).astype(complex))
A2 = np.array([[1j, 1.0], [-1.0, 0.0]])


def _family_pair():
    data = poisson.draw_family_data(M2, sampling.Stream((4, 1), [0]), 2)
    return poisson.families_on(M2, [x[0] for x in data])


def _nan_base_residual():
    fam, fam2 = _family_pair()
    object.__setattr__(fam2, "u1", NAN)
    return poisson.multiplicativity_residual(fam, fam2)


class TestOneToleranceRule:
    """Every domain check accepts an identity by one rule, ``excess``, and
    a NaN gap never passes it."""

    def test_excess(self):
        tol = ToleranceProfile(residual_tol=1e-8)
        assert excess(I2, I2 + 1e-9, tol) == 0.0
        assert excess(I2, I2 + 1e-8, tol) == pytest.approx(2e-8)
        assert excess(I2, I2 + 1e-8, tol, scale=1.0) == 0.0
        assert np.isnan(excess(I2, NAN, tol))
        assert excess(I2, 2 * I2, tol, scale=np.nan) == pytest.approx(np.sqrt(2))
        assert np.isnan(excess(I2, I2, tol, scale=np.nan))

    def test_residual_tol_sites(self):
        assert _package_sites("residual_tol", skip="linalg") == RESIDUAL_TOL_SITES

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: groupoids.pi_compose(NAN, I2), NotComposable),
            (lambda: standard.transport_witness(I2, NAN), InvalidArrow),
            (lambda: groupoids.gauge_iso_Psi(NAN, I2, RHO2), InvalidArrow),
            (lambda: check_hermitian(NAN), NotHermitian),
            (lambda: poisson.kks_check(RHO2, NAN, A2), InvalidTangent),
            (lambda: dataclasses.replace(_family_pair()[0], a1=NAN), InvalidFamily),
            (_nan_base_residual, InvalidFamily),
            (lambda: poisson.degeneracy_kernel_check(RHO2, I2, NAN), InvalidTangent),
            (lambda: expect_real(complex(np.nan, np.nan)), NotHermitian),
            (lambda: expect_real_array(np.array([1.0, complex(np.nan, 0.0)])), NotHermitian),
            (lambda: charts.dGamma0(RHO2, I2, NAN, I2), NotHermitian),
        ],
        ids=[
            "pi_compose", "transport_witness", "gauge_iso_Psi", "check_hermitian",
            "kks_check", "ComposableFamily", "multiplicativity_residual",
            "degeneracy_kernel_check", "expect_real", "expect_real_array", "dGamma0",
        ],
    )
    def test_nan_fails_the_check(self, call, error):
        with pytest.raises(error):
            call()


class TestStacks:
    """A ``(T, n, n)`` stack is decided matrix by matrix: each gets its own
    rank cutoff and guard band, and the bits it gets alone."""

    @staticmethod
    def _mixed_stack():
        # Ranks 0 to 5 and scales 1e-6 to 1e3 in one stack: a cutoff shared
        # across the stack would zero the small matrices.
        rng = _rng(40)
        mats = []
        for k in range(12):
            r = k % 6
            left = _random_matrix(rng, 5)[:, :r]
            mats.append(10.0 ** (k % 4 * 3 - 6) * (left @ _random_matrix(rng, 5)[:r, :]))
        return np.stack(mats)

    def test_eigenvalues_descend_per_matrix(self):
        # The values of each matrix are reversed, not the order of the stack.
        stack = np.stack([np.diag([1.0, 2.0, 3.0]), np.diag([10.0, 20.0, 30.0])])
        np.testing.assert_array_equal(hermitian_eigvals(stack), [[3, 2, 1], [30, 20, 10]])
        np.testing.assert_array_equal(hermitian_eigvals(stack[0]), [3, 2, 1])
        h = polar_decompose(self._mixed_stack())[1]
        values = hermitian_eigvals(h)
        for k in range(len(h)):
            assert values[k].tobytes() == hermitian_eigvals(h[k]).tobytes()

    def test_each_matrix_as_alone(self):
        stack = self._mixed_stack()
        assert len({int(r) for r in retained_rank(svd(stack)[1])}) == 6
        u, h = polar_decompose(stack)
        left, right = supports(stack)
        inv = partial_inverse(stack)
        norms = frobenius(stack)
        spectrum = positive_spectrum(h)
        root, support = spectrum.power(0.5), spectrum.support
        for k, a in enumerate(stack):
            for got, want in [
                (u[k], polar_decompose(a)[0]),
                (h[k], polar_decompose(a)[1]),
                (left[k], supports(a)[0]),
                (right[k], supports(a)[1]),
                (inv[k], partial_inverse(a)),
                (root[k], restricted_power(h[k], 0.5)),
                (support[k], positive_spectrum(h[k]).support),
            ]:
                assert np.array_equal(got, want)
            assert norms[k] == frobenius(a) == np.linalg.norm(a)
            alone = positive_spectrum(h[k])
            assert spectrum.cutoff[k] == alone.cutoff
            assert spectrum.ranks[0][k] == alone.ranks[0]
            # Each masked product against the product of the rank's slices.
            w, s, vh = svd(a)
            r = retained_rank(s)
            _, v = hermitian_eig(h[k])
            q = alone.ranks[0]
            for got, want in [
                (u[k], w[:, :r] @ vh[:r]),
                (left[k], w[:, :r] @ w[:, :r].conj().T),
                (right[k], vh[:r].conj().T @ vh[:r]),
                (inv[k], (vh[:r].conj().T / s[:r]) @ w[:, :r].conj().T),
                (support[k], v[:, :q] @ v[:, :q].conj().T),
            ]:
                assert frobenius(got - want) <= 1e-13 * max(1.0, frobenius(want))

    def test_membership_per_matrix(self):
        algebra = BlockAlgebra((2, 3))
        rng = _rng(41)
        stack = np.zeros((6, 5, 5), dtype=complex)
        for s in algebra.slices:
            n = s.stop - s.start
            stack[:, s, s] = rng.standard_normal((6, n, n))
        stack[2, 0, 4] = 1e-3
        stack[3, 0, 4] = 1e-12
        stack[4, 1, 1] = np.nan
        stack[5, 0, 0] = np.inf
        assert algebra.contains(stack).tolist() == [algebra.contains(m) for m in stack]
        assert algebra.contains(stack).tolist() == [True, True, False, True, False, False]

    def test_frobenius_reads_each_matrix_in_memory_order(self):
        stack = self._mixed_stack()
        transposed = stack.swapaxes(-1, -2)
        for k, a in enumerate(transposed):
            assert frobenius(transposed)[k] == frobenius(a)

    def test_excess_per_matrix(self):
        tol = ToleranceProfile(residual_tol=1e-8)
        a = np.stack([I2, I2, I2])
        b = np.stack([I2 + 1e-9, I2 + 1e-7, NAN])
        gaps = excess(a, b, tol, np.array([0.0, 0.0, 1.0]))
        assert gaps[0] == 0.0
        assert gaps[1] == frobenius(a[1] - b[1])
        assert np.isnan(gaps[2])

    def test_guard_names_the_trial(self):
        cutoff = DEFAULT_TOL.rank_rel_tol
        stack = np.stack([np.diag([1.0, 0.5]), np.diag([1.0, 2 * cutoff]), np.diag([1.0, 0.0])])
        with pytest.raises(NotPartiallyInvertible, match="at trial 1$"):
            partial_inverse(stack)
        assert np.array_equal(retained_rank(svd(stack)[1]), [2, 2, 1])

    def test_domain_checks_name_the_trial(self):
        herm = np.stack([I2, I2, I2 + E12])
        with pytest.raises(NotHermitian, match="at trial 2$"):
            check_hermitian(herm)
        with pytest.raises(NotPositive, match="at trial 1$"):
            positive_spectrum(np.stack([I2, -I2]))
        cutoff = DEFAULT_TOL.rank_rel_tol
        near = np.diag([1.0, 2 * cutoff])
        spectrum = positive_spectrum(np.stack([np.diag([1.0, 0.5]), near]))
        assert np.array_equal(spectrum.power(0.5)[1], restricted_power(near, 0.5))
        with pytest.raises(NotPartiallyInvertible, match="at trial 1$"):
            spectrum.power(-0.5)
        with pytest.raises(NoConvergence, match="at trial 1$"), np.errstate(invalid="ignore"):
            svd(np.stack([I2, NAN]))

    def test_one_matrix_maps_act_per_matrix(self):
        # T == n == 2: a transpose over the wrong axes would broadcast
        # without an error and mix the matrices.
        rng = _rng(42)
        x = np.stack([_random_matrix(rng, 2) for _ in range(2)])
        x = x - x.conj().mT
        g = exp_antihermitian(x)
        for k in range(2):
            assert np.array_equal(g[k], exp_antihermitian(x[k]))
            assert np.allclose(g[k], scipy.linalg.expm(x[k]), atol=1e-12)
        p = np.stack([I2, E12, np.diag([1.0, 0.0]).astype(complex)])
        assert is_projection(p).tolist() == [is_projection(m) for m in p] == [True, False, True]
        with pytest.raises(NotPositive, match="at trial 1$"):
            require_projection(p)
        u = np.stack([E12, 2 * E12, I2])
        assert (is_partial_isometry(u).tolist() == [is_partial_isometry(m) for m in u]
                == [True, False, True])
        for expectation in (standard.expectation_E, standard.expectation_Eprime):
            density = expectation(M2, x).density
            for k in range(2):
                assert np.array_equal(density[k], expectation(M2, x[k]).density)

    def test_inner_products_per_matrix(self):
        # Summed over a whole stack, hs_inner(x, i x) would be 42j and the
        # symplectic form one float, 84.0.
        x = np.stack([k * np.eye(3, dtype=complex) for k in (1, 2, 3)])
        assert hs_inner(x, 1j * x).tolist() == [3j, 12j, 27j]
        assert standard.symplectic_omega(x, 1j * x).tolist() == [6.0, 24.0, 54.0]
        one = hs_inner(x[1], 1j * x[1])
        assert type(one) is complex and one == 12j
        omega = standard.symplectic_omega(x[1], 1j * x[1])
        assert type(omega) is float and omega == 24.0

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_inner_products_are_the_bits_of_vdot(self, n):
        rng = _rng(43)
        x = np.stack([_random_matrix(rng, n) for _ in range(4)])
        y = np.stack([_random_matrix(rng, n) for _ in range(4)]).mT  # not contiguous
        inner, omega = hs_inner(x, y), standard.symplectic_omega(x, y)
        for k in range(4):
            vdot = np.vdot(x[k], y[k])
            assert inner[k] == hs_inner(x[k], y[k]) == vdot
            assert omega[k] == standard.symplectic_omega(x[k], y[k]) == 2.0 * vdot.imag


class TestFactorOnce:
    """Within one ``factor_once`` scope a matrix object is factored once,
    whichever kernel reads it; outside a scope nothing is kept."""

    @pytest.fixture
    def svds(self, monkeypatch):
        calls = []
        real = linalg._gesdd
        monkeypatch.setattr(linalg, "_gesdd", lambda a, uv: calls.append(uv) or real(a, uv))
        return calls

    def test_one_svd_per_object_in_a_scope(self, svds):
        a = _random_matrix(_rng(50), 4)
        fresh = (supports(a, DEFAULT_TOL), polar_decompose(a, DEFAULT_TOL),
                 partial_inverse(a, DEFAULT_TOL))
        assert len(svds) == 3
        svds.clear()
        with linalg.factor_once():
            kept = (supports(a, DEFAULT_TOL), polar_decompose(a, DEFAULT_TOL),
                    partial_inverse(a, DEFAULT_TOL))
            assert polar_decompose(a, DEFAULT_TOL) is kept[1]
            # Equal bytes in another object are another input.
            supports(a.copy(), DEFAULT_TOL)
        assert len(svds) == 2
        # The kept results are the bits of fresh ones.
        flat = lambda r: [r] if isinstance(r, np.ndarray) else list(r)  # noqa: E731
        for got, want in zip(kept, fresh):
            assert all(np.array_equal(g, w) for g, w in zip(flat(got), flat(want)))

    def test_scopes_nest_and_end(self, svds):
        a = _random_matrix(_rng(51), 3)
        with linalg.factor_once():
            supports(a, DEFAULT_TOL)
            with linalg.factor_once():
                partial_inverse(a, DEFAULT_TOL)
            polar_decompose(a, DEFAULT_TOL)
        assert len(svds) == 1
        supports(a, DEFAULT_TOL)
        assert len(svds) == 2

    def test_a_keyword_call_computes_afresh_from_the_kept_svd(self, svds):
        a = _random_matrix(_rng(52), 3)
        with linalg.factor_once():
            first = polar_decompose(a, tol=DEFAULT_TOL)
            assert polar_decompose(a, tol=DEFAULT_TOL) is not first
        assert len(svds) == 1

    def test_a_refusal_keeps_nothing(self, svds):
        # A retained value in the guard band: the partial inverse refuses on
        # every call, and the one SVD is kept.
        a = np.diag([1.0, 5e-9, 0.0]).astype(complex)
        with linalg.factor_once():
            for _ in range(2):
                with pytest.raises(NotPartiallyInvertible):
                    partial_inverse(a, DEFAULT_TOL)
        assert len(svds) == 1


def test_gram_defect_reads_the_mask():
    # Orthonormal directions on the mask and zero off it have no defect; a
    # direction the mask counts but that is missing, or scaled, has.
    units = np.zeros((3, 2, 2), dtype=complex)
    units[0, 0, 0], units[2, 0, 1] = 1j, (1.0 + 1j) / np.sqrt(2.0)
    mask = np.array([True, False, True])
    assert linalg.gram_defect(units, mask) <= 1e-15
    assert linalg.gram_defect(units, np.ones(3, dtype=bool)) == 1.0
    assert linalg.gram_defect(2.0 * units, mask) == pytest.approx(3.0)
    stacked = linalg.gram_defect(np.stack([units, units]), np.stack([mask, ~mask]))
    assert stacked[0] <= 1e-15 and stacked[1] == 1.0
    assert linalg.realified_rank(units) == 2
    assert linalg.realified_rank(np.stack([units, 1j * units])).tolist() == [2, 2]

"""Correctness checks made apart from the program.

Each check is one operation.  It either passes, fails because the program
reported a failure (a ``FAIL`` row, a non-zero exit code, an exception), or
fails because an output is wrong (a number that disagrees with an
independent NumPy computation, a pass that contradicts its own residual).
Only the last kind makes a run incorrect.
"""
from __future__ import annotations

import math
import re
import sys

import numpy as np

import inputs


class Tally:
    """Operations attempted and failed in one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def record(self, what: str, problems: list[str], wrong: bool = True) -> bool:
        self.attempted += 1
        if not problems:
            return True
        self.failed += 1
        self.wrong += int(wrong)
        if len(self.notes) < 50:
            self.notes.append(f"{what}: {'; '.join(problems)}")
        return False

    def run(self, what: str, check) -> bool:
        """Run ``check()`` (which returns a list of problems) as one operation;
        an exception counts as a failure the program reported."""
        try:
            problems = check()
        except Exception as exc:  # the boundary that must keep counting
            return self.record(what, [f"raised {type(exc).__name__}: {exc}"], wrong=False)
        return self.record(what, problems)

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    def report(self) -> None:
        for note in self.notes:
            print(f"perfbench: failed operation: {note}", file=sys.stderr)


# ---------------------------------------------------------------------------
# verify-small


def check_suite_rows(tally: Tally, suite: str, rows, expected_rows, trials: int, seed: int) -> None:
    """One operation for the row set of a suite, one per row."""
    names = tuple(r.suite for r in rows)
    expected = tuple(f"{suite}/{row}" for row in expected_rows)
    tally.record(
        f"{suite} rows",
        [] if names == expected else [f"rows {names} differ from {expected}"],
    )
    for row in rows:
        problems = []
        echoed = row.trials == trials and row.seed == seed
        if not echoed:
            problems.append(f"echoes trials={row.trials} seed={row.seed}, asked {trials}, {seed}")
        if not math.isfinite(row.max_residual):
            problems.append(f"non-finite residual {row.max_residual}")
        elif row.max_residual > row.tolerance:
            problems.append(f"residual {row.max_residual:.3e} above tolerance {row.tolerance:.1e}")
        if not row.passed:
            problems.append("reported FAIL")
        # A reported failure is the program's own verdict; a reported pass
        # that contradicts the numbers is a wrong output.
        tally.record(row.suite, problems, wrong=row.passed or not echoed)


# ---------------------------------------------------------------------------
# command output


def _matrix_after(lines: list[str], label: str, dim: int) -> np.ndarray:
    start = lines.index(f"{label}:") + 1
    body = []
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        body.append(line)
    text = re.sub(r"[\[\]]", "", " ".join(body))
    values = [complex(re.sub(r"\s+", "", tok)) for tok in text.split(",")]
    return np.array(values).reshape(dim, dim)


def check_polar_output(text: str, job: dict) -> list[str]:
    """Printed factors against ``(a* a)^{1/2}`` and ``u h = a`` within the
    printed precision (6 decimals), the planted singular values and rank,
    and the printed residuals."""
    a = job["matrix"]
    dim = a.shape[0]
    lines = text.splitlines()
    u = _matrix_after(lines, "u", dim)
    h = _matrix_after(lines, "h", dim)
    w, v = np.linalg.eigh(a.conj().T @ a)
    h_ref = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    digits = 1e-6
    problems = []
    if np.max(np.abs(h - h_ref)) > 2 * digits:
        problems.append(f"h differs from (a*a)^1/2 by {np.max(np.abs(h - h_ref)):.2e}")
    uh_err = np.max(np.abs(u @ h - a))
    if uh_err > dim * digits * (1.0 + np.max(np.abs(h))):
        problems.append(f"u h differs from a by {uh_err:.2e}")
    planted = np.sort(np.concatenate(job["singular_values"]))
    printed = np.sort(np.linalg.eigvalsh((h + h.conj().T) / 2))
    if np.max(np.abs(printed - planted)) > 1e-5:
        problems.append(f"singular values {printed} differ from planted {planted}")
    rank = int(np.sum(np.linalg.svd(u, compute_uv=False) > 0.5))
    if rank != int(np.sum(planted > 0)):
        problems.append(f"isometry rank {rank}, planted {int(np.sum(planted > 0))}")
    residuals = dict(re.findall(r"(\w+)=(\S+)", lines[-1]))
    if set(residuals) != {"reconstruction", "isometry", "support"}:
        problems.append(f"residual line {lines[-1]!r}")
    elif not all(float(x) <= 1e-9 * (1.0 + dim) for x in residuals.values()):
        problems.append(f"residuals {residuals}")
    return problems


def stabilizer_dimension(spectra) -> int:
    """Sum over blocks and positive planted eigenvalues of multiplicity^2."""
    total = 0
    for vals in spectra:
        _, mult = np.unique(vals[vals > 0], return_counts=True)
        total += int(np.sum(mult**2))
    return total


def check_orbit_output(text: str, job: dict) -> list[str]:
    """Printed blockwise spectra, support ranks and stabilizer dimension
    against the planted spectrum."""
    lines = text.splitlines()
    problems = []
    blocks = job["blocks"]
    block_lines = [ln for ln in lines if ln.startswith("block ")]
    if len(block_lines) != len(blocks):
        return [f"{len(block_lines)} block lines for {len(blocks)} blocks"]
    for i, (n, vals, line) in enumerate(zip(blocks, job["spectra"], block_lines)):
        m = re.fullmatch(
            rf"block {i} \({n}x{n}\): spectrum \[(.*)\] support rank (\d+)", line
        )
        if m is None:
            problems.append(f"unparsed line {line!r}")
            continue
        printed = np.array([float(x) for x in m.group(1).split(",") if x.strip()])
        planted = np.sort(vals[vals > 0])[::-1]
        if printed.shape != planted.shape or np.any(np.abs(printed - planted) > 1e-6 * planted):
            problems.append(f"block {i} spectrum {printed} differs from planted {planted}")
        if int(m.group(2)) != planted.size:
            problems.append(f"block {i} support rank {m.group(2)}, planted {planted.size}")
    expected = stabilizer_dimension(job["spectra"])
    if lines[-1] != f"stabilizer dimension: {expected}":
        problems.append(f"{lines[-1]!r}, expected stabilizer dimension {expected}")
    return problems


def check_amplitude_output(text: str, job: dict) -> list[str]:
    """Printed amplitude and probability against the product of
    ``numpy.vdot`` overlaps (12 printed decimals)."""
    vectors = job["vectors"]
    amp = complex(1.0)
    for x, y in zip(vectors, vectors[1:]):
        amp *= complex(np.vdot(x, y))
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    problems = []
    if fields.get("steps") != str(len(vectors) - 1):
        problems.append(f"steps {fields.get('steps')}, expected {len(vectors) - 1}")
    printed_amp = complex(fields["amplitude"])
    if abs(printed_amp - amp) > 2e-12:
        problems.append(f"amplitude {printed_amp} differs from {amp}")
    if abs(float(fields["probability"]) - abs(amp) ** 2) > 2e-12:
        problems.append(f"probability {fields['probability']} differs from {abs(amp) ** 2}")
    return problems


OUTPUT_CHECKS = {
    "polar": check_polar_output,
    "orbit": check_orbit_output,
    "amplitude": check_amplitude_output,
}


# ---------------------------------------------------------------------------
# program functions against independent NumPy computations


def _polar_ref(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, s, vh = np.linalg.svd(g)
    r = int(np.sum(s > 1e-12 * s[0]))
    v = vh.conj().T
    return w[:, :r] @ vh[:r], (v * s) @ vh


def algebra_checks(blocks: tuple[int, ...], seed: int) -> list[tuple[str, object]]:
    """Named checks of the program's kernels on one algebra; each returns a
    list of problems."""
    from wstargeo import algebra, charts, linalg, poisson, standard

    tag = ",".join(map(str, blocks))
    alg = algebra.BlockAlgebra(blocks)
    gen = inputs.rng(seed, 2, *blocks)
    norm = np.linalg.norm
    offsets = np.cumsum((0,) + blocks)

    def unitary():
        return inputs.block_diag([inputs.haar_unitary(gen, n) for n in blocks])

    def element():
        return inputs.block_diag(
            [gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)) for n in blocks]
        )

    def polar():
        a, _ = inputs.planted_matrix(gen, blocks)
        u, h = linalg.polar_decompose(a)
        w, v = np.linalg.eigh(a.conj().T @ a)
        h_ref = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        scale = 1.0 + norm(a)
        problems = []
        if norm(h - h_ref) > 1e-6 * scale:
            problems.append(f"|h - (a*a)^1/2| = {norm(h - h_ref):.2e}")
        if norm(u @ h - a) > 1e-10 * scale:
            problems.append(f"|u h - a| = {norm(u @ h - a):.2e}")
        return problems

    def pinv():
        a, _ = inputs.planted_matrix(gen, blocks)
        ref = np.linalg.pinv(a, rtol=1e-12)
        err = norm(linalg.partial_inverse(a) - ref)
        return [] if err <= 1e-10 * (1.0 + norm(ref)) else [f"|a^+ - pinv(a)| = {err:.2e}"]

    def std_mul():
        # g1 = U1 |g1| with |g1| = u2 |g2| u2*, so (g1, g2) is composable.
        g2, _ = inputs.planted_matrix(gen, blocks)
        u2, h2 = _polar_ref(g2)
        g1 = unitary() @ (u2 @ h2 @ u2.conj().T)
        u1, _ = _polar_ref(g1)
        ref = u1 @ u2 @ h2
        err = norm(standard.std_mul(g1, g2) - ref)
        return [] if err <= 1e-10 * (1.0 + norm(ref)) else [f"|g1 g2 - u1 u2 |g2|| = {err:.2e}"]

    def d_gamma0():
        density, _ = inputs.planted_density(gen, blocks)
        rho0 = algebra.NormalFunctional(alg, density)
        u = unitary()
        worst = 0.0
        for _ in range(16):
            du1, du2 = element(), element()
            t12 = np.einsum("ab,cb,ca->", density, du1.conj(), du2)
            t21 = np.einsum("ab,cb,ca->", density, du2.conj(), du1)
            ref = float((1j * (t12 - t21)).real)
            worst = max(worst, abs(charts.dGamma0(rho0, u, du1, du2) - ref) / (1.0 + abs(ref)))
        return [] if worst <= 1e-12 else [f"dGamma0 differs from the einsum by {worst:.2e}"]

    def fiber_kernel():
        g, _ = inputs.planted_matrix(gen, blocks)
        ranks = [
            int(np.linalg.matrix_rank(g[lo:hi, lo:hi])) for lo, hi in zip(offsets, offsets[1:])
        ]
        expected = sum(r * r + 2 * r * (n - r) for r, n in zip(ranks, blocks))
        got = len(standard.fiber_kernel_E(alg, g))
        return [] if got == expected else [f"fibre kernel dimension {got}, expected {expected}"]

    def stabilizer_and_degeneracy():
        density, spectra = inputs.planted_density(gen, blocks)
        expected = stabilizer_dimension(spectra)
        rho0 = algebra.NormalFunctional(alg, density)
        w, v = np.linalg.eigh(density)
        keep = w > 1e-9 * np.max(w)
        p0 = v[:, keep] @ v[:, keep].conj().T
        u, v_leg = unitary() @ p0, unitary() @ p0
        stab = algebra.stabilizer_lie_algebra(rho0).dimension
        kernel = poisson.degeneracy_kernel_check(rho0, u, v_leg).kernel_dimension
        problems = []
        if stab != expected:
            problems.append(f"stabilizer dimension {stab}, planted sum of mult^2 {expected}")
        if kernel != 2 * expected:
            problems.append(f"degeneracy kernel dimension {kernel}, expected {2 * expected}")
        return problems

    return [
        (f"polar_decompose [{tag}]", polar),
        (f"partial_inverse [{tag}]", pinv),
        (f"std_mul [{tag}]", std_mul),
        (f"dGamma0 [{tag}]", d_gamma0),
        (f"fiber_kernel_E [{tag}]", fiber_kernel),
        (f"stabilizer/degeneracy [{tag}]", stabilizer_and_degeneracy),
    ]

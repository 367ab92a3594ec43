"""Seeded inputs for the benchmark workloads, made apart from the program.

Everything here uses NumPy only; the program sees the results as suite
arguments or as files.  The same seed gives the same inputs.
"""
from __future__ import annotations

import json
import os

import numpy as np

#: Planted eigenvalues and singular values.  Distinct grid points are at
#: least 0.25 apart, far outside any clustering or rank cutoff (1e-9
#: relative), and 0 plants a rank deficiency.
SPECTRUM_GRID = (0.0, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)

#: Block shapes of the file workload.
FILE_SHAPES = ((2, 3), (12,), (4, 4, 4, 4))

#: Files of each kind per shape, and unit vectors per amplitude path.
FILES_PER_KIND = 2
PATH_LENGTH = 8


def rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def program_seed(seed: int) -> int:
    """The suite seed handed to the program, derived from the benchmark seed."""
    return int(rng(seed, 0).integers(0, 2**31 - 1))


def haar_unitary(gen: np.random.Generator, n: int) -> np.ndarray:
    g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def block_diag(mats: list[np.ndarray]) -> np.ndarray:
    dim = sum(m.shape[0] for m in mats)
    out = np.zeros((dim, dim), dtype=complex)
    start = 0
    for m in mats:
        n = m.shape[0]
        out[start : start + n, start : start + n] = m
        start += n
    return out


def planted_values(gen: np.random.Generator, n: int) -> np.ndarray:
    """``n`` grid values with repeats, at least one of them positive."""
    vals = gen.choice(SPECTRUM_GRID, size=n)
    if not np.any(vals > 0):
        vals[0] = SPECTRUM_GRID[-1]
    return vals


def planted_density(gen: np.random.Generator, blocks) -> tuple[np.ndarray, list[np.ndarray]]:
    """Positive block-diagonal density ``V diag(vals) V*`` and its per-block
    planted spectra."""
    spectra = [planted_values(gen, n) for n in blocks]
    mats = []
    for n, vals in zip(blocks, spectra):
        v = haar_unitary(gen, n)
        mats.append((v * vals) @ v.conj().T)
    return block_diag(mats), spectra


def planted_matrix(gen: np.random.Generator, blocks) -> tuple[np.ndarray, list[np.ndarray]]:
    """Block-diagonal ``W diag(s) V*`` and its per-block planted singular values."""
    svals = [planted_values(gen, n) for n in blocks]
    mats = []
    for n, s in zip(blocks, svals):
        w, v = haar_unitary(gen, n), haar_unitary(gen, n)
        mats.append((w * s) @ v.conj().T)
    return block_diag(mats), svals


def unit_path(gen: np.random.Generator, dim: int, length: int) -> list[np.ndarray]:
    out = []
    for _ in range(length):
        v = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
        out.append(v / np.linalg.norm(v))
    return out


def _matrix_entry(m: np.ndarray) -> dict:
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": [float(x) for x in m.real.ravel()],
        "im": [float(x) for x in m.imag.ravel()],
    }


def write_algebra_file(path: str, blocks, name: str, m: np.ndarray) -> None:
    data = {"blocks": list(blocks), "matrices": {name: _matrix_entry(m)}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def write_vector_file(path: str, vectors: list[np.ndarray]) -> None:
    data = {
        "vectors": [
            {"re": [float(x) for x in v.real], "im": [float(x) for x in v.imag]}
            for v in vectors
        ]
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def make_cli_batch(seed: int, workdir: str) -> list[dict]:
    """Write the file workload's inputs under ``workdir``.

    Returns one job per command: its kind, argv and the planted data the
    printed output is checked against.  JSON writes floats exactly, so the
    program reads the same matrices and vectors that are planted here.
    """
    jobs = []
    for shape_index, blocks in enumerate(FILE_SHAPES):
        dim = sum(blocks)
        tag = "-".join(str(b) for b in blocks)
        for k in range(FILES_PER_KIND):
            gen = rng(seed, 1, shape_index, k)
            density, spectra = planted_density(gen, blocks)
            path = os.path.join(workdir, f"orbit-{tag}-{k}.json")
            write_algebra_file(path, blocks, "rho", density)
            jobs.append({
                "kind": "orbit",
                "argv": ["orbit", path, "--algebra", ",".join(map(str, blocks))],
                "blocks": blocks,
                "spectra": spectra,
            })

            a, svals = planted_matrix(gen, blocks)
            path = os.path.join(workdir, f"polar-{tag}-{k}.json")
            write_algebra_file(path, blocks, "a", a)
            jobs.append({
                "kind": "polar",
                "argv": ["polar", path],
                "matrix": a,
                "singular_values": svals,
            })

            vectors = unit_path(gen, dim, PATH_LENGTH)
            path = os.path.join(workdir, f"amplitude-{tag}-{k}.json")
            write_vector_file(path, vectors)
            jobs.append({
                "kind": "amplitude",
                "argv": ["amplitude", path],
                "vectors": vectors,
            })
    return jobs


"""The row × shape plan: every suite row on seven algebras, at seed 1.

``python tests/plan.py --write`` runs the whole plan (43 rows on 7 shapes,
301 results) and writes ``tests/golden/plan.json``: per shape and row the
status, ``repr(max_residual)`` and a digest of the states in which the row
left its slot generators (one per draw of the row's stream, for all its
trials), with the plan itself and the NumPy and BLAS build that produced
it.  ``python tests/plan.py`` runs it again and
prints every result that differs from the file, then one line with how
many differ in status, in generator digest and in residual alone.
``tests/test_plan.py`` compares the small shapes in the test run.

A change that moves a residual rewrites the file in the same commit, so its
diff lists every moved value.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import platform
import sys

import numpy as np

from wstargeo import SUITE_NAMES, BlockAlgebra, run_suite, sampling

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "plan.json"
SEED = 1
#: Shape -> trials.  ``2,3`` at 100 trials is the benchmark's round; the
#: larger shapes run 10 trials, the small ones 10 or 30.
PLAN = {
    "2,3": 100,
    "12": 10,
    "4,4,4,4": 10,
    "1": 10,
    "1,1,1": 10,
    "1,2,2": 30,
    "2": 30,
}


def build() -> dict:
    """The NumPy version and the BLAS build, as ``numpy.show_config`` reports
    it, and the machine: residuals are compared bit for bit only on the
    build that recorded them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
    }


def state_digest(generators: list) -> str:
    """SHA-256 of the ``(key, bit_generator.state)`` of each generator, in
    the order they were made: a row that takes other slots, or draws more,
    less or in another order from any slot's generator, changes it."""
    text = json.dumps([[key, g.bit_generator.state] for key, g in generators], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_suite_recorded(name: str, algebra: BlockAlgebra, trials: int) -> dict:
    """``{suite/row: [status, repr(max_residual), state digest]}`` for every
    row of one suite.  Every slot generator comes from ``sampling.rng_for``,
    keyed ``(seed, subindex, *path)`` (a ``sampling.Stream`` looks it up at
    each slot), so a wrapper there sees them all; each is filed under the
    row of its subindex, and digested after the suite has run."""
    made, original = [], sampling.rng_for

    def recording(*key):
        generator = original(*key)
        made.append((list(key), generator))
        return generator

    sampling.rng_for = recording
    try:
        rows = run_suite(name, algebra, trials, SEED)
    finally:
        sampling.rng_for = original
    return {
        r.suite: [r.status, repr(r.max_residual),
                  state_digest([(key, g) for key, g in made if key[1] == subindex])]
        for subindex, r in enumerate(rows)
    }


def run_shape(shape: str, trials: int) -> dict:
    """``{suite/row: [status, repr(max_residual), state digest]}`` for every
    row on one shape."""
    algebra = BlockAlgebra.from_string(shape)
    return {
        row: result
        for name in SUITE_NAMES
        for row, result in run_suite_recorded(name, algebra, trials).items()
    }


def run_plan(shapes=PLAN) -> dict:
    return {shape: run_shape(shape, PLAN[shape]) for shape in shapes}


def differences(recorded: dict, fresh: dict, bits: bool) -> list[str]:
    """Each result of ``fresh`` whose status (and, with ``bits``, whose
    residual or generator states) differs from ``recorded``."""
    out = []
    for shape, rows in fresh.items():
        for row, result in rows.items():
            old = recorded["results"][shape].get(row)
            if old is None or old[0] != result[0] or (bits and old != result):
                out.append(f"{shape} {row}: {old} -> {result}")
    return out


def summary(recorded: dict, fresh: dict) -> str:
    """One line: how many results of ``fresh`` differ from ``recorded`` in
    status, in generator digest, and in residual alone."""
    status = digest = residual = 0
    for shape, rows in fresh.items():
        for row, result in rows.items():
            old = recorded["results"][shape].get(row) or [None] * 3
            status += old[0] != result[0]
            digest += old[2] != result[2]
            residual += old[0] == result[0] and old[2] == result[2] and old[1] != result[1]
    return f"differ: {status} in status, {digest} in generator digest, {residual} in residual only"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="write the golden file")
    args = parser.parse_args(argv)
    fresh = run_plan()
    if args.write:
        GOLDEN.parent.mkdir(exist_ok=True)
        golden = {"seed": SEED, "plan": PLAN, "build": build(), "results": fresh}
        GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {sum(map(len, fresh.values()))} results to {GOLDEN}")
        return 0
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    bits = recorded["build"] == build()
    diff = differences(recorded, fresh, bits)
    if not diff:
        print(f"no differences ({'bits' if bits else 'status only'})")
        return 0
    print("\n".join(diff + [summary(recorded, fresh)]))
    return 1


if __name__ == "__main__":
    sys.exit(main())

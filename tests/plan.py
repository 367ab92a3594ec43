"""The row × shape plan: every suite row on seven algebras, at seed 1.

``python tests/plan.py --write`` runs the whole plan (43 rows on 7 shapes,
301 results) and writes ``tests/golden/plan.json``: per shape and row the
status, ``repr(max_residual)``, a digest of the states in which the row
left its slot generators (one per draw of the row's stream, for all its
trials) and the calls its group made by kind (:data:`KINDS`), with the
plan itself and the NumPy and BLAS build that produced it.  ``python
tests/plan.py`` runs it again and prints every result that differs from
the file, then one line with how many differ in status, in generator
digest, in calls and in residual alone.  ``tests/test_plan.py`` compares
the small shapes and the benchmark's in the test run.

A change that moves a residual or a count rewrites the file in the same
commit, so its diff lists every moved value.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import platform
import sys
from unittest import mock

import numpy as np

# The checkout's package, installed or not, as the demos run it.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
from wstargeo import SUITE_NAMES, BlockAlgebra, NormalFunctional, linalg, run_suite, sampling, suites  # noqa: E402

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
#: The calls of a group that the plan counts: ``linalg._gesdd`` without
#: and with singular vectors, ``linalg._heevd`` without and with
#: eigenvectors, the samplers' Haar QRs, the slot generators and the
#: functionals built.
KINDS = ("gesdd", "gesdd-vectors", "heevd", "heevd-vectors", "qr", "slots", "functionals")


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
    """``{suite/row: [status, repr(max_residual), state digest, calls]}`` for
    every row of one suite.  Every slot generator comes from
    ``sampling.rng_for`` (a ``sampling.Stream`` looks it up at each slot),
    every LAPACK factorization from ``linalg._gesdd`` or ``linalg._heevd``,
    every Haar QR of a sampler from ``sampling.phase_fixed_q`` and every
    functional passes ``NormalFunctional.__post_init__``, so wrappers there
    see them all.  Each is filed under the rows of the group whose ``run``
    made it; the generators are digested after the suite has run, and
    ``calls`` holds the number of each kind of :data:`KINDS` that the group
    made at least once."""
    made, calls, running = [], [], [None]

    def counted(owner, attr: str, kind):
        real = getattr(owner, attr)

        def count(*args):
            calls.append((running[0], kind(*args)))
            return real(*args)

        return mock.patch.object(owner, attr, count)

    def recording(*key):
        generator = rng_for(*key)
        made.append((running[0], list(key), generator))
        calls.append((running[0], "slots"))
        return generator

    def run(group, *args):
        running[0] = group.key
        return group_run(group, *args)

    rng_for, group_run = sampling.rng_for, suites._Group.run
    with (
        counted(linalg, "_gesdd", lambda a, uv: "gesdd-vectors" if uv else "gesdd"),
        counted(linalg, "_heevd", lambda h, v: "heevd-vectors" if v else "heevd"),
        counted(sampling, "phase_fixed_q", lambda g: "qr"),
        counted(NormalFunctional, "__post_init__", lambda phi: "functionals"),
        mock.patch.object(sampling, "rng_for", recording),
        mock.patch.object(suites._Group, "run", run),
    ):
        rows = run_suite(name, algebra, trials, SEED)
    group_key = {f"{name}/{row}": group.key
                 for group in suites._suite(name) for row, _, _ in group.rows}

    def filed(key: int) -> list:
        kinds = [kind for group, kind in calls if group == key]
        digest = state_digest([(k, g) for group, k, g in made if group == key])
        return [digest, {kind: kinds.count(kind) for kind in KINDS if kind in kinds}]

    return {r.suite: [r.status, repr(r.max_residual), *filed(group_key[r.suite])] for r in rows}


def run_shape(shape: str, trials: int) -> dict:
    """``{suite/row: [status, repr(max_residual), state digest, calls]}``
    for every row on one shape."""
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
    residual, generator states or calls) differs from ``recorded``."""
    out = []
    for shape, rows in fresh.items():
        for row, result in rows.items():
            old = recorded["results"][shape].get(row)
            if old is None or old[0] != result[0] or (bits and old != result):
                out.append(f"{shape} {row}: {old} -> {result}")
    return out


def summary(recorded: dict, fresh: dict) -> str:
    """One line: how many results of ``fresh`` differ from ``recorded`` in
    status, in generator digest, in calls, and in residual alone."""
    status = digest = calls = residual = 0
    for shape, rows in fresh.items():
        for row, result in rows.items():
            old = recorded["results"][shape].get(row) or [None] * 4
            status += old[0] != result[0]
            digest += old[2] != result[2]
            calls += old[3] != result[3]
            residual += old[1] != result[1] and [old[0], *old[2:]] == [result[0], *result[2:]]
    return (f"differ: {status} in status, {digest} in generator digest, {calls} in calls, "
            f"{residual} in residual only")


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

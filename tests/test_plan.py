"""The small shapes of the row × shape plan reproduce the golden file.

Status must always match.  Residuals must match bit for bit, and each row
must leave its slot generators in the recorded states, when this NumPy
and BLAS build is the one that wrote the file; on another build only the
status is compared.  ``python tests/plan.py`` checks the whole plan.
"""
import json
import warnings

import pytest

import plan

SMALL = ("1", "1,1,1", "2", "1,2,2")


@pytest.fixture(scope="module")
def recorded():
    return json.loads(plan.GOLDEN.read_text(encoding="utf-8"))


def test_the_file_holds_the_plan(recorded):
    assert recorded["seed"] == plan.SEED
    assert recorded["plan"] == plan.PLAN
    assert sum(len(rows) for rows in recorded["results"].values()) == 301
    # status, repr(max_residual) and the SHA-256 of the generator states
    assert all(
        len(result) == 3 and len(result[2]) == 64
        for rows in recorded["results"].values() for result in rows.values()
    )


@pytest.mark.parametrize("shape", SMALL)
def test_small_shape_matches_the_golden_file(recorded, shape):
    bits = recorded["build"] == plan.build()
    fresh = plan.run_plan([shape])
    assert set(fresh[shape]) == set(recorded["results"][shape])
    assert plan.differences(recorded, fresh, bits) == []
    if not bits:
        warnings.warn("another NumPy/BLAS build: status checked, residual bits not")


def test_summary_counts_each_kind_of_difference(recorded):
    shape = recorded["results"]["1"]
    rows = sorted(shape)
    fresh = {"1": {row: list(result) for row, result in shape.items()}}
    fresh["1"][rows[0]][0] = "FAIL"
    fresh["1"][rows[1]][2] = "0" * 64
    fresh["1"][rows[2]][1] = "1.0"
    fresh["1"][rows[3]][1:] = ["1.0", "0" * 64]
    assert plan.summary(recorded, fresh) == (
        "differ: 1 in status, 2 in generator digest, 1 in residual only"
    )

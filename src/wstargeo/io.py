"""File formats for the command line: algebra descriptions, vector chains,
and CSV verification reports.

An algebra file is JSON::

    {
      "blocks": [2, 3],
      "matrices": {
        "d": {"rows": 5, "cols": 5, "re": [...], "im": [...]}
      }
    }

``re`` and ``im`` list the entries of the matrix in flat row-major order
(``im`` may be omitted for a real matrix).  A vector file is JSON with a
top-level ``"vectors"`` list of ``{"re": [...], "im": [...]}`` entries.
"""
from __future__ import annotations

import json
import math
from typing import TextIO

import numpy as np

from .algebra import BlockAlgebra
from .errors import ParseError
from .suites import SuiteResult

__all__ = [
    "load_algebra_spec",
    "load_vectors",
    "format_report_rows",
    "write_report_csv",
    "REPORT_HEADER",
]

REPORT_HEADER = "suite,trials,seed,max_residual,tolerance,status,wall_time_s"


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: file not found") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc


def _entries(where: str, entry: dict, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """The complex array ``re + i im`` of a file entry, of ``shape`` (by
    default as long as ``re``), read from the lists ``re`` and ``im`` in flat
    row-major order; ``im`` may be omitted for a real entry."""
    re_part = entry.get("re")
    if not isinstance(re_part, list):
        raise ParseError(f"{where} needs a list 're'")
    shape = shape or (len(re_part),)
    count = math.prod(shape)
    im_part = entry.get("im", [0.0] * count)
    if not isinstance(im_part, list):
        raise ParseError(f"{where} needs a list 'im'")
    if len(re_part) != count or len(im_part) != count:
        raise ParseError(
            f"{where} needs {count} entries in 're' and 'im' (row-major), "
            f"got {len(re_part)} and {len(im_part)}"
        )
    try:
        out = (np.array(re_part, dtype=float) + 1j * np.array(im_part, dtype=float)).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where} has non-numeric entries") from exc
    if not np.isfinite(out).all():
        raise ParseError(f"{where} has non-finite entries")
    return out


def _as_matrix(path: str, name: str, entry) -> np.ndarray:
    if not isinstance(entry, dict):
        raise ParseError(f"{path}: matrix {name!r} must be an object")
    try:
        rows, cols = int(entry["rows"]), int(entry["cols"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(
            f"{path}: matrix {name!r} needs integer 'rows' and 'cols'"
        ) from exc
    return _entries(f"{path}: matrix {name!r}", entry, (rows, cols))


def load_algebra_spec(path: str) -> tuple[BlockAlgebra, dict[str, np.ndarray]]:
    """Read an algebra file: the block sizes and its named matrices."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    blocks = data.get("blocks")
    if (
        not isinstance(blocks, list)
        or not blocks
        or not all(isinstance(b, int) and b >= 1 for b in blocks)
    ):
        raise ParseError(f"{path}: 'blocks' must be a non-empty list of positive integers")
    algebra = BlockAlgebra(tuple(blocks))
    matrices: dict[str, np.ndarray] = {}
    raw = data.get("matrices", {})
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: 'matrices' must be an object")
    for name, entry in raw.items():
        mat = _as_matrix(path, name, entry)
        if mat.shape != (algebra.dim, algebra.dim):
            raise ParseError(
                f"{path}: matrix {name!r} is {mat.shape[0]}x{mat.shape[1]}, "
                f"but the algebra acts on dimension {algebra.dim}"
            )
        matrices[name] = mat
    return algebra, matrices


def load_vectors(path: str) -> list[np.ndarray]:
    """Read a vector-chain file: a list of complex vectors."""
    data = _load_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("vectors"), list):
        raise ParseError(f"{path}: top level must be an object with a 'vectors' list")
    out = []
    for i, entry in enumerate(data["vectors"]):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: vector {i} must be an object with 're'")
        out.append(_entries(f"{path}: vector {i}", entry))
    return out


def _format_row(row: SuiteResult) -> str:
    return (
        f"{row.suite},{row.trials},{row.seed},{row.max_residual:.6e},"
        f"{row.tolerance:.6e},{row.status},{row.wall_time:.3g}"
    )


def format_report_rows(rows: list[SuiteResult]) -> list[str]:
    """CSV lines (header included) for a list of suite results."""
    return [REPORT_HEADER] + [_format_row(r) for r in rows]


def write_report_csv(rows: list[SuiteResult], fh: TextIO) -> None:
    for line in format_report_rows(rows):
        fh.write(line + "\n")

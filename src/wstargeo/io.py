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
top-level ``"vectors"`` list of ``{"re": [...], "im": [...]}`` entries, all
of one length.

Every file is read as bytes and decoded as strict UTF-8 before it is parsed,
so a file that is not UTF-8, or that opens with a byte-order mark, is a
:class:`~wstargeo.errors.ParseError`.  The entries of a file are converted to
one complex array in one call, and a refusal names the first bad matrix or
vector.
"""
from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable, TextIO

import numpy as np

from .algebra import BlockAlgebra
from .errors import ParseError

if TYPE_CHECKING:
    from .suites import SuiteResult

__all__ = [
    "load_algebra_spec",
    "load_vectors",
    "format_report_rows",
    "write_report_csv",
    "REPORT_HEADER",
]

REPORT_HEADER = "suite,trials,seed,max_residual,tolerance,status,wall_time_s"


def _load_json(path: str):
    """The JSON value in the file at ``path``."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: file not found") from exc
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from exc
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text: byte 0x{raw[exc.start]:02x} at offset {exc.start}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc


def _parts(where: str, entry: dict, count: int | None = None) -> tuple[list, list]:
    """The lists ``re`` and ``im`` of a file entry, ``count`` entries each
    (by default as many as ``re`` has); ``im`` may be omitted for a real
    entry."""
    re_part = entry.get("re")
    if not isinstance(re_part, list):
        raise ParseError(f"{where} needs a list 're'")
    count = len(re_part) if count is None else count
    im_part = entry.get("im", [0.0] * len(re_part))
    if not isinstance(im_part, list):
        raise ParseError(f"{where} needs a list 'im'")
    if len(re_part) != count or len(im_part) != count:
        raise ParseError(
            f"{where} needs {count} entries in 're' and 'im' (row-major), "
            f"got {len(re_part)} and {len(im_part)}"
        )
    return re_part, im_part


def _complex(parts: list[tuple[list, list]], where: Callable[[int], str]) -> np.ndarray:
    """The ``(k, n)`` array ``re + i im`` of ``k`` pairs of ``n``-entry lists
    from :func:`_parts`, converted in one call.  It is refused unless every
    entry is a finite number, naming the first bad pair ``i`` as
    ``where(i)``; an integer beyond the float range is not a number here."""
    if not parts:
        return np.empty((0, 0), dtype=complex)
    shape = (len(parts), 2, len(parts[0][0]))
    try:
        pairs = np.array(parts, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pairs = None
    if pairs is None or pairs.shape != shape:
        # Not one numeric array: some pair does not convert on its own.
        for i, pair in enumerate(parts):
            try:
                numeric = np.array(pair, dtype=float).shape == shape[1:]
            except (TypeError, ValueError, OverflowError):
                numeric = False
            if not numeric:
                raise ParseError(f"{where(i)} has non-numeric entries")
    out = pairs[:, 0] + 1j * pairs[:, 1]
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise ParseError(f"{where(int(finite.argmin()))} has non-finite entries")
    return out


def _is_size(value) -> bool:
    """Whether a JSON value is an integer of at least 1: not a float, a
    string or a boolean (a ``bool`` is an ``int``)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _as_matrix(path: str, name: str, entry) -> np.ndarray:
    if not isinstance(entry, dict):
        raise ParseError(f"{path}: matrix {name!r} must be an object")
    rows, cols = entry.get("rows"), entry.get("cols")
    if not (_is_size(rows) and _is_size(cols)):
        raise ParseError(f"{path}: matrix {name!r} needs integer 'rows' and 'cols'")
    where = f"{path}: matrix {name!r}"
    parts = _parts(where, entry, rows * cols)
    return _complex([parts], lambda _: where).reshape(rows, cols)


def load_algebra_spec(path: str) -> tuple[BlockAlgebra, dict[str, np.ndarray]]:
    """Read an algebra file: the block sizes and its named matrices."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    blocks = data.get("blocks")
    if not isinstance(blocks, list) or not blocks or not all(map(_is_size, blocks)):
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


def load_vectors(path: str) -> np.ndarray:
    """Read a vector-chain file: its ``k`` complex vectors of length ``n``
    as one ``(k, n)`` array.  A vector whose length differs from the first
    one's is refused."""
    data = _load_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("vectors"), list):
        raise ParseError(f"{path}: top level must be an object with a 'vectors' list")

    def where(i: int) -> str:
        return f"{path}: vector {i}"

    parts = []
    for i, entry in enumerate(data["vectors"]):
        if not isinstance(entry, dict):
            raise ParseError(f"{where(i)} must be an object with 're'")
        re_part, im_part = _parts(where(i), entry)
        if parts and len(re_part) != len(parts[0][0]):
            raise ParseError(
                f"{where(i)} has {len(re_part)} entries, but vector 0 has "
                f"{len(parts[0][0])}: the vectors of a file need one length"
            )
        parts.append((re_part, im_part))
    return _complex(parts, where)


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

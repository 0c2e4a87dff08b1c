"""Matrix and projector files.

A matrix file is a JSON document::

    {
      "dim": 2,
      "matrix": [
        [[0.5, 0.0], [0.0, -0.5]],
        [[0.0, 0.5], [0.5, 0.0]]
      ]
    }

``matrix`` holds ``dim`` rows of ``dim`` entries, each entry a
``[real, imag]`` pair of numbers (not booleans).  A projector file
carries ``dim`` plus a ``projectors`` list of matrices in the same row
encoding.

Files are read as strict UTF-8 JSON by ``orjson``, whose floats are
bit-identical to the standard library's.  A byte that is not UTF-8,
a ``NaN`` or ``Infinity`` literal, and a number outside double range
(such as ``1e999``) are file errors, as is a ``dim`` that is not a
positive integer (``true`` is not one).  Files are written with the
standard ``json`` module.  Writing refuses what the loaders would
reject (a non-finite entry, a matrix that is not square, an empty
family, matrices of different dimensions) with a file error, and
writes nothing; a path that cannot be written is a file error too.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import orjson

from .errors import FileFormatError

__all__ = ["load_matrix", "save_matrix", "load_projectors", "save_projectors"]


def _matrix_to_rows(m: np.ndarray) -> list[list[list[float]]]:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _square(matrix, path: str | Path, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise FileFormatError(
            f"cannot write {what} file {path}: expected a non-empty square matrix, got shape {m.shape}"
        )
    return m


def _rows_to_matrix(rows, dim: int, what: str, may_hold_bools: bool) -> np.ndarray:
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{what}: entries must be [real, imag] pairs of numbers ({exc})") from exc
    if m.shape != (dim, dim):
        raise FileFormatError(f"{what}: expected shape ({dim}, {dim}), got {m.shape}")
    if may_hold_bools and any(type(x) is bool for row in rows for entry in row for x in entry):
        raise FileFormatError(f"{what}: entries must be numbers, not booleans")
    return m


def _load_json(path: str | Path, what: str) -> tuple[dict, bool]:
    """The document, and whether it may hold a boolean, which complex() would take as 0 or 1:
    ``true`` has a ``u`` byte and ``false`` an ``l``, a search far cheaper than a type scan."""
    try:
        raw = Path(path).read_bytes()
        doc = orjson.loads(raw)
    except OSError as exc:
        raise FileFormatError(f"cannot read {what} file {path}: {exc}") from exc
    except orjson.JSONDecodeError as exc:
        raise FileFormatError(f"{what} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{what} file {path}: top level must be an object")
    return doc, b"u" in raw or b"l" in raw


def _get_dim(doc: dict, path: str | Path, what: str) -> int:
    dim = doc.get("dim")
    if type(dim) is not int or dim < 1:
        raise FileFormatError(f"{what} file {path}: 'dim' must be a positive integer")
    return dim


def _write_json(path: str | Path, doc: dict, what: str) -> None:
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise FileFormatError(f"cannot write {what} file {path}: entries must be finite ({exc})") from exc
    try:
        Path(path).write_text(text + "\n")
    except OSError as exc:
        raise FileFormatError(f"cannot write {what} file {path}: {exc}") from exc


def load_matrix(path: str | Path) -> np.ndarray:
    """Read a complex square matrix from a matrix file."""
    doc, may_hold_bools = _load_json(path, "matrix")
    dim = _get_dim(doc, path, "matrix")
    rows = doc.get("matrix")
    if not isinstance(rows, list):
        raise FileFormatError(f"matrix file {path}: missing 'matrix' rows")
    return _rows_to_matrix(rows, dim, f"matrix file {path}", may_hold_bools)


def save_matrix(path: str | Path, matrix: np.ndarray) -> None:
    """Write a complex square matrix as a matrix file."""
    m = _square(matrix, path, "matrix")
    _write_json(path, {"dim": m.shape[0], "matrix": _matrix_to_rows(m)}, "matrix")


def load_projectors(path: str | Path) -> list[np.ndarray]:
    """Read a list of same-dimension complex matrices from a projector file."""
    doc, may_hold_bools = _load_json(path, "projector")
    dim = _get_dim(doc, path, "projector")
    entries = doc.get("projectors")
    if not isinstance(entries, list) or not entries:
        raise FileFormatError(f"projector file {path}: missing non-empty 'projectors' list")
    return [
        _rows_to_matrix(rows, dim, f"projector file {path} (entry {k})", may_hold_bools)
        for k, rows in enumerate(entries)
    ]


def save_projectors(path: str | Path, projectors) -> None:
    """Write a non-empty list of same-dimension square matrices as a projector file."""
    mats = [_square(p, path, "projector") for p in projectors]
    if len({m.shape for m in mats}) != 1:
        raise FileFormatError(
            f"cannot write projector file {path}: expected one or more matrices of one dimension,"
            f" got shapes {[m.shape for m in mats]}"
        )
    _write_json(path, {"dim": mats[0].shape[0], "projectors": [_matrix_to_rows(m) for m in mats]}, "projector")

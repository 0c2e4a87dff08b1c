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

A file's numbers go from orjson's lists to a ``complex128`` array in one
flat pass: the row count and row lengths are checked, then that every
entry is a pair (one set of lengths), and one ``np.fromiter`` over the
chained entries, read as complex, converts them all.  ``fromiter`` would
also take a boolean, ``null`` or a numeric string as a number, which
``complex()`` refuses, so a byte guard (:func:`_guarded`) flags a file
that may hold one, and only a flagged file has every number's type
scanned before the conversion.  The cyclic garbage collector is paused
for the whole decode of a file, which allocates thousands of lists
that hold no cycles, and the caller's collector state is restored
afterwards, on error too.
"""

from __future__ import annotations

import functools
import gc
import json
from itertools import chain
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


def _rows_to_matrix(rows, dim: int, what: str, guarded: bool) -> np.ndarray:
    """The ``dim x dim`` matrix of ``rows`` of ``[real, imag]`` pairs, converted in one flat pass.

    In a ``guarded`` file every number's type is scanned before the
    conversion; elsewhere the pair check and ``np.fromiter`` alone see
    every entry.
    """
    try:
        if len(rows) != dim or set(map(len, rows)) != {dim}:
            raise FileFormatError(f"{what}: expected {dim} rows of {dim} entries")
        entries = list(chain.from_iterable(rows))
        if set(map(len, entries)) != {2}:
            raise FileFormatError(f"{what}: entries must be [real, imag] pairs of numbers")
    except TypeError as exc:  # a row or an entry that is a number
        raise FileFormatError(f"{what}: entries must be [real, imag] pairs of numbers ({exc})") from exc
    if guarded:
        kinds = set(map(type, chain.from_iterable(entries)))
        if not kinds <= {float, int}:
            detail = "numbers, not booleans" if kinds <= {float, int, bool} else "[real, imag] pairs of numbers"
            raise FileFormatError(f"{what}: entries must be {detail}")
    try:
        flat = np.fromiter(chain.from_iterable(entries), float, 2 * dim * dim)
    except (TypeError, ValueError) as exc:  # an entry one level deeper, or an empty object
        raise FileFormatError(f"{what}: entries must be [real, imag] pairs of numbers ({exc})") from exc
    return flat.view(complex).reshape(dim, dim)


def _guarded(raw: bytes, keys: int) -> bool:
    """Whether a file may hold a value that ``np.fromiter`` takes as a number
    and ``complex()`` does not: ``true`` has a ``u`` byte, ``false`` and
    ``null`` an ``l``, and a string (``"1.5"`` among them) puts ``"`` bytes
    beyond the two of each of the ``keys`` top-level keys.  Each search is
    a ``memchr``, far cheaper than a type scan."""
    if b"u" in raw or b"l" in raw:
        return True
    at = -1
    for _ in range(2 * keys + 1):
        at = raw.find(b'"', at + 1)
        if at < 0:
            return False
    return True


def _load_json(path: str | Path, what: str) -> tuple[dict, int, bool]:
    """The document, its ``dim``, and whether the file is :func:`_guarded`."""
    try:
        raw = Path(path).read_bytes()
        doc = orjson.loads(raw)
    except OSError as exc:
        raise FileFormatError(f"cannot read {what} file {path}: {exc}") from exc
    except orjson.JSONDecodeError as exc:
        raise FileFormatError(f"{what} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{what} file {path}: top level must be an object")
    dim = doc.get("dim")
    if type(dim) is not int or dim < 1:
        raise FileFormatError(f"{what} file {path}: 'dim' must be a positive integer")
    return doc, dim, _guarded(raw, len(doc))


def _gc_paused(load):
    """``load`` with the cyclic garbage collector paused while it runs, so
    that the decoded lists trigger no collection; the caller's collector
    state comes back on return and on error."""

    @functools.wraps(load)
    def paused(path):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return load(path)
        finally:
            if enabled:
                gc.enable()

    return paused


def _write_json(path: str | Path, doc: dict, what: str) -> None:
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise FileFormatError(f"cannot write {what} file {path}: entries must be finite ({exc})") from exc
    try:
        Path(path).write_text(text + "\n")
    except OSError as exc:
        raise FileFormatError(f"cannot write {what} file {path}: {exc}") from exc


@_gc_paused
def load_matrix(path: str | Path) -> np.ndarray:
    """Read a complex square matrix from a matrix file."""
    doc, dim, guarded = _load_json(path, "matrix")
    rows = doc.get("matrix")
    if not isinstance(rows, list):
        raise FileFormatError(f"matrix file {path}: missing 'matrix' rows")
    return _rows_to_matrix(rows, dim, f"matrix file {path}", guarded)


def save_matrix(path: str | Path, matrix: np.ndarray) -> None:
    """Write a complex square matrix as a matrix file."""
    m = _square(matrix, path, "matrix")
    _write_json(path, {"dim": m.shape[0], "matrix": _matrix_to_rows(m)}, "matrix")


@_gc_paused
def load_projectors(path: str | Path) -> list[np.ndarray]:
    """Read a list of same-dimension complex matrices from a projector file."""
    doc, dim, guarded = _load_json(path, "projector")
    entries = doc.get("projectors")
    if not isinstance(entries, list) or not entries:
        raise FileFormatError(f"projector file {path}: missing non-empty 'projectors' list")
    return [
        _rows_to_matrix(rows, dim, f"projector file {path} (entry {k})", guarded)
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

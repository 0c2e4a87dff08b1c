"""Matrix and projector file round-trips and format errors."""

import json
import math

import numpy as np
import pytest

from qrelent import FileFormatError
from qrelent.matio import load_matrix, load_projectors, save_matrix, save_projectors


def test_matrix_roundtrip(tmp_path):
    m = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])
    path = tmp_path / "m.json"
    save_matrix(path, m)
    assert np.allclose(load_matrix(path), m)


def test_matrix_file_shape_on_disk(tmp_path):
    path = tmp_path / "m.json"
    save_matrix(path, np.eye(2))
    doc = json.loads(path.read_text())
    assert doc["dim"] == 2
    assert doc["matrix"][0][0] == [1.0, 0.0]
    assert doc["matrix"][0][1] == [0.0, 0.0]


def test_projectors_roundtrip(tmp_path):
    ps = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    path = tmp_path / "p.json"
    save_projectors(path, ps)
    loaded = load_projectors(path)
    assert len(loaded) == 2
    for a, b in zip(loaded, ps):
        assert np.allclose(a, b)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
@pytest.mark.parametrize("save", [save_matrix, lambda path, m: save_projectors(path, [np.eye(2), m])])
def test_save_refuses_non_finite_entry(tmp_path, save, value):
    # A NaN or Infinity literal would make a file load_* rejects.
    m = np.eye(2, dtype=complex)
    m[1, 0] = value
    path = tmp_path / "m.json"
    with pytest.raises(FileFormatError, match="m.json"):
        save(path, m)
    assert not path.exists()


@pytest.mark.parametrize(
    "save",
    [
        pytest.param(lambda path: save_matrix(path, np.zeros((2, 3))), id="matrix-2x3"),
        pytest.param(lambda path: save_matrix(path, np.ones(2)), id="matrix-1d"),
        pytest.param(lambda path: save_matrix(path, np.zeros((0, 0))), id="matrix-0x0"),
        pytest.param(lambda path: save_projectors(path, [np.eye(2), np.eye(3)]), id="projectors-2-and-3"),
        pytest.param(lambda path: save_projectors(path, []), id="projectors-empty"),
    ],
)
def test_save_refuses_what_load_rejects(tmp_path, save):
    # Every file save_* writes must load; these would not.
    path = tmp_path / "m.json"
    with pytest.raises(FileFormatError, match="m.json"):
        save(path)
    assert not path.exists()


@pytest.mark.parametrize("save", [save_matrix, lambda path, m: save_projectors(path, [m])])
@pytest.mark.parametrize("target", ["", "missing_dir/m.json"], ids=["directory", "missing-parent"])
def test_save_to_unwritable_path_is_file_error(tmp_path, save, target):
    path = tmp_path / target
    with pytest.raises(FileFormatError, match="cannot write (matrix|projector) file"):
        save(path, np.eye(2))


def test_load_matrix_missing_file(tmp_path):
    with pytest.raises(FileFormatError):
        load_matrix(tmp_path / "nope.json")


def test_load_matrix_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FileFormatError):
        load_matrix(path)


def test_load_matrix_top_level_not_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(FileFormatError):
        load_matrix(path)


def test_load_matrix_bad_dim(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"dim": 0, "matrix": []}))
    with pytest.raises(FileFormatError):
        load_matrix(path)


def test_load_matrix_wrong_shape(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"dim": 2, "matrix": [[[1.0, 0.0]]]}))
    with pytest.raises(FileFormatError):
        load_matrix(path)


@pytest.mark.parametrize(
    "entry",
    ["x", [True, False], [1.0, False], [0.5, True], [1.0, 0.0, 7.0], [1.0], []],
    ids=["string", "booleans", "false-imag", "true-imag", "three-numbers", "one-number", "empty"],
)
def test_load_matrix_entries_not_pairs(tmp_path, entry):
    # complex() would take true as 1, so booleans need their own check.
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"dim": 1, "matrix": [[entry]]}))
    with pytest.raises(FileFormatError):
        load_matrix(path)


def test_load_projectors_rejects_boolean_entry(tmp_path):
    path = tmp_path / "p.json"
    rows = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [False, 0.0]]]
    path.write_text(json.dumps({"dim": 2, "projectors": [rows]}))
    with pytest.raises(FileFormatError, match="boolean"):
        load_projectors(path)


def test_booleans_and_words_outside_the_entries_load(tmp_path):
    # A boolean or a "u"/"l" byte elsewhere in the file leaves the entries as they are.
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 1, "matrix": [[[1, 0.0]]], "normalized": True, "label": "full"}))
    assert load_matrix(path).tolist() == [[1 + 0j]]


def test_load_projectors_requires_list(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"dim": 2, "projectors": []}))
    with pytest.raises(FileFormatError):
        load_projectors(path)


def _reference_matrix(rows) -> np.ndarray:
    """One matrix from rows that the standard library's ``json`` decoded."""
    return np.array([[complex(e[0], e[1]) for e in row] for row in rows], dtype=complex)


def _edge_numbers() -> list[str]:
    return [
        "-0.0",
        "0",
        "5e-324",
        "-4.9406564584124654e-324",
        "2.2250738585072011e-308",
        "2.2250738585072014e-308",
        "1.7976931348623157e308",
        "9007199254740993",
        "9007199254740993.0",
        "-9223372036854775809",
        "18446744073709551615",
        "18446744073709551617",
        "123456789012345678901234567890",
        "1e23",
        "1.00000000000000011102230246251565404236316680908203125",
        "0.1",
        "0.30000000000000004",
    ]


def _random_numbers(rng, count: int) -> list[str]:
    # 17 significant digits, the most a double needs; many are longer
    # than the shortest form that round-trips.
    mags = 10.0 ** rng.uniform(-300, 300, count)
    vals = mags * rng.choice([-1.0, 1.0], count)
    herm = rng.standard_normal(count)
    return [f"{v:.17g}" for v in vals] + [f"{v:.17g}" for v in herm]


def _rows_text(numbers: list[str], dim: int) -> str:
    pairs = [f"[{numbers[2 * k % len(numbers)]}, {numbers[(2 * k + 1) % len(numbers)]}]" for k in range(dim * dim)]
    return "[" + ", ".join("[" + ", ".join(pairs[r * dim:(r + 1) * dim]) + "]" for r in range(dim)) + "]"


def _assert_bits_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype == np.complex128
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_load_matrix_bit_exact_against_stdlib(tmp_path, rng):
    dim = 64
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    saved = tmp_path / "h.json"
    save_matrix(saved, (g + g.conj().T) / 2)
    edge = tmp_path / "edge.json"
    edge.write_text(f'{{"dim": {dim}, "matrix": {_rows_text(_edge_numbers() + _random_numbers(rng, 4000), dim)}}}')
    for path in (saved, edge):
        ref = _reference_matrix(json.loads(path.read_text())["matrix"])
        _assert_bits_equal(load_matrix(path), ref)


def test_load_projectors_bit_exact_against_stdlib(tmp_path, rng):
    dim = 64
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    blocks = [q[:, :20], q[:, 20:40], q[:, 40:]]
    saved = tmp_path / "p.json"
    save_projectors(saved, [b @ b.conj().T for b in blocks])
    edge = tmp_path / "edge.json"
    numbers = _edge_numbers() + _random_numbers(rng, 6000)
    edge.write_text(
        f'{{"dim": {dim}, "projectors": [{_rows_text(numbers, dim)}, {_rows_text(numbers[::-1], dim)}]}}'
    )
    for path in (saved, edge):
        refs = [_reference_matrix(rows) for rows in json.loads(path.read_text())["projectors"]]
        loaded = load_projectors(path)
        assert len(loaded) == len(refs)
        for got, ref in zip(loaded, refs):
            _assert_bits_equal(got, ref)

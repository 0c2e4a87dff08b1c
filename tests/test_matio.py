"""Matrix and projector file round-trips and format errors."""

import gc
import json
import math

import numpy as np
import pytest

import qrelent.matio
from qrelent import FileFormatError
from qrelent.matio import _guarded, load_matrix, load_projectors, save_matrix, save_projectors


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


def _identity_rows(dim: int) -> list:
    return [[[float(r == c), 0.0] for c in range(dim)] for r in range(dim)]


def _bad_rows(kind: str) -> list:
    """2 x 2 identity rows with one defect that a flat conversion alone would miss or mistake."""
    rows = _identity_rows(2)
    if kind == "string-real":
        rows[0][1] = ["1.5", 0.0]
    elif kind == "string-imag":
        rows[0][1] = [0.0, "1.5"]
    elif kind == "null":
        rows[0][1] = [None, 0.0]
    elif kind == "nested":
        rows[0][1] = [[1.0], 0.0]
    elif kind == "three-and-one":  # four numbers in the row, as two pairs would hold
        rows[0] = [[1.0, 0.0, 0.0], [0.0]]
    elif kind == "short-row":
        rows[0] = rows[0][:1]
    elif kind == "long-row":
        rows[0].append([0.0, 0.0])
    return rows


_BAD_KINDS = ["string-real", "string-imag", "null", "nested", "three-and-one", "short-row", "long-row"]
# "origin" and "hand" hold no "u" or "l" byte: only their quotes flag the file.
_EXTRA_KEYS = {"bare": {}, "extra-string-key": {"origin": "hand"}}


def _write_bad(path, kind: str, extra: dict, projectors: bool) -> None:
    body = {"projectors": [_identity_rows(2), _bad_rows(kind)]} if projectors else {"matrix": _bad_rows(kind)}
    path.write_text(json.dumps({"dim": 2, **body, **extra}))


@pytest.mark.parametrize("extra", _EXTRA_KEYS.values(), ids=_EXTRA_KEYS.keys())
@pytest.mark.parametrize("projectors", [False, True], ids=["matrix", "projectors"])
@pytest.mark.parametrize("kind", _BAD_KINDS)
def test_decoder_rejects_what_a_flat_conversion_would_take(tmp_path, kind, projectors, extra):
    # np.fromiter takes "1.5" and null as numbers, and counts numbers, not
    # pairs; each is a file error through both loaders, whether the byte
    # guard flags the file (a string or a null always does) or not.
    path = tmp_path / "bad.json"
    _write_bad(path, kind, extra, projectors)
    raw = path.read_bytes()
    assert _guarded(raw, len(json.loads(raw))) == (bool(extra) or kind in ("string-real", "string-imag", "null"))
    with pytest.raises(FileFormatError, match="bad.json"):
        (load_projectors if projectors else load_matrix)(path)


@pytest.mark.parametrize(
    "text, guarded",
    [
        ('{"dim": 1, "matrix": [[[1.0, 0.0]]]}', False),
        ('{"matrix": [[[1.0, 0.0]]], "dim": 1}', False),
        ('{"dim": 1, "matrix": [[[1.0, 0.0]]], "rank": 1}', False),
        ('{"dim": 1, "matrix": [[[1.0, 0.0]]], "tag": "x"}', True),
        ('{"dim": 1, "matrix": [[[1.0, 0.0]]], "ok": true}', True),
        ('{"dim": 1, "matrix": [[[1.0, 0.0]]], "ok": false}', True),
        ('{"dim": 1, "matrix": [[[1.0, 0.0]]], "ok": null}', True),
        ('{"dim": 1, "matrix": [[[1.0, 0.0]]], "a\\"b": 1}', True),
        ('{"dim": 1, "dim": 1, "matrix": [[[1.0, 0.0]]]}', True),
    ],
    ids=[
        "bare", "keys-reordered", "extra-number-key", "string-value", "true", "false", "null", "quote-in-key",
        "repeated-key",
    ],
)
def test_byte_guard_flags_every_string_beyond_the_top_level_keys(text, guarded):
    raw = text.encode()
    assert _guarded(raw, len(json.loads(raw))) == guarded


def _good_file(path, projectors: bool) -> None:
    body = {"projectors": [_identity_rows(2)]} if projectors else {"matrix": _identity_rows(2)}
    path.write_text(json.dumps({"dim": 2, **body}))


@pytest.mark.parametrize("projectors", [False, True], ids=["matrix", "projectors"])
def test_decoder_pauses_the_collector_and_restores_the_callers_state(tmp_path, monkeypatch, projectors):
    load = load_projectors if projectors else load_matrix
    good = tmp_path / "good.json"
    _good_file(good, projectors)
    bad = []
    for kind in _BAD_KINDS:
        bad.append(tmp_path / f"{kind}.json")
        _write_bad(bad[-1], kind, {}, projectors)
    (tmp_path / "invalid.json").write_text("{not json")
    bad += [tmp_path / "invalid.json", tmp_path / "missing.json"]

    seen = []
    real = qrelent.matio._rows_to_matrix

    def converting(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(qrelent.matio, "_rows_to_matrix", converting)
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            seen.clear()
            load(good)
            assert seen and not any(seen)
            assert gc.isenabled() == enabled
            for path in bad:
                with pytest.raises(FileFormatError):
                    load(path)
                assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("dim", range(2, 9))
def test_load_bit_exact_against_stdlib_at_small_dims(tmp_path, rng, dim):
    numbers = _edge_numbers() + _random_numbers(rng, dim * dim)
    for extra in ("", ', "origin": "hand"'):
        path = tmp_path / "m.json"
        path.write_text(f'{{"dim": {dim}, "matrix": {_rows_text(numbers, dim)}{extra}}}')
        assert _guarded(path.read_bytes(), 2 + bool(extra)) == bool(extra)
        _assert_bits_equal(load_matrix(path), _reference_matrix(json.loads(path.read_text())["matrix"]))
        path.write_text(
            f'{{"dim": {dim}, "projectors": [{_rows_text(numbers, dim)}, {_rows_text(numbers[::-1], dim)}]{extra}}}'
        )
        refs = [_reference_matrix(rows) for rows in json.loads(path.read_text())["projectors"]]
        for got, ref in zip(load_projectors(path), refs, strict=True):
            _assert_bits_equal(got, ref)

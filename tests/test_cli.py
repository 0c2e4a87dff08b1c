"""End-to-end CLI behaviour through ``main``.

Two tests start a subprocess: ``test_verify_loads_no_file_layer``, as
a fresh interpreter shows what importing the CLI loads, and
``test_python_m_qrelent_runs_main``, which runs ``python -m qrelent``.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qrelent.cli
from helpers import count_kernel_calls, count_solver_calls
from qrelent import DEFAULT_TOL, haar_unitary
from qrelent.cli import main
from qrelent.matio import save_matrix, save_projectors


@pytest.fixture
def qubit_files(tmp_path):
    """rho = |+><+|, sigma = I/2: S(rho||sigma) = ln 2, reverse is finite too."""
    rho = np.full((2, 2), 0.5, dtype=complex)
    sigma = np.eye(2, dtype=complex) / 2
    rho_path = tmp_path / "rho.json"
    sigma_path = tmp_path / "sigma.json"
    save_matrix(rho_path, rho)
    save_matrix(sigma_path, sigma)
    return str(rho_path), str(sigma_path)


def test_compute_nats(qubit_files, capsys):
    rho, sigma = qubit_files
    assert main(["compute", rho, sigma]) == 0
    out = capsys.readouterr().out
    assert out.startswith("rho:    dim 2, support rank 1\nsigma:  dim 2, support rank 2\n")
    assert "support(rho) <= support(sigma): yes" in out
    assert f"S(rho||sigma) = {math.log(2.0):.12g} nats" in out


def test_compute_bits(qubit_files, capsys):
    rho, sigma = qubit_files
    assert main(["compute", rho, sigma, "--bits"]) == 0
    out = capsys.readouterr().out
    assert "S(rho||sigma) = 1 bits" in out


def test_compute_infinite(qubit_files, capsys):
    rho, sigma = qubit_files
    assert main(["compute", sigma, rho]) == 0
    out = capsys.readouterr().out
    assert "support(rho) <= support(sigma): no" in out
    assert "S(rho||sigma) = inf nats" in out


def test_compute_self_distance_of_pure_state_is_zero(tmp_path, capsys):
    psi = tmp_path / "psi.json"
    save_matrix(psi, np.array([[0.5, -0.5j], [0.5j, 0.5]]))
    assert main(["compute", str(psi), str(psi)]) == 0
    assert "S(rho||sigma) = 0 nats" in capsys.readouterr().out


def test_compute_rejects_nan_file(tmp_path, qubit_files, capsys):
    _, sigma = qubit_files
    bad = tmp_path / "nan.json"
    # The bytes json.dumps writes by default for diag(NaN, 1), with a NaN
    # literal; save_matrix itself refuses to write a non-finite entry.
    rows = [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    bad.write_text(json.dumps({"dim": 2, "matrix": rows}, indent=2) + "\n")
    assert main(["compute", str(bad), sigma]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, message",
    [
        (b'{"dim": 1, "matrix": [[[1.0, 0.0]]], "note": "\xff"}', "not valid JSON"),
        (b'{"dim": 1, "matrix": [[[1' + b"0" * 400 + b', 0.0]]]}', "not valid JSON"),
        (b'{"dim": 1, "matrix": [[[1e999, 0.0]]]}', "not valid JSON"),
        (b'{"dim": 1, "matrix": [[[NaN, 0.0]]]}', "not valid JSON"),
        (b'{"dim": 1, "matrix": [[[0.0, Infinity]]]}', "not valid JSON"),
        (b'{"dim": 1, "matrix": [[{"a": 1}]]}', "[real, imag] pairs"),
        (b'{"dim": 1, "matrix": [[[1.0, 0.0, 7.0]]]}', "[real, imag] pairs"),
        (b'{"dim": 1, "matrix": [[[true, false]]]}', "not booleans"),
        (b'{"dim": true, "matrix": [[[1.0, 0.0]]]}', "'dim' must be a positive integer"),
    ],
    ids=[
        "non-utf8", "huge-int", "1e999", "NaN", "Infinity", "object-entry",
        "three-numbers", "boolean-entry", "boolean-dim",
    ],
)
def test_compute_rejects_malformed_file(tmp_path, body, message, capsys):
    # Each is a file error that names the file, raised at load: no
    # traceback, and no numpy warning from a later check on NaN or inf.
    bad = tmp_path / "bad.json"
    bad.write_bytes(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compute", str(bad), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(bad) in err
    assert message in err


def test_breakdown_rejects_non_utf8_blocks_file(tmp_path, qubit_files, capsys):
    rho, sigma = qubit_files
    blocks = tmp_path / "blocks.json"
    blocks.write_bytes(b'{"dim": 2, "projectors": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]], "n": "\xfe"}')
    assert main(["breakdown", rho, sigma, "--blocks-file", str(blocks)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(blocks) in err


def test_compute_missing_file(tmp_path, qubit_files, capsys):
    rho, _ = qubit_files
    assert main(["compute", rho, str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_compute_rejects_non_state(tmp_path, qubit_files, capsys):
    _, sigma = qubit_files
    bad = tmp_path / "bad.json"
    save_matrix(bad, np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex))
    assert main(["compute", str(bad), sigma]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_small_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out_path = tmp_path / "rep.json"
    code = main(
        ["verify", "lemma1", "--dims", "2,3", "--trials", "4", "--seed", "3", "--out", str(out_path)]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["identity"] == "lemma1"
    assert doc["summary"]["failures"] == 0
    text = capsys.readouterr().out
    assert "failures          0" in text


def test_verify_lemma1_seed_530_fails_only_its_known_trial(tmp_path, capsys, monkeypatch):
    # The standing lemma1 defect: the residual is round-off of about
    # 1e-15 / lambda_min, gated at the absolute tol.identity.  This
    # campaign fails at (32, 2) alone, through the stacked decomposition
    # of route B; it must keep failing there, and nowhere else.
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "lemma1", "--dims", "32,64", "--trials", "12", "--seed", "530", "--out", "s530.json"]
    assert main(argv) == 1
    capsys.readouterr()
    failed = [r for r in json.loads((tmp_path / "s530.json").read_text())["records"] if not r["passed"]]
    assert [(r["dim"], r["trial"]) for r in failed] == [(32, 2)]
    assert f"{failed[0]['residual']:.3e}" == "3.249e-07"
    assert f"{failed[0]['min_nonzero_eig']:.2e}" == "1.91e-09"


def test_verify_default_report_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "eq3a", "--dims", "2", "--trials", "2"]) == 0
    assert (tmp_path / "verify_eq3a.json").exists()


def test_verify_impossible_tolerance_fails(tmp_path, monkeypatch, capsys):
    # corollary3 fixtures carry no projector family, so an absurd
    # residual tolerance reaches the verdicts and every trial fails.
    monkeypatch.chdir(tmp_path)
    code = main(
        ["verify", "corollary3", "--dims", "2,3", "--trials", "4", "--tol", "1e-30", "--out", "strict.json"]
    )
    assert code == 1
    capsys.readouterr()


def test_verify_absurd_tolerance_rejects_block_fixtures(tmp_path, monkeypatch, capsys):
    # The same override also tightens the structural orthogonality
    # precondition, so block-based fixtures cannot validate at all:
    # that is an input error (2), not a verification failure (1).
    monkeypatch.chdir(tmp_path)
    code = main(["verify", "lemma1", "--dims", "2", "--trials", "2", "--tol", "1e-30"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_error_names_its_chunk(tmp_path, monkeypatch, capsys):
    # Trials are checked a chunk at a time, so an error names the
    # identity, dimension, trial range and master seed it came from.
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "eq3a", "--dims", "2", "--trials", "3", "--tol", "1e-30"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eq3a d=2 trials 0-2 (seed 0): projectors 0 and 1 overlap: ")


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_verify_rejects_non_finite_tolerance(tmp_path, monkeypatch, capsys, tol):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "lemma1", "--dims", "2", "--trials", "1", "--tol", tol]) == 2
    assert "--tol must be a finite positive number" in capsys.readouterr().err


def test_verify_rejects_bad_threads(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "lemma1", "--dims", "2", "--trials", "1", "--threads", "0"]) == 2
    assert "--threads must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_that_exits_2_leaves_no_report(tmp_path, monkeypatch, capsys):
    # At --tol 1e-30 the block fixtures fail the orthogonality gate: the
    # run exits 2 after the writability check, whose empty file goes too.
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "lemma1", "--dims", "2", "--trials", "2", "--tol", "1e-30"]) == 2
    assert "overlap" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_that_exits_2_keeps_an_existing_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "verify_lemma1.json").write_text("old report\n")
    assert main(["verify", "lemma1", "--dims", "2", "--trials", "2", "--tol", "1e-30"]) == 2
    capsys.readouterr()
    assert [p.name for p in tmp_path.iterdir()] == ["verify_lemma1.json"]
    assert (tmp_path / "verify_lemma1.json").read_text() == "old report\n"


def test_verify_rejects_repeated_dims(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "eq3a", "--dims", "2,2", "--trials", "2"]) == 2
    assert "dims must not repeat" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("target", [".", "missing_dir/r.json"], ids=["directory", "missing-parent"])
def test_verify_unwritable_report_is_input_error(tmp_path, monkeypatch, capsys, target):
    # Exit 1 means a trial failed; a report path that cannot be written
    # is an input error, reported on stderr with stdout left empty.
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "eq3a", "--dims", "2", "--trials", "2", "--out", target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write report file {target}: ")
    assert not list(tmp_path.iterdir())


def test_verify_refuses_unwritable_report_before_the_first_trial(tmp_path, monkeypatch, capsys):
    def never(config):
        raise AssertionError("run_campaign called")

    monkeypatch.setattr(qrelent.cli, "run_campaign", never)
    assert main(["verify", "eq3a", "--dims", "2", "--trials", "2", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write report file")


def test_verify_rewrites_an_existing_report(tmp_path, monkeypatch, capsys):
    # The writability check appends nothing; the report then replaces
    # the old file whole, even one longer than itself.
    monkeypatch.chdir(tmp_path)
    args = ["verify", "eq3a", "--dims", "2", "--trials", "2", "--seed", "3"]
    assert main([*args, "--out", "fresh.json"]) == 0
    (tmp_path / "old.json").write_text("x" * 100_000)
    assert main([*args, "--out", "old.json"]) == 0
    capsys.readouterr()
    assert (tmp_path / "old.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_verify_reports_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["verify", "theorem1", "--dims", "2,3", "--trials", "3", "--seed", "11", "--include-infinite"]
    assert main([*args, "--out", "a.json"]) == 0
    assert main([*args, "--out", "b.json", "--threads", "4"]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_verify_rejects_unknown_identity(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "fermat"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_breakdown_basis_blocks(qubit_files, capsys):
    rho, sigma = qubit_files
    assert main(["breakdown", rho, sigma, "--blocks", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "S(pinched rho)" in out
    assert "rhs total" in out
    assert "residual |lhs - rhs|" in out
    # rho = |+><+| against sigma = I/2 split into 1+1 basis blocks:
    # every term is a known closed form.
    assert f"S(rho||sigma), direct       = {math.log(2.0):.12g}" in out


def test_breakdown_blocks_file(tmp_path, qubit_files, capsys):
    rho, sigma = qubit_files
    blocks = tmp_path / "blocks.json"
    save_projectors(blocks, [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)])
    assert main(["breakdown", rho, sigma, "--blocks-file", str(blocks)]) == 0
    out = capsys.readouterr().out
    assert "2 projectors from" in out


def test_breakdown_blocks_must_sum_to_dim(qubit_files, capsys):
    rho, sigma = qubit_files
    assert main(["breakdown", rho, sigma, "--blocks", "1,1,1"]) == 2
    assert "must sum to the dimension" in capsys.readouterr().err


def test_breakdown_flags_mutually_exclusive(qubit_files, capsys):
    rho, sigma = qubit_files
    with pytest.raises(SystemExit) as exc:
        main(["breakdown", rho, sigma, "--blocks", "1,1", "--blocks-file", "x.json"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_breakdown_infinite_case(tmp_path, capsys):
    # sigma confined to the first basis vector, rho spread over both:
    # the direct value and the reassembled total must both print inf.
    rho_path = tmp_path / "r.json"
    sigma_path = tmp_path / "s.json"
    save_matrix(rho_path, np.diag([0.5, 0.5]).astype(complex))
    save_matrix(sigma_path, np.diag([1.0, 0.0]).astype(complex))
    assert main(["breakdown", str(rho_path), str(sigma_path), "--blocks", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "rhs total                   = inf" in out
    assert "S(rho||sigma), direct       = inf" in out
    assert "residual |lhs - rhs|        = n/a" in out


def test_breakdown_rejects_sigma_not_block_diagonal(tmp_path, capsys):
    # sigma has coherences between the two 1-blocks.  Decomposing it
    # would silently replace it by its pinching, so that the "direct"
    # line printed S(rho||pinched sigma) instead of S(rho||sigma).
    rho_path = tmp_path / "r.json"
    sigma_path = tmp_path / "s.json"
    save_matrix(rho_path, np.diag([0.9, 0.1]).astype(complex))
    save_matrix(sigma_path, np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex))
    assert main(["breakdown", str(rho_path), str(sigma_path), "--blocks", "1,1"]) == 2
    captured = capsys.readouterr()
    assert "direct" not in captured.out
    assert "not block diagonal" in captured.err


@pytest.mark.parametrize(
    "rho, sigma, message",
    [
        (np.diag([0.9, 0.1]), np.array([[0.5, 0.4], [0.4, 0.5]]), "not block diagonal"),
        (np.eye(3) / 3, np.eye(2) / 2, "state on dim 3, decomposition on dim 2"),
    ],
    ids=["not-block-diagonal", "dimension-mismatch"],
)
def test_breakdown_failure_prints_nothing_on_stdout(tmp_path, rho, sigma, message, capsys):
    # Every step runs before the first line is printed, so a breakdown
    # that fails leaves no partial report (not even its blocks line).
    rho_path, sigma_path = tmp_path / "r.json", tmp_path / "s.json"
    save_matrix(rho_path, rho.astype(complex))
    save_matrix(sigma_path, sigma.astype(complex))
    assert main(["breakdown", str(rho_path), str(sigma_path), "--blocks", "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_breakdown_accepts_a_block_of_weight_1e_7(tmp_path, capsys):
    # sigma puts weight 1e-7 on one Haar-rotated 4-dim block.  Judging
    # that block's state after division by its weight magnified
    # round-off into a Hermiticity rejection (exit 2).
    u = haar_unitary(8, 5)
    rho, sigma, blocks = (str(tmp_path / name) for name in ("r.json", "s.json", "p.json"))
    save_projectors(blocks, [u[:, :4] @ u[:, :4].conj().T, u[:, 4:] @ u[:, 4:].conj().T])
    spectrum = [0.4, 0.3, 0.2, 0.1 - 1e-7, 4e-8, 3e-8, 2e-8, 1e-8]
    save_matrix(sigma, u @ np.diag(spectrum) @ u.conj().T)
    save_matrix(rho, np.eye(8) / 8)
    assert main(["compute", rho, sigma]) == 0
    direct = re.search(r"S\(rho\|\|sigma\) = (\S+) nats", capsys.readouterr().out).group(1)
    assert direct == "7.48767804424"
    assert main(["breakdown", rho, sigma, "--blocks-file", blocks]) == 0
    out = capsys.readouterr().out
    assert f"S(rho||sigma), direct       = {direct}\n" in out
    residual = re.search(r"residual \|lhs - rhs\| += (\S+) nats", out).group(1)
    assert float(residual) <= DEFAULT_TOL.identity


def test_file_commands_solve_only_through_the_kernel(tmp_path, monkeypatch, capsys):
    # One checked kernel makes every solver call of compute and breakdown.
    u = haar_unitary(6, 3)
    rho, sigma, blocks = (str(tmp_path / name) for name in ("r.json", "s.json", "p.json"))
    save_matrix(rho, np.eye(6) / 6)
    save_matrix(sigma, u @ np.diag([0.3, 0.2, 0.1, 0.2, 0.1, 0.1]) @ u.conj().T)
    save_projectors(blocks, [u[:, :3] @ u[:, :3].conj().T, u[:, 3:] @ u[:, 3:].conj().T])
    solves = count_solver_calls(monkeypatch)
    kernel = count_kernel_calls(monkeypatch)
    assert main(["compute", rho, sigma]) == 0
    assert main(["breakdown", rho, sigma, "--blocks-file", blocks]) == 0
    assert main(["breakdown", rho, rho, "--blocks", "2,4"]) == 0
    capsys.readouterr()
    assert (3, 3) in {shape[-2:] for shape in solves}
    assert kernel == solves


def test_main_runs_the_command_bound_at_call_time(monkeypatch):
    # A command replaced on the module after import, as a tracer does, is what runs.
    ran = []
    monkeypatch.setattr(qrelent.cli, "cmd_verify", lambda args: ran.append(args.identity) or 0)
    assert main(["verify", "eq3a"]) == 0
    assert ran == ["eq3a"]


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


# -- one parser per process ---------------------------------------------------


def test_second_call_builds_no_parser(qubit_files, capsys, monkeypatch):
    rho, sigma = qubit_files
    assert main(["compute", rho, sigma]) == 0
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["compute", rho, sigma]) == 0
    assert built == []
    capsys.readouterr()


def test_build_parser_returns_a_fresh_parser(capsys):
    # A caller's own parser may be changed without reaching the next
    # caller's parser or the one main parses with.
    mine = qrelent.cli.build_parser()
    mine.add_argument("--mine", action="store_true")
    assert mine.parse_args(["--mine", "verify", "eq3a"]).mine
    other = qrelent.cli.build_parser()
    assert other is not mine
    for parse in (other.parse_args, main):
        with pytest.raises(SystemExit) as exc:
            parse(["--mine", "verify", "eq3a"])
        assert exc.value.code == 2
    capsys.readouterr()


def test_reuse_keeps_no_singular_toggle(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["verify", "eq3a", "--dims", "2", "--trials", "2"]
    assert main([*args, "--no-include-singular", "--out", "a.json"]) == 0
    assert main([*args, "--out", "b.json"]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "a.json").read_text())["config"]["include_singular"] is False
    assert json.loads((tmp_path / "b.json").read_text())["config"]["include_singular"] is True


def test_reuse_keeps_no_bits_toggle(qubit_files, capsys):
    rho, sigma = qubit_files
    assert main(["compute", rho, sigma, "--bits"]) == 0
    assert "S(rho||sigma) = 1 bits" in capsys.readouterr().out
    assert main(["compute", rho, sigma]) == 0
    assert f"S(rho||sigma) = {math.log(2.0):.12g} nats" in capsys.readouterr().out


def test_reuse_keeps_no_block_flag(tmp_path, qubit_files, capsys):
    # The two flags are mutually exclusive; the first call's --blocks must
    # not linger and collide with the second call's --blocks-file.
    rho, sigma = qubit_files
    blocks = tmp_path / "blocks.json"
    save_projectors(blocks, [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)])
    assert main(["breakdown", rho, sigma, "--blocks", "1,1"]) == 0
    assert main(["breakdown", rho, sigma, "--blocks-file", str(blocks)]) == 0
    assert "2 projectors from" in capsys.readouterr().out


def test_usage_error_leaves_next_call_unchanged(qubit_files, capsys):
    rho, sigma = qubit_files
    valid = ["breakdown", rho, sigma, "--blocks", "1,1"]
    first = main(valid), capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["breakdown", rho, sigma, "--blocks", "1,1", "--blocks-file", "x.json"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert (main(valid), capsys.readouterr().out) == first


def test_help_width_follows_the_terminal_of_each_call(monkeypatch, capsys):
    # The parser is built once, but help is laid out for the width of
    # the terminal at the time help is asked for.
    widest = {}
    for columns in ("40", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--help"])
        assert exc.value.code == 0
        widest[columns] = max(len(line) for line in capsys.readouterr().out.splitlines())
    assert widest["40"] <= 40 < widest["120"]


def test_verify_loads_no_file_layer(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import qrelent.cli\n"
        "assert 'orjson' not in sys.modules, 'import'\n"
        "rc = qrelent.cli.main(['verify', 'eq3a', '--dims', '2', '--trials', '2', '--out', sys.argv[1]])\n"
        "assert rc == 0, rc\n"
        "assert 'orjson' not in sys.modules and 'qrelent.matio' not in sys.modules, 'verify'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "v.json")], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "v.json").exists()


def test_python_m_qrelent_runs_main(qubit_files, capsys):
    rho, sigma = qubit_files
    assert main(["compute", rho, sigma]) == 0
    expected = capsys.readouterr().out
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "qrelent", *args], capture_output=True, text=True, timeout=120, env=env
        )

    proc = run("compute", rho, sigma)
    assert (proc.returncode, proc.stdout) == (0, expected), proc.stderr
    proc = run("compute", rho, sigma, "--no-such-flag")
    assert proc.returncode == 2
    assert "--no-such-flag" in proc.stderr

"""Gate-mutation audit: does tier-1 notice when a gate is weakened?

    python3 tools/gate_mutants.py [--only NAME ...]

Each mutant of ``MUTANTS`` rewrites one line of a gate in a copy of
``src/``, ``tests/`` and ``bench/`` in a temporary directory: either the gate is
disabled, or its tolerance is multiplied by 10.  Tier-1 then runs on
the copy, stopping at the first failure.  A mutant is killed when some
test fails, and survives when all pass; each survivor names a gate (or
a gate's bound) that no test pins.  The unmutated copy runs first and
must pass, and a mutant whose line is not found once (the gate was
rewritten) is reported as stale and makes the exit status 2.  The
working tree is never modified.

A run takes several minutes (one tier-1 run per mutant, a full one per
survivor), so it is an audit to run by hand, not a CI step.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str


_BLOCKS = "        if within.max(initial=0.0) <= tol.orth:"
_OVERLAPS = "        crossed = ~(overlaps <= tol.identity) & (k[:, None] < k)"
_COMPLETE = "        failed = crossed.any(axis=(-2, -1)) | ~(defects <= tol.identity)"
_ABSORBED = "        absorbed = np.sqrt(leaks @ fine_onehot) <= tol.identity"
_UNMATCHED = "        unmatched = (matches != 1) & (fine_k < n_fine[:, None])"
_RANKS = "        short = (absorbed * fine_onehot.sum(axis=1)[:, None, :]).sum(axis=-1) != ranks"
_HERMITIAN = "        _check_hermitian(float(defect), float(scale), tol)"
_BLOCK_HERMITIAN = "            _check_hermitian(defect, scale, tol)"
_LONE_HERMITIAN = "        b = _hermitian_part(b, frobenius(m if at_scale_of_m else b), tol)"
_BLOCK_SOLVE = "        _check_solve(gram_defect, recon_sq, scale, tol)"
_LONE_SOLVE = "        _check_solve(gram_defect, recon_sq, frobenius(b), tol)"
_PINCHED_GRAM = "        if not (gram_defect <= tol.orth):"
_BLOCK_POSITIVE = "        _check_positive(w, tol)"
_PAIRS = "        if set(map(len, entries)) != {2}:"
_NUMBER_SCAN = "    if guarded:"
_GUARD = "    return doc, dim, _guarded(raw, len(doc))"
_SYMMETRIZE = "    return _hermitian_part(m, frobenius(m), tol)"
_EIGH_SOLVE = "    _check_solve(float(gram_defect), float(recon_sq), frobenius(m), tol)"
_STATE_POSITIVE = "    _check_positive(w, tol)\n    trace = math.fsum(w.tolist())"
_STATE_TRACE = "    if not (abs(trace - 1.0) <= tol.trace):"
_PINCH_MASS = "    if not (1.0 - tol.supp <= kept):"
_CONTAINED = "    return support_leakage(rho, sigma) <= tol.supp"
_DECOMPOSE_LEAK = "        if not (leak <= tol.supp):"
_DECOMPOSE_COHERENCE = "        if not (coherence <= tol.identity):"
_MISSED_MASS = "    if not (missed_mass <= tol.supp) or not (h_rel.is_finite and avg_rel.is_finite):"
_PROBS_PSD = "        if not (lowest >= -tol.psd):"
_PROBS_TRACE = "        if not (abs(total - 1.0) <= tol.trace):"
_KEPT_LEAK = "    if not (leaked <= tol.supp):"
_QRE_LEAK = "    if not (leakage <= tol.supp):"
_LINE_SUPPORT = "    if not all(report.d_total.is_finite for report, _ in lines):"
_HERM_X10 = "tol.replace(herm=10 * tol.herm))"
_SOLVE_X10 = "tol.replace(orth=10 * tol.orth, recon=10 * tol.recon))"

_LINOP, _LUEDERS, _MATIO = "src/qrelent/linop.py", "src/qrelent/lueders.py", "src/qrelent/matio.py"
_MIXING, _ENTROPY = "src/qrelent/mixing.py", "src/qrelent/entropy.py"


MUTANTS = (
    # Block orthonormality at tol.orth: block frames, refinement rotations, corollary3's bases.
    Mutant("blocks-orth-off", _LINOP, _BLOCKS, "        if True:"),
    Mutant("blocks-orth-x10", _LINOP, _BLOCKS, _BLOCKS.replace("tol.orth", "10 * tol.orth")),
    # An observable's pairwise overlaps and its completeness at tol.identity.
    Mutant("overlaps-off", _LUEDERS, _OVERLAPS, _OVERLAPS.replace("~(overlaps <= tol.identity)", "False")),
    Mutant("overlaps-x10", _LUEDERS, _OVERLAPS, _OVERLAPS.replace("tol.identity", "10 * tol.identity")),
    Mutant("completeness-off", _LUEDERS, _COMPLETE, _COMPLETE.split(" | ")[0]),
    Mutant("completeness-x10", _LUEDERS, _COMPLETE, _COMPLETE.replace("tol.identity", "10 * tol.identity")),
    # A refinement's absorption: each fine projector inside exactly one coarse one.
    Mutant("absorption-off", _LUEDERS, _UNMATCHED, _UNMATCHED.replace("matches != 1", "matches < 0")),
    Mutant("absorption-x10", _LUEDERS, _ABSORBED, _ABSORBED.replace("tol.identity", "10 * tol.identity")),
    # Group ranks are compared exactly; the one tolerance they depend on is absorption's.
    Mutant("group-rank-off", _LUEDERS, _RANKS, "        short = np.zeros(rows.shape[:2], dtype=bool)"),
    # _validated's Hermiticity gate on a stack of states.
    Mutant("stacked-hermiticity-off", _LINOP, _HERMITIAN, "        pass"),
    Mutant(
        "stacked-hermiticity-x10", _LINOP, _HERMITIAN, _HERMITIAN.replace("tol)", _HERM_X10)
    ),
    # The block pass: each B's Hermiticity, in a group of its frame shape and alone.
    Mutant("block-hermiticity-off", _LINOP, _BLOCK_HERMITIAN, "            pass"),
    Mutant("block-hermiticity-x10", _LINOP, _BLOCK_HERMITIAN, _BLOCK_HERMITIAN.replace("tol)", _HERM_X10)),
    Mutant("lone-block-hermiticity-off", _LINOP, _LONE_HERMITIAN, "        b = (b + b.conj().T) / 2.0"),
    Mutant("lone-block-hermiticity-x10", _LINOP, _LONE_HERMITIAN, _LONE_HERMITIAN.replace(" tol)", " " + _HERM_X10)),
    # The block pass's solver gates (Gram at tol.orth, reconstruction at tol.recon), per item and alone.
    Mutant("block-solve-off", _LINOP, _BLOCK_SOLVE, "        pass"),
    Mutant("block-solve-x10", _LINOP, _BLOCK_SOLVE, _BLOCK_SOLVE.replace(" tol)", " " + _SOLVE_X10)),
    Mutant("lone-block-solve-off", _LINOP, _LONE_SOLVE, "        pass"),
    Mutant("lone-block-solve-x10", _LINOP, _LONE_SOLVE, _LONE_SOLVE.replace(" tol)", " " + _SOLVE_X10)),
    # _pinched_states' Gram gate on each item's assembled eigenvectors.
    Mutant("pinched-gram-off", _LINOP, _PINCHED_GRAM, "        if False:"),
    Mutant("pinched-gram-x10", _LINOP, _PINCHED_GRAM, _PINCHED_GRAM.replace("tol.orth", "10 * tol.orth")),
    # _stacked_block_states' positivity gate on each item's block eigenvalues.
    Mutant("block-positivity-off", _LINOP, _BLOCK_POSITIVE, "        pass"),
    Mutant("block-positivity-x10", _LINOP, _BLOCK_POSITIVE, _BLOCK_POSITIVE.replace(" tol)", " tol.replace(psd=10 * tol.psd))")),
    # The file decoder: every entry a pair, a guarded file's number types scanned, and the byte guard itself.
    Mutant("decode-pairs-off", _MATIO, _PAIRS, "        if False:"),
    Mutant("decode-number-scan-off", _MATIO, _NUMBER_SCAN, "    if False:"),
    Mutant("decode-guard-off", _MATIO, _GUARD, "    return doc, dim, False"),
    # validate_density: Hermiticity (symmetrize), the checked eigh's Gram and reconstruction, positivity and trace.
    Mutant("density-hermiticity-off", _LINOP, _SYMMETRIZE, "    return (m + m.conj().T) / 2.0"),
    Mutant("density-hermiticity-x10", _LINOP, _SYMMETRIZE, _SYMMETRIZE.replace(" tol)", " " + _HERM_X10)),
    Mutant("density-gram-off", _LINOP, _EIGH_SOLVE, _EIGH_SOLVE.replace("float(gram_defect)", "0.0")),
    Mutant("density-gram-x10", _LINOP, _EIGH_SOLVE, _EIGH_SOLVE.replace(" tol)", " tol.replace(orth=10 * tol.orth))")),
    Mutant("density-recon-off", _LINOP, _EIGH_SOLVE, _EIGH_SOLVE.replace("float(recon_sq)", "0.0")),
    Mutant(
        "density-recon-x10",
        _LINOP,
        _EIGH_SOLVE,
        _EIGH_SOLVE.replace(" tol)", " tol.replace(recon=10 * tol.recon))"),
    ),
    Mutant(
        "density-positivity-off",
        _LINOP,
        _STATE_POSITIVE,
        _STATE_POSITIVE.replace("_check_positive(w, tol)", "pass"),
    ),
    Mutant(
        "density-positivity-x10",
        _LINOP,
        _STATE_POSITIVE,
        _STATE_POSITIVE.replace(" tol)", " tol.replace(psd=10 * tol.psd))"),
    ),
    Mutant("density-trace-off", _LINOP, _STATE_TRACE, "    if False:"),
    Mutant("density-trace-x10", _LINOP, _STATE_TRACE, _STATE_TRACE.replace("tol.trace", "10 * tol.trace")),
    # pinch's mass-loss gate.
    Mutant("pinch-mass-off", _LINOP, _PINCH_MASS, "    if False:"),
    Mutant("pinch-mass-x10", _LINOP, _PINCH_MASS, _PINCH_MASS.replace("tol.supp", "10 * tol.supp")),
    # The support oracle's verdict, and relative entropy's own reading of the leakage.
    Mutant("support-contained-off", _LINOP, _CONTAINED, "    return True"),
    Mutant("support-contained-x10", _LINOP, _CONTAINED, _CONTAINED.replace("tol.supp", "10 * tol.supp")),
    Mutant("relative-entropy-leak-off", _ENTROPY, _QRE_LEAK, "    if False:"),
    Mutant("relative-entropy-leak-x10", _ENTROPY, _QRE_LEAK, _QRE_LEAK.replace("tol.supp", "10 * tol.supp")),
    # decompose_by_projectors: mass outside the blocks, and coherence between them.
    Mutant("decompose-leak-off", _MIXING, _DECOMPOSE_LEAK, "        if False:"),
    Mutant("decompose-leak-x10", _MIXING, _DECOMPOSE_LEAK, _DECOMPOSE_LEAK.replace("tol.supp", "10 * tol.supp")),
    Mutant("decompose-coherence-off", _MIXING, _DECOMPOSE_COHERENCE, "        if False:"),
    Mutant(
        "decompose-coherence-x10",
        _MIXING,
        _DECOMPOSE_COHERENCE,
        _DECOMPOSE_COHERENCE.replace("tol.identity", "10 * tol.identity"),
    ),
    # theorem1's breakdown: rho's mass missed by the supports makes the right side infinite.
    Mutant(
        "breakdown-missed-mass-off",
        _MIXING,
        _MISSED_MASS,
        _MISSED_MASS.replace("not (missed_mass <= tol.supp)", "False"),
    ),
    Mutant("breakdown-missed-mass-x10", _MIXING, _MISSED_MASS, _MISSED_MASS.replace("tol.supp", "10 * tol.supp")),
    # ProbabilityVector.validated's psd and trace gates, and H(p||w)'s leak.
    Mutant("probabilities-psd-off", _ENTROPY, _PROBS_PSD, "        if False:"),
    Mutant("probabilities-psd-x10", _ENTROPY, _PROBS_PSD, _PROBS_PSD.replace("-tol.psd", "-10 * tol.psd")),
    Mutant("probabilities-trace-off", _ENTROPY, _PROBS_TRACE, "        if False:"),
    Mutant("probabilities-trace-x10", _ENTROPY, _PROBS_TRACE, _PROBS_TRACE.replace("tol.trace", "10 * tol.trace")),
    Mutant("classical-leak-off", _ENTROPY, _KEPT_LEAK, "    if False:"),
    Mutant("classical-leak-x10", _ENTROPY, _KEPT_LEAK, _KEPT_LEAK.replace("tol.supp", "10 * tol.supp")),
    # theorem2's hypothesis, judged on each line's d_total after the line pass.
    Mutant("theorem2-support-off", _LUEDERS, _LINE_SUPPORT, "    if False:"),
)


def tier1(tree: Path) -> tuple[bool, str]:
    """Run tier-1 in ``tree`` up to its first failure; whether it passed,
    and the first failing test or the summary line."""
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, env=env)
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode == 0, failed[0] if failed else (lines[-1] if lines else proc.stderr[-500:])


def copy_tree(dest: Path) -> None:
    for part in ("src", "tests", "bench"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", default=[], help="run only the named mutant (repeatable)")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if not args.only or m.name in args.only]
    unknown = set(args.only) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")

    with tempfile.TemporaryDirectory(prefix="gate-mutants-") as tmp:
        control = Path(tmp) / "control"
        copy_tree(control)
        passed, detail = tier1(control)
        print(f"{'control':26s} {'passes' if passed else 'FAILS'}: {detail}", flush=True)
        if not passed:
            return 1
        survivors, stale = [], []
        for m in mutants:
            tree = Path(tmp) / m.name
            copy_tree(tree)
            path = tree / m.path
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name:26s} STALE: its line occurs {text.count(m.old)} times in {m.path}", flush=True)
                stale.append(m.name)
                continue
            path.write_text(text.replace(m.old, m.new))
            passed, detail = tier1(tree)
            print(f"{m.name:26s} {'SURVIVED' if passed else 'killed by'}: {detail}", flush=True)
            if passed:
                survivors.append(m.name)
            shutil.rmtree(tree)
    print(f"survivors: {', '.join(survivors) or 'none'}")
    return 2 if stale else 0


if __name__ == "__main__":
    sys.exit(main())

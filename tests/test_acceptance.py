"""Acceptance gate: the full randomized battery at pinned tolerances.

Each test prints one ``[criterion N] <name>: PASS/FAIL`` line (visible
under ``pytest -s``) and then asserts the underlying conditions, so a
red criterion is both announced and enforced.
"""

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from qrelent import (
    DEFAULT_TOL,
    Projector,
    ProjectiveObservable,
    VerifyConfig,
    corollary1_check,
    frobenius,
    haar_unitary,
    quantum_relative_entropy,
    random_density,
    run_campaign,
    support_projector,
    theorem2_check,
    validate_density,
)
from qrelent.campaign import INFINITE_CONSISTENT, INFINITE_MISMATCH
from qrelent.cli import main

DIMS = (2, 3, 4, 8, 16)


def _report(n: int, name: str, ok: bool) -> None:
    print(f"[criterion {n}] {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_mixture_log_identity():
    cfg = VerifyConfig(identity="lemma1", dims=DIMS, trials=200, seed=101)
    result = run_campaign(cfg)
    ok = result.failures == 0 and result.max_residual <= 1e-8 and result.wall_time < 30.0
    _report(1, "operator log of an orthogonal mixture", ok)
    assert len(result.records) >= 1000
    assert result.failures == 0
    assert result.max_residual <= 1e-8
    assert result.wall_time < 30.0, f"took {result.wall_time:.1f} s"


def test_criterion_2_relative_entropy_mixing():
    finite = run_campaign(VerifyConfig(identity="theorem1", dims=DIMS, trials=200, seed=102))
    violating = run_campaign(
        VerifyConfig(
            identity="theorem1", dims=(2, 3, 4, 8), trials=75, seed=1002, include_infinite=True
        )
    )
    consistent = sum(1 for r in violating.records if r.residual == INFINITE_CONSISTENT)
    mismatched = sum(1 for r in violating.records if r.residual == INFINITE_MISMATCH)
    ok = (
        finite.failures == 0
        and finite.max_residual <= 1e-8
        and violating.failures == 0
        and consistent >= 100
        and mismatched == 0
    )
    _report(2, "term-by-term mixing of relative entropy", ok)
    assert len(finite.records) >= 1000
    assert finite.failures == 0
    assert finite.max_residual <= 1e-8
    assert violating.failures == 0
    assert consistent >= 100
    assert mismatched == 0


def test_criterion_3_entropy_of_mixture():
    cfg = VerifyConfig(
        identity="eq3a", dims=DIMS, trials=100, seed=103, tol=DEFAULT_TOL.replace(identity=1e-9)
    )
    result = run_campaign(cfg)
    ok = result.failures == 0 and result.max_residual <= 1e-9
    _report(3, "entropy of an orthogonal mixture", ok)
    assert len(result.records) >= 500
    assert result.failures == 0
    assert result.max_residual <= 1e-9


def test_criterion_4_measurement_entropy_gap():
    result = run_campaign(VerifyConfig(identity="corollary1", dims=DIMS, trials=100, seed=104))
    # Closed-form spot value, hand-derived: rho = |+><+| measured in the
    # computational basis gives gap = distance = ln 2.
    rho = validate_density(np.full((2, 2), 0.5, dtype=complex), DEFAULT_TOL)
    z_obs = ProjectiveObservable.validated(
        (1.0, -1.0),
        (
            Projector.validated(np.diag([1.0, 0.0]).astype(complex)),
            Projector.validated(np.diag([0.0, 1.0]).astype(complex)),
        ),
        DEFAULT_TOL,
    )
    direct, gap = corollary1_check(rho, z_obs, DEFAULT_TOL)
    ln2 = math.log(2.0)
    spot_ok = (
        direct.is_finite
        and abs(direct.value - ln2) <= 1e-12
        and abs(gap - ln2) <= 1e-12
    )
    ok = result.failures == 0 and result.max_residual <= 1e-8 and spot_ok
    _report(4, "relative entropy to the measured state", ok)
    assert len(result.records) >= 500
    assert result.failures == 0
    assert result.max_residual <= 1e-8
    assert spot_ok


def test_criterion_5_straight_line_under_refinement():
    result = run_campaign(VerifyConfig(identity="corollary2", dims=DIMS, trials=100, seed=105))
    ok = result.failures == 0 and result.max_residual <= 1e-8
    _report(5, "additivity along measurement refinement", ok)
    assert len(result.records) >= 500
    assert result.failures == 0
    # Each record's residual already folds in the two-step composition check.
    assert result.max_residual <= 1e-8


def test_criterion_6_classical_embedding():
    cfg = VerifyConfig(
        identity="corollary3",
        dims=DIMS,
        trials=150,
        seed=106,
        tol=DEFAULT_TOL.replace(identity=1e-10),
        include_infinite=True,
    )
    result = run_campaign(cfg)
    finite = [r for r in result.records if isinstance(r.residual, float)]
    consistent = sum(1 for r in result.records if r.residual == INFINITE_CONSISTENT)
    mismatched = sum(1 for r in result.records if r.residual == INFINITE_MISMATCH)
    ok = (
        result.failures == 0
        and result.max_residual <= 1e-10
        and len(finite) >= 500
        and consistent > 0
        and mismatched == 0
    )
    _report(6, "classical embedding of relative entropy", ok)
    assert result.failures == 0
    assert result.max_residual <= 1e-10
    assert len(finite) >= 500
    assert consistent > 0
    assert mismatched == 0


def _rotate_degenerate_pair(u: np.ndarray, theta: float, phase: complex) -> np.ndarray:
    """Mix the first two columns of ``u`` by a unitary 2x2 rotation."""
    b = u.copy()
    c, s = math.cos(theta), math.sin(theta)
    col0, col1 = u[:, 0].copy(), u[:, 1].copy()
    b[:, 0] = c * col0 + s * phase * col1
    b[:, 1] = -s * np.conj(phase) * col0 + c * col1
    return b


def test_criterion_7_pinched_middle_state():
    result = run_campaign(VerifyConfig(identity="theorem2", dims=DIMS, trials=100, seed=107))

    # Degenerate spectra under three explicitly distinct eigenbases each:
    # the straight line must not care which basis resolves the degeneracy.
    tol = DEFAULT_TOL
    rng = np.random.default_rng(707)
    bases_ok = True
    worst_basis_residual = 0.0
    for i in range(25):
        dim = (3, 4, 6)[i % 3]
        lam = rng.dirichlet(np.ones(dim)) + 0.1
        lam[1] = lam[0]
        lam /= lam.sum()
        u = haar_unitary(dim, int(rng.integers(0, 2**63)))
        sigma = validate_density((u * lam) @ u.conj().T, tol)
        rho = random_density(dim, seed=int(rng.integers(0, 2**63)), tol=tol)
        bases = [
            _rotate_degenerate_pair(u, theta, phase)
            for theta, phase in ((0.4, 1.0), (0.9, 1.0), (1.5, 1j))
        ]
        for a in range(3):
            for b in range(a + 1, 3):
                bases_ok &= frobenius(bases[a] - bases[b]) > 1e-3
        for basis in bases:
            report, _middle = theorem2_check(rho, sigma, tol, basis=basis)
            bases_ok &= report.all_finite
            if report.all_finite:
                worst_basis_residual = max(worst_basis_residual, report.residual)
    bases_ok &= worst_basis_residual <= 1e-8

    # Closed-form qubit spot values, hand-derived: rho = |+><+|,
    # sigma = diag(3/4, 1/4); middle state is the maximally mixed qubit.
    rho = validate_density(np.full((2, 2), 0.5, dtype=complex), tol)
    sigma = validate_density(np.diag([0.75, 0.25]).astype(complex), tol)
    line, middle = theorem2_check(rho, sigma, tol)
    d_total = 0.5 * math.log(16.0 / 3.0)
    d_first = math.log(2.0)
    d_second = 0.5 * math.log(4.0 / 3.0)
    spot_ok = (
        line.all_finite
        and abs(line.d_total.value - d_total) <= 1e-12
        and abs(line.d_first.value - d_first) <= 1e-12
        and abs(line.d_second.value - d_second) <= 1e-12
        and frobenius(middle.matrix - np.eye(2) / 2) <= 1e-12
    )

    ok = result.failures == 0 and result.max_residual <= 1e-8 and bases_ok and spot_ok
    _report(7, "additivity through the pinched middle state", ok)
    assert len(result.records) >= 500
    assert result.failures == 0
    assert result.max_residual <= 1e-8
    assert bases_ok, f"worst explicit-basis residual {worst_basis_residual:.3e}"
    assert spot_ok


def test_criterion_8_foundations():
    tol = DEFAULT_TOL
    rng = np.random.default_rng(808)

    def sub_seed() -> int:
        return int(rng.integers(0, 2**63))

    # Nonnegativity: S(rho||sigma) >= 0 up to tolerance.
    lowest = math.inf
    for t in range(500):
        dim = DIMS[t % len(DIMS)]
        rho = random_density(dim, rank=int(rng.integers(1, dim + 1)), seed=sub_seed(), tol=tol)
        sigma = random_density(dim, seed=sub_seed(), tol=tol)
        value = quantum_relative_entropy(rho, sigma, tol)
        assert value.is_finite  # sigma has full support
        lowest = min(lowest, value.value)
    klein_ok = lowest >= -1e-8

    # Unitary invariance: conjugating both arguments changes nothing.
    worst_shift = 0.0
    for t in range(500):
        dim = DIMS[t % len(DIMS)]
        rho = random_density(dim, rank=int(rng.integers(1, dim + 1)), seed=sub_seed(), tol=tol)
        sigma = random_density(dim, seed=sub_seed(), tol=tol)
        u = haar_unitary(dim, sub_seed())
        before = quantum_relative_entropy(rho, sigma, tol)
        after = quantum_relative_entropy(
            validate_density(u @ rho.matrix @ u.conj().T, tol),
            validate_density(u @ sigma.matrix @ u.conj().T, tol),
            tol,
        )
        assert before.is_finite and after.is_finite
        worst_shift = max(worst_shift, abs(after.value - before.value))
    invariance_ok = worst_shift <= 1e-8

    # Any vector decomposition rho = sum_j a_j a_j^dag built from the
    # spectral square root times orthonormal rows: every vector lies in
    # the support of rho, and together they span exactly that support.
    worst_recon = worst_member = worst_span = 0.0
    for t in range(500):
        dim = DIMS[t % len(DIMS)]
        rho = random_density(dim, rank=int(rng.integers(1, dim + 1)), seed=sub_seed(), tol=tol)
        q = support_projector(rho)
        eigs = rho.spectrum.eigenvalues
        keep = eigs > tol.rank * float(eigs[-1])
        v = rho.spectrum.eigenvectors[:, keep]
        lam = eigs[keep]
        r = int(keep.sum())
        assert r == q.rank
        m = r + int(rng.integers(0, dim))
        rows = haar_unitary(m, sub_seed())[:r, :]
        vectors = (v * np.sqrt(lam)) @ rows
        worst_recon = max(worst_recon, frobenius(vectors @ vectors.conj().T - rho.matrix))
        member = np.linalg.norm(q.matrix @ vectors - vectors, axis=0)
        worst_member = max(worst_member, float(member.max()))
        left = np.linalg.svd(vectors, compute_uv=True)[0][:, :r]
        worst_span = max(worst_span, frobenius(left @ left.conj().T - q.matrix))
    decomposition_ok = worst_recon <= 1e-8 and worst_member <= 1e-8 and worst_span <= 1e-8

    ok = klein_ok and invariance_ok and decomposition_ok
    _report(8, "nonnegativity, unitary invariance, support spanning", ok)
    assert klein_ok, f"lowest value {lowest:.3e}"
    assert invariance_ok, f"worst shift {worst_shift:.3e}"
    assert decomposition_ok, (worst_recon, worst_member, worst_span)


def test_criterion_9_deterministic_reports(tmp_path):
    base = [
        "verify",
        "theorem1",
        "--dims",
        "2,3",
        "--trials",
        "6",
        "--seed",
        "9",
        "--include-infinite",
    ]
    paths = [str(tmp_path / name) for name in ("a.json", "b.json", "c.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [
            main([*base, "--out", paths[0]]),
            main([*base, "--out", paths[1]]),
            main([*base, "--out", paths[2], "--threads", "4"]),
        ]
    blobs = [Path(p).read_bytes() for p in paths]
    ok = codes == [0, 0, 0] and blobs[0] == blobs[1] == blobs[2]
    _report(9, "byte-identical verification reports", ok)
    assert codes == [0, 0, 0]
    assert blobs[0] == blobs[1], "same invocation twice must match byte for byte"
    assert blobs[0] == blobs[2], "thread count must not change the report"

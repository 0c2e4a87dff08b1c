"""Campaign configuration, determinism, and report structure."""

import dataclasses
import json
import math

import numpy as np
import pytest

from helpers import count_kernel_calls, count_solver_calls
from qrelent import (
    DEFAULT_TOL,
    ConfigError,
    NotOrthogonalError,
    ProbabilityVector,
    ProjectiveObservable,
    classical_embedding_check,
    corollary1_check,
    corollary2_check,
    decompose_by_projectors,
    derive_seed,
    entropy_mixing_identity,
    frobenius,
    haar_unitary,
    lemma1_log_decomposition,
    lueders_state,
    random_block_projectors,
    random_density,
    random_refinement,
    random_state_in_support,
    support_leakage,
    support_projector,
    theorem1_breakdown,
    theorem2_check,
    validate_density,
)
from qrelent.campaign import (
    IDENTITIES,
    INFINITE_CONSISTENT,
    INFINITE_MISMATCH,
    VerifyConfig,
    report_document,
    run_campaign,
    write_report,
    _chunk_trials,
    _mixture_chunk,
    _raw_state_in,
)
from qrelent.linop import _STACK_ENTRIES, _spectral_log


def small(identity, **kw):
    base = dict(identity=identity, dims=(2, 3), trials=6, seed=7)
    base.update(kw)
    return VerifyConfig(**base)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(identity="nonsense"),
        dict(identity="lemma1", dims=(1, 2)),
        dict(identity="lemma1", dims=()),
        dict(identity="lemma1", dims=(2, 2)),
        dict(identity="lemma1", trials=0),
        dict(identity="lemma1", seed=-1),
    ],
)
def test_config_rejects(kwargs):
    base = dict(identity="lemma1", dims=(2,), trials=1, seed=0)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        VerifyConfig(**base)


@pytest.mark.parametrize("identity", IDENTITIES)
def test_small_campaign_passes(identity):
    result = run_campaign(small(identity))
    assert result.failures == 0
    assert len(result.records) == 12
    for rec in result.records:
        assert rec.passed
        assert rec.identity == identity


def _block_solves_only(calls, dim: int) -> bool:
    """Whether every solve but the ``dim x dim`` ones is a batched block solve."""
    return all(len(shape) == 3 and shape[-1] < dim for shape in calls if shape != (dim, dim))


def test_corollary1_trial_builds_lueders_state_once(monkeypatch):
    # One 8x8 eigensolve validates the probe state; the Lueders state is
    # validated from its block spectra, and the relative entropy reads
    # both cached spectra.
    calls = count_solver_calls(monkeypatch)
    result = run_campaign(VerifyConfig(identity="corollary1", dims=(8,), trials=1, seed=8))
    assert result.failures == 0
    assert calls.count((8, 8)) == 1
    assert _block_solves_only(calls, 8)


@pytest.mark.parametrize("identity", IDENTITIES)
def test_every_eigensolve_goes_through_the_kernel(monkeypatch, identity):
    # One checked kernel makes every solver call, with the same shapes.
    solves = count_solver_calls(monkeypatch)
    kernel = count_kernel_calls(monkeypatch)
    assert run_campaign(small(identity, include_infinite=True)).failures == 0
    assert solves and kernel == solves


def _corollary3_by_public_calls(cfg: VerifyConfig, dim: int, trial: int):
    """One corollary3 trial drawn as the campaign draws it, through the
    public haar_unitary and classical_embedding_check."""
    rng = np.random.default_rng(derive_seed(cfg.seed, dim, trial))
    k = int(rng.integers(2, dim + 1))
    p = rng.dirichlet(np.ones(k)) + 0.05
    w = rng.dirichlet(np.ones(k)) + 0.05
    if cfg.include_infinite and trial % 3 == 2:
        w[int(np.argmax(p))] = 0.0
    elif k >= 3 and rng.random() < 0.3:
        p[int(rng.integers(0, k))] = 0.0
    p /= p.sum()
    w /= w.sum()
    basis = haar_unitary(dim, int(rng.integers(0, 2**63)))[:, :k]
    return classical_embedding_check(ProbabilityVector.validated(p), ProbabilityVector.validated(w), basis)


def test_corollary3_records_match_a_per_trial_evaluation():
    # At d = 32 the 9 trials span five chunks; the records are those of
    # one trial at a time, bit for bit.
    cfg = VerifyConfig(identity="corollary3", dims=(2, 32), trials=9, seed=11, include_infinite=True)
    assert _chunk_trials(32) < 9 <= _chunk_trials(2)
    records = run_campaign(cfg).records
    for rec in records:
        classical, quantum = _corollary3_by_public_calls(cfg, rec.dim, rec.trial)
        if classical.is_finite and quantum.is_finite:
            assert rec.residual == abs(classical.value - quantum.value)
        else:
            assert not classical.is_finite and not quantum.is_finite
            assert rec.residual == INFINITE_CONSISTENT
    assert [(r.dim, r.trial) for r in records] == [(d, t) for d in (2, 32) for t in range(9)]


def test_corollary3_solves_each_chunk_once(monkeypatch):
    # At d <= 8 one chunk holds all 12 trials: one QR and one solve of
    # the 24 embedded states per dimension.  At d = 32 a chunk is two
    # trials, whose four states make one solve; at d = 64 a chunk is one
    # trial, and each of its two states is solved alone.
    calls = count_solver_calls(monkeypatch)
    run_campaign(VerifyConfig(identity="corollary3", dims=(2, 8), trials=12, seed=3, include_infinite=True))
    assert calls == [(24, 2, 2), (24, 8, 8)]
    calls.clear()
    run_campaign(VerifyConfig(identity="corollary3", dims=(32, 64), trials=3, seed=3))
    assert calls == [(4, 32, 32), (2, 32, 32)] + [(64, 64)] * 6


def test_corollary2_trial_solves_only_the_probe_in_full(monkeypatch):
    # The three Lueders states (coarse, fine, fine after coarse) make
    # block solves only; the probe state is the one 8x8 solve.
    calls = count_solver_calls(monkeypatch)
    result = run_campaign(VerifyConfig(identity="corollary2", dims=(8,), trials=1, seed=9))
    assert result.failures == 0
    assert calls.count((8, 8)) == 1
    assert _block_solves_only(calls, 8)


@pytest.mark.parametrize("identity", ["lemma1", "eq3a"])
def test_mixture_trial_solves_sigma_once(monkeypatch, identity):
    # One 8x8 solve validates the mixture; the decomposition's parts
    # solve in their blocks, and both routes read stored spectra.
    calls = count_solver_calls(monkeypatch)
    result = run_campaign(VerifyConfig(identity=identity, dims=(8,), trials=1, seed=7))
    assert result.failures == 0
    assert calls.count((8, 8)) == 1
    assert _block_solves_only(calls, 8)


def test_mixture_fixture_validates_each_state_once(monkeypatch):
    # The block draws of a chunk are mixed raw: one stacked solve for
    # the chunk's mixtures, then only batched solves of blocks smaller
    # than d, for the parts each decomposition validates in its blocks.
    cfg = VerifyConfig(identity="eq3a", dims=(8,), trials=5, seed=6)
    rngs = [np.random.default_rng(derive_seed(cfg.seed, 8, t)) for t in range(5)]
    calls = count_solver_calls(monkeypatch)
    fixtures = _mixture_chunk(cfg, 8, range(5), rngs)
    assert len(fixtures) == 5
    assert calls[0] == (5, 8, 8)
    assert calls[1:] and all(len(shape) == 3 and shape[-1] < 8 for shape in calls[1:])


def _mixture_by_public_calls(cfg: VerifyConfig, dim: int, trial: int):
    """One lemma1, eq3a or theorem1 trial drawn from its own stream and
    evaluated alone: random_block_projectors for the frame,
    validate_density for the mixture, decompose_by_projectors, and
    random_state_in_support for theorem1's rho.  The raw block states
    come from _raw_state_in, pinned to random_state_in_support below.
    Returns the record's (residual, min_nonzero_eig, leakage) and
    whether both routes are finite."""
    tol = cfg.tol
    rng = np.random.default_rng(derive_seed(cfg.seed, dim, trial))
    sub_seed = lambda: int(rng.integers(0, 2**63))  # noqa: E731
    n_blocks = int(rng.integers(2, min(dim, 4) + 1))
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n_blocks - 1, replace=False))
    sizes = np.diff([0, *cuts.tolist(), dim]).tolist()
    blocks = random_block_projectors(dim, sizes, seed=sub_seed(), tol=tol)
    infinite = cfg.identity == "theorem1" and cfg.include_infinite and trial % 3 == 2
    inside = blocks[:-1] if infinite else blocks
    weights = rng.dirichlet(np.ones(len(inside))) + 0.1
    if not infinite and len(inside) >= 2 and rng.random() < 0.3:
        weights[int(rng.integers(0, len(inside)))] = 0.0
    weights /= weights.sum()
    mixture = np.zeros((dim, dim), dtype=complex)
    for b, w in zip(inside, weights.tolist()):
        if w != 0.0:
            rank = int(rng.integers(1, b.rank + 1)) if cfg.include_singular else b.rank
            mixture += w * _raw_state_in(b, rank, sub_seed())
    d = decompose_by_projectors(validate_density(mixture, tol), inside, tol)
    min_eig = float(d.sigma.spectrum.eigenvalues[0])
    if cfg.identity == "lemma1":
        return (frobenius(_spectral_log(d.sigma.spectrum) - lemma1_log_decomposition(d)), min_eig, None), True
    if cfg.identity == "eq3a":
        lhs, rhs = entropy_mixing_identity(d)
        return (abs(lhs - rhs), min_eig, None), True
    supp = support_projector(d.sigma)
    if infinite:
        rho_out = _raw_state_in(blocks[-1], 1, sub_seed())
        rho_in = _raw_state_in(supp, int(rng.integers(1, supp.rank + 1)), sub_seed())
        mix = rng.uniform(0.2, 0.8)
        rho = validate_density(mix * rho_in + (1.0 - mix) * rho_out, tol)
    else:
        options = sorted({1, math.ceil(dim / 2), dim} if cfg.include_singular else {dim})
        options = [r for r in options if r <= supp.rank] or [supp.rank]
        rank = int(options[int(rng.integers(0, len(options)))])
        q = supp
        if rng.random() < 0.25:
            populated = [p for p in d.supports if p.rank >= 1]
            q = populated[int(rng.integers(0, len(populated)))]
        rho = random_state_in_support(q, min(rank, q.rank), sub_seed(), tol)
    bd = theorem1_breakdown(rho, d, tol)
    finite = bd.total_lhs.is_finite and bd.total_rhs.is_finite
    assert finite or not (bd.total_lhs.is_finite or bd.total_rhs.is_finite)
    residual = bd.residual if finite else INFINITE_CONSISTENT
    return (residual, min_eig, support_leakage(rho, d.sigma)), finite


@pytest.mark.parametrize("identity", ["lemma1", "eq3a", "theorem1"])
@pytest.mark.parametrize("include_singular", [True, False])
def test_mixture_records_match_a_per_trial_evaluation(identity, include_singular):
    # At d = 32 the 9 trials span five chunks, at d = 2 one; the records
    # are those of one trial at a time, bit for bit, infinite slots too.
    cfg = VerifyConfig(
        identity=identity, dims=(2, 32), trials=9, seed=11, include_infinite=True, include_singular=include_singular
    )
    assert _chunk_trials(32) < 9 <= _chunk_trials(2)
    records = run_campaign(cfg).records
    assert [(r.dim, r.trial) for r in records] == [(d, t) for d in (2, 32) for t in range(9)]
    infinite = 0
    for rec in records:
        expected, finite = _mixture_by_public_calls(cfg, rec.dim, rec.trial)
        assert (rec.residual, rec.min_nonzero_eig, rec.leakage) == expected
        infinite += not finite
    assert infinite == (6 if identity == "theorem1" else 0)


@pytest.mark.parametrize("identity", ["lemma1", "eq3a", "theorem1"])
def test_mixture_campaigns_solve_each_chunk_once(monkeypatch, identity):
    # The mixtures of a chunk are validated by one stacked solve: all 12
    # trials at d <= 8, two at d = 32.  At d = 64 a chunk is one trial,
    # whose mixture is solved alone, as validate_density solves it.
    # theorem1's rho of a chunk are validated together, one solve per
    # size: its d x d rho make one more stack at d <= 8, and are solved
    # alone at d = 32 (no chunk there holds two) and d = 64.
    calls = count_solver_calls(monkeypatch)
    rho = {2: ([(8, 2, 2)], 0), 8: ([(4, 8, 8)], 0), 32: ([], 4), 64: ([], 1)}
    for dim, trials, stacks in [(2, 12, [(12, 2, 2)]), (8, 12, [(12, 8, 8)]), (32, 12, [(2, 32, 32)] * 6), (64, 3, [])]:
        rho_stacks, rho_alone = rho[dim] if identity == "theorem1" else ([], 0)
        calls.clear()
        run_campaign(VerifyConfig(identity=identity, dims=(dim,), trials=trials, seed=3, include_infinite=True))
        assert [shape for shape in calls if len(shape) == 3 and shape[1:] == (dim, dim)] == stacks + rho_stacks
        assert calls.count((dim, dim)) == (trials if dim == 64 else 0) + rho_alone
        if dim == 8:
            # One decomposition pass, and theorem1's breakdown pass after
            # its rho: each solves the blocks of one size, across the
            # chunk, in one call, sizes ascending.
            assert calls == _MIXTURE_CALLS_AT_8[identity == "theorem1"]
        else:
            # At d = 32 a pass holds two trials; at d = 64 one, whose
            # blocks are solved as before, one call per size of its own.
            assert len(calls) == _MIXTURE_CALL_COUNTS[identity == "theorem1"][dim]


_MIXTURE_CALLS_AT_8 = {
    False: [(12, 8, 8), (13, 2, 2), (8, 3, 3), (2, 4, 4), (3, 5, 5), (2, 6, 6)],
    True: [(12, 8, 8), (11, 2, 2), (8, 3, 3), (2, 4, 4), (3, 5, 5), (1, 6, 6)]
    + [(2, 2, 2), (3, 5, 5), (4, 8, 8), (1, 1), (2, 3, 3)]
    + [(7, 2, 2), (3, 3, 3), (1, 5, 5)],
}
_MIXTURE_CALL_COUNTS = {False: {2: 1, 32: 34, 64: 12}, True: {2: 3, 32: 64, 64: 20}}


def test_mixture_chunk_draws_each_frame_in_one_qr(monkeypatch):
    # One QR per chunk: on a (12, d, d) stack at d <= 8, on one 2-D
    # matrix at d = 64, as random_block_projectors draws it.
    shapes = []
    real = np.linalg.qr

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    run_campaign(VerifyConfig(identity="eq3a", dims=(4, 64), trials=12, seed=3))
    assert shapes == [(12, 4, 4)] + [(64, 64)] * 12


def _corollary_by_public_calls(cfg: VerifyConfig, dim: int, trial: int):
    """One corollary1 or corollary2 trial drawn from its own stream and
    evaluated alone: random_block_projectors for the frame,
    random_density for the probe, then corollary1_check, or
    random_refinement and corollary2_check.  Returns the record's
    (residual, min_nonzero_eig, leakage)."""
    tol = cfg.tol
    rng = np.random.default_rng(derive_seed(cfg.seed, dim, trial))
    sub_seed = lambda: int(rng.integers(0, 2**63))  # noqa: E731
    n_blocks = int(rng.integers(2, min(dim, 4) + 1))
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n_blocks - 1, replace=False))
    sizes = np.diff([0, *cuts.tolist(), dim]).tolist()
    blocks = random_block_projectors(dim, sizes, seed=sub_seed(), tol=tol)
    if cfg.identity == "corollary2":
        refinement_seed = sub_seed()
        coarse, fine = random_refinement(blocks, refinement_seed, tol, rank_one=bool(rng.random() < 0.25))
    rank = int(rng.integers(1, dim + 1)) if cfg.include_singular else dim
    rho = random_density(dim, rank=rank, seed=sub_seed(), tol=tol)
    if cfg.identity == "corollary1":
        obs = ProjectiveObservable.validated(range(len(blocks)), blocks, tol)
        direct, gap = corollary1_check(rho, obs, tol)
        assert direct.is_finite
        rho_l = lueders_state(rho, obs, tol)
        return abs(direct.value - gap), float(rho_l.spectrum.eigenvalues[0]), support_leakage(rho, rho_l)
    report, composition = corollary2_check(rho, coarse, fine, tol)
    assert report.all_finite
    return max(report.residual, composition), None, None


@pytest.mark.parametrize("identity", ["corollary1", "corollary2"])
@pytest.mark.parametrize("include_singular", [True, False])
def test_corollary_records_match_a_per_trial_evaluation(identity, include_singular):
    # At d = 32 the 9 trials span five chunks, at d = 2 one; the records
    # are those of one trial at a time, bit for bit.
    cfg = VerifyConfig(
        identity=identity, dims=(2, 32), trials=9, seed=11, include_infinite=True, include_singular=include_singular
    )
    assert _chunk_trials(32) < 9 <= _chunk_trials(2)
    records = run_campaign(cfg).records
    assert [(r.dim, r.trial) for r in records] == [(d, t) for d in (2, 32) for t in range(9)]
    for rec in records:
        assert (rec.residual, rec.min_nonzero_eig, rec.leakage) == _corollary_by_public_calls(cfg, rec.dim, rec.trial)


@pytest.mark.parametrize("identity", ["corollary1", "corollary2"])
def test_corollary_campaigns_solve_each_chunk_once(monkeypatch, identity):
    # The probes of a chunk are validated by one stacked solve: all 12
    # trials at d <= 8, two at d = 32.  At d = 64 a chunk is one trial,
    # whose probe is solved alone, as validate_density solves it; every
    # other solve is of blocks smaller than d.
    calls = count_solver_calls(monkeypatch)
    for dim, trials, stacks in [(2, 12, [(12, 2, 2)]), (8, 12, [(12, 8, 8)]), (32, 12, [(2, 32, 32)] * 6), (64, 3, [])]:
        calls.clear()
        run_campaign(VerifyConfig(identity=identity, dims=(dim,), trials=trials, seed=3, include_infinite=True))
        assert [shape for shape in calls if len(shape) == 3 and shape[1:] == (dim, dim)] == stacks
        assert calls.count((dim, dim)) == (trials if dim == 64 else 0)
        assert all(shape[-1] < dim for shape in calls if shape[-2:] != (dim, dim))
        # The Lüders states of a chunk are built in passes (corollary1's
        # one; corollary2's rho_B, rho_A and composed states), and each
        # pass solves the blocks of one size, across the chunk, in one
        # call, sizes ascending.  At d = 32 a pass holds two trials; at
        # d = 64 one, whose blocks are solved as before, one call per size
        # of its own.
        blocks = [shape for shape in calls if shape[-1] < dim]
        assert (blocks if dim <= 8 else len(blocks)) == _LUEDERS_BLOCK_CALLS[identity][dim]


_LUEDERS_BLOCK_CALLS = {
    "corollary1": {2: [], 8: [(13, 2, 2), (8, 3, 3), (2, 4, 4), (3, 5, 5), (2, 6, 6)], 32: 28, 64: 9},
    "corollary2": {
        2: [],
        8: [(12, 2, 2), (4, 3, 3)] + [(13, 2, 2), (8, 3, 3), (2, 4, 4), (3, 5, 5), (2, 6, 6)] + [(12, 2, 2), (4, 3, 3)],
        32: 82,
        64: 33,
    },
}


@pytest.mark.parametrize("identity", ["corollary1", "corollary2"])
def test_corollary_chunk_draws_each_frame_in_one_qr(monkeypatch, identity):
    # One QR per chunk for the frames: on a (12, d, d) stack at d = 4,
    # on one 2-D matrix at d = 64, as random_block_projectors draws it.
    # corollary2's refinement rotations take one QR per block rank of a
    # chunk: a stack per rank at d = 4; at d = 64, where no family of
    # these draws repeats a rank, one 2-D QR per coarse block.
    shapes = []
    real = np.linalg.qr

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    for dim, frames in [(4, [(12, 4, 4)]), (64, [(64, 64)] * 12)]:
        shapes.clear()
        run_campaign(VerifyConfig(identity=identity, dims=(dim,), trials=12, seed=3))
        assert [shape for shape in shapes if shape[-1] == dim] == frames
        rotations = [shape for shape in shapes if shape[-1] != dim]
        if identity == "corollary1":
            assert not rotations
        elif dim == 4:
            assert rotations == [(29, 1, 1), (3, 3, 3), (5, 2, 2)]
        else:
            assert rotations and all(len(shape) == 2 and shape[0] < dim for shape in rotations)


def _theorem2_by_public_calls(cfg: VerifyConfig, dim: int, trial: int):
    """One theorem2 trial drawn from its own stream and evaluated alone:
    haar_unitary and validate_density for a degenerate sigma, else
    random_density, then random_state_in_support and theorem2_check.
    Returns the record's (residual, min_nonzero_eig, leakage) and the
    rank of sigma."""
    tol = cfg.tol
    rng = np.random.default_rng(derive_seed(cfg.seed, dim, trial))
    sub_seed = lambda: int(rng.integers(0, 2**63))  # noqa: E731
    if trial % 4 == 1:
        lam = rng.dirichlet(np.ones(dim)) + 0.05
        lam[1] = lam[0]
        if dim >= 4:
            lam[3] = lam[2]
        if cfg.include_singular and rng.random() < 0.3 and dim >= 3:
            lam[-1] = 0.0
        lam /= lam.sum()
        u = haar_unitary(dim, sub_seed())
        sigma = validate_density((u * lam) @ u.conj().T, tol)
    else:
        rank = int(rng.integers(max(1, dim // 2), dim + 1)) if cfg.include_singular else dim
        sigma = random_density(dim, rank=rank, seed=sub_seed(), tol=tol)
    supp = support_projector(sigma)
    rho = random_state_in_support(supp, int(rng.integers(1, supp.rank + 1)), sub_seed(), tol)
    report, _middle = theorem2_check(rho, sigma, tol)
    assert report.all_finite
    return (report.residual, float(sigma.spectrum.eigenvalues[0]), support_leakage(rho, sigma)), supp.rank


@pytest.mark.parametrize("include_singular", [True, False])
def test_theorem2_records_match_a_per_trial_evaluation(include_singular):
    # At d = 32 the 9 trials span five chunks, at d = 2 one; trials 1
    # and 5 have a degenerate sigma.  The records are those of one trial
    # at a time, bit for bit, singular sigma too.
    cfg = VerifyConfig(identity="theorem2", dims=(2, 32), trials=9, seed=11, include_singular=include_singular)
    assert _chunk_trials(32) < 9 <= _chunk_trials(2)
    records = run_campaign(cfg).records
    assert [(r.dim, r.trial) for r in records] == [(d, t) for d in (2, 32) for t in range(9)]
    singular = 0
    for rec in records:
        expected, rank = _theorem2_by_public_calls(cfg, rec.dim, rec.trial)
        assert (rec.residual, rec.min_nonzero_eig, rec.leakage) == expected
        singular += rank < rec.dim
    assert bool(singular) == include_singular


def test_theorem2_campaigns_solve_each_chunk_once(monkeypatch):
    # Every sigma of a chunk is validated by one stacked solve: all 12
    # trials at d <= 8, two at d = 32.  At d = 64 a chunk is one trial,
    # and every d x d solve is of one matrix, as validate_density solves
    # it.  Then the chunk's rho are validated, one solve per rank of
    # supp sigma in the order the ranks first appear, a lone rho alone;
    # a full-rank sigma's rho joins the d x d stacks.  The degenerate
    # sigma of a chunk (trials 1, 5 and 9) draw their eigenbases with
    # one Haar QR, on one 2-D matrix when the chunk holds one of them.
    calls = count_solver_calls(monkeypatch)
    shapes = []
    real = np.linalg.qr

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    for dim, trials, first, stacks, haar in [
        (2, 12, [(12, 2, 2), (6, 2, 2), (6, 1, 1)], [(12, 2, 2), (6, 2, 2)], [(3, 2, 2)]),
        (8, 12, [(12, 8, 8), (3, 7, 7), (5, 8, 8), (3, 5, 5), (6, 6)], [(12, 8, 8), (5, 8, 8)], [(3, 8, 8)]),
        (32, 12, [(2, 32, 32), (21, 21), (32, 32)], [(2, 32, 32)] * 6, [(32, 32)] * 3),
        (64, 3, [(64, 64), (37, 37)], [], [(64, 64)]),
    ]:
        calls.clear()
        shapes.clear()
        run_campaign(VerifyConfig(identity="theorem2", dims=(dim,), trials=trials, seed=3))
        assert calls[: len(first)] == first
        # Then one middle-state pass: the kernel blocks of one size, across
        # the chunk, in one call, sizes ascending.  At d = 32 a pass holds
        # two trials; at d = 64 one, solved as before.
        middle = {2: [], 8: [(1, 2, 2), (3, 3, 3)], 32: 27, 64: 8}[dim]
        assert (calls[len(first) :] if dim <= 8 else len(calls)) == middle
        assert [shape for shape in calls if len(shape) == 3 and shape[1:] == (dim, dim)] == stacks
        if dim == 64:
            assert calls.count((dim, dim)) >= trials
        assert [shape for shape in shapes if shape[-2:] == (dim, dim)] == haar


def test_block_stacks_of_a_pass_fit_one_slice(monkeypatch):
    # A pass's blocks are one chunk's at one d, and linop._block_spectra
    # solves each block size in one call, without slicing: a chunk's
    # d x d operators fit one slice, or the chunk is one trial whose
    # blocks (at most d^2 entries per size) take the pass's lone-item path.
    for dim in range(2, 129):
        assert _chunk_trials(dim) == 1 or _chunk_trials(dim) * dim * dim <= _STACK_ENTRIES
    calls = count_solver_calls(monkeypatch)
    for identity in ("theorem1", "corollary2", "theorem2"):
        for dim in (16, 32):
            calls.clear()
            run_campaign(VerifyConfig(identity=identity, dims=(dim,), trials=24, seed=5, include_infinite=True))
            blocks = [shape for shape in calls if len(shape) == 3 and shape[-1] < dim]
            assert blocks
            assert max(math.prod(shape) for shape in blocks) <= _STACK_ENTRIES


def test_chunk_error_names_the_chunk():
    # Under an absurd tolerance the blocks of a chunk fail their
    # orthogonality gate; the error keeps its class and names the chunk.
    cfg = VerifyConfig(identity="eq3a", dims=(2,), trials=3, seed=0, tol=DEFAULT_TOL.replace(identity=1e-30))
    with pytest.raises(NotOrthogonalError, match=r"^eq3a d=2 trials 0-2 \(seed 0\): projectors 0 and 1 overlap"):
        run_campaign(cfg)
    one = VerifyConfig(identity="theorem1", dims=(64,), trials=2, seed=5, tol=cfg.tol)
    with pytest.raises(NotOrthogonalError, match=r"^theorem1 d=64 trial 0 \(seed 5\): "):
        run_campaign(one)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_raw_fixture_state_matches_random_state_in_support(rank):
    # The campaign mixes raw blocks drawn as random_state_in_support
    # draws them: the same state, before validation.
    p = random_block_projectors(6, (3, 3), seed=3)[1]
    raw = _raw_state_in(p, rank, 17)
    assert np.abs(raw - random_state_in_support(p, rank, 17).matrix).max() <= 1e-14


def test_report_is_deterministic():
    cfg = small("theorem1", include_infinite=True)
    a = report_document(run_campaign(cfg))
    b = report_document(run_campaign(cfg))
    assert a == b


def test_infinite_slots_appear():
    cfg = small("theorem1", trials=9, include_infinite=True)
    result = run_campaign(cfg)
    tagged = [r for r in result.records if r.residual == INFINITE_CONSISTENT]
    mismatched = [r for r in result.records if r.residual == INFINITE_MISMATCH]
    assert len(tagged) == 2 * 3  # every third trial, per dim
    assert not mismatched
    assert result.failures == 0


def test_without_infinite_all_residuals_numeric():
    result = run_campaign(small("theorem1", trials=9))
    assert all(isinstance(r.residual, float) for r in result.records)


def test_record_order_sorts_dims():
    cfg = VerifyConfig(identity="eq3a", dims=(4, 2), trials=3, seed=1)
    result = run_campaign(cfg)
    keys = [(r.dim, r.trial) for r in result.records]
    assert keys == sorted(keys)
    assert keys[0][0] == 2


def test_report_document_shape():
    cfg = small("lemma1")
    result = run_campaign(cfg)
    doc = report_document(result)
    assert doc["schema_version"] == 1
    assert doc["identity"] == "lemma1"
    assert doc["config"]["dims"] == [2, 3]
    assert doc["config"]["trials"] == 6
    assert doc["config"]["seed"] == 7
    assert "tolerances" in doc["config"]
    assert "wall_time" not in doc
    assert "wall_time" not in doc["summary"]
    assert doc["summary"]["trials"] == 12
    assert doc["summary"]["failures"] == 0
    records = doc["records"]
    assert len(records) == 12
    finite = [r["residual"] for r in records if isinstance(r["residual"], float)]
    assert doc["summary"]["max_residual"] == max(finite)
    for rec in records:
        assert set(rec) >= {"identity", "dim", "trial", "seed", "residual", "passed"}


def test_report_records_match_dataclass_fields():
    # Same keys in the same order as dataclasses.asdict, so the same bytes.
    result = run_campaign(small("theorem1", include_infinite=True))
    records = report_document(result)["records"]
    assert json.dumps(records) == json.dumps([dataclasses.asdict(r) for r in result.records])


def test_write_report_roundtrip(tmp_path):
    cfg = small("corollary1", trials=2)
    result = run_campaign(cfg)
    path = tmp_path / "report.json"
    write_report(result, path)
    text = path.read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc == report_document(result)


def test_max_residual_is_small():
    for identity in IDENTITIES:
        result = run_campaign(small(identity, trials=4))
        assert result.max_residual < 1e-8, identity


def test_singular_toggle_runs():
    result = run_campaign(small("theorem2", include_singular=False))
    assert result.failures == 0


# Whether an identity's records carry (min_nonzero_eig, leakage): a
# reference state, and a probe state checked against it.
_DIAGNOSTICS = {
    "lemma1": (True, False),
    "eq3a": (True, False),
    "theorem1": (True, True),
    "corollary1": (True, True),
    "corollary2": (False, False),
    "corollary3": (False, False),
    "theorem2": (True, True),
}


@pytest.mark.parametrize("identity", IDENTITIES)
def test_min_nonzero_eig_recorded(identity):
    has_eig, has_leakage = _DIAGNOSTICS[identity]
    result = run_campaign(small(identity, trials=3, include_infinite=True))
    for r in result.records:
        assert (r.min_nonzero_eig is not None, r.leakage is not None) == (has_eig, has_leakage)
        if has_eig:
            assert r.min_nonzero_eig > 0 and np.isfinite(r.min_nonzero_eig)
        if has_leakage:
            assert r.leakage >= 0


@pytest.mark.parametrize("identity", IDENTITIES)
def test_include_infinite_violates_support_only_for_theorem1_and_corollary3(identity):
    # Every third trial of theorem1 and corollary3 leaks out of the
    # support and comes back infinite on both routes; no other identity
    # draws such a trial.
    records = run_campaign(small(identity, include_infinite=True)).records
    infinite = [r for r in records if isinstance(r.residual, str)]
    if identity in ("theorem1", "corollary3"):
        assert [(r.dim, r.trial) for r in infinite] == [(r.dim, r.trial) for r in records if r.trial % 3 == 2]
        assert all(r.residual == INFINITE_CONSISTENT for r in infinite)
    else:
        assert infinite == []

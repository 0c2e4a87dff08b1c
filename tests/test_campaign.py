"""Campaign configuration, determinism, and report structure."""

import dataclasses
import json

import numpy as np
import pytest

from helpers import count_kernel_calls, count_solver_calls
from qrelent import (
    DEFAULT_TOL,
    ConfigError,
    ProbabilityVector,
    classical_embedding_check,
    derive_seed,
    haar_unitary,
    random_block_projectors,
    random_state_in_support,
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
    _mixture_fixture,
    _raw_state_in,
)


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
    # The block draws are mixed raw: one solve for the mixture, then
    # one batched solve per block size for the parts the decomposition
    # validates in their blocks.
    blocks = random_block_projectors(8, (2, 3, 3), seed=5)
    calls = count_solver_calls(monkeypatch)
    d = _mixture_fixture(np.random.default_rng(6), blocks, DEFAULT_TOL, True, allow_zero_weight=False)
    assert all(part is not None for part in d.parts)
    assert sorted(calls) == [(1, 2, 2), (2, 3, 3), (8, 8)]


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


def test_min_nonzero_eig_recorded():
    result = run_campaign(small("lemma1", trials=3))
    eigs = [r.min_nonzero_eig for r in result.records if r.min_nonzero_eig is not None]
    assert eigs
    assert all(e > 0 for e in eigs)
    assert all(np.isfinite(e) for e in eigs)

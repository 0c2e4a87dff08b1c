"""Randomized verification campaigns over the exact identities.

A campaign draws seeded random fixtures (states, decompositions,
observables) for one named identity, evaluates both sides of that
identity by independent routes, and records a residual — or, for
trials built to violate a support hypothesis, whether both routes
agree on infinity.  Records depend only on the configuration and the
per-trial seed derived from ``(master seed, dim, trial index)``, so a
report is byte-for-byte reproducible.

Trials run a chunk at a time.  Each trial draws from its own generator,
so a chunk takes its draws in passes over its trials without changing
any stream, each trial's in the order a trial alone takes them.  What
a pass draws is then solved together, grouped by shape as
:func:`~qrelent.linop._by_shape` groups it: every Haar QR (block
frames, corollary2's refinement rotations by block rank, the
eigenbases of corollary3 and of theorem2's degenerate sigma) and every
validation (mixtures, probes, corollary3's embedded states, theorem2's
sigma, and the rho of theorem1 and theorem2, by size).  The projector
families of a chunk are gated in passes, one Gram per frame shape: its
block frames, corollary2's rotated blocks, the observables of
corollary1 and corollary2, corollary2's refinements, and the bases of
corollary3.  The checks run in passes too, each pass one stacked call
that solves the blocks of one size, across the chunk, together: the
decompositions of :func:`_mixture_chunk`, theorem1's breakdowns,
corollary1's Lüders states, corollary2's rho_B, then its rho_A, then its composed states,
and theorem2's middle states.  Stacking joins trials, never routes: the
operands of two routes never share a pass.  A stacked call gates and
solves each matrix as it would be alone, so grouping changes no record.

Passing trials give the records of one trial at a time.  A chunk gates
what it draws first before what is built on it: its frames,
probability vectors and sigma before their states, every coarse
observable and every rotation's draw before any rotated block's Gram
gate, every frame and family of a chunk before any refinement or
Lüders state, every rho before any trial's check, every refinement
before any Lüders state, every rho_B before any rho_A, every middle state of theorem2 before any support check
(``d_total``), every family's orthogonality before any block state, and each
matrix's Hermiticity before its slice's solve.  So when several trials
of a chunk fail (under a tight ``--tol``), the error raised may be a
later trial's rather than the one the first failing trial raises alone.
An error raised inside a chunk names the chunk.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FileFormatError, QrelentError
from .linop import (
    DEFAULT_TOL,
    DensityOperator,
    Projector,
    Tolerances,
    frobenius,
    support_leakage,
    support_projector,
    _STACK_ENTRIES,
    _by_shape,
    _spectral_log,
    _validated,
)
from .entropy import ProbabilityVector
from .mixing import (
    OrthogonalDecomposition,
    entropy_mixing_identity,
    lemma1_log_decomposition,
    _breakdowns,
    _classical_embedding_checks,
    _decompositions,
)
from .lueders import _corollary1_checks, _corollary2_checks, _theorem2_checks, _validated_observables
from .stategen import (
    derive_seed,
    _composition,
    _ginibre,
    _haar,
    _lifted_states,
    _random_block_families,
    _random_refinements,
    _raw_density,
    _rng,
)

__all__ = [
    "IDENTITIES",
    "VerifyConfig",
    "TrialRecord",
    "CampaignResult",
    "run_campaign",
    "report_document",
    "write_report",
]

IDENTITIES = (
    "lemma1",
    "eq3a",
    "theorem1",
    "corollary1",
    "corollary2",
    "corollary3",
    "theorem2",
)

INFINITE_CONSISTENT = "infinite-consistent"
INFINITE_MISMATCH = "infinite-mismatch"


@dataclass(frozen=True)
class VerifyConfig:
    """What to verify and how hard to try.  ``include_infinite`` adds
    support-violating trials to theorem1 and corollary3 only."""

    identity: str
    dims: tuple[int, ...] = (2, 3, 4, 8, 16)
    trials: int = 200
    seed: int = 0
    tol: Tolerances = DEFAULT_TOL
    include_singular: bool = True
    include_infinite: bool = False

    def __post_init__(self) -> None:
        if self.identity not in IDENTITIES:
            raise ConfigError(f"unknown identity {self.identity!r}; expected one of {', '.join(IDENTITIES)}")
        if not self.dims or any(d < 2 for d in self.dims):
            raise ConfigError(f"dims must all be >= 2, got {self.dims}")
        if len(set(self.dims)) != len(self.dims):
            raise ConfigError(f"dims must not repeat, got {self.dims}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class TrialRecord:
    """One trial's outcome.

    ``residual`` is a float for finite trials, or one of the strings
    ``"infinite-consistent"`` / ``"infinite-mismatch"`` when at least
    one evaluation route returned infinity.  ``min_nonzero_eig`` is the
    smallest retained eigenvalue of the trial's reference state (a
    conditioning diagnostic); ``leakage`` is the trace mass of the
    probe state outside the reference support, where a probe state
    exists.  The reference state is sigma for lemma1, eq3a, theorem1
    and theorem2, and the Lüders state rho_L for corollary1; the probe
    is the trial's rho for theorem1, corollary1 and theorem2.  lemma1
    and eq3a have no probe, and corollary2 and corollary3 record
    neither, so their fields are ``None``.
    """

    identity: str
    dim: int
    trial: int
    seed: int
    residual: float | str
    min_nonzero_eig: float | None
    leakage: float | None
    passed: bool


@dataclass(frozen=True)
class CampaignResult:
    config: VerifyConfig
    records: tuple[TrialRecord, ...]
    failures: int
    max_residual: float | None
    wall_time: float


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


# What a trial returns: (lhs finite, rhs finite, residual, reference,
# probe), with residual None unless both sides are finite, and reference
# and probe the trial's states as TrialRecord names them, or None where
# the identity has none; ``run_campaign`` turns it into a TrialRecord.
# Identities that claim a finite value (corollary1, corollary2,
# theorem2) pass their claimed side as finite, so any infinity is an
# infinite-mismatch and fails.
_Outcome = tuple[bool, bool, float | None, DensityOperator | None, DensityOperator | None]


def _verdict(lhs_finite: bool, rhs_finite: bool, residual: float | None, tol: Tolerances):
    """Map two routes' outcomes to (record residual, passed)."""
    if lhs_finite and rhs_finite:
        assert residual is not None
        return residual, residual <= tol.identity
    if lhs_finite != rhs_finite:
        return INFINITE_MISMATCH, False
    return INFINITE_CONSISTENT, True


def _random_weights(rng: np.random.Generator, n: int, allow_zero: bool) -> np.ndarray:
    # Floor the Dirichlet draw so random weights stay well away from
    # the spectral cutoff; deliberate zeros are inserted separately.
    w = rng.dirichlet(np.ones(n)) + 0.1
    if allow_zero and n >= 2 and rng.random() < 0.3:
        w[int(rng.integers(0, n))] = 0.0
    return w / w.sum()


def _raw_state_in(p: Projector, rank: int, seed: int) -> np.ndarray:
    """The matrix of ``random_state_in_support(p, rank, seed)``, unvalidated."""
    return p.basis @ _raw_density(p.rank, rank, seed) @ p.basis.conj().T


def _infinite_slot(cfg: VerifyConfig, trial: int) -> bool:
    """Whether a theorem1 or corollary3 trial violates the support
    hypothesis, as every third one does under ``include_infinite``.  No
    other identity asks: lemma1 and eq3a have no probe, corollary1 and
    corollary2 cannot leak by construction, and theorem2 raises on a leak."""
    return cfg.include_infinite and trial % 3 == 2


def _frames(cfg: VerifyConfig, dim: int, rngs: list[np.random.Generator]) -> list[list[Projector]]:
    """Each trial's random block frame: its block sizes, then its frame
    seed, drawn from its own stream.  One QR call builds every frame,
    each block through the Gram gate of
    :meth:`~qrelent.linop.Projector.from_basis`."""
    sizes = [_composition(rng, dim, int(rng.integers(2, min(dim, 4) + 1))) for rng in rngs]
    return _random_block_families(dim, sizes, [_sub_seed(rng) for rng in rngs], cfg.tol)


def _mixture_chunk(
    cfg: VerifyConfig, dim: int, trials: range, rngs: list[np.random.Generator], confine: bool = False
) -> list[tuple[list[Projector], OrthogonalDecomposition]]:
    """Per trial of a chunk, its :func:`_frames` frame and a state mixed
    over it, decomposed back; returns each trial's blocks and decomposition.

    After its frame, each trial draws the weight, rank and seed of each
    block state.  With ``confine``, an infinite slot mixes over every
    block but the last and allows no zero weight.  The raw block states
    are mixed, one :func:`~qrelent.linop._validated` call validates
    the chunk's mixtures, and one decomposition pass splits them.
    """
    tol = cfg.tol
    frames = _frames(cfg, dim, rngs)
    inside, mixtures = [], []
    for trial, rng, blocks in zip(trials, rngs, frames):
        n = len(blocks) - 1 if confine and _infinite_slot(cfg, trial) else len(blocks)
        mixture = np.zeros((dim, dim), dtype=complex)
        for b, w in zip(blocks, _random_weights(rng, n, allow_zero=n == len(blocks)).tolist()):
            if w != 0.0:
                rank = int(rng.integers(1, b.rank + 1)) if cfg.include_singular else b.rank
                mixture += w * _raw_state_in(b, rank, _sub_seed(rng))
        inside.append(blocks[:n])
        mixtures.append(mixture)
    return list(zip(frames, _decompositions(list(zip(_validated(mixtures, tol), inside)), tol)))


def _chunk_lemma1(cfg: VerifyConfig, dim: int, trials: range, rngs: list[np.random.Generator]) -> list[_Outcome]:
    return [
        (True, True, frobenius(_spectral_log(d.sigma.spectrum) - lemma1_log_decomposition(d)), d.sigma, None)
        for _, d in _mixture_chunk(cfg, dim, trials, rngs)
    ]


def _chunk_eq3a(cfg: VerifyConfig, dim: int, trials: range, rngs: list[np.random.Generator]) -> list[_Outcome]:
    out = []
    for _, d in _mixture_chunk(cfg, dim, trials, rngs):
        lhs, rhs = entropy_mixing_identity(d)
        out.append((True, True, abs(lhs - rhs), d.sigma, None))
    return out


def _chunk_theorem1(cfg: VerifyConfig, dim: int, trials: range, rngs: list[np.random.Generator]) -> list[_Outcome]:
    """A chunk of theorem1 trials: the fixtures of :func:`_mixture_chunk`, then each
    trial's rho drawn on from its own stream, all validated together, then
    one breakdown pass."""
    tol = cfg.tol
    fixtures = _mixture_chunk(cfg, dim, trials, rngs, confine=True)
    draws = []
    for trial, rng, (blocks, d) in zip(trials, rngs, fixtures):
        supp = support_projector(d.sigma)
        if _infinite_slot(cfg, trial):
            # sigma is confined to all blocks but the last; give rho mass
            # there, so both evaluation routes must independently report +inf.
            rho_out = _raw_state_in(blocks[-1], 1, _sub_seed(rng))
            rho_in = _raw_state_in(supp, int(rng.integers(1, supp.rank + 1)), _sub_seed(rng))
            mix = rng.uniform(0.2, 0.8)
            draws.append((mix * rho_in + (1.0 - mix) * rho_out, None))
            continue
        options = sorted({1, math.ceil(dim / 2), dim} if cfg.include_singular else {dim})
        options = [r for r in options if r <= supp.rank] or [supp.rank]
        rank = int(options[int(rng.integers(0, len(options)))])
        if rng.random() < 0.25:
            # Confine rho to a single populated block: some p_k are then
            # exactly zero and the primed sums must cope.
            populated = [q for q in d.supports if q.rank >= 1]
            supp = populated[int(rng.integers(0, len(populated)))]
        draws.append((_raw_density(supp.rank, min(rank, supp.rank), _sub_seed(rng)), supp.basis))
    cases = [(rho, d) for (_, d), rho in zip(fixtures, _lifted_states(draws, tol))]
    return [
        (bd.total_lhs.is_finite, bd.total_rhs.is_finite, bd.residual, d.sigma, rho)
        for (rho, d), bd in zip(cases, _breakdowns(cases, tol))
    ]


def _probes(cfg: VerifyConfig, dim: int, rngs: list[np.random.Generator]) -> list[DensityOperator]:
    """Each trial's probe state: its rank, then its seed, drawn from its own stream; one stacked validation."""
    ranks = [int(rng.integers(1, dim + 1)) if cfg.include_singular else dim for rng in rngs]
    return _validated([_raw_density(dim, rank, _sub_seed(rng)) for rank, rng in zip(ranks, rngs)], cfg.tol)


def _chunk_corollary1(cfg: VerifyConfig, dim: int, trials: range, rngs: list[np.random.Generator]) -> list[_Outcome]:
    tol = cfg.tol
    frames = _frames(cfg, dim, rngs)
    rhos = _probes(cfg, dim, rngs)
    observables = _validated_observables([(range(len(blocks)), blocks) for blocks in frames], tol)
    return [
        (direct.is_finite, True, abs(direct.value - gap) if direct.is_finite else None, rho_l, rho)
        for rho, (direct, gap, rho_l) in zip(rhos, _corollary1_checks(list(zip(rhos, observables)), tol))
    ]


def _chunk_corollary2(cfg: VerifyConfig, dim: int, trials: range, rngs: list[np.random.Generator]) -> list[_Outcome]:
    """A chunk of corollary2 trials: after its frame, each trial draws its
    refinement's seed and ``rank_one`` coin, then its probe; then every
    refinement, and the checks in their Lüders passes."""
    tol = cfg.tol
    frames = _frames(cfg, dim, rngs)
    seeds, rank_ones = zip(*[(_sub_seed(rng), bool(rng.random() < 0.25)) for rng in rngs])
    cases = [
        (rho, coarse, fine)
        for (coarse, fine), rho in zip(_random_refinements(frames, seeds, rank_ones, tol), _probes(cfg, dim, rngs))
    ]
    out = []
    for report, composition in _corollary2_checks(cases, tol):
        residual = max(report.residual, composition) if report.all_finite else None
        out.append((report.all_finite, True, residual, None, None))
    return out


def _chunk_corollary3(cfg: VerifyConfig, dim: int, trials: range, rngs: list[np.random.Generator]) -> list[_Outcome]:
    """A chunk of corollary3 trials: each drawn from its own stream, in
    trial order, its probability vectors validated as they are drawn,
    then checked with one stacked Haar QR and one stacked validation of
    the embedded states."""
    tol = cfg.tol
    draws = []
    for trial, rng in zip(trials, rngs):
        k = int(rng.integers(2, dim + 1))
        p = rng.dirichlet(np.ones(k)) + 0.05
        w = rng.dirichlet(np.ones(k)) + 0.05
        if _infinite_slot(cfg, trial):
            # Kill the weight under the largest p entry: both the classical
            # and the embedded quantum route must report +inf.
            w[int(np.argmax(p))] = 0.0
        elif k >= 3 and rng.random() < 0.3:
            p[int(rng.integers(0, k))] = 0.0
        p /= p.sum()
        w /= w.sum()
        draws.append((ProbabilityVector.validated(p, tol), ProbabilityVector.validated(w, tol), _sub_seed(rng)))
    unitaries = _by_shape(_haar, [_ginibre(_rng(seed), dim, dim) for _, _, seed in draws])
    checks = _classical_embedding_checks([(p, w, u[:, : len(p)]) for (p, w, _), u in zip(draws, unitaries)], tol)
    return [
        (c.is_finite, q.is_finite, abs(c.value - q.value) if c.is_finite and q.is_finite else None, None, None)
        for c, q in checks
    ]


def _chunk_theorem2(cfg: VerifyConfig, dim: int, trials: range, rngs: list[np.random.Generator]) -> list[_Outcome]:
    """A chunk of theorem2 trials: every trial's sigma, then each trial's
    rho inside supp sigma, drawn from the trial's own stream.

    A degenerate sigma (every fourth trial, from trial 1) draws a
    spectrum with repeated eigenvalues, and a zero one under
    ``include_singular``, then the Ginibre draw of its eigenbasis, which
    the chunk's Haar QRs turn into sigma.  Any other sigma is a raw
    Ginibre draw.  Every sigma, then every rho, is validated together."""
    tol = cfg.tol
    raw, spectra = [], {}
    for i, (trial, rng) in enumerate(zip(trials, rngs)):
        if trial % 4 == 1:
            lam = rng.dirichlet(np.ones(dim)) + 0.05
            lam[1] = lam[0]
            if dim >= 4:
                lam[3] = lam[2]
            if cfg.include_singular and rng.random() < 0.3 and dim >= 3:
                lam[-1] = 0.0
            lam /= lam.sum()
            spectra[i] = lam
            raw.append(_ginibre(_rng(_sub_seed(rng)), dim, dim))
        else:
            rank = int(rng.integers(max(1, dim // 2), dim + 1)) if cfg.include_singular else dim
            raw.append(_raw_density(dim, rank, _sub_seed(rng)))
    for i, u in zip(spectra, _by_shape(_haar, [raw[i] for i in spectra])):
        raw[i] = (u * spectra[i]) @ u.conj().T
    sigmas = _validated(raw, tol)
    draws = []
    for rng, p in zip(rngs, map(support_projector, sigmas)):
        draws.append((_raw_density(p.rank, int(rng.integers(1, p.rank + 1)), _sub_seed(rng)), p.basis))
    cases = [(rho, sigma, None) for sigma, rho in zip(sigmas, _lifted_states(draws, tol))]
    return [
        (report.all_finite, True, report.residual, sigma, rho)
        for (rho, sigma, _), (report, _middle) in zip(cases, _theorem2_checks(cases, tol))
    ]


# A chunk function takes the configuration, the dimension, a range of
# trials and one generator per trial, and returns one outcome per trial.
_CHUNKS = {
    "lemma1": _chunk_lemma1,
    "eq3a": _chunk_eq3a,
    "theorem1": _chunk_theorem1,
    "corollary1": _chunk_corollary1,
    "corollary2": _chunk_corollary2,
    "corollary3": _chunk_corollary3,
    "theorem2": _chunk_theorem2,
}


def _chunk_trials(dim: int) -> int:
    """Trials per chunk at ``dim``: as many as keep a chunk's stacked
    ``dim x dim`` states within one slice of
    :data:`~qrelent.linop._STACK_ENTRIES` complex entries when each trial
    puts two in: corollary3 its embedded states, theorem1 its mixture
    and its rho, theorem2 its sigma and its rho.  A rho smaller than
    ``dim`` is stacked with the chunk's rho of its size.  lemma1, eq3a,
    corollary1 and corollary2 put one in, and their chunks fill half a
    slice.  At d = 64 a chunk is one trial, solved alone."""
    return max(1, _STACK_ENTRIES // (2 * dim * dim))


def run_campaign(config: VerifyConfig) -> CampaignResult:
    """Run every trial of a campaign, in ``(dim, trial)`` order.

    The records are a pure function of ``config``: per-trial seeds are
    derived from ``(config.seed, dim, trial)``.  Each dimension's trials
    go to the identity's chunk function a chunk at a time; how they are
    grouped changes no record.  A :class:`~qrelent.errors.QrelentError`
    raised by a chunk is raised again as the same class, its message
    prefixed with the identity, dimension, trials and master seed, as in
    ``eq3a d=2 trials 0-2 (seed 0): ...``.
    """
    chunk_fn = _CHUNKS[config.identity]
    start = time.perf_counter()
    records = []
    for dim in sorted(config.dims):
        size = _chunk_trials(dim)
        for first in range(0, config.trials, size):
            trials = range(first, min(first + size, config.trials))
            seeds = [derive_seed(config.seed, dim, t) for t in trials]
            try:
                outcomes = chunk_fn(config, dim, trials, [np.random.default_rng(seed) for seed in seeds])
            except QrelentError as exc:
                span = f"trial {first}" if len(trials) == 1 else f"trials {first}-{trials[-1]}"
                raise type(exc)(f"{config.identity} d={dim} {span} (seed {config.seed}): {exc}") from exc
            for t, seed, (lhs_finite, rhs_finite, residual, reference, probe) in zip(trials, seeds, outcomes):
                residual, passed = _verdict(lhs_finite, rhs_finite, residual, config.tol)
                min_eig = None if reference is None else float(reference.spectrum.eigenvalues[0])
                leakage = None if probe is None else support_leakage(probe, reference)
                records.append(TrialRecord(config.identity, dim, t, seed, residual, min_eig, leakage, passed))
    wall = time.perf_counter() - start

    failures = sum(1 for r in records if not r.passed)
    float_residuals = [r.residual for r in records if isinstance(r.residual, float)]
    return CampaignResult(
        config=config,
        records=tuple(records),
        failures=failures,
        max_residual=max(float_residuals) if float_residuals else None,
        wall_time=wall,
    )


def report_document(result: CampaignResult) -> dict:
    """The report as a JSON-ready dict (no wall time: reports must be
    byte-identical across runs)."""
    cfg = result.config
    fields = [f.name for f in dataclasses.fields(TrialRecord)]
    return {
        "schema_version": 1,
        "identity": cfg.identity,
        "config": {
            "dims": list(cfg.dims),
            "trials": cfg.trials,
            "seed": cfg.seed,
            "include_singular": cfg.include_singular,
            "include_infinite": cfg.include_infinite,
            "tolerances": {name: getattr(cfg.tol, name) for name in cfg.tol.__dataclass_fields__},
        },
        "records": [{name: getattr(r, name) for name in fields} for r in result.records],
        "summary": {
            "trials": len(result.records),
            "failures": result.failures,
            "max_residual": result.max_residual,
        },
    }


@contextlib.contextmanager
def _report_errors(path: str | Path):
    """Turn an :class:`OSError` on the report path into a :class:`FileFormatError`."""
    try:
        yield
    except OSError as exc:
        raise FileFormatError(f"cannot write report file {path}: {exc}") from exc


def write_report(result: CampaignResult, path: str | Path) -> None:
    """Write the deterministic JSON report, or raise :class:`FileFormatError` if the path cannot be written."""
    with _report_errors(path):
        Path(path).write_text(json.dumps(report_document(result), indent=2) + "\n")

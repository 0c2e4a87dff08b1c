"""Seeded random states, projector families, and refinements.

All generators are deterministic functions of their integer seed: each
call builds a fresh PCG64 ``numpy`` generator from the seed it was
given and consumes nothing else.  Composite runs derive per-item seeds
with :func:`derive_seed`, which feeds ``(master, *branch_indices)``
through ``numpy.random.SeedSequence`` — so trial ``(dim, k)`` of a
campaign sees the same stream no matter how trials are scheduled.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import BadSpecError
from .linop import DEFAULT_TOL, DensityOperator, Projector, Tolerances, validate_density, _density, _readonly, _validated
from .lueders import ProjectiveObservable

__all__ = [
    "derive_seed",
    "haar_unitary",
    "random_density",
    "random_block_projectors",
    "random_refinement",
    "random_state_in_support",
]


def derive_seed(master: int, *branch: int) -> int:
    """Deterministic per-item seed from a master seed and branch indices."""
    if master < 0 or any(b < 0 for b in branch):
        raise BadSpecError("seeds and branch indices must be non-negative")
    ss = np.random.SeedSequence([master, *branch])
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    # Every generator draws from the stream made here, so a negative
    # seed is refused before any draw.
    if seed < 0:
        raise BadSpecError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def _haar(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from square Ginibre draws: one matrix or a stack, one QR call.

    The phases of R's diagonal are folded into Q, so the distribution
    is exactly Haar rather than QR-convention dependent.  Each unitary
    depends only on its own draw.
    """
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """A Haar-distributed ``dim x dim`` unitary."""
    _check_dim(dim)
    return _haar(_ginibre(_rng(seed), dim, dim))


def _haar_unitaries(dim: int, seeds: Sequence[int]) -> np.ndarray:
    """``haar_unitary(dim, seed)`` for each seed, as one ``(n, dim, dim)`` stack from one QR call."""
    _check_dim(dim)
    return _haar(np.stack([_ginibre(_rng(seed), dim, dim) for seed in seeds]))


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise BadSpecError(f"dim must be >= 1, got {dim}")


def random_density(
    dim: int, *, rank: int | None = None, seed: int = 0, tol: Tolerances = DEFAULT_TOL
) -> DensityOperator:
    """A random state of the given rank, full rank by default (trace-normalized Ginibre)."""
    return _random_densities(dim, [dim if rank is None else rank], [seed], tol)[0]


def _random_densities(
    dim: int, ranks: Sequence[int], seeds: Sequence[int], tol: Tolerances
) -> list[DensityOperator]:
    """``random_density(dim, rank=rank, seed=seed, tol=tol)`` for each pair
    of ``ranks`` and ``seeds``: the :func:`_raw_density` draws, validated
    by one :func:`~qrelent.linop._validated` call, a lone state by
    :func:`~qrelent.linop.validate_density`, several as stacked slices.
    Each state depends only on its own rank and seed."""
    return _validated([_raw_density(dim, rank, seed) for rank, seed in zip(ranks, seeds, strict=True)], tol)


def _raw_density(dim: int, rank: int, seed: int) -> np.ndarray:
    """The unvalidated ``dim x dim`` matrix of ``random_density(dim, rank=rank, seed=seed)``:
    a trace-normalized Ginibre draw of the given rank."""
    _check_dim(dim)
    if not 1 <= rank <= dim:
        raise BadSpecError(f"rank {rank} outside [1, {dim}]")
    g = _ginibre(_rng(seed), dim, rank)
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_block_projectors(
    dim: int, block_sizes: Sequence[int], *, seed: int = 0, tol: Tolerances = DEFAULT_TOL
) -> list[Projector]:
    """Projectors onto random mutually orthogonal subspaces.

    Ranks follow ``block_sizes``, which must be positive and fit in
    ``dim``; if they do not exhaust ``dim``, the orthogonal complement
    is appended as one more block, so the family always resolves the
    identity.
    """
    return _random_block_families(dim, [block_sizes], [seed], tol)[0]


def _random_block_families(
    dim: int, block_sizes: Sequence[Sequence[int]], seeds: Sequence[int], tol: Tolerances
) -> list[list[Projector]]:
    """``random_block_projectors(dim, sizes, seed=seed, tol=tol)`` for each
    pair of ``block_sizes`` and ``seeds``, with one QR call: on one
    matrix for one family, on an ``(n, dim, dim)`` stack for several.
    Each family depends only on its own sizes and seed."""
    _check_dim(dim)
    families = []
    for sizes in block_sizes:
        sizes = list(sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise BadSpecError(f"block sizes must be positive, got {tuple(sizes)}")
        leftover = dim - sum(sizes)
        if leftover < 0:
            raise BadSpecError(f"block sizes {tuple(sizes)} sum to {sum(sizes)} > dim {dim}")
        families.append(sizes + [leftover] if leftover > 0 else sizes)
    draws = [_ginibre(_rng(seed), dim, dim) for seed in seeds]
    frames = [_haar(draws[0])] if len(draws) == 1 else _haar(np.stack(draws))
    out = []
    for sizes, u in zip(families, frames, strict=True):
        blocks: list[Projector] = []
        start = 0
        for s in sizes:
            blocks.append(Projector.from_basis(u[:, start : start + s], tol))
            start += s
        out.append(blocks)
    return out


def random_state_in_support(
    p: Projector, rank: int, seed: int, tol: Tolerances = DEFAULT_TOL
) -> DensityOperator:
    """A random rank-``rank`` state supported inside ``range(p)``.

    Its ``p.rank x p.rank`` block ``S`` is validated by
    :func:`~qrelent.linop.validate_density` and its kept eigenpairs
    ``(w, U)`` are lifted by ``V = p.basis`` into the state with
    spectrum ``(w, V U)``: as ``V`` preserves norms and traces, that is
    ``validate_density(V S V^dag)`` up to round-off, with a thin spectrum.
    """
    if p.rank < 1:
        raise BadSpecError("cannot place a state inside a rank-0 projector")
    if not 1 <= rank <= p.rank:
        raise BadSpecError(f"rank {rank} outside [1, {p.rank}]")
    spec = validate_density(_ginibre_block(p, rank, seed), tol).spectrum
    return _density(spec.eigenvalues, p.basis @ spec.eigenvectors)


def _ginibre_block(p: Projector, rank: int, seed: int) -> np.ndarray:
    """The unvalidated ``p.rank x p.rank`` block ``S`` of :func:`random_state_in_support`,
    drawn in the frame of ``p.basis``; the state is ``V S V^dag``.  Callers
    that mix several such blocks validate the mixture instead of each block."""
    return _raw_density(p.rank, rank, seed)


def _composition(rng: np.random.Generator, total: int, n_parts: int) -> list[int]:
    """A random ordered composition of ``total`` into ``n_parts`` positive parts."""
    if n_parts == 1:
        return [total]
    cuts = np.sort(rng.choice(np.arange(1, total), size=n_parts - 1, replace=False))
    edges = [0, *cuts.tolist(), total]
    return [edges[i + 1] - edges[i] for i in range(len(edges) - 1)]


def _random_composition(rng: np.random.Generator, total: int) -> list[int]:
    """A uniformly random ordered composition of ``total``."""
    if total == 1:
        return [1]
    return _composition(rng, total, int(rng.integers(1, total + 1)))


def random_refinement(
    coarse: list[Projector] | tuple[Projector, ...],
    seed: int,
    tol: Tolerances = DEFAULT_TOL,
    *,
    rank_one: bool = False,
) -> tuple[ProjectiveObservable, ProjectiveObservable]:
    """Split each coarse projector into random orthogonal finer ones.

    Within each coarse subspace a Haar-rotated basis is partitioned
    into consecutive groups (all singletons when ``rank_one=True``).
    Returns the validated ``(coarse, fine)`` observables; the refinement
    itself is checked by :func:`~qrelent.lueders.corollary2_check`.  The
    rotated basis is checked orthonormal once: a group's Gram matrix is
    a principal submatrix of the whole basis's, so its defect is no larger.
    """
    rng = _rng(seed)
    coarse_obs = ProjectiveObservable.validated(range(len(coarse)), tuple(coarse), tol)
    fine_projs: list[Projector] = []
    for p in coarse:
        rotated = Projector.from_basis(p.basis @ _haar(_ginibre(rng, p.rank, p.rank)), tol).basis
        sizes = [1] * p.rank if rank_one else _random_composition(rng, p.rank)
        start = 0
        for s in sizes:
            # A C-contiguous copy per group, the array from_basis would store.
            fine_projs.append(Projector(basis=_readonly(rotated[:, start : start + s].copy())))
            start += s
    return coarse_obs, ProjectiveObservable.validated(range(len(fine_projs)), tuple(fine_projs), tol)

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
from itertools import accumulate, pairwise

import numpy as np

from .errors import BadSpecError
from .linop import (
    DEFAULT_TOL,
    DensityOperator,
    Projector,
    Tolerances,
    _by_shape,
    _check_orthonormal_blocks,
    _density,
    _readonly,
    _validated,
)
from .lueders import ProjectiveObservable, _validated_observables

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


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise BadSpecError(f"dim must be >= 1, got {dim}")


def random_density(
    dim: int, *, rank: int | None = None, seed: int = 0, tol: Tolerances = DEFAULT_TOL
) -> DensityOperator:
    """A random state of the given rank, full rank by default (trace-normalized Ginibre)."""
    return _validated([_raw_density(dim, dim if rank is None else rank, seed)], tol)[0]


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
    pair of ``block_sizes`` and ``seeds``, the frames drawn by Haar QRs
    grouped as :func:`~qrelent.linop._by_shape` groups them, and every
    block gated as :meth:`~qrelent.linop.Projector.from_basis` gates it,
    from one stacked Gram of the frames.  Each family depends only on its
    own sizes and seed."""
    _check_dim(dim)
    for sizes in block_sizes:
        if not len(sizes) or any(s < 1 for s in sizes):
            raise BadSpecError(f"block sizes must be positive, got {tuple(sizes)}")
        if sum(sizes) > dim:
            raise BadSpecError(f"block sizes {tuple(sizes)} sum to {sum(sizes)} > dim {dim}")
    frames = _by_shape(_haar, [_ginibre(_rng(seed), dim, dim) for seed in seeds])
    spans = [[(a, z) for a, z in pairwise([0, *accumulate(sizes), dim]) if z > a] for sizes in block_sizes]
    _check_orthonormal_blocks(
        [(u, np.repeat(np.arange(len(s)), [z - a for a, z in s])) for u, s in zip(frames, spans, strict=True)], tol
    )
    # A C-contiguous copy per block, the array from_basis would store.
    return [[Projector(basis=_readonly(u[:, a:z].copy())) for a, z in s] for u, s in zip(frames, spans)]


def random_state_in_support(
    p: Projector, rank: int, seed: int, tol: Tolerances = DEFAULT_TOL
) -> DensityOperator:
    """A random rank-``rank`` state supported inside ``range(p)``.

    Its ``p.rank x p.rank`` block ``S``, a :func:`_raw_density` draw, is
    validated by :func:`~qrelent.linop.validate_density` and its kept
    eigenpairs ``(w, U)`` are lifted by ``V = p.basis`` into the state
    with spectrum ``(w, V U)``: as ``V`` preserves norms and traces, that
    is ``validate_density(V S V^dag)`` up to round-off, with a thin spectrum.
    """
    if p.rank < 1:
        raise BadSpecError("cannot place a state inside a rank-0 projector")
    return _lifted_states([(_raw_density(p.rank, rank, seed), p.basis)], tol)[0]


def _lifted_states(draws: Sequence[tuple[np.ndarray, np.ndarray | None]], tol: Tolerances) -> list[DensityOperator]:
    """The state of each ``(S, V)``: ``S`` validated by :func:`~qrelent.linop._validated`, its kept
    eigenpairs ``(w, U)`` then lifted to ``(w, V U)``, or left as they are if ``V`` is None."""
    return [
        state if v is None else _density(state.spectrum.eigenvalues, v @ state.spectrum.eigenvectors)
        for state, (_, v) in zip(_validated([s for s, _ in draws], tol), draws, strict=True)
    ]


def _composition(rng: np.random.Generator, total: int, n_parts: int) -> list[int]:
    """A random ordered composition of ``total`` into ``n_parts`` positive parts."""
    if n_parts == 1:
        return [total]
    cuts = np.sort(rng.choice(np.arange(1, total), size=n_parts - 1, replace=False))
    edges = [0, *cuts.tolist(), total]
    return [edges[i + 1] - edges[i] for i in range(len(edges) - 1)]


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
    rotated bases are checked orthonormal once, block by block, from the
    Gram of their joined frame: a group's Gram matrix is a principal
    submatrix of its block's, so its defect is no larger.
    """
    return _random_refinements([coarse], [seed], [rank_one], tol)[0]


def _random_refinements(families, seeds: Sequence[int], rank_ones: Sequence[bool], tol: Tolerances):
    """``random_refinement(coarse, seed, tol, rank_one=rank_one)`` for each of
    ``families``, ``seeds`` and ``rank_ones``.  Every coarse family is
    validated first; then each family's stream gives, block by block, its
    rotation's Ginibre draw and then its group sizes, and
    :func:`~qrelent.linop._by_shape` draws every rotation, one QR per
    block rank.  Each family's rotated blocks are joined into one frame,
    its coarse labels marking the blocks; one stacked Gram of these frames
    gates every block, and the frame, with labels per group, is the fine
    observable's.  Each refinement depends only on its own family, seed
    and mode."""
    coarse_obs = _validated_observables([(range(len(coarse)), coarse) for coarse in families], tol)
    draws, sizes = [], []
    for coarse, seed, rank_one in zip(families, seeds, rank_ones, strict=True):
        rng = _rng(seed)
        for p in coarse:
            draws.append(_ginibre(rng, p.rank, p.rank))
            one = rank_one or p.rank == 1
            sizes.append([1] * p.rank if one else _composition(rng, p.rank, int(rng.integers(1, p.rank + 1))))
    rotations = iter(_by_shape(_haar, draws))
    frames = [
        (np.concatenate([p.basis @ u for p, u in zip(coarse.projectors, rotations)], axis=1), coarse._frame[1])
        for coarse in coarse_obs
    ]
    _check_orthonormal_blocks(frames, tol)
    groups = iter(sizes)
    fine, fine_frames = [], []
    for coarse, (v, _) in zip(families, frames):
        edges = [0, *accumulate(g for _ in coarse for g in next(groups))]
        # A C-contiguous copy per group, the array from_basis would store.
        projectors = [Projector(basis=_readonly(v[:, a:z].copy())) for a, z in pairwise(edges)]
        fine.append((range(len(projectors)), projectors))
        fine_frames.append((v, np.repeat(np.arange(len(projectors)), np.diff(edges))))
    return list(zip(coarse_obs, _validated_observables(fine, tol, fine_frames)))

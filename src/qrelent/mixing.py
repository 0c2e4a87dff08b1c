"""Orthogonal state decompositions and the mixing identities.

A state ``sigma`` decomposed over mutually orthogonal subspaces as
``sigma = sum_k w_k sigma_k`` supports a family of exact identities:
the kernel-extended logarithm splits into block logarithms plus weight
logarithms on the block supports, the entropy splits into mixing
entropy plus average block entropy, and the relative entropy of any
state ``rho`` against ``sigma`` splits into four interpretable terms.
This module computes both sides of each identity by independent routes
so they can be compared; it never assumes the identity it is checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    LeakedSupportError,
    LengthMismatchError,
    NotBlockDiagonalError,
    NotOrthonormalError,
)
from .linop import (
    DEFAULT_TOL,
    DensityOperator,
    Projector,
    Tolerances,
    frobenius,
    _check_mutually_orthogonal,
    _check_orthonormal_blocks,
    _density,
    _stack,
    _stacked_block_states,
    _validated,
)
from .entropy import (
    INFINITY,
    ExtendedReal,
    ProbabilityVector,
    classical_relative_entropy,
    quantum_relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
    _kept_relative_entropy,
    _spectral_entropy,
)

__all__ = [
    "OrthogonalDecomposition",
    "MixingBreakdown",
    "decompose_by_projectors",
    "lemma1_log_decomposition",
    "entropy_mixing_identity",
    "theorem1_breakdown",
    "classical_embedding_check",
]


@dataclass(frozen=True)
class OrthogonalDecomposition:
    """``sigma = sum_k w_k sigma_k`` over mutually orthogonal subspaces.

    ``parts[k]`` is the normalized block state, or ``None`` for blocks
    that keep no eigenvalue; :attr:`supports` reads ``Q_k``, onto
    ``supp(sigma_k)``, off the parts (rank 0 for empty blocks).  ``sigma`` is the
    caller's validated state itself, not a copy rebuilt from the parts:
    :func:`decompose_by_projectors` only accepts a ``sigma`` that is
    block diagonal in the blocks, so it equals ``sum_k w_k sigma_k``
    up to ``tol.identity`` and round-off, and routes that read
    ``sigma`` stay independent of routes that read the parts.
    """

    weights: ProbabilityVector
    parts: tuple[DensityOperator | None, ...]
    sigma: DensityOperator

    @property
    def dim(self) -> int:
        return self.sigma.dim

    @property
    def supports(self) -> tuple[Projector, ...]:
        zero = Projector.zero(self.dim)
        return tuple(zero if part is None else Projector(basis=part.spectrum.eigenvectors) for part in self.parts)

    @property
    def n_parts(self) -> int:
        return len(self.parts)


def decompose_by_projectors(
    sigma: DensityOperator,
    blocks: tuple[Projector, ...] | list[Projector],
    tol: Tolerances = DEFAULT_TOL,
) -> OrthogonalDecomposition:
    """Decompose a state along a family of orthogonal subspace projectors.

    Weights are ``w_k = tr(sigma B_k)`` of the validated ``sigma``, so
    ``w_k`` is the block's kept mass.  Parts are cut at ``sigma``'s
    scale, not their own, so their support ranks add up to ``sigma``'s;
    blocks with ``w_k = 0`` or no kept eigenvalue become empty parts,
    and a light block that keeps one is a part however small ``w_k``.
    The supports ``Q_k`` read off the parts are those of the *states*
    ``sigma_k``, which may have lower rank than the blocks.

    The state must be block diagonal in the blocks,
    ``||sigma - sum_k B_k sigma B_k||_F <= tol.identity``; it is then
    kept as :attr:`OrthogonalDecomposition.sigma` as it is.

    Raises
    ------
    DimensionMismatchError
        If some block lives on a different dimension than ``sigma``.
    NotOrthogonalError
        If two blocks overlap beyond ``tol.identity``.
    LeakedSupportError
        If more than ``tol.supp`` of the state's trace mass lies
        outside the union of the blocks.
    NotBlockDiagonalError
        If ``sigma`` has coherences between (or outside) the blocks
        beyond ``tol.identity``.
    """
    return _decompositions([(sigma, blocks)], tol)[0]


def _decompositions(cases, tol: Tolerances) -> list[OrthogonalDecomposition]:
    """:func:`decompose_by_projectors` of each ``(sigma, blocks)`` case.

    Every family passes its orthogonality check first; then one
    :func:`~qrelent.linop._stacked_block_states` pass splits every
    ``sigma``, and each case in turn has its leak and block-diagonal
    checks.
    """
    frames = [_check_mutually_orthogonal(blocks, sigma.dim, tol) for sigma, blocks in cases]
    split = _stacked_block_states(
        [(sigma.matrix, v, labels, len(blocks)) for (sigma, blocks), (v, labels) in zip(cases, frames)], tol
    )
    out = []
    for (sigma, _), (weights, parts, (w, vectors)) in zip(cases, split):
        leak = 1.0 - math.fsum(weights.tolist())
        if not (leak <= tol.supp):
            raise LeakedSupportError(f"state has trace mass {leak:.3e} outside the given blocks")
        # V B V^dag, the pinching of sigma, rebuilt from B's uncut block spectra.
        coherence = frobenius(sigma.matrix - (vectors * w) @ vectors.conj().T)
        if not (coherence <= tol.identity):
            raise NotBlockDiagonalError(f"state not block diagonal in the blocks: off-block norm {coherence:.3e}")
        out.append(OrthogonalDecomposition(weights=ProbabilityVector.validated(weights, tol), parts=parts, sigma=sigma))
    return out


def lemma1_log_decomposition(d: OrthogonalDecomposition) -> np.ndarray:
    """Blockwise reconstruction of the kernel-extended logarithm.

    Returns ``sum'_k ln(w_k) Q_k + sum'_k logz(sigma_k)`` where the
    primed sums skip empty blocks.  For a valid decomposition this
    equals ``logz(sigma)`` (compare with :func:`~qrelent.linop.extended_log`
    applied to ``d.sigma``); computing it this way exercises the
    identity rather than assuming it.  Both sums are one product
    ``V diag(ln w_k + ln lam_ki) V^dag`` over the parts' kept eigenpairs,
    with no eigensolve and no read of ``sigma``'s spectrum.
    """
    v, labels = _stack(d.supports, d.dim)
    lam = np.concatenate([part.spectrum.eigenvalues for part in d.parts if part is not None])
    out = (v * (np.log(d.weights.probs[labels]) + np.log(lam))) @ v.conj().T
    return (out + out.conj().T) / 2.0


def entropy_mixing_identity(d: OrthogonalDecomposition) -> tuple[float, float]:
    """Both sides of ``S(sigma) = H(w) + sum_k w_k S(sigma_k)``.

    Returns ``(lhs, rhs)`` computed by independent routes: the left
    from the spectrum of the mixture, the right from the weight
    distribution and the block spectra.
    """
    lhs = von_neumann_entropy(d.sigma)
    rhs = shannon_entropy(d.weights) + math.fsum(
        w * von_neumann_entropy(part)
        for w, part in zip(d.weights.probs.tolist(), d.parts)
        if part is not None
    )
    return lhs, rhs


@dataclass(frozen=True)
class MixingBreakdown:
    """Both sides of the relative-entropy mixing identity, term by term.

    For ``rho`` against a decomposed ``sigma = sum_k w_k sigma_k``:

    * ``s_pinched`` — entropy of ``sum_k Q_k rho Q_k``, read off the
      positive eigenvalues of the uncut spectrum of the blocks
      ``Q_k^dag rho Q_k`` that the conditional states come from, so it
      counts the mass that ``p_k`` counts (a diagnostic rather than a
      state entropy when ``rho`` leaks outside the block supports),
    * ``s_rho`` — entropy of ``rho``,
    * ``h_rel`` — classical relative entropy of the block weights
      ``p_k = tr(rho Q_k)`` against ``w``, over the weights whose parts
      exist (cut at ``sigma``'s scale, not at ``max(w)``),
    * ``avg_rel`` — ``sum_k p_k S(rho_k || sigma_k)``, with ``rho_k``
      read off the same positive block eigenpairs as ``s_pinched``, so
      every term counts the mass that ``p_k`` counts; the
      ``conditional_states`` reported are the cut ones,
    * ``total_rhs`` — ``s_pinched - s_rho + h_rel + avg_rel``, forced
      to ``+inf`` when the ``p_k`` fail to account for the full trace
      mass of ``rho`` or any term is infinite,
    * ``total_lhs`` — ``S(rho || sigma)`` computed by the direct
      definition, *not* from the terms,
    * ``residual`` — ``|lhs - rhs|`` when both are finite, else ``None``.
    """

    p: ProbabilityVector
    conditional_states: tuple[DensityOperator | None, ...]
    s_pinched: float
    s_rho: float
    h_rel: ExtendedReal
    avg_rel: ExtendedReal
    total_rhs: ExtendedReal
    total_lhs: ExtendedReal
    residual: float | None


def theorem1_breakdown(
    rho: DensityOperator, d: OrthogonalDecomposition, tol: Tolerances = DEFAULT_TOL
) -> MixingBreakdown:
    """Evaluate both routes of the relative-entropy mixing identity.

    The left side is ``S(rho || sigma)`` by the direct definition; the
    right side assembles ``S(pinched rho) - S(rho) + H(p||w) +
    sum_k p_k S(rho_k || sigma_k)`` from independently computed terms;
    ``p_k``, the conditional states and ``S(pinched rho)`` all come
    from one block solve of ``rho`` over the supports ``Q_k``, with no
    ``d x d`` solve.  Infinity on the right is detected on its own
    evidence (trace mass of ``rho`` missed by the block supports, or an
    infinite term), never by copying the left side's verdict —
    agreement of the two routes, finite or infinite, is exactly what
    callers verify.
    """
    return _breakdowns([(rho, d)], tol)[0]


def _breakdowns(cases, tol: Tolerances) -> list[MixingBreakdown]:
    """:func:`theorem1_breakdown` of each ``(rho, d)`` case: every
    dimension is checked first, then one
    :func:`~qrelent.linop._stacked_block_states` pass splits every ``rho``
    over its supports."""
    items = []
    for rho, d in cases:
        if rho.dim != d.dim:
            raise DimensionMismatchError(f"state on dim {rho.dim}, decomposition on dim {d.dim}")
        items.append((rho.matrix, *_stack(d.supports, d.dim), d.n_parts))
    return [
        _breakdown(rho, d, labels, split, tol)
        for (rho, d), (_, _, labels, _), split in zip(cases, items, _stacked_block_states(items, tol))
    ]


def _breakdown(rho: DensityOperator, d: OrthogonalDecomposition, labels: np.ndarray, split, tol: Tolerances):
    """:func:`theorem1_breakdown` from the split of ``rho`` over ``d``'s supports, stacked by ``labels``."""
    p, states, (w, vectors) = split
    positive = w > 0.0

    s_pinched = _spectral_entropy(w[positive])
    s_rho = von_neumann_entropy(rho)

    # An empty part has a rank-0 support, so p_k = 0 there: p puts no mass
    # off the existing weights, even those below tol.rank times the largest
    # weight (parts are cut at sigma's scale, not at the weights' scale).
    h_rel = _kept_relative_entropy(p, d.weights.probs, 0.0, tol)

    # Each term reads the positive block eigenpairs that s_pinched reads,
    # so every term counts the same block mass; the returned states stay cut.
    terms = [
        (pk, quantum_relative_entropy(_density(w[b] / math.fsum(w[b].tolist()), vectors[:, b]), part, tol))
        for pk, part, b in zip(p.tolist(), d.parts, positive & (labels == np.arange(d.n_parts)[:, None]))
        if b.any()
    ]
    if all(term.is_finite for _, term in terms):
        avg_rel = ExtendedReal.finite(math.fsum(pk * term.value for pk, term in terms))
    else:
        avg_rel = INFINITY

    missed_mass = 1.0 - math.fsum(p.tolist())
    if not (missed_mass <= tol.supp) or not (h_rel.is_finite and avg_rel.is_finite):
        total_rhs = INFINITY
    else:
        total_rhs = ExtendedReal.finite(s_pinched - s_rho + h_rel.value + avg_rel.value)

    total_lhs = quantum_relative_entropy(rho, d.sigma, tol)

    residual = None
    if total_lhs.is_finite and total_rhs.is_finite:
        residual = abs(total_lhs.value - total_rhs.value)

    return MixingBreakdown(
        p=ProbabilityVector(probs=p),
        conditional_states=states,
        s_pinched=s_pinched,
        s_rho=s_rho,
        h_rel=h_rel,
        avg_rel=avg_rel,
        total_rhs=total_rhs,
        total_lhs=total_lhs,
        residual=residual,
    )


def classical_embedding_check(
    p: ProbabilityVector,
    w: ProbabilityVector,
    basis: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[ExtendedReal, ExtendedReal]:
    """Classical relative entropy vs its quantum embedding.

    Embeds two distributions of length ``K`` as commuting states
    ``sum_k p_k |b_k><b_k|`` and ``sum_k w_k |b_k><b_k|`` on the span
    of the given orthonormal columns ``basis[:, k]`` and returns
    ``(H(p||w), S(rho_p || rho_w))`` — both computed independently,
    including their infinity verdicts.

    Raises
    ------
    LengthMismatchError
        If ``p``, ``w`` and the basis columns disagree in number.
    NotOrthonormalError
        If the columns are not orthonormal within ``tol.orth``.
    """
    return _classical_embedding_checks([(p, w, basis)], tol)[0]


def _classical_embedding_checks(
    cases: list[tuple[ProbabilityVector, ProbabilityVector, np.ndarray]], tol: Tolerances
) -> list[tuple[ExtendedReal, ExtendedReal]]:
    """:func:`classical_embedding_check` of each ``(p, w, basis)`` case, the bases on one dimension.

    Every case passes its length and shape checks first, then every
    basis the Gram gate of :meth:`~qrelent.linop.Projector.from_basis`,
    one stacked Gram per basis shape; then the ``2n`` embedded states go
    to one stacked validation, each on its own gates, so each case's
    result is the one it has alone.  When several cases fail, the error
    raised may be a later case's.
    """
    bases = []
    for p, w, basis in cases:
        b = np.asarray(basis, dtype=complex)
        if b.ndim != 2 or len(p) != len(w) or b.shape[1] != len(p):
            raise LengthMismatchError(
                f"need matching lengths: |p|={len(p)}, |w|={len(w)}, "
                f"basis columns={b.shape[1] if b.ndim == 2 else '?'}"
            )
        if b.shape[1] > b.shape[0]:
            raise NotOrthonormalError(f"expected at most dim orthonormal columns, got shape {b.shape}")
        bases.append((b, np.zeros(b.shape[1], dtype=int)))
    _check_orthonormal_blocks(bases, tol)

    states = _validated([(b * q.probs) @ b.conj().T for (p, w, _), (b, _) in zip(cases, bases) for q in (p, w)], tol)
    return [
        (classical_relative_entropy(p, w, tol), quantum_relative_entropy(rho_p, rho_w, tol))
        for (p, w, _), rho_p, rho_w in zip(cases, states[::2], states[1::2])
    ]

"""Projective measurements, Lüders states, and straight-line identities.

The non-selective Lüders state of ``rho`` under a projective observable
is the pinching ``E(rho) = sum_i P_i rho P_i``; its distance from ``rho``
in relative entropy is an entropy *gap*.  Each straight line is one
identity: for a pinching with ``E(sigma) = sigma``,
``S(rho || sigma) = S(rho || E rho) + S(E rho || sigma)``, both sides
infinite together.  Refining a measurement takes ``E`` the coarse one
and ``sigma`` the fine Lüders state; Theorem 2 takes ``sigma``'s spectral
pinching, its kernel one block.  Each check computes every distance
independently and reports the pieces, so the caller compares rather
than trusts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadObservableError,
    DimensionMismatchError,
    NotARefinementError,
    NotDiagonalizingError,
    NotOrthonormalError,
    SupportViolationError,
)
from .linop import (
    DEFAULT_TOL,
    DensityOperator,
    Projector,
    Tolerances,
    frobenius,
    _by_shape,
    _check_overlaps,
    _frame_grams,
    _groups,
    _overlaps,
    _pinched_states,
    _stack,
)
from .entropy import ExtendedReal, quantum_relative_entropy, von_neumann_entropy

__all__ = [
    "ProjectiveObservable",
    "LineReport",
    "lueders_state",
    "corollary1_check",
    "is_refinement",
    "corollary2_check",
    "theorem2_check",
]


@dataclass(frozen=True)
class ProjectiveObservable:
    """A projective (von Neumann) observable: eigenvalues + eigenprojectors.

    Build through :meth:`validated`, which enforces distinct
    eigenvalues, mutual orthogonality, and completeness
    ``sum_i P_i = 1``.  The stacked frame of the range bases is built
    once and kept for every map that reads it.
    """

    eigenvalues: tuple[float, ...]
    projectors: tuple[Projector, ...]

    @property
    def dim(self) -> int:
        return self.projectors[0].dim

    @functools.cached_property
    def _frame(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`~qrelent.linop._stack` of the projectors, on the first one's dimension."""
        return _stack(self.projectors, self.dim)

    def _framed(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """The kept frame, for a map on ``dim``; :class:`DimensionMismatchError` if it lives elsewhere."""
        v, labels = self._frame
        if v.shape[0] != dim:
            raise DimensionMismatchError(f"projector 0 on dim {self.dim}, expected dim {dim}")
        return v, labels

    @classmethod
    def validated(
        cls,
        eigenvalues,
        projectors,
        tol: Tolerances = DEFAULT_TOL,
    ) -> "ProjectiveObservable":
        return _validated_observables([(eigenvalues, projectors)], tol)[0]


def _validated_observables(cases, tol: Tolerances, frames=None) -> list[ProjectiveObservable]:
    """:meth:`ProjectiveObservable.validated` of each ``(eigenvalues, projectors)`` case.

    Each case in turn has its eigenvalues checked and its frame built
    (:func:`~qrelent.linop._stack`, which checks every projector's
    dimension), or taken from ``frames``, which holds that very frame
    when given.  Then one Gram ``V^dag V`` per frame shape gives each
    case's pairwise overlaps ``||P_i P_j||_F`` and, for ``n`` columns on
    dimension ``d``, its completeness defect
    ``||V V^dag - 1||_F = sqrt(||V^dag V - 1||_F^2 + d - n)``, and each
    case is gated on its own at ``tol.identity``, overlaps first; cases
    of a frame shape fail in input order.
    """
    observables = []
    for i, (eigenvalues, projectors) in enumerate(cases):
        eigs = tuple(float(a) for a in eigenvalues)
        projs = tuple(projectors)
        if len(eigs) != len(projs) or not projs:
            raise BadObservableError("need one eigenvalue per projector (and at least one)")
        if len(set(eigs)) != len(eigs):
            raise BadObservableError(f"eigenvalues must be distinct, got {eigs}")
        obs = ProjectiveObservable(eigenvalues=eigs, projectors=projs)
        if frames is not None:
            obs.__dict__["_frame"] = frames[i]
        observables.append(obs)
    stacked = [obs._frame for obs in observables]
    for indices, gram, labels in _frame_grams(stacked):
        d, n = stacked[indices[0]][0].shape
        k = np.arange(max(len(observables[i].projectors) for i in indices))
        overlaps = _overlaps(gram, labels, len(k))
        gram -= np.eye(n)
        defects = np.sqrt(np.maximum((np.abs(gram) ** 2).sum(axis=(-2, -1)) + (d - n), 0.0))
        crossed = ~(overlaps <= tol.identity) & (k[:, None] < k)
        failed = crossed.any(axis=(-2, -1)) | ~(defects <= tol.identity)
        if failed.any():
            c = int(np.argmax(failed))
            _check_overlaps(np.triu(overlaps[c], 1), tol)
            raise BadObservableError(f"projectors do not resolve the identity: defect {defects[c]:.3e}")
    return observables


def lueders_state(
    rho: DensityOperator, obs: ProjectiveObservable, tol: Tolerances = DEFAULT_TOL
) -> DensityOperator:
    """Non-selective post-measurement state ``sum_i P_i rho P_i``.

    The sum runs over every outcome; one of zero probability adds
    nothing.  The state is validated from its block spectra, with no
    ``d x d`` eigensolve.  The observable's orthogonality and
    completeness were checked when it was built, at ``tol.identity``;
    as an eigenbasis the stacked range bases must also pass the Gram
    check at ``tol.orth``.

    Raises
    ------
    DimensionMismatchError
        If a projector of the observable is not on the state's dimension.
    NotOrthonormalError
        If the projectors' range bases are orthogonal to within
        ``tol.identity`` but not to within ``tol.orth``, so they cannot
        carry the state's eigenvectors.
    """
    return _lueders_states([(rho, obs)], tol)[0]


def _lueders_states(cases, tol: Tolerances) -> list[DensityOperator]:
    """:func:`lueders_state` of each ``(rho, obs)`` case, all in one
    :func:`~qrelent.linop._pinched_states` pass: every frame is checked
    against its state's dimension first, and each state passes its own
    gates, so each result is the one its case gives alone."""
    return _pinched_states([(rho.matrix, *obs._framed(rho.dim)) for rho, obs in cases], tol)


def corollary1_check(
    rho: DensityOperator, obs: ProjectiveObservable, tol: Tolerances = DEFAULT_TOL
) -> tuple[ExtendedReal, float]:
    """Distance to the Lüders state vs the entropy gap.

    Returns ``(S(rho || rho_L), S(rho_L) - S(rho))`` computed by
    independent routes.  The identity says they are equal — in
    particular the distance is finite, because the Lüders state's
    support always contains the state's own.
    """
    return _corollary1_checks([(rho, obs)], tol)[0][:2]


def _corollary1_checks(cases, tol: Tolerances) -> list[tuple[ExtendedReal, float, DensityOperator]]:
    """:func:`corollary1_check`'s two routes for each ``(rho, obs)`` case,
    and the Lüders state they measure against; one Lüders pass."""
    return [
        (quantum_relative_entropy(rho, rho_l, tol), von_neumann_entropy(rho_l) - von_neumann_entropy(rho), rho_l)
        for (rho, _), rho_l in zip(cases, _lueders_states(cases, tol))
    ]


def is_refinement(
    fine: ProjectiveObservable,
    coarse: ProjectiveObservable,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[int, ...]:
    """Check that ``fine`` refines ``coarse``; return the grouping.

    Entry ``j`` of the result is the index of the coarse projector that
    absorbs fine projector ``j`` (``P_coarse @ P_fine == P_fine``).
    Each fine projector must match exactly one coarse projector, and
    each coarse projector must equal the sum of its group.  Absorption
    is judged in the range frame, as ``||V_c (V_c^dag V_f) - V_f||_F``,
    which equals ``||P_c P_f - P_f||_F``; as both observables resolve
    the identity, the group sum then reduces to an equality of ranks.

    Raises
    ------
    NotARefinementError
        If either condition fails.
    DimensionMismatchError
        If a fine projector is not on the coarse observable's dimension.
    """
    return _refinements([(fine, coarse)], tol)[0]


def _refinements(cases, tol: Tolerances) -> list[tuple[int, ...]]:
    """:func:`is_refinement` of each ``(fine, coarse)`` case.

    Each case in turn has its fine frame checked on the coarse one's
    dimension.  Then, per shape of the two frames, one stacked overlap
    ``V_c^dag V_f`` and one stacked product per coarse index ``k`` give
    every case's absorption defects ``||V_c,k (V_c,k^dag V_f,j) - V_f,j||_F``,
    one for each coarse ``k`` and fine ``j``, and each case is gated on its
    own, absorption before ranks; cases of a frame shape fail in input order.
    """
    frames = [(coarse._frame, fine._framed(coarse.dim)) for fine, coarse in cases]
    groupings = {}
    for indices in _groups((vc.shape, vf.shape) for (vc, _), (vf, _) in frames):
        (vc, lc), (vf, lf) = ([np.array(part) for part in zip(*(frames[i][side] for i in indices))] for side in (0, 1))
        n_coarse = np.array([len(cases[i][1].projectors) for i in indices])
        n_fine = np.array([len(cases[i][0].projectors) for i in indices])
        coarse_k, fine_k = np.arange(n_coarse.max()), np.arange(n_fine.max())
        # rows[c, k, a]: column a of case c's coarse frame belongs to coarse projector k.
        rows = lc[:, None, :] == coarse_k[:, None]
        ranks = rows.sum(axis=-1)
        ends = ranks.cumsum(axis=-1)
        overlap = vc.conj().swapaxes(-1, -2) @ vf
        # One product per coarse projector k, over the columns that hold it in some case
        # (each projector is one run of columns), other rows of the overlap zeroed.
        leaks = np.empty((len(indices), len(coarse_k), vf.shape[-1]))
        for k, (a, b) in enumerate(zip((ends - ranks).min(axis=0).tolist(), ends.max(axis=0).tolist())):
            residual = vc[..., a:b] @ np.where(rows[:, k, a:b, None], overlap[:, a:b], 0.0) - vf
            leaks[:, k] = (np.abs(residual) ** 2).sum(axis=-2)
        fine_onehot = (lf[:, :, None] == fine_k).astype(float)
        absorbed = np.sqrt(leaks @ fine_onehot) <= tol.identity
        absorbed &= (coarse_k < n_coarse[:, None])[:, :, None]
        matches = absorbed.sum(axis=1)
        unmatched = (matches != 1) & (fine_k < n_fine[:, None])
        # As both observables resolve the identity, a group sums to its coarse projector iff the ranks agree.
        short = (absorbed * fine_onehot.sum(axis=1)[:, None, :]).sum(axis=-1) != ranks
        failed = unmatched.any(axis=1) | short.any(axis=1)
        if failed.any():
            c = int(np.argmax(failed))
            if unmatched[c].any():
                j = int(np.argmax(unmatched[c]))
                raise NotARefinementError(
                    f"fine projector {j} is absorbed by {matches[c, j]} coarse projectors, need exactly 1"
                )
            raise NotARefinementError(f"coarse projector {int(np.argmax(short[c]))} is not the sum of its fine group")
        for i, grouping, n in zip(indices, absorbed.argmax(axis=1).tolist(), n_fine):
            groupings[i] = tuple(grouping[:n])
    return [groupings[i] for i in range(len(cases))]


@dataclass(frozen=True)
class LineReport:
    """Three relative-entropy distances along ``rho -> middle -> target``.

    ``d_total = S(rho || target)``, ``d_first = S(rho || middle)``,
    ``d_second = S(middle || target)``.  On the straight-line
    identities ``d_total = d_first + d_second``.
    """

    d_total: ExtendedReal
    d_first: ExtendedReal
    d_second: ExtendedReal

    @property
    def residual(self) -> float | None:
        """``|d_total - (d_first + d_second)|``, or ``None`` if any leg is infinite."""
        if not self.all_finite:
            return None
        return abs(self.d_total.value - (self.d_first.value + self.d_second.value))

    @property
    def all_finite(self) -> bool:
        return self.d_total.is_finite and self.d_first.is_finite and self.d_second.is_finite


def _line_checks(cases, tol: Tolerances) -> list[tuple[LineReport, DensityOperator]]:
    """``(LineReport, E(rho))`` of the line ``rho -> E(rho) -> sigma`` for each ``(rho, (V, labels), sigma)``
    case, ``E`` the pinching in the :func:`~qrelent.linop._stack` frame: one
    :func:`~qrelent.linop._pinched_states` pass, then one relative entropy per
    leg.  An infinite leg raises nothing; each caller judges its hypothesis."""
    middles = _pinched_states([(rho.matrix, *frame) for rho, frame, _ in cases], tol)
    return [
        (
            LineReport(
                d_total=quantum_relative_entropy(rho, sigma, tol),
                d_first=quantum_relative_entropy(rho, middle, tol),
                d_second=quantum_relative_entropy(middle, sigma, tol),
            ),
            middle,
        )
        for (rho, _, sigma), middle in zip(cases, middles)
    ]


def corollary2_check(
    rho: DensityOperator, coarse: ProjectiveObservable, fine: ProjectiveObservable, tol: Tolerances = DEFAULT_TOL
) -> tuple[LineReport, float]:
    """Additivity of measurement distance under refinement.

    With ``rho_A`` the Lüders state for the coarse observable and
    ``rho_B`` for the fine one, returns the line report for
    ``S(rho || rho_B) = S(rho || rho_A) + S(rho_A || rho_B)`` together
    with the composition residual
    ``|| (rho_A)_L(fine) - rho_B ||_F`` — measuring fine after coarse
    must land on the fine Lüders state directly.

    Raises
    ------
    NotARefinementError
        If ``fine`` does not refine ``coarse`` (:func:`is_refinement`),
        checked before any Lüders state is built: the identity is only
        claimed under that hypothesis.
    """
    return _corollary2_checks([(rho, coarse, fine)], tol)[0]


def _corollary2_checks(cases, tol: Tolerances) -> list[tuple[LineReport, float]]:
    """:func:`corollary2_check` of each ``(rho, coarse, fine)`` case.

    Every refinement is checked first; then one Lüders pass builds every
    ``rho_B``, :func:`_line_checks` every ``rho_A`` (the coarse pinching)
    and line to ``rho_B``, and one pass every composed state
    ``(rho_A)_L(fine)``, so the routes to ``rho_A`` and ``rho_B`` never
    share a call.
    """
    _refinements([(fine, coarse) for _, coarse, fine in cases], tol)
    rho_b = _lueders_states([(rho, fine) for rho, _, fine in cases], tol)
    lines = _line_checks([(rho, coarse._framed(rho.dim), b) for (rho, coarse, _), b in zip(cases, rho_b)], tol)
    composed = _lueders_states([(a, fine) for (_, a), (_, _, fine) in zip(lines, cases)], tol)
    return [(report, frobenius(c.matrix - b.matrix)) for (report, _), b, c in zip(lines, rho_b, composed)]


def theorem2_check(
    rho: DensityOperator,
    sigma: DensityOperator,
    tol: Tolerances = DEFAULT_TOL,
    basis: np.ndarray | None = None,
) -> tuple[LineReport, DensityOperator]:
    """Straight line through the state pinched in ``sigma``'s spectral form.

    Pinches ``rho`` to ``M = sum_j Q_j rho Q_j`` and returns the line
    report for ``S(rho || sigma) = S(rho || M) + S(M || sigma)`` plus
    ``M``.  The ``Q_j`` project onto ``sigma``'s kept eigenvectors, one
    each, and onto its kernel as one block, which the rank cut decides
    and whose basis does not move ``M``.  Pass ``basis`` (columns) to
    pinch in that eigenbasis instead, one rank-1 block per column — it
    must be orthonormal and diagonalize ``sigma``.

    Raises
    ------
    DimensionMismatchError
        If the states live on different dimensions.
    SupportViolationError
        If ``supp(rho)`` is not contained in ``supp(sigma)``, that is if
        ``d_total`` is infinite; the identity is only claimed under that
        hypothesis.
    NotOrthonormalError
        If an explicit basis is not orthonormal within ``tol.orth``.
    NotDiagonalizingError
        If an explicit basis does not diagonalize ``sigma``.
    """
    return _theorem2_checks([(rho, sigma, basis)], tol)[0]


def _theorem2_checks(cases, tol: Tolerances) -> list[tuple[LineReport, DensityOperator]]:
    """:func:`theorem2_check` of each ``(rho, sigma, basis)`` case.

    Each case in turn has its frame checked; then one QR per frame shape
    completes the kernel of every thin ``sigma``, :func:`_line_checks`
    runs every line, and any case whose ``d_total`` is infinite raises.
    """
    frames = [_pinching_frame(sigma, basis, tol) for _, sigma, basis in cases]
    # Completing the kernel keeps rho's mass there; as one block, no choice of its basis moves M.
    thin = [i for i, (v, _) in enumerate(frames) if v.shape[1] < v.shape[0]]
    for i, q in zip(thin, _by_shape(lambda v: np.linalg.qr(v, mode="complete")[0], [frames[i][0] for i in thin])):
        v, labels = frames[i]
        frames[i] = (np.concatenate([v, q[:, v.shape[1] :]], axis=1), labels)
    # Rank-1 blocks are read off the diagonal of rho in v; only a kernel of rank >= 2 is solved.
    lines = _line_checks([(rho, frame, sigma) for (rho, sigma, _), frame in zip(cases, frames)], tol)
    if not all(report.d_total.is_finite for report, _ in lines):
        raise SupportViolationError("state support leaks outside the reference support")
    return lines


def _pinching_frame(sigma: DensityOperator, basis: np.ndarray | None, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """The frame :func:`theorem2_check` pinches in: ``sigma``'s kept eigenvectors,
    one block each, and the label of its kernel as one block, whose columns
    :func:`_theorem2_checks` completes; or the checked columns of ``basis``."""
    if basis is None:
        v = sigma.spectrum.eigenvectors
        return v, np.minimum(np.arange(sigma.dim), v.shape[1])
    v = Projector.from_basis(basis, tol).basis
    if v.shape != (sigma.dim, sigma.dim):
        raise NotOrthonormalError(f"need a full square basis, got shape {v.shape}")
    rotated = v.conj().T @ sigma.matrix @ v
    off = frobenius(rotated - np.diag(np.diag(rotated)))
    if not (off <= tol.identity):
        raise NotDiagonalizingError(f"basis does not diagonalize the reference state: off-diagonal {off:.3e}")
    return v, np.arange(sigma.dim)

"""Validated operator types and Hermitian spectral primitives.

Everything downstream — entropies, orthogonal decompositions, pinching
maps — is built on what lives here: density operators validated on
construction, support projectors with a *relative* eigenvalue cutoff,
the extended operator logarithm (zero on the kernel), and the pinching
map for an orthogonal projector family.

Conventions
-----------
* All matrices are dense complex ``numpy`` arrays.
* An eigenvalue ``lam`` of an operator with largest eigenvalue
  ``lam_max`` counts as zero iff ``lam <= tol.rank * lam_max``.  The
  cutoff is relative so that the notion of support does not depend on
  an overall scale.  :func:`_cut` applies it once per operator, at
  validation; block parts are cut at their whole operator's scale.
* A state stores only its kept eigenpairs (thin when its rank is below
  ``dim``), so its support is the span of its eigenvectors and no
  consumer cuts again; ``matrix`` is derived lazily.
* Scalar sums over eigenvalues use :func:`math.fsum`, so results do not
  depend on summation order.
* Arrays stored on the frozen value types are marked read-only.
* A projector is stored as an orthonormal basis ``V`` of its range, and
  the maps on projector families work in that frame: ``V^dag M V``
  rather than ``P M P``.
* Every projector family passes through :func:`_stack`, which owns the
  one dimension check on families.  A pass of families on frames of one
  shape takes one stacked Gram (:func:`_frame_grams`), from which each
  block's orthonormality (:func:`_check_orthonormal_blocks`) or each
  family's overlaps (:func:`_overlaps`) are gated family by family.
* Every eigensolve is one call of the kernel :func:`_solve`, on a
  matrix, a batch of blocks or a stack of states, gated by
  :func:`_check_solve` on each matrix's own defects.
* :func:`_by_shape` groups items by shape into slices of
  :data:`_STACK_ENTRIES` entries, one call each; :func:`_validated`, the
  stack form of :func:`validate_density`, gates each state on its own.
* Every state built from blocks ends in :func:`_block_spectra`, the one
  block pass over several operators on one dimension: one batched
  compression ``B = V^dag M V`` per frame shape, each ``B`` gated for
  Hermiticity, then the blocks of one size, across all of them, solved
  by one batched eigensolve, rank-1 blocks read off the diagonal, and no
  ``d x d`` solve; each operator passes every gate on its own, and its
  result does not depend on the others.  Its callers build Lüders
  states and Theorem 2's middle states (:func:`_pinched_states`), and
  the weighted block states of decompositions and breakdowns
  (:func:`_stacked_block_states`); a lone operator is compressed with
  2-D products and solved alone.  Hermiticity and positivity are judged
  on ``B``, never after division by a block's weight.
  :func:`validate_density` and :func:`pinch` keep their ``d x d`` solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadToleranceError,
    BadTraceError,
    DimensionMismatchError,
    MassLossError,
    NotHermitianError,
    NotIdempotentError,
    NotOrthogonalError,
    NotOrthonormalError,
    NotPositiveError,
    SolverFailureError,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "SpectralDecomposition",
    "DensityOperator",
    "Projector",
    "frobenius",
    "symmetrize",
    "eigh",
    "validate_density",
    "support_projector",
    "extended_log",
    "pinch",
    "support_leakage",
    "support_contained",
]


def frobenius(matrix: np.ndarray) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(matrix))


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used by validation and identity checks.

    Attributes
    ----------
    herm:
        Relative Hermiticity defect allowed on input matrices,
        ``||M - M^dag||_F <= herm * ||M||_F``.
    psd:
        How negative an eigenvalue of a nominally positive matrix may
        be before validation rejects it.
    trace:
        Allowed deviation of a density-matrix trace from 1.
    rank:
        Relative spectral cutoff: eigenvalues ``<= rank * lam_max``
        count as zero; a state's support is fixed when it is validated.
        The one existence rule, for eigenpairs, block states and
        classical weights alike.
    supp:
        Threshold on a summed trace mass outside a subspace; decides
        support inclusion and therefore the finite/infinite dichotomy.
        Never compared with a single eigenvalue or weight.
    identity:
        Default tolerance for verifying algebraic identities
        (residual norms, completeness of projector families).
    idem:
        Allowed idempotency defect ``||P @ P - P||_F`` for projectors.
    orth:
        Allowed deviation from orthonormality for eigenvector systems,
        entrywise on the Gram matrix.
    recon:
        Allowed spectral reconstruction error
        ``||V diag(w) V^dag - M||_F``, relative to ``max(1, ||M||_F)``.
    """

    herm: float = 1e-10
    psd: float = 1e-10
    trace: float = 1e-8
    rank: float = 1e-10
    supp: float = 1e-9
    identity: float = 1e-8
    idem: float = 1e-10
    orth: float = 1e-10
    recon: float = 1e-10

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not (isinstance(value, float) and value > 0.0 and math.isfinite(value)):
                raise BadToleranceError(f"tolerance {name!r} must be a finite positive float, got {value!r}")

    def replace(self, **changes: float) -> "Tolerances":
        """A copy with the given fields changed."""
        import dataclasses

        return dataclasses.replace(self, **changes)


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix.

    ``eigenvalues`` is real and ascending; column ``k`` of
    ``eigenvectors`` is the eigenvector for ``eigenvalues[k]``.  The
    system may be thin: ``eigenvectors`` is a ``dim x n`` isometry with
    ``n <= dim`` eigenvalues, and the orthogonal complement of its
    columns is the 0-eigenspace.  Instances are produced by :func:`eigh`
    and the state constructors and are assumed valid; they are not
    re-checked on attribute access.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvectors.shape[0])

    def reconstruct(self) -> np.ndarray:
        """``V diag(w) V^dag`` as a fresh writable array."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


@dataclass(frozen=True)
class DensityOperator:
    """A validated quantum state, stored as its kept spectrum.

    ``spectrum`` holds only the eigenpairs above ``tol.rank * lam_max``
    of the tolerances the state was validated with, renormalized to sum
    to 1; its eigenvectors span the support.  :attr:`matrix`,
    ``V diag(w) V^dag``, is derived from it on first access.  Construct
    through :func:`validate_density`.
    """

    spectrum: SpectralDecomposition

    @property
    def dim(self) -> int:
        return self.spectrum.dim

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """``V diag(w) V^dag``, made exactly Hermitian, as a read-only ``dim x dim`` array."""
        m = self.spectrum.reconstruct()
        return _readonly((m + m.conj().T) / 2.0)


@dataclass(frozen=True)
class Projector:
    """An orthogonal projector, stored as an orthonormal basis of its range.

    ``basis`` is a read-only ``dim x rank`` isometry ``V``; the projector
    is ``V V^dag``, which :attr:`matrix` derives on first access.
    Construct through :meth:`from_basis` (orthonormal columns),
    :meth:`validated` (a projector matrix) or :meth:`zero`.
    """

    basis: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    @property
    def rank(self) -> int:
        return int(self.basis.shape[1])

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """``V V^dag`` as a read-only ``dim x dim`` array."""
        p = self.basis @ self.basis.conj().T
        return _readonly((p + p.conj().T) / 2.0)

    @classmethod
    def from_basis(cls, cols: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> "Projector":
        """The projector onto the span of orthonormal columns.

        Raises
        ------
        NotOrthonormalError
            If ``cols`` is not a 2-D array of at most ``dim`` columns
            whose Gram matrix is within ``tol.orth`` of the identity,
            entrywise.
        """
        v = np.array(cols, dtype=complex)
        if v.ndim != 2 or v.shape[1] > v.shape[0]:
            raise NotOrthonormalError(f"expected at most dim orthonormal columns, got shape {v.shape}")
        defect = _gram_defect(v)
        if not (defect <= tol.orth):
            raise NotOrthonormalError(f"basis columns not orthonormal: defect {defect:.3e}")
        return cls(basis=_readonly(v))

    @classmethod
    def validated(cls, raw: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> "Projector":
        """Validate an externally supplied matrix as an orthogonal projector.

        The range is read off one checked eigendecomposition: the
        eigenvectors with eigenvalue above 1/2.

        Raises
        ------
        NotHermitianError
            If ``raw`` is not square or not Hermitian within ``tol.herm``.
        NotIdempotentError
            If ``||P @ P - P||_F > tol.idem``.
        SolverFailureError
            If the eigendecomposition fails its quality checks.
        """
        m = symmetrize(raw, tol)
        defect = frobenius(m @ m - m)
        if not (defect <= tol.idem * max(1.0, frobenius(m))):
            raise NotIdempotentError(f"projector defect ||P^2 - P||_F = {defect:.3e}")
        spec = eigh(m, tol)
        return cls(basis=_readonly(spec.eigenvectors[:, spec.eigenvalues > 0.5]))

    @classmethod
    def zero(cls, dim: int) -> "Projector":
        """The rank-0 projector on a ``dim``-dimensional space."""
        return cls(basis=_readonly(np.zeros((dim, 0), dtype=complex)))


def symmetrize(raw: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Check Hermiticity and return the exactly Hermitian part.

    The input must satisfy ``||M - M^dag||_F <= tol.herm * ||M||_F``;
    the returned matrix is ``(M + M^dag) / 2``, which removes the
    round-off asymmetry without changing the operator it represents.

    Raises
    ------
    NotHermitianError
        If the matrix is not square, or the defect exceeds the bound.
    """
    m = np.asarray(raw, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {m.shape}")
    return _hermitian_part(m, frobenius(m), tol)


def _hermitian_part(m: np.ndarray, scale: float, tol: Tolerances) -> np.ndarray:
    """``(M + M^dag) / 2`` of a square ``m``, if ``||M - M^dag||_F <= tol.herm * scale``."""
    adj = m.conj().T
    _check_hermitian(frobenius(m - adj), scale, tol)
    return (m + adj) / 2.0


def _check_hermitian(defect: float, scale: float, tol: Tolerances) -> None:
    """Gate Hermiticity: a defect ``||M - M^dag||_F`` within ``tol.herm * scale``."""
    if not (defect <= tol.herm * max(scale, 1e-300)):
        raise NotHermitianError(
            f"Hermiticity defect {defect:.3e} exceeds {tol.herm:.1e} * ||M||_F = {tol.herm * scale:.3e}"
        )


def _gram_defect(v: np.ndarray) -> float:
    """``max |V^dag V - 1|`` entrywise of one ``V``; NaN if ``V`` holds a NaN."""
    return float(_gram_defects(v))


def _gram_defects(v: np.ndarray) -> np.ndarray:
    """``max |V^dag V - 1|`` entrywise for each ``V`` of a batch; NaN where ``V`` holds a NaN."""
    gram = v.conj().swapaxes(-1, -2) @ v
    gram -= np.eye(v.shape[-1])
    return np.abs(gram).max(axis=(-2, -1), initial=0.0)


def _solve(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian ``(s, s)`` matrix or ``(k, s, s)`` batch, with each
    matrix's largest entrywise ``|U^dag U - 1|`` and its ``||U diag(w) U^dag - M||_F^2``."""
    try:
        w, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(f"eigensolver failed: {exc}") from exc
    recon = (u * w[..., None, :]) @ u.conj().swapaxes(-1, -2)
    recon -= m
    recon_sq = np.vdot(recon, recon).real if m.ndim == 2 else np.linalg.norm(recon, axis=(-2, -1)) ** 2
    return w, u, _gram_defects(u), recon_sq


def _check_solve(gram_defect: float, recon_sq: float, scale: float, tol: Tolerances) -> None:
    """Gate :func:`_solve`'s defects: Gram at ``tol.orth``, reconstruction at ``tol.recon * max(1, scale)``."""
    if not (gram_defect <= tol.orth):
        raise SolverFailureError(f"eigenvectors not orthonormal: defect {gram_defect:.3e}")
    recon_defect = math.sqrt(recon_sq)
    if not (recon_defect <= tol.recon * max(1.0, scale)):
        raise SolverFailureError(f"spectral reconstruction error {recon_defect:.3e}")


def eigh(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, with quality checks.

    Beyond calling the solver, this verifies that the eigenvector
    system is orthonormal (Gram matrix within ``tol.orth`` of the
    identity, entrywise) and that ``V diag(w) V^dag`` reconstructs the
    input within ``tol.recon`` relative to ``max(1, ||M||_F)``.

    Raises
    ------
    SolverFailureError
        If the solver does not converge or a quality check fails.
    """
    m = np.asarray(matrix, dtype=complex)
    w, v, gram_defect, recon_sq = _solve(m)
    _check_solve(float(gram_defect), float(recon_sq), frobenius(m), tol)
    return SpectralDecomposition(eigenvalues=_readonly(w), eigenvectors=_readonly(v))


def _check_positive(w: np.ndarray, tol: Tolerances) -> None:
    """Gate positivity: no eigenvalue in ``w`` below ``-tol.psd``."""
    lam_min = float(w.min(initial=0.0))
    if not (lam_min >= -tol.psd):
        raise NotPositiveError(f"smallest eigenvalue {lam_min:.3e} below -{tol.psd:.1e}")


def _cut(scale: float, tol: Tolerances, w: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """The one support cut: eigenvalues ``w > tol.rank * scale`` (none if ``scale <= 0``),
    with the matching entries of each of ``columns`` along its last axis."""
    keep = w > tol.rank * scale if scale > 0.0 else np.zeros(w.shape, dtype=bool)
    return (w[keep], *(c[..., keep] for c in columns))


def _state(w: np.ndarray, v: np.ndarray, tol: Tolerances) -> DensityOperator:
    """The validation tail shared by the state constructors.

    Takes ascending eigenpairs ``(w, V)``, gates positivity and unit
    trace, and returns the state of the kept pairs, renormalized.
    """
    _check_positive(w, tol)
    trace = math.fsum(w.tolist())
    if not (abs(trace - 1.0) <= tol.trace):
        raise BadTraceError(f"trace {trace!r} differs from 1 by more than {tol.trace:.1e}")
    w, v = _cut(float(w[-1]), tol, w, v)
    return _density(w / math.fsum(w.tolist()), v)


def _density(w: np.ndarray, v: np.ndarray) -> DensityOperator:
    """The state with kept spectrum ``(w, V)``."""
    return DensityOperator(spectrum=SpectralDecomposition(eigenvalues=_readonly(w), eigenvectors=_readonly(v)))


def validate_density(raw: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    """Validate a raw matrix as a quantum state and clean it up.

    Checks, in order: Hermiticity (``tol.herm``, relative), positivity
    (all eigenvalues ``>= -tol.psd``), and unit trace (``tol.trace``,
    checked on the input before any repair).  On success the eigenpairs
    at or below ``tol.rank * lam_max`` are dropped and the rest
    renormalized to sum to exactly 1; the state stores that kept
    spectrum, and its matrix is rebuilt from it on first access.

    Raises
    ------
    NotHermitianError, NotPositiveError, BadTraceError, SolverFailureError
    """
    spec = eigh(symmetrize(raw, tol), tol)
    return _state(spec.eigenvalues, spec.eigenvectors, tol)


# A stack of states is gated and solved in slices of at most this many
# complex entries (64 KiB), so a 64 x 64 state fills a slice alone and
# is solved as validate_density solves it.  Stacking saves the fixed
# cost of a solver call, which dominates at small d; at d = 64 it saves
# little, and a slice of two such states costs more than it saves.  On
# a 2-core Xeon with one BLAS thread, 12-trial corollary3 campaigns,
# alternating in one process with the per-trial check they replace
# over 40 rounds, took 1.02x its time at d = 64 and 0.89x at d = 32
# with this bound, and 1.11x and 0.84x with 2^13 (slices of 128 KiB,
# the size from which glibc's default allocator maps each array
# afresh).
_STACK_ENTRIES = 2**12


def _groups(keys) -> list[list[int]]:
    """The indices of equal keys, keys in the order first met."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _by_shape(fn, items, *args) -> list:
    """``fn`` of ``items``, a slice of one shape at a time; the results in input order.

    The items of each shape, shapes in the order first met, are cut in
    input order into slices of at most :data:`_STACK_ENTRIES` entries.
    ``fn(stack, *args)`` gets a slice of several items stacked and returns
    one result per item; ``fn(item, *args)`` gets a lone item unstacked.
    """
    out = {}
    for indices in _groups(np.shape(item) for item in items):
        per_slice = max(1, _STACK_ENTRIES // math.prod(np.shape(items[indices[0]])))
        for a in range(0, len(indices), per_slice):
            part = indices[a : a + per_slice]
            results = fn(np.array([items[i] for i in part]), *args) if len(part) > 1 else [fn(items[part[0]], *args)]
            out.update(zip(part, results, strict=True))
    return [out[i] for i in range(len(items))]


def _validated(matrices, tol: Tolerances) -> list[DensityOperator]:
    """:func:`validate_density` of each of a sequence of complex square matrices of any sizes.

    Each matrix passes the gates of :func:`validate_density` at the same
    bounds, and its state does not depend on the others.  Per slice of
    :func:`_by_shape`: a lone matrix goes to :func:`validate_density`; in
    a stack every matrix's Hermiticity is gated, one :func:`_solve` call
    solves the stack, then each matrix in turn has its Gram,
    reconstruction, positivity and trace gates.  So sizes fail in the
    order first met, and in a slice a Hermiticity failure comes first.
    """
    return _by_shape(_validated_slice, matrices, tol)


def _validated_slice(part: np.ndarray, tol: Tolerances):
    """The state of one matrix, or the list of states of a stack, as :func:`_validated` makes them."""
    if part.ndim == 2:
        return validate_density(part, tol)
    adj = part.conj().swapaxes(-1, -2)
    for defect, scale in zip(np.linalg.norm(part - adj, axis=(-2, -1)), np.linalg.norm(part, axis=(-2, -1))):
        _check_hermitian(float(defect), float(scale), tol)
    part = (part + adj) / 2.0
    w, v, gram_defect, recon_sq = _solve(part)
    states = []
    for i, scale in enumerate(np.linalg.norm(part, axis=(-2, -1))):
        _check_solve(float(gram_defect[i]), float(recon_sq[i]), float(scale), tol)
        states.append(_state(w[i], v[i], tol))
    return states


def support_projector(rho: DensityOperator) -> Projector:
    """Projector onto the support (range) of a state.

    The span of the state's eigenvectors: the rank cutoff was made when
    the state was validated.  The result satisfies
    ``P @ rho == rho @ P == rho`` up to round-off.
    """
    return Projector(basis=rho.spectrum.eigenvectors)


def extended_log(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Operator logarithm extended by zero on the kernel.

    For a positive-semidefinite Hermitian ``M`` with spectral
    decomposition ``sum_k lam_k P_k``, returns
    ``sum_{lam_k > cutoff} ln(lam_k) P_k`` with
    ``cutoff = tol.rank * lam_max``: the ordinary logarithm on the
    support, and zero — not ``-inf`` — on the kernel.  Infinities are
    handled by callers through explicit support tests, never by letting
    ``log(0)`` escape into arithmetic.

    The zero matrix maps to the zero matrix.

    Raises
    ------
    NotHermitianError
        If ``matrix`` is not Hermitian within ``tol.herm``.
    NotPositiveError
        If an eigenvalue is below ``-tol.psd``.
    """
    spec = eigh(symmetrize(matrix, tol), tol)
    w = spec.eigenvalues
    _check_positive(w, tol)
    return _spectral_log(SpectralDecomposition(*_cut(float(w[-1]), tol, w, spec.eigenvectors)))


def _spectral_log(spec: SpectralDecomposition) -> np.ndarray:
    """``sum_k ln(lam_k) |v_k><v_k|`` over a kept spectrum, no solve.

    Zero on the complement of the eigenvectors, which is the kernel.
    """
    v = spec.eigenvectors
    out = (v * np.log(spec.eigenvalues)) @ v.conj().T
    return (out + out.conj().T) / 2.0


def _stack(projectors, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``[V_1 ... V_K]`` and, per column, the index ``k`` of its projector.

    Raises
    ------
    DimensionMismatchError
        If some projector does not live on ``dim``.
    """
    for k, p in enumerate(projectors):
        if p.dim != dim:
            raise DimensionMismatchError(f"projector {k} on dim {p.dim}, expected dim {dim}")
    v = np.concatenate([np.zeros((dim, 0), dtype=complex), *(p.basis for p in projectors)], axis=1)
    labels = np.repeat(np.arange(len(projectors)), [p.rank for p in projectors])
    return v, labels


def _overlaps(gram: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    """``||V_i^dag V_j||_F`` for every pair of ``n`` stacked isometries,
    from the Gram matrix ``V^dag V`` of their stacked bases, or per frame
    of a stack of Grams with one row of labels each (a label below ``n``
    that no column carries reads zero).

    For isometries this equals ``||P_i P_j||_F``.
    """
    onehot = (labels[..., None] == np.arange(n)).astype(float)
    return np.sqrt(onehot.swapaxes(-1, -2) @ np.abs(gram) ** 2 @ onehot)


def _check_overlaps(overlaps: np.ndarray, tol: Tolerances) -> None:
    """Gate one family's upper-triangular pairwise overlaps at ``tol.identity``."""
    if not (overlaps.max(initial=0.0) <= tol.identity):
        i, j = np.argwhere(~(overlaps <= tol.identity))[0]
        raise NotOrthogonalError(f"projectors {i} and {j} overlap: ||P_i P_j||_F = {overlaps[i, j]:.3e}")


def _check_mutually_orthogonal(projectors, dim: int, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Check that no pair has ``||P_i P_j||_F > tol.identity``; return :func:`_stack`."""
    v, labels = _stack(projectors, dim)
    _check_overlaps(np.triu(_overlaps(v.conj().T @ v, labels, len(projectors)), 1), tol)
    return v, labels


def _frame_grams(frames):
    """The frames ``(V, labels)`` grouped by the shape of ``V``, shapes in
    the order first met: per group, the indices of its frames, the stack
    of their Grams ``V^dag V`` from one matmul, and their labels as rows."""
    for indices in _groups(v.shape for v, _ in frames):
        v = np.array([frames[i][0] for i in indices])
        yield indices, v.conj().swapaxes(-1, -2) @ v, np.array([frames[i][1] for i in indices])


def _check_orthonormal_blocks(frames, tol: Tolerances) -> None:
    """Gate the columns of each labelled block of each frame ``(V, labels)``
    as :meth:`Projector.from_basis` gates a basis: the largest entrywise
    ``|V_k^dag V_k - 1|`` within ``tol.orth``, NaN failing.

    A block's Gram matrix is a principal submatrix of its frame's, so
    one Gram per frame shape (:func:`_frame_grams`) gates every block.
    Frames of a shape fail in input order, and a frame's blocks in label
    order.
    """
    for _, gram, labels in _frame_grams(frames):
        gram -= np.eye(gram.shape[-1])
        within = np.where(labels[:, :, None] == labels[:, None, :], np.abs(gram), 0.0)
        if within.max(initial=0.0) <= tol.orth:
            continue
        blocks = labels[:, :, None] == np.arange(labels.max() + 1)
        defects = np.where(blocks, within.max(axis=-2)[:, :, None], 0.0).max(axis=-2)
        raise NotOrthonormalError(f"basis columns not orthonormal: defect {defects[~(defects <= tol.orth)][0]:.3e}")


def _block_diagonal(matrix: np.ndarray, v: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``B``, the block diagonal of ``V^dag M V``: entries between columns of one label."""
    b = v.conj().T @ matrix @ v
    b[labels[:, None] != labels[None, :]] = 0.0
    return b


def _pinched(matrix: np.ndarray, v: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``sum_k P_k M P_k`` as ``V B V^dag``, ``B`` from :func:`_block_diagonal`."""
    return v @ _block_diagonal(matrix, v, labels) @ v.conj().T


def _block_spectra(items, tol: Tolerances, at_scale_of_m: bool = False) -> list[tuple[np.ndarray, ...]]:
    """The block pass: compress, gate and solve the blocks of each ``(M, V, labels)`` item.

    ``V`` and ``labels`` come from :func:`_stack`, so each block is a run
    of consecutive columns, and the items share one dimension.  ``B`` is
    :func:`_block_diagonal`, gated and made exactly Hermitian as
    :func:`symmetrize` gates it, at the scale ``||B||_F``, or ``||M||_F``
    with ``at_scale_of_m``.  Items with one shape of ``V`` are compressed
    by one batched product, shapes in the order first met, and every
    item's Hermiticity is gated before any solve.  Their columns are laid
    end to end in one frame; rank-1 blocks are read off the diagonal, and
    the larger blocks of one size, across all items, share one
    :func:`_solve`.  Then each item in turn passes :func:`_check_solve`
    on its own blocks: the largest Gram defect of its ``U_k`` and its
    reconstruction defect summed over its blocks, at the scale
    ``||B||_F``.  Returns per item the diagonal of ``B``, each column's
    eigenvalue (ascending within its block) and the eigenvectors
    ``V_k U_k``, read-only; an item's result does not depend on the others.
    """
    # Kept: a lone item sent through the group code costs 30-40 us more per call (d = 4, 8), 80-120 us at d = 64.
    if len(items) == 1:
        m, v, labels = items[0]
        b = _block_diagonal(m, v, labels)
        b = _hermitian_part(b, frobenius(m if at_scale_of_m else b), tol)
        diag = b.diagonal().real
        w, vectors = diag.copy(), v.copy()
        sizes = np.bincount(labels)[labels]
        recon_sq = gram_defect = 0.0
        for s in sorted(set(sizes.tolist()) - {1}):
            # Blocks are runs of consecutive columns: one row per block.
            cols = np.flatnonzero(sizes == s).reshape(-1, s)
            bw, bu, gram, recon = _solve(b[cols[:, :, None], cols[:, None, :]])
            gram_defect = float(np.maximum(gram_defect, gram.max()))  # keeps a NaN, unlike max()
            recon_sq += float(recon.sum())
            w[cols] = bw
            vectors[:, cols] = (v[:, cols].transpose(1, 0, 2) @ bu).transpose(1, 0, 2)
        _check_solve(gram_defect, recon_sq, frobenius(b), tol)
        return [(diag, _readonly(w), _readonly(vectors))]
    parts = _groups(v.shape for _, v, _ in items)
    groups, frames, diags, owners = [], [], [], []
    scales, starts = np.zeros(len(items)), np.zeros(len(items), dtype=int)
    offset = 0
    for part in parts:
        m, v, labels = (np.array([items[i][k] for i in part]) for k in range(3))
        b = v.conj().swapaxes(-1, -2) @ m @ v
        same = labels[:, :, None] == labels[:, None, :]
        b[~same] = 0.0
        adj = b.conj().swapaxes(-1, -2)
        defects = np.linalg.norm(b - adj, axis=(-2, -1)).tolist()
        for defect, scale in zip(defects, np.linalg.norm(m if at_scale_of_m else b, axis=(-2, -1)).tolist()):
            _check_hermitian(defect, scale, tol)
        b = (b + adj) / 2.0
        n, r = labels.shape
        scales[part] = np.linalg.norm(b, axis=(-2, -1))
        starts[part] = offset + r * np.arange(n)
        # Rows of the stack end to end; a label is one run of columns, so its columns are its block.
        groups.append((b.reshape(n * r, r), offset, same.sum(-1).ravel()))
        frames.append(v.transpose(1, 0, 2).reshape(v.shape[1], n * r))
        diags.append(b.diagonal(axis1=-2, axis2=-1).real.ravel())
        owners.append(np.repeat(part, r))
        offset += n * r
    frame, owner = np.concatenate(frames, axis=1), np.concatenate(owners)
    diag = np.concatenate(diags)
    # Rank-1 blocks keep their diagonal entry; larger blocks overwrite theirs.
    w, vectors = diag.copy(), frame.copy()
    gram_defects, recon_sqs = np.zeros(len(items)), np.zeros(len(items))
    for s in sorted(set(np.concatenate([column_sizes for _, _, column_sizes in groups]).tolist()) - {1}):
        # Blocks are runs of consecutive columns: one row per block, gathered from its group's stack.
        blocks, cols = [], []
        for rows, first, column_sizes in groups:
            q = np.flatnonzero(column_sizes == s).reshape(-1, s)
            blocks.append(rows[q[:, :, None], q[:, None, :] % rows.shape[1]])
            cols.append(first + q)
        cols = np.concatenate(cols)
        bw, bu, gram, recon = _solve(np.concatenate(blocks))
        w[cols] = bw
        np.maximum.at(gram_defects, owner[cols[:, 0]], gram)  # keeps a NaN
        np.add.at(recon_sqs, owner[cols[:, 0]], recon)
        vectors[:, cols] = (frame[:, cols].transpose(1, 0, 2) @ bu).transpose(1, 0, 2)
    for gram_defect, recon_sq, scale in zip(gram_defects.tolist(), recon_sqs.tolist(), scales.tolist()):
        _check_solve(gram_defect, recon_sq, scale, tol)
    spans = [slice(a, a + len(labels)) for a, (_, _, labels) in zip(starts.tolist(), items)]
    return [(_readonly(diag[c]), _readonly(w[c]), _readonly(vectors[:, c])) for c in spans]


def _pinched_states(items, tol: Tolerances) -> list[DensityOperator]:
    """Validate each pinching ``sum_k V_k (V_k^dag M V_k) V_k^dag`` of ``(M, V, labels)`` items.

    ``V`` and ``labels`` come from :func:`_stack`.  The spectrum of a
    pinching is the union of its block spectra, so no ``d x d`` matrix
    is solved: one :func:`_block_spectra` pass compresses every ``M``,
    gates each ``B``'s Hermiticity as :func:`symmetrize` does and solves
    them all, then each item's assembled eigenvectors pass one Gram
    check at ``tol.orth`` and its state the positivity and trace gates
    of :func:`validate_density`.  Each result equals
    ``validate_density(_pinched(M, V, labels))`` up to round-off and does
    not depend on the other items; its spectrum is thin when ``V`` does
    not span the space.  Raises as :func:`validate_density`, and
    :class:`NotOrthonormalError` if a family is no eigenbasis to within
    ``tol.orth``; when several items fail, the error may be a later one's.
    """
    spectra = _block_spectra(items, tol)
    states = []
    for (_, w, vectors), gram_defect in zip(spectra, _by_shape(_gram_defects, [vectors for _, _, vectors in spectra])):
        if not (gram_defect <= tol.orth):
            raise NotOrthonormalError(f"pinched eigenvectors not orthonormal: defect {gram_defect:.3e}")
        ascending = np.argsort(w, kind="stable")
        states.append(_state(w[ascending], vectors[:, ascending], tol))
    return states


def pinch(
    rho: DensityOperator,
    projectors: tuple[Projector, ...] | list[Projector],
    tol: Tolerances = DEFAULT_TOL,
) -> DensityOperator:
    """Apply the pinching map ``rho -> sum_k P_k rho P_k``.

    The projectors must be mutually orthogonal and, together, must
    capture the state's trace mass; coherences between the subspaces
    are destroyed, populations within them are kept.  The sum is taken
    in the frame of the stacked range bases.

    Raises
    ------
    DimensionMismatchError
        If a projector lives on a different dimension than ``rho``.
    NotOrthogonalError
        If some pair has ``||P_i @ P_j||_F > tol.identity``.
    MassLossError
        If the pinched trace falls below ``1 - tol.supp`` (the family
        does not cover the state's support).
    """
    out = _pinched(rho.matrix, *_check_mutually_orthogonal(projectors, rho.dim, tol))
    kept = float(np.trace(out).real)
    if not (1.0 - tol.supp <= kept):
        raise MassLossError(f"pinching kept only trace {kept!r} of the state")
    return validate_density(out, tol)


def _stacked_block_states(
    items, tol: Tolerances
) -> list[tuple[np.ndarray, tuple[DensityOperator | None, ...], tuple[np.ndarray, np.ndarray]]]:
    """Split each ``M`` of ``(M, V, labels, n)`` items into block weights and normalized block states.

    ``V`` and ``labels`` stack ``n`` range bases ``V_k`` (:func:`_stack`).
    One :func:`_block_spectra` pass compresses, gates and solves them
    all, then each item in turn has its positivity gate and is split;
    ``p_k``, the trace of block ``B_k`` read off the pass's diagonal and
    clamped at 0, is its weight.  Hermiticity and positivity are
    judged on ``B`` at the scale of ``M`` (``||B - B^dag||_F <= tol.herm *
    ||M||_F``, no eigenvalue below ``-tol.psd``) before any division by
    ``p_k``, so round-off is not magnified into a rejection of a light
    block.  The support cut is made once per item, at the largest
    eigenvalue of its whole ``B``, never a block's own, and it alone
    decides which blocks exist: each block with ``p_k > 0`` and a kept
    eigenvalue becomes the thin state of its kept pairs, renormalized;
    other blocks carry ``None``, but their ``p_k`` still counts.  Returns
    per item the read-only weights, the states and the uncut block
    spectrum (eigenvalues of ``B``, and ``V_k U_k``), each as the item
    gives them alone.  Raises :class:`NotHermitianError`,
    :class:`NotPositiveError` or :class:`SolverFailureError`; when
    several items fail, the error may be a later one's.
    """
    spectra = _block_spectra([(m, v, labels) for m, v, labels, _ in items], tol, at_scale_of_m=True)
    out = []
    for (_, _, labels, n), (diag, w, vectors) in zip(items, spectra):
        _check_positive(w, tol)
        weights = np.clip(np.bincount(labels, weights=diag, minlength=n), 0.0, None)
        kept, kept_vectors, kept_labels = _cut(float(w.max(initial=0.0)), tol, w, vectors, labels)
        edges = np.cumsum([0, *np.bincount(kept_labels, minlength=n).tolist()]).tolist()
        states = tuple(
            _density(kept[a:z] / math.fsum(kept[a:z].tolist()), kept_vectors[:, a:z]) if pk > 0.0 and z > a else None
            for pk, a, z in zip(weights.tolist(), edges, edges[1:])
        )
        out.append((_readonly(weights), states, (w, vectors)))
    return out


def _populations(rho: DensityOperator, v: np.ndarray) -> np.ndarray:
    """``<v_k|rho|v_k>`` for every column ``v_k`` of ``v``, from ``rho``'s spectrum: ``|V^dag U|^2 w``."""
    spec = rho.spectrum
    return (np.abs(v.conj().T @ spec.eigenvectors) ** 2) @ spec.eigenvalues


def _support_populations(rho: DensityOperator, sigma: DensityOperator) -> tuple[list[float], float]:
    """The support oracle: populations of ``rho`` on ``supp(sigma)``, and the leakage.

    Returns ``<v_k|rho|v_k>`` over the eigenvectors of ``sigma`` (its
    support, ascending eigenvalue order), and the leakage ``1 - sum_k``,
    clamped at 0.  :func:`support_leakage`, :func:`support_contained`
    and the relative entropy all decide support from this.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"states on dims {rho.dim} and {sigma.dim}")
    populations = _populations(rho, sigma.spectrum.eigenvectors).tolist()
    return populations, max(0.0, 1.0 - math.fsum(populations))


def support_leakage(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Trace mass of ``rho`` outside the support of ``sigma``.

    Returns ``1 - tr(rho P)`` with ``P`` the support projector of
    ``sigma``, clamped at 0.  This is the quantity the finite/infinite
    dichotomy is decided on.
    """
    return _support_populations(rho, sigma)[1]


def support_contained(rho: DensityOperator, sigma: DensityOperator, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether ``supp(rho)`` is contained in ``supp(sigma)``.

    True iff the leakage ``1 - tr(rho P_sigma)`` is at most
    ``tol.supp``.  This structural test — not cancellation of
    logarithms — gates every finite/infinite decision in the package.
    """
    return support_leakage(rho, sigma) <= tol.supp

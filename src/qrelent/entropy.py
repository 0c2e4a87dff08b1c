"""Entropies with first-class infinity semantics.

All entropies are in nats (natural logarithm); conversion to bits is a
presentation concern and happens only at output layers.  Relative
entropies return :class:`ExtendedReal`, whose infinite value is a
tagged state decided by an explicit support test — ``float('inf')``
never appears as the *result* of evaluating ``log(0)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, NotPositiveError, BadTraceError
from .linop import (
    DEFAULT_TOL,
    DensityOperator,
    Tolerances,
    _cut,
    _support_populations,
)

__all__ = [
    "ExtendedReal",
    "INFINITY",
    "ProbabilityVector",
    "shannon_entropy",
    "classical_relative_entropy",
    "von_neumann_entropy",
    "quantum_relative_entropy",
]


@dataclass(frozen=True)
class ExtendedReal:
    """A value in ``[0, +inf]``: either a finite float or the tag ``+inf``.

    ``value is None`` encodes ``+inf``.  Arithmetic is deliberately
    minimal — ``+`` between two ``ExtendedReal`` values, and
    :meth:`as_float` to compare or display one as a float — because the
    point of the type is to keep infinity from silently mixing into
    float arithmetic.
    """

    value: float | None

    @classmethod
    def finite(cls, x: float) -> "ExtendedReal":
        if not math.isfinite(x):
            raise ValueError(f"finite() called with {x!r}")
        return cls(float(x))

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __add__(self, other: "ExtendedReal") -> "ExtendedReal":
        if not isinstance(other, ExtendedReal):
            return NotImplemented
        if self.value is None or other.value is None:
            return INFINITY
        return ExtendedReal(self.value + other.value)

    def as_float(self) -> float:
        """The value with ``+inf`` mapped to ``math.inf`` (display/compare only)."""
        return math.inf if self.value is None else self.value

    def __str__(self) -> str:
        return "inf" if self.value is None else repr(self.value)


INFINITY = ExtendedReal(None)


@dataclass(frozen=True)
class ProbabilityVector:
    """A classical distribution as a read-only float array.

    :meth:`validated` is the checked constructor for external input:
    entries may be slightly negative (clamped to 0 if above ``-tol.psd``)
    and the total must be 1 within ``tol.trace``; the entries are *not*
    renormalized.  Direct construction skips the checks — internal code
    uses that for diagnostic vectors that are intentionally
    subnormalized (e.g. block weights of a state that leaks support).
    """

    probs: np.ndarray

    @classmethod
    def validated(cls, raw, tol: Tolerances = DEFAULT_TOL) -> "ProbabilityVector":
        p = np.asarray(raw, dtype=float).copy()
        if p.ndim != 1:
            raise LengthMismatchError(f"expected a 1-D vector, got shape {p.shape}")
        lowest = float(p.min(initial=0.0))
        if not (lowest >= -tol.psd):
            raise NotPositiveError(f"negative probability {lowest:.3e}")
        p = np.clip(p, 0.0, None)
        total = math.fsum(float(x) for x in p)
        if not (abs(total - 1.0) <= tol.trace):
            raise BadTraceError(f"probabilities sum to {total!r}, not 1")
        p.setflags(write=False)
        return cls(probs=p)

    def __len__(self) -> int:
        return int(self.probs.shape[0])


def shannon_entropy(p: ProbabilityVector) -> float:
    """Shannon entropy ``H(p) = -sum_k p_k ln p_k`` in nats.

    Zero entries contribute zero (the ``0 ln 0 = 0`` convention).
    """
    return _spectral_entropy(p.probs[p.probs > 0.0])


def classical_relative_entropy(
    p: ProbabilityVector, w: ProbabilityVector, tol: Tolerances = DEFAULT_TOL
) -> ExtendedReal:
    """Classical relative entropy ``H(p||w) = sum_k p_k (ln p_k - ln w_k)``.

    A weight exists iff it survives the rank cut that
    :func:`~qrelent.linop.validate_density` makes of ``diag(w)``,
    ``w_k > tol.rank * max(w)``.  Dichotomy first: if the summed
    ``p``-mass on the cut weights exceeds ``tol.supp`` (the classical
    image of the support leakage), the result is ``+inf``.  Otherwise
    the sum runs over the kept weights with ``p_k > 0``.

    Raises
    ------
    LengthMismatchError
        If the vectors have different lengths.
    """
    if len(p) != len(w):
        raise LengthMismatchError(f"distributions of lengths {len(p)} and {len(w)}")
    w_kept, p_kept = _cut(float(w.probs.max(initial=0.0)), tol, w.probs, p.probs)
    return _kept_relative_entropy(p_kept, w_kept, math.fsum(p.probs.tolist()) - math.fsum(p_kept.tolist()), tol)


def _kept_relative_entropy(p: np.ndarray, w: np.ndarray, leaked: float, tol: Tolerances) -> ExtendedReal:
    """``H(p||w)`` over existing weights ``w``, where ``leaked`` is the mass of ``p`` off them:
    ``+inf`` if it exceeds ``tol.supp``, else the sum over ``p_k > 0``."""
    if not (leaked <= tol.supp):
        return INFINITY
    return ExtendedReal.finite(
        math.fsum(pk * (math.log(pk) - math.log(wk)) for pk, wk in zip(p.tolist(), w.tolist()) if pk > 0.0)
    )


def _spectral_entropy(w: np.ndarray) -> float:
    """``-sum x ln x`` over positive ``w``: the one ``x ln x`` kernel.

    The ``+ 0.0`` turns the ``-0.0`` of an all-zero sum into ``0.0``.
    """
    return -math.fsum(x * math.log(x) for x in w.tolist()) + 0.0


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Von Neumann entropy ``S(rho) = -tr(rho ln rho)`` in nats.

    Computed from the validated spectrum, which holds only the
    eigenvalues kept when the state was validated.
    """
    return _spectral_entropy(rho.spectrum.eigenvalues)


def quantum_relative_entropy(
    rho: DensityOperator, sigma: DensityOperator, tol: Tolerances = DEFAULT_TOL
) -> ExtendedReal:
    """Quantum relative entropy ``S(rho||sigma)`` in nats.

    The finite/infinite dichotomy is decided structurally: if
    ``supp(rho)`` is not contained in ``supp(sigma)`` (trace leakage
    above ``tol.supp``), the result is the tagged ``+inf``.  Only when
    containment holds is the finite value

        ``tr(rho ln rho) - tr(rho logz(sigma))``

    evaluated, with ``logz`` the kernel-extended logarithm; the kernel
    of ``sigma`` then carries no weight of ``rho``, so the extension by
    zero does not distort the value.  Both terms come from the states'
    validated spectra: ``tr(rho logz(sigma))`` is
    ``sum_k <v_k|rho|v_k> ln(lam_k)`` over the eigenpairs of ``sigma``,
    which are exactly its kept ones, so no further eigensolve runs.  The
    populations ``<v_k|rho|v_k>`` are those the support test sums.

    Raises
    ------
    DimensionMismatchError
        If the states live on different dimensions.
    """
    populations, leakage = _support_populations(rho, sigma)
    if not (leakage <= tol.supp):
        return INFINITY
    cross = math.fsum(p * math.log(lam) for p, lam in zip(populations, sigma.spectrum.eigenvalues.tolist()))
    # ``+ 0.0`` so that S(rho||rho) of a pure state is 0.0, not -0.0.
    return ExtendedReal.finite(-von_neumann_entropy(rho) - cross + 0.0)

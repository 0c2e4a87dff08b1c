"""Shared helpers for the test suite."""

import numpy as np

import qrelent.linop
from qrelent import DensityOperator, Projector, validate_density


def pure(vec) -> DensityOperator:
    """The pure state |v><v| / <v|v>."""
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return validate_density(np.outer(v, v.conj()))


def diag_state(*populations: float) -> DensityOperator:
    """A diagonal state from its populations."""
    return validate_density(np.diag(np.asarray(populations, dtype=complex)))


def basis_projector(dim: int, indices) -> Projector:
    """Projector onto a set of computational basis directions."""
    return Projector.from_basis(np.eye(dim)[:, list(indices)])


def span_projector(columns: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Projector onto the span of the given (unnormalized) columns."""
    u, s, _ = np.linalg.svd(np.asarray(columns, dtype=complex), full_matrices=False)
    keep = u[:, s > rtol * s[0]]
    return keep @ keep.conj().T


def count_solver_calls(monkeypatch) -> list:
    """Record every ``numpy.linalg.eigh``/``eigvalsh`` call from here on.

    Returns a list that grows by one entry per call: the shape of the
    matrix solved, so its length is the call count.
    """
    calls: list = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(np.shape(args[0] if args else kwargs["a"]))
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def count_kernel_calls(monkeypatch) -> list:
    """Record every call of the checked eigensolve kernel from here on.

    Returns a list that grows by one entry per call: the shape of the
    matrix or batch solved, as :func:`count_solver_calls` records it.
    """
    calls: list = []
    real = qrelent.linop._solve

    def counted(m):
        calls.append(np.shape(m))
        return real(m)

    monkeypatch.setattr(qrelent.linop, "_solve", counted)
    return calls


def exp_hermitian(matrix: np.ndarray) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix via its spectrum."""
    w, v = np.linalg.eigh(np.asarray(matrix, dtype=complex))
    return (v * np.exp(w)) @ v.conj().T

"""Scalar entropies, extended reals, and the finite/infinite dichotomy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelent import (
    BadTraceError,
    DEFAULT_TOL,
    DimensionMismatchError,
    ExtendedReal,
    INFINITY,
    LengthMismatchError,
    NotPositiveError,
    ProbabilityVector,
    QrelentError,
    classical_relative_entropy,
    haar_unitary,
    quantum_relative_entropy,
    random_density,
    Tolerances,
    shannon_entropy,
    support_contained,
    support_leakage,
    support_projector,
    validate_density,
    von_neumann_entropy,
)
from helpers import count_solver_calls, diag_state, pure

LN2 = math.log(2.0)


# -- ExtendedReal --------------------------------------------------------


def test_extended_real_finite_guard():
    with pytest.raises(ValueError):
        ExtendedReal.finite(float("inf"))
    with pytest.raises(ValueError):
        ExtendedReal.finite(float("nan"))


def test_extended_real_addition():
    a = ExtendedReal.finite(1.0)
    assert (a + ExtendedReal.finite(2.0)).value == 3.0
    assert not (a + INFINITY).is_finite
    assert not (INFINITY + INFINITY).is_finite


def test_extended_real_display_and_as_float():
    assert str(INFINITY) == "inf"
    assert INFINITY.as_float() == math.inf
    assert ExtendedReal.finite(0.5).as_float() == 0.5


# -- ProbabilityVector ---------------------------------------------------


def test_probability_vector_clamps_tiny_negative():
    p = ProbabilityVector.validated([1.0 + 4e-11, -4e-11])
    assert p.probs.min() == 0.0


def test_probability_vector_rejects_negative():
    with pytest.raises(NotPositiveError):
        ProbabilityVector.validated([1.1, -0.1])


def test_probability_vector_rejects_bad_sum():
    with pytest.raises(BadTraceError):
        ProbabilityVector.validated([0.5, 0.4])


def test_probability_vector_rejects_matrix():
    with pytest.raises(LengthMismatchError):
        ProbabilityVector.validated([[0.5, 0.5]])


@pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
def test_probability_vector_psd_gate_at_its_bound(factor, accepted):
    # An entry of -0.99x tol.psd is clamped to 0, and -1.01x raises.
    tol = DEFAULT_TOL
    raw = [1.0 + factor * tol.psd, -factor * tol.psd]
    if accepted:
        assert ProbabilityVector.validated(raw, tol).probs[1] == 0.0
    else:
        with pytest.raises(NotPositiveError, match="negative probability"):
            ProbabilityVector.validated(raw, tol)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
def test_probability_vector_trace_gate_at_its_bound(factor, accepted, sign):
    # A total off 1 by 0.99x tol.trace, either way, is kept as drawn
    # (not renormalized), and one off by 1.01x raises.
    tol = DEFAULT_TOL
    raw = [0.5, 0.5 + sign * factor * tol.trace]
    if accepted:
        assert ProbabilityVector.validated(raw, tol).probs.tolist() == raw
    else:
        with pytest.raises(BadTraceError, match="probabilities sum to"):
            ProbabilityVector.validated(raw, tol)


@given(
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
    rest=st.lists(st.floats(0.0, 1.0), max_size=4),
    data=st.data(),
)
@settings(deadline=None, max_examples=60)
def test_probability_vector_rejects_non_finite(value, rest, data):
    pos = data.draw(st.integers(0, len(rest)))
    with pytest.raises(QrelentError):
        ProbabilityVector.validated([*rest[:pos], value, *rest[pos:]])


def test_probability_vector_readonly():
    p = ProbabilityVector.validated([0.5, 0.5])
    with pytest.raises(ValueError):
        p.probs[0] = 1.0


# -- Shannon entropy -----------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_shannon_uniform(k):
    p = ProbabilityVector.validated([1.0 / k] * k)
    assert shannon_entropy(p) == pytest.approx(math.log(k), abs=1e-12)


def test_shannon_deterministic_is_exact_zero():
    h = shannon_entropy(ProbabilityVector.validated([1.0, 0.0, 0.0]))
    assert h == 0.0 and math.copysign(1.0, h) == 1.0


def test_shannon_oracle_three_quarters():
    # by hand: -(3/4 ln 3/4 + 1/4 ln 1/4)
    expected = 0.75 * math.log(4.0 / 3.0) + 0.25 * math.log(4.0)
    p = ProbabilityVector.validated([0.75, 0.25])
    assert shannon_entropy(p) == pytest.approx(expected, abs=1e-15)


# -- classical relative entropy ------------------------------------------


def test_classical_oracle_ln2():
    p = ProbabilityVector.validated([1.0, 0.0])
    w = ProbabilityVector.validated([0.5, 0.5])
    assert classical_relative_entropy(p, w).value == pytest.approx(LN2, abs=1e-15)


def test_classical_dichotomy_infinite():
    p = ProbabilityVector.validated([0.5, 0.5])
    w = ProbabilityVector.validated([1.0, 0.0])
    assert classical_relative_entropy(p, w) is INFINITY


def test_classical_zero_convention_skips_p_zero_terms():
    p = ProbabilityVector.validated([0.5, 0.5, 0.0])
    w = ProbabilityVector.validated([0.25, 0.5, 0.25])
    expected = 0.5 * math.log(0.5 / 0.25)  # only the first term contributes
    assert classical_relative_entropy(p, w).value == pytest.approx(expected, abs=1e-15)


def test_classical_self_distance_zero():
    p = ProbabilityVector.validated([0.3, 0.7])
    assert classical_relative_entropy(p, p).value == pytest.approx(0.0, abs=1e-15)


def test_classical_length_mismatch():
    with pytest.raises(LengthMismatchError):
        classical_relative_entropy(
            ProbabilityVector.validated([1.0]), ProbabilityVector.validated([0.5, 0.5])
        )


@given(
    raw_p=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    raw_w=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
)
@settings(deadline=None, max_examples=60)
def test_classical_gibbs_nonnegativity(raw_p, raw_w):
    n = min(len(raw_p), len(raw_w))
    p = np.array(raw_p[:n]) / sum(raw_p[:n])
    w = np.array(raw_w[:n]) / sum(raw_w[:n])
    h = classical_relative_entropy(
        ProbabilityVector.validated(p), ProbabilityVector.validated(w)
    )
    assert h.is_finite and h.value >= -1e-12


# -- von Neumann entropy -------------------------------------------------


def test_vn_pure_state_zero():
    assert von_neumann_entropy(pure([1.0, 1.0])) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_vn_maximally_mixed(d):
    rho = validate_density(np.eye(d) / d)
    assert von_neumann_entropy(rho) == pytest.approx(math.log(d), abs=1e-12)


def test_vn_oracle_three_quarters():
    expected = 0.75 * math.log(4.0 / 3.0) + 0.25 * math.log(4.0)
    assert von_neumann_entropy(diag_state(0.75, 0.25)) == pytest.approx(expected, abs=1e-14)


def test_vn_unitary_invariant():
    rho = random_density(5, rank=3, seed=4)
    u = haar_unitary(5, 77)
    rotated = validate_density(u @ rho.matrix @ u.conj().T)
    assert von_neumann_entropy(rotated) == pytest.approx(von_neumann_entropy(rho), abs=1e-10)


# -- quantum relative entropy --------------------------------------------


def test_qre_oracle_ln2():
    v = quantum_relative_entropy(pure([1.0, 0.0]), validate_density(np.eye(2) / 2))
    assert v.value == pytest.approx(LN2, abs=1e-12)


def test_qre_infinite_when_support_leaks():
    v = quantum_relative_entropy(validate_density(np.eye(2) / 2), pure([1.0, 0.0]))
    assert v is INFINITY


def test_qre_self_distance_zero():
    rho = random_density(4, seed=5)
    assert quantum_relative_entropy(rho, rho).value == pytest.approx(0.0, abs=1e-12)


def test_qre_self_distance_exact_for_pure_state():
    value = quantum_relative_entropy(pure([1.0, 1j]), pure([1.0, 1j])).value
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_qre_reads_cached_spectra(monkeypatch):
    rho = random_density(4, rank=2, seed=3)
    sigma = random_density(4, seed=4)
    calls = count_solver_calls(monkeypatch)
    assert quantum_relative_entropy(rho, sigma).is_finite
    assert calls == []


def test_qre_matches_classical_for_commuting_states():
    p = [0.7, 0.2, 0.1]
    w = [0.2, 0.3, 0.5]
    v = quantum_relative_entropy(diag_state(*p), diag_state(*w))
    expected = math.fsum(pk * (math.log(pk) - math.log(wk)) for pk, wk in zip(p, w))
    assert v.value == pytest.approx(expected, abs=1e-12)


def test_qre_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        quantum_relative_entropy(diag_state(1.0, 0.0), diag_state(1.0, 0.0, 0.0))


def test_qre_rank_deficient_but_contained_is_finite():
    # supp(rho) strictly inside supp(sigma), sigma itself singular
    rho = pure([1.0, 0.0, 0.0])
    sigma = diag_state(0.5, 0.5, 0.0)
    v = quantum_relative_entropy(rho, sigma)
    assert v.value == pytest.approx(LN2, abs=1e-12)


def test_readers_follow_the_validated_spectrum():
    # Validated at rank cutoff 1e-3, the state drops its eigenvalue 1e-4
    # for good: every reader afterwards sees two eigenvalues, where a
    # state validated at DEFAULT_TOL.rank keeps all three.
    u = haar_unitary(3, 7)
    lam = np.array([0.7, 0.3 - 1e-4, 1e-4])
    raw = (u * lam) @ u.conj().T
    rho = validate_density(raw, Tolerances(rank=1e-3))
    full = validate_density(raw, DEFAULT_TOL)
    assert support_projector(rho).rank == 2
    assert support_projector(full).rank == 3
    kept = lam[:2] / lam[:2].sum()
    assert von_neumann_entropy(rho) == pytest.approx(-float(np.sum(kept * np.log(kept))), abs=1e-12)
    assert support_leakage(full, rho) == pytest.approx(1e-4, rel=1e-8)
    assert not support_contained(full, rho, DEFAULT_TOL)
    assert support_leakage(rho, full) <= DEFAULT_TOL.supp
    # rho is full's kept part renormalized: S(rho||full) = -ln(1 - 1e-4).
    value = quantum_relative_entropy(rho, full, DEFAULT_TOL)
    assert value.is_finite
    assert value.value == pytest.approx(-math.log1p(-1e-4), rel=1e-8)
    assert not quantum_relative_entropy(full, rho, DEFAULT_TOL).is_finite


@pytest.mark.parametrize("seed", range(6))
def test_qre_klein_nonnegativity(seed):
    rho = random_density(4, seed=seed)
    sigma = random_density(4, seed=seed + 1000)
    v = quantum_relative_entropy(rho, sigma)
    assert v.is_finite and v.value >= -1e-12


@pytest.mark.parametrize("seed", range(4))
def test_qre_unitary_invariance(seed, tol):
    rho = random_density(5, seed=seed)
    sigma = random_density(5, seed=seed + 2000)
    u = haar_unitary(5, seed + 4000)
    base = quantum_relative_entropy(rho, sigma)
    rotated = quantum_relative_entropy(
        validate_density(u @ rho.matrix @ u.conj().T),
        validate_density(u @ sigma.matrix @ u.conj().T),
    )
    assert abs(rotated.value - base.value) <= tol.identity

"""Operator validation, support machinery, extended log, pinching."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelent import (
    DEFAULT_TOL,
    BadTraceError,
    DensityOperator,
    DimensionMismatchError,
    MassLossError,
    NotHermitianError,
    NotIdempotentError,
    NotOrthogonalError,
    NotOrthonormalError,
    NotPositiveError,
    Projector,
    ProjectiveObservable,
    QrelentError,
    SolverFailureError,
    Tolerances,
    decompose_by_projectors,
    eigh,
    extended_log,
    frobenius,
    haar_unitary,
    is_refinement,
    lueders_state,
    pinch,
    quantum_relative_entropy,
    random_density,
    random_state_in_support,
    support_contained,
    support_leakage,
    support_projector,
    symmetrize,
    validate_density,
)
from qrelent.linop import (
    _STACK_ENTRIES,
    _by_shape,
    _overlaps,
    _pinched,
    _pinched_states,
    _stack,
    _stacked_block_states,
    _validated,
)
from qrelent.stategen import _raw_density
from helpers import basis_projector, count_kernel_calls, count_solver_calls, diag_state, exp_hermitian, pure

ATOL = 1e-12


# -- Tolerances ---------------------------------------------------------


def test_tolerances_rejects_nonpositive():
    with pytest.raises(ValueError):
        Tolerances(supp=0.0)
    with pytest.raises(ValueError):
        Tolerances(rank=-1e-10)


def test_tolerances_rejects_nan_with_package_error():
    with pytest.raises(QrelentError):
        Tolerances(herm=math.nan)


def test_tolerances_replace():
    t = Tolerances().replace(identity=1e-9)
    assert t.identity == 1e-9
    assert t.supp == Tolerances().supp


# -- symmetrize / eigh --------------------------------------------------


def test_symmetrize_accepts_roundoff_asymmetry():
    m = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 2e-14j, 1.0]])
    s = symmetrize(m)
    assert frobenius(s - s.conj().T) == 0.0


def test_symmetrize_rejects_asymmetric():
    with pytest.raises(NotHermitianError):
        symmetrize(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(NotHermitianError):
        symmetrize(np.zeros((2, 3)))


def test_symmetrize_is_bit_identical_to_the_two_adjoint_form(rng):
    # Near-Hermitian inputs, complex and real, with an asymmetry well
    # inside tol.herm: the adjoint formed once gives the same bits.
    for d in (1, 2, 3, 8, 64):
        for _ in range(4):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = g + g.conj().T + 1e-12 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            for raw in (m, m.real.copy()):
                c = np.asarray(raw, dtype=complex)
                assert np.array_equal(symmetrize(raw), (c + c.conj().T) / 2.0)


def test_eigh_oracle_pauli_x():
    # closed form: eigenvalues of [[0,1],[1,0]] are -1 and +1
    spec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=ATOL)
    gram = spec.eigenvectors.conj().T @ spec.eigenvectors
    assert np.allclose(gram, np.eye(2), atol=ATOL)
    assert frobenius(spec.reconstruct() - np.array([[0, 1], [1, 0]])) < ATOL


@given(
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
    dim=st.integers(1, 4),
    imaginary=st.booleans(),
    mirror=st.sampled_from([None, 1.0, -1.0]),
    data=st.data(),
)
@settings(deadline=None, max_examples=120)
def test_non_finite_matrix_entry_raises(value, dim, imaginary, mirror, data):
    # One non-finite entry, optionally mirrored (or anti-mirrored) to
    # the transposed position, in an otherwise valid input.
    i = data.draw(st.integers(0, dim - 1))
    j = data.draw(st.integers(0, dim - 1))
    entry = complex(0.0, value) if imaginary else complex(value, 0.0)
    for check, scale in ((validate_density, 1.0 / dim), (extended_log, 1.0), (Projector.validated, 1.0)):
        m = np.eye(dim, dtype=complex) * scale
        m[i, j] = entry
        if mirror is not None and i != j:
            m[j, i] = mirror * entry.conjugate()
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(QrelentError):
            check(m)


# -- validate_density ---------------------------------------------------


def test_validate_density_rejects_not_positive():
    # closed-form eigenvalues 0.5 +/- 0.6 -> -0.1 is far below -tol.psd
    with pytest.raises(NotPositiveError):
        validate_density(np.array([[0.5, 0.6], [0.6, 0.5]]))


def test_validate_density_rejects_bad_trace():
    with pytest.raises(BadTraceError):
        validate_density(np.diag([0.6, 0.6]))


def test_validate_density_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        validate_density(np.array([[0.5, 0.4], [0.0, 0.5]]))


def test_validate_density_clamps_and_renormalizes():
    # The negative eigenvalue is below the rank cutoff: it is dropped,
    # and the kept spectrum renormalized.
    rho = validate_density(np.diag([1.0 + 4e-11, -4e-11]))
    w = rho.spectrum.eigenvalues
    assert rho.spectrum.eigenvectors.shape == (2, 1)
    assert w.tolist() == [1.0]
    assert abs(math.fsum(w.tolist()) - 1.0) < 1e-15
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-15


def test_validate_density_matrix_matches_spectrum():
    rho = random_density(5, seed=1)
    rebuilt = rho.spectrum.reconstruct()
    assert frobenius(rebuilt - rho.matrix) < ATOL


def test_density_arrays_are_readonly():
    rho = diag_state(0.5, 0.5)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0
    with pytest.raises(ValueError):
        rho.spectrum.eigenvalues[0] = 9.0


def test_state_stores_only_its_spectrum():
    # The matrix is derived on first read, by the formula validation used.
    rho = random_density(5, rank=3, seed=2)
    assert [f.name for f in dataclasses.fields(DensityOperator)] == ["spectrum"]
    assert rho.dim == 5
    assert "matrix" not in vars(rho)
    v, w = rho.spectrum.eigenvectors, rho.spectrum.eigenvalues
    m = (v * w) @ v.conj().T
    assert np.array_equal(rho.matrix, (m + m.conj().T) / 2.0)
    assert rho.matrix is rho.matrix


# -- states in a known range -------------------------------------------


def _range_fixture(dim: int, r: int, rank: int, seed: int) -> tuple[Projector, np.ndarray]:
    """A Haar rank-``r`` projector on ``dim`` and the block ``S`` that
    :func:`random_state_in_support` draws in its range for ``rank`` and ``seed``."""
    p = Projector.from_basis(haar_unitary(dim, seed)[:, :r])
    return p, _raw_density(p.rank, rank, seed)


@st.composite
def _range_shapes(draw):
    dim = draw(st.integers(1, 8))
    r = draw(st.integers(1, dim))
    return dim, r, draw(st.integers(1, r)), draw(st.integers(0, 2**31))


@given(shape=_range_shapes())
@settings(deadline=None, max_examples=80)
def test_random_state_in_support_matches_full_validation(shape):
    # The r x r block is validated and lifted by V; the d x d route
    # validates V S V^dag.
    tol = DEFAULT_TOL
    dim, r, rank, seed = shape
    p, small = _range_fixture(dim, r, rank, seed)
    thin = random_state_in_support(p, rank, seed, tol)
    full = validate_density(p.basis @ small @ p.basis.conj().T, tol)
    # Both spectra hold only their kept pairs: one per unit of rank.
    assert thin.spectrum.eigenvectors.shape == full.spectrum.eigenvectors.shape == (dim, rank)
    assert thin.spectrum.eigenvalues.shape == (rank,)
    assert thin.spectrum.dim == thin.dim == dim
    assert frobenius(thin.matrix - full.matrix) <= 1e-12
    assert np.abs(thin.spectrum.eigenvalues - full.spectrum.eigenvalues).max() <= 1e-12
    q_thin, q_full = support_projector(thin), support_projector(full)
    assert q_thin.rank == q_full.rank
    assert frobenius(q_thin.matrix - q_full.matrix) <= 1e-10


def _spoiled(small: np.ndarray, kind: str) -> np.ndarray:
    out = small.astype(complex)
    if kind == "non-hermitian":
        out[-1, 0] += 0.3j
    elif kind == "negative":
        # Move the smallest eigenvalue to -0.2.
        w, u = np.linalg.eigh(out)
        out -= (w[0] + 0.2) * np.outer(u[:, 0], u[:, 0].conj())
    elif kind == "bad-trace":
        out = 1.5 * out
    elif kind == "nan":
        out[0, 0] = math.nan
    return out


@given(
    shape=_range_shapes(),
    kind=st.sampled_from(["non-hermitian", "negative", "bad-trace", "nan"]),
)
@settings(deadline=None, max_examples=80)
def test_block_validation_rejects_like_full_validation(shape, kind):
    # Validating the r x r block S rejects what validating V S V^dag rejects.
    tol = DEFAULT_TOL
    dim, r, rank, seed = shape
    p, small = _range_fixture(dim, r, rank, seed)
    bad = _spoiled(small, kind)
    with np.errstate(invalid="ignore"):
        with pytest.raises(QrelentError) as full:
            validate_density(p.basis @ bad @ p.basis.conj().T, tol)
        with pytest.raises(QrelentError) as thin:
            validate_density(bad, tol)
    assert type(thin.value) is type(full.value)


@pytest.mark.parametrize(
    "spoil, message",
    [(lambda w, u: (w, u * (1.0 + 1e-6)), "not orthonormal"), (lambda w, u: (w + 1e-6, u), "reconstruction")],
)
def test_block_solver_gates_each_block_solve(monkeypatch, spoil, message, tol):
    # The checks of eigh, on the r x r solve of random_state_in_support:
    # the Gram defect of U, then the reconstruction defect.
    p, _ = _range_fixture(5, 3, 2, 7)
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: spoil(*real(a)))
    with pytest.raises(SolverFailureError, match=message):
        random_state_in_support(p, 2, 7, tol)


# -- validate_density's gates at their bounds, alone and in a stack -------

_GATE_ERRORS = {
    "herm": (NotHermitianError, "Hermiticity defect"),
    "orth": (SolverFailureError, "not orthonormal"),
    "recon": (SolverFailureError, "reconstruction"),
    "psd": (NotPositiveError, "smallest eigenvalue"),
    "trace": (BadTraceError, "differs from 1"),
}


def _gate_matrix(gate: str, factor: float, tol: Tolerances) -> np.ndarray:
    """A 3 x 3 matrix whose defect at ``gate`` is ``factor`` times its bound.

    The solver gates (orth, recon) are reached through a spoiled
    eigensolver instead, on the clean state returned here.
    """
    if gate == "psd":
        return np.diag([0.6 + factor * tol.psd, 0.4, -factor * tol.psd]).astype(complex)
    if gate == "trace":
        return np.diag([0.5 + factor * tol.trace, 0.3, 0.2]).astype(complex)
    rho = random_density(3, seed=21, tol=tol).matrix.copy()
    if gate == "herm":
        # rho + eps K, K anti-Hermitian: ||M - M^dag|| = 2 eps ||K|| and
        # ||M||^2 = ||rho||^2 + eps^2 ||K||^2, solved for the defect h ||M||.
        k = np.zeros((3, 3), dtype=complex)
        k[0, 1], k[1, 0] = 1.0, -1.0
        h = factor * tol.herm
        return rho + h * frobenius(rho) / (frobenius(k) * math.sqrt(4.0 - h**2)) * k
    return rho


def _spoil_solver(monkeypatch, gate: str, tol: Tolerances) -> dict:
    """Spoil the eigenpairs of the matrix under test, the only one or the
    second of a stack, by the defect factor held in the returned dict."""
    real = np.linalg.eigh
    spoil = {"factor": 0.0}

    def spoiled(a):
        w, u = real(a)
        i = () if a.ndim == 2 else 1
        if gate == "orth":
            # U^dag U = (1 + delta)^2 on the diagonal: a Gram defect of factor * orth.
            u[i] *= math.sqrt(1.0 + spoil["factor"] * tol.orth)
        elif gate == "recon":
            # U diag(w + eps) U^dag - M = eps 1, of norm eps sqrt(d); ||M||_F < 1 here.
            w[i] += spoil["factor"] * tol.recon / math.sqrt(a.shape[-1])
        return w, u

    monkeypatch.setattr(np.linalg, "eigh", spoiled)
    return spoil


@pytest.mark.parametrize("stacked", [False, True], ids=["alone", "second-of-stack"])
@pytest.mark.parametrize("gate", list(_GATE_ERRORS))
def test_validate_density_gate_at_its_bound(monkeypatch, tol, gate, stacked):
    # A defect at 0.99x the bound is accepted and one at 1.01x raises
    # the gate's own error, on one matrix and inside a stack alike.
    error, message = _GATE_ERRORS[gate]
    clean = random_density(3, seed=22, tol=tol).matrix
    matrices = {factor: _gate_matrix(gate, factor, tol) for factor in (0.99, 1.01)}
    spoil = _spoil_solver(monkeypatch, gate, tol)

    def validate(m):
        return _validated(np.stack([clean, m]), tol)[1] if stacked else validate_density(m, tol)

    spoil["factor"] = 0.99
    assert isinstance(validate(matrices[0.99]), DensityOperator)
    spoil["factor"] = 1.01
    with pytest.raises(error, match=message):
        validate(matrices[1.01])


def _block_gate_matrix(gate: str, factor: float, tol: Tolerances) -> np.ndarray:
    """A 6 x 6 ``M`` of two 3 x 3 blocks whose second block's defect at
    ``gate`` is ``factor`` times its bound, for the block pass with
    ``V = 1``, where ``B`` is ``M`` itself.

    As in :func:`_gate_matrix`, the solver gates are reached through a
    spoiled eigensolver instead, on the clean ``M`` returned here.
    """
    m = np.zeros((6, 6), dtype=complex)
    m[:3, :3] = random_density(3, seed=22, tol=tol).matrix / 2.0
    m[3:, 3:] = random_density(3, seed=21, tol=tol).matrix / 2.0
    if gate == "psd":
        m[3:, 3:] = np.diag([0.3 + factor * tol.psd, 0.2, -factor * tol.psd])
    elif gate == "herm":
        # As in _gate_matrix, at the scale ||M||_F = ||B||_F of the whole M.
        k = np.zeros((6, 6), dtype=complex)
        k[3, 4], k[4, 3] = 1.0, -1.0
        h = factor * tol.herm
        m += h * frobenius(m) / (frobenius(k) * math.sqrt(4.0 - h**2)) * k
    return m


@pytest.mark.parametrize("stacked", [False, True], ids=["alone", "after-rank-1-blocks"])
@pytest.mark.parametrize("gate", ["herm", "orth", "recon", "psd"])
def test_block_pass_gate_at_its_bound(monkeypatch, tol, gate, stacked):
    # The block pass gates each B's Hermiticity and its block solves, and
    # _stacked_block_states its block eigenvalues' positivity: a defect
    # at 0.99x the bound is accepted and one at 1.01x raises the gate's
    # own error, for a lone item and behind an item whose blocks are all
    # rank 1 (never solved), so the spoiled solve is the second block.
    error, message = _GATE_ERRORS[gate]
    matrices = {factor: _block_gate_matrix(gate, factor, tol) for factor in (0.99, 1.01)}
    frame = np.eye(6, dtype=complex)
    rank_1 = (frame / 6.0, frame, np.arange(6), 6)
    spoil = _spoil_solver(monkeypatch, gate, tol)

    def split(m):
        item = (m, frame, np.repeat([0, 1], 3), 2)
        return _stacked_block_states([rank_1, item] if stacked else [item], tol)[-1]

    spoil["factor"] = 0.99
    weights, _, _ = split(matrices[0.99])
    assert len(weights) == 2
    spoil["factor"] = 1.01
    with pytest.raises(error, match=message):
        split(matrices[1.01])


@st.composite
def _stacks(draw):
    """A stack of raw trace-1 Ginibre matrices of one size, and a position in it."""
    dim = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    mats = []
    for _ in range(n):
        g = np.random.default_rng(draw(st.integers(0, 2**31))).standard_normal((dim, 2 * dim)).view(complex)
        g = g[:, : draw(st.integers(1, dim))]
        m = g @ g.conj().T
        mats.append(m / np.trace(m).real)
    return mats, draw(st.integers(0, n - 1))


@given(stack=_stacks(), kind=st.sampled_from(["non-hermitian", "negative", "bad-trace", "nan"]))
@settings(deadline=None, max_examples=80)
def test_stack_rejects_a_spoiled_matrix_like_validate_density(stack, kind):
    # One spoiled matrix anywhere in a stack raises what it raises alone.
    tol = DEFAULT_TOL
    mats, j = stack
    mats[j] = _spoiled(mats[j], kind)
    with np.errstate(invalid="ignore"):
        with pytest.raises(QrelentError) as alone:
            validate_density(mats[j], tol)
        with pytest.raises(QrelentError) as stacked:
            _validated(np.stack(mats), tol)
    assert type(stacked.value) is type(alone.value)


def _assert_bit_identical(mats, tol):
    for m, state in zip(mats, _validated(np.stack(mats), tol), strict=True):
        alone = validate_density(m, tol)
        assert np.array_equal(state.spectrum.eigenvalues, alone.spectrum.eigenvalues)
        assert np.array_equal(state.spectrum.eigenvectors, alone.spectrum.eigenvectors)


@given(stack=_stacks())
@settings(deadline=None, max_examples=60)
def test_stack_states_are_bit_identical_to_validate_density(stack):
    _assert_bit_identical(stack[0], DEFAULT_TOL)


@pytest.mark.parametrize(
    ("dim", "slices"), [(32, [(4, 32, 32), (4, 32, 32), (32, 32)]), (64, [(64, 64)] * 9)], ids=["d32", "d64"]
)
def test_stack_solves_in_slices_with_bit_identical_states(monkeypatch, tol, dim, slices):
    # Nine states fill slices of at most 2^12 entries; a slice of one
    # matrix is solved alone, as validate_density solves it.  Each state
    # is the one validate_density makes of its matrix.
    mats = [random_density(dim, rank=r, seed=r).matrix for r in (dim, 1, 20, dim, 7, 2, dim, 3, 9)]
    kernel = count_kernel_calls(monkeypatch)
    _validated(mats, tol)
    assert kernel == slices
    _assert_bit_identical(mats, tol)


def test_stack_gates_hermiticity_of_a_slice_before_its_solve(tol):
    # In one slice a non-Hermitian third matrix is reported before a
    # non-positive second one, also when a matrix of another size sits
    # between them; across slices the earlier slice raises.
    clean = random_density(3, seed=22, tol=tol).matrix
    negative = _gate_matrix("psd", 2.0, tol)
    skew = _gate_matrix("herm", 2.0, tol)
    with pytest.raises(NotHermitianError):
        _validated([clean, negative, skew], tol)
    with pytest.raises(NotHermitianError):
        _validated([clean, negative, random_density(2, seed=22, tol=tol).matrix, skew], tol)
    with pytest.raises(NotPositiveError):
        validate_density(negative, tol)
    per_slice = _STACK_ENTRIES // 9
    with pytest.raises(NotPositiveError):
        _validated([clean, negative] + [clean] * (per_slice - 2) + [skew], tol)


@st.composite
def _mixed_items(draw):
    """Real arrays of mixed shapes in mixed order: shapes met once, shapes
    that fill several slices, and 64 x 64 items that fill a slice alone."""
    shapes = st.sampled_from([(1, 1), (2, 3), (4, 4), (24, 24), (33, 20), (64, 64)])
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    return [rng.standard_normal(shape) for shape in draw(st.lists(shapes, min_size=1, max_size=24))]


@given(items=_mixed_items())
@settings(deadline=None, max_examples=60)
def test_by_shape_makes_one_call_per_slice_in_input_order(items):
    # The items of each shape, shapes in the order first met, are cut in
    # input order into slices of at most _STACK_ENTRIES entries, one call
    # each, a lone item unstacked; each result is the one fn gives alone.
    calls = []

    def fn(a, scale):
        calls.append(a)
        return np.linalg.qr(a).Q * scale

    results = _by_shape(fn, items, 2.0)
    for item, result in zip(items, results, strict=True):
        assert np.array_equal(result, np.linalg.qr(item).Q * 2.0)
    counts = {}
    for item in items:
        counts[item.shape] = counts.get(item.shape, 0) + 1
    assert len(calls) == sum(math.ceil(n / (_STACK_ENTRIES // math.prod(shape) or 1)) for shape, n in counts.items())
    assert all(a.ndim == 2 or (len(a) >= 2 and a.size <= _STACK_ENTRIES) for a in calls)
    passed = [m for a in calls for m in (a if a.ndim == 3 else [a])]
    expected = [item for shape in counts for item in items if item.shape == shape]
    assert len(passed) == len(expected)
    assert all(np.array_equal(p, e) for p, e in zip(passed, expected))


# -- Projector ----------------------------------------------------------


def test_projector_validated_and_rank():
    p = Projector.validated(np.diag([1.0, 1.0, 0.0]))
    assert p.rank == 2
    assert p.dim == 3


def test_projector_rejects_non_idempotent():
    with pytest.raises(NotIdempotentError):
        Projector.validated(np.diag([0.5, 1.0]))


@pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
def test_projector_idempotency_gate_at_its_bound(tol, factor, accepted):
    # A rank-1 projector in a Haar frame, with eigenvalue eps added in a
    # second direction: ||P^2 - P||_F = eps (1 - eps) and ||P||_F is 1
    # to round-off, so eps at 0.99x tol.idem is accepted (as rank 1)
    # and at 1.01x raises.
    u = haar_unitary(3, 8)
    eps = factor * tol.idem
    raw = (u * [1.0, eps, 0.0]) @ u.conj().T
    if accepted:
        assert Projector.validated(raw, tol).rank == 1
    else:
        with pytest.raises(NotIdempotentError, match="projector defect"):
            Projector.validated(raw, tol)


def test_projector_zero():
    z = Projector.zero(3)
    assert z.rank == 0 and z.basis.shape == (3, 0) and frobenius(z.matrix) == 0.0


def test_projector_from_basis():
    p = Projector.from_basis(np.eye(3)[:, :2])
    assert (p.rank, p.dim) == (2, 3)
    assert frobenius(p.matrix - np.diag([1.0, 1.0, 0.0])) == 0.0


@pytest.mark.parametrize(
    "cols",
    [
        np.array([[1.0, 1.0], [0.0, 1.0]]),  # not orthogonal
        np.array([[1.0], [1.0]]),  # not normalized
        np.array([[1.0, 0.0], [0.0, 1.0 + 1e-9]]),  # off by more than tol.orth
        np.array([[math.nan], [0.0]]),
        np.array([[1.0, 0.0], [0.0, math.nan]]),
        np.eye(2, 3),  # more columns than the dimension
        np.ones(3),  # not 2-D
    ],
)
def test_from_basis_rejects_non_orthonormal_columns(cols):
    with pytest.raises(NotOrthonormalError):
        Projector.from_basis(cols)


@pytest.mark.parametrize("rank", [1, 2, 3, 6])
def test_projector_validated_matrix_reproduces_input(rank):
    u = haar_unitary(6, rank)
    m = u[:, :rank] @ u[:, :rank].conj().T
    p = Projector.validated(m)
    assert p.rank == rank
    assert frobenius(p.matrix - m) <= 1e-12


def test_projector_arrays_are_readonly():
    p = Projector.validated(np.diag([1.0, 0.0]))
    for array in (p.basis, p.matrix):
        with pytest.raises(ValueError):
            array[0, 0] = 9.0


@pytest.mark.parametrize("seed", range(6))
def test_gram_overlaps_equal_pairwise_products(seed):
    # Random families, not orthogonal: each member spans the first few
    # columns of its own Haar unitary (rank 0 included).
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    family = [
        Projector.from_basis(haar_unitary(dim, 10 * seed + k)[:, : int(rng.integers(0, dim + 1))])
        for k in range(4)
    ]
    v, labels = _stack(family, dim)
    overlaps = _overlaps(v.conj().T @ v, labels, len(family))
    for i, pi in enumerate(family):
        for j, pj in enumerate(family):
            assert abs(overlaps[i, j] - frobenius(pi.matrix @ pj.matrix)) <= 1e-12


# -- support projector --------------------------------------------------


def test_support_projector_oracle():
    p = support_projector(diag_state(0.5, 0.5, 0.0))
    assert p.rank == 2
    assert frobenius(p.matrix - np.diag([1.0, 1.0, 0.0])) < ATOL


def test_support_projector_relative_cutoff_boundary():
    # just below the relative cutoff -> treated as zero
    assert support_projector(diag_state(1.0, 5e-11)).rank == 1
    # comfortably above it -> kept
    assert support_projector(diag_state(1.0, 5e-10)).rank == 2


@pytest.mark.parametrize("dim,rank,seed", [(2, 1, 0), (4, 2, 1), (6, 6, 2), (8, 3, 3)])
def test_support_projector_commutes_and_fixes_state(dim, rank, seed, tol):
    rho = random_density(dim, rank=rank, seed=seed)
    p = support_projector(rho)
    assert p.rank == rank
    assert frobenius(p.matrix @ rho.matrix - rho.matrix @ p.matrix) <= tol.identity
    assert frobenius(p.matrix @ rho.matrix @ p.matrix - rho.matrix) <= tol.identity


@given(pops=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=8))
@settings(deadline=None, max_examples=40)
def test_support_projector_full_rank_on_positive_spectra(pops):
    arr = np.array(pops) / sum(pops)
    rho = validate_density(np.diag(arr.astype(complex)))
    lam_max = arr.max()
    expected = int((arr > 1e-10 * lam_max).sum())
    assert support_projector(rho).rank == expected


# -- extended_log -------------------------------------------------------


def test_extended_log_oracle_maximally_mixed():
    out = extended_log(np.eye(2) / 2)
    assert frobenius(out - (-math.log(2)) * np.eye(2)) < ATOL


def test_extended_log_zero_on_kernel():
    out = extended_log(np.diag([0.75, 0.25, 0.0]))
    expected = np.diag([math.log(0.75), math.log(0.25), 0.0])
    assert frobenius(out - expected) < ATOL


def test_extended_log_of_zero_matrix():
    assert frobenius(extended_log(np.zeros((3, 3)))) == 0.0


def test_extended_log_rejects_negative():
    with pytest.raises(NotPositiveError):
        extended_log(np.diag([1.0, -0.2]))


@pytest.mark.parametrize("seed", range(5))
def test_extended_log_unitary_covariance(seed, tol):
    rho = random_density(5, rank=3, seed=seed)
    u = haar_unitary(5, seed + 100)
    lhs = extended_log(u @ rho.matrix @ u.conj().T)
    rhs = u @ extended_log(rho.matrix) @ u.conj().T
    assert frobenius(lhs - rhs) <= tol.identity


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_extended_log_exp_roundtrip(rank):
    # exp(logz(rho)) restores rho on its support and the identity on
    # the kernel: exp(logz(rho)) = rho + (1 - Q)
    rho = random_density(4, rank=rank, seed=9)
    q = support_projector(rho)
    expected = rho.matrix + np.eye(4) - q.matrix
    assert frobenius(exp_hermitian(extended_log(rho.matrix)) - expected) < 1e-10


# -- pinch --------------------------------------------------------------


def test_pinch_oracle_plus_state_in_z():
    rho = pure([1.0, 1.0])
    out = pinch(rho, [basis_projector(2, [0]), basis_projector(2, [1])])
    assert frobenius(out.matrix - np.eye(2) / 2) < ATOL


@pytest.mark.parametrize("seed", range(4))
def test_pinch_trace_preserving_and_idempotent(seed, tol):
    rho = random_density(6, seed=seed)
    blocks = [basis_projector(6, [0, 1]), basis_projector(6, [2, 3]), basis_projector(6, [4, 5])]
    once = pinch(rho, blocks)
    assert abs(np.trace(once.matrix).real - 1.0) <= tol.trace
    twice = pinch(once, blocks)
    assert frobenius(twice.matrix - once.matrix) <= tol.identity


def test_pinch_mass_loss():
    with pytest.raises(MassLossError):
        pinch(pure([1.0, 0.0]), [basis_projector(2, [1])])


@pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
def test_pinch_mass_loss_gate_at_its_bound(tol, factor, accepted):
    # The family covers e0 and e1; the state puts 0.99x tol.supp on e2
    # (accepted, and the pinched trace passes tol.trace) or 1.01x (raises).
    leak = factor * tol.supp
    rho = diag_state(0.5, 0.5 - leak, leak)
    family = [basis_projector(3, [0]), basis_projector(3, [1])]
    if accepted:
        assert support_projector(pinch(rho, family, tol)).rank == 2
    else:
        with pytest.raises(MassLossError, match="pinching kept only trace"):
            pinch(rho, family, tol)


def test_pinch_rejects_overlapping_projectors():
    p_full = Projector.validated(np.eye(2))
    with pytest.raises(NotOrthogonalError):
        pinch(diag_state(0.5, 0.5), [p_full, basis_projector(2, [0])])


def _tilted_family(overlap: float) -> list[Projector]:
    """Rank-1 projectors on e0, e1, e3 and on e2 tilted toward e0.

    The tilt makes ``||P_0 P_2||_F`` equal ``overlap``; every other pair
    is orthogonal.
    """
    tilted = np.zeros((4, 1))
    tilted[2, 0], tilted[0, 0] = math.sqrt(1.0 - overlap**2), overlap
    e = np.eye(4)
    return [Projector.from_basis(cols) for cols in (e[:, [0]], e[:, [1]], tilted, e[:, [3]])]


def test_pinch_orthogonality_gate_at_tolerance(tol):
    rho = diag_state(0.25, 0.25, 0.25, 0.25)
    pinch(rho, _tilted_family(0.99 * tol.identity))
    with pytest.raises(NotOrthogonalError, match="projectors 0 and 2 overlap"):
        pinch(rho, _tilted_family(1.01 * tol.identity))


def test_pinch_over_rank_one_family_makes_one_eigensolve(monkeypatch, tol):
    rho = random_density(64, seed=5)
    u = haar_unitary(64, 6)
    family = [Projector.from_basis(u[:, [k]]) for k in range(64)]
    calls = count_solver_calls(monkeypatch)
    out = pinch(rho, family)
    assert len(calls) == 1
    rotated = u.conj().T @ out.matrix @ u
    assert frobenius(rotated - np.diag(np.diag(rotated))) <= tol.identity
    assert np.allclose(np.diag(rotated), np.diag(u.conj().T @ rho.matrix @ u), atol=1e-14)


@st.composite
def _pinched_fixtures(draw, dim=None):
    """A Haar family of mixed block sizes (or rank-1 blocks) and a state,
    on ``dim`` or a drawn dimension.

    The state lives in the first ``populated`` blocks, so the remaining
    blocks are outcomes of zero probability.
    """
    dim = draw(st.integers(1, 8)) if dim is None else dim
    if draw(st.booleans()):
        sizes = [1] * dim
    else:
        sizes = []
        while sum(sizes) < dim:
            sizes.append(draw(st.integers(1, dim - sum(sizes))))
    u = haar_unitary(dim, draw(st.integers(0, 2**31)))
    edges = np.cumsum([0, *sizes])
    family = [Projector.from_basis(u[:, a:b]) for a, b in zip(edges[:-1], edges[1:])]
    populated = draw(st.integers(1, len(family)))
    inside = Projector.from_basis(u[:, : edges[populated]])
    rank = draw(st.integers(1, inside.rank))
    rho = random_state_in_support(inside, rank, draw(st.integers(0, 2**31)))
    return rho, family


@given(fixture=_pinched_fixtures())
@settings(deadline=None, max_examples=120)
def test_pinched_state_matches_full_validation(fixture):
    # lueders_state validates through _pinched_states; the reference
    # validates the dense pinched matrix with one d x d solve.
    tol = DEFAULT_TOL
    rho, family = fixture
    obs = ProjectiveObservable.validated(range(len(family)), family)
    blocks = lueders_state(rho, obs, tol)
    stacked = _stack(family, rho.dim)
    full = validate_density(_pinched(rho.matrix, *stacked), tol)
    # Both hold only their kept pairs, at most one per stacked column.
    assert blocks.spectrum.eigenvectors.shape == full.spectrum.eigenvectors.shape
    assert blocks.spectrum.eigenvectors.shape[1] <= stacked[0].shape[1]
    assert frobenius(blocks.matrix - full.matrix) <= 1e-12
    assert np.abs(blocks.spectrum.eigenvalues - full.spectrum.eigenvalues).max() <= 1e-12
    assert np.all(np.diff(blocks.spectrum.eigenvalues) >= 0.0)
    assert frobenius(blocks.spectrum.reconstruct() - blocks.matrix) <= 1e-14


@given(
    fixture=_pinched_fixtures(),
    kind=st.sampled_from(["non-hermitian", "negative", "bad-trace", "nan"]),
)
@settings(deadline=None, max_examples=80)
def test_pinched_state_rejects_like_full_validation(fixture, kind):
    # Each spoiling survives the pinching: it sits inside the first block.
    tol = DEFAULT_TOL
    rho, family = fixture
    v, labels = _stack(family, rho.dim)
    first = v[:, labels == 0]
    bad = rho.matrix.copy()
    if kind == "non-hermitian":
        bad += 0.3j * np.outer(first[:, -1], first[:, 0].conj())
    elif kind == "negative":
        bad -= 2.0 * np.outer(first[:, 0], first[:, 0].conj())
    elif kind == "bad-trace":
        bad *= 1.5
    else:
        bad[0, 0] = math.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(QrelentError) as full:
            validate_density(_pinched(bad, v, labels), tol)
        with pytest.raises(QrelentError) as blocks:
            _pinched_states([(bad, v, labels)], tol)
        # The bad operator between good ones in one stacked pass.
        good = (rho.matrix, v, labels)
        with pytest.raises(QrelentError) as stacked:
            _pinched_states([good, (bad, v, labels), good], tol)
    assert type(blocks.value) is type(full.value)
    assert type(stacked.value) is type(full.value)


@given(
    fixtures=st.integers(1, 8).flatmap(lambda dim: st.lists(_pinched_fixtures(dim), min_size=1, max_size=6)),
    data=st.data(),
)
@settings(deadline=None, max_examples=120)
def test_stacked_block_states_match_one_at_a_time(fixtures, data):
    # Mixed block compositions and ranks on one dim, lone operators among
    # them (a list of one): each state of a stacked pass
    # is bit for bit the one its operator gives alone.  The block states
    # split over a prefix of the family, which may leave mass outside.
    tol = DEFAULT_TOL
    pinched, split = [], []
    for rho, family in fixtures:
        pinched.append((rho.matrix, *_stack(family, rho.dim)))
        blocks = family[: data.draw(st.integers(1, len(family)))]
        split.append((rho.matrix, *_stack(blocks, rho.dim), len(blocks)))
    for item, state in zip(pinched, _pinched_states(pinched, tol)):
        (alone,) = _pinched_states([item], tol)
        assert np.array_equal(state.spectrum.eigenvalues, alone.spectrum.eigenvalues)
        assert np.array_equal(state.spectrum.eigenvectors, alone.spectrum.eigenvectors)
    for item, (weights, states, (w, vectors)) in zip(split, _stacked_block_states(split, tol)):
        ((alone_weights, alone_states, (alone_w, alone_vectors)),) = _stacked_block_states([item], tol)
        assert np.array_equal(weights, alone_weights)
        assert np.array_equal(w, alone_w) and np.array_equal(vectors, alone_vectors)
        assert [part is None for part in states] == [part is None for part in alone_states]
        for part, alone in zip(states, alone_states):
            if part is not None:
                assert np.array_equal(part.spectrum.eigenvalues, alone.spectrum.eigenvalues)
                assert np.array_equal(part.spectrum.eigenvectors, alone.spectrum.eigenvectors)


def test_pinch_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        pinch(diag_state(0.5, 0.5), [basis_projector(3, [0])])


def _unchecked_observable(projectors):
    """An observable built without validation, so a stray projector reaches the maps."""
    return ProjectiveObservable(eigenvalues=tuple(range(len(projectors))), projectors=tuple(projectors))


_WHOLE_SPACE = ProjectiveObservable.validated((0.0,), [basis_projector(3, [0, 1, 2])])

_FAMILY_MAPS = {
    "pinch": lambda rho, family: pinch(rho, family),
    "decompose_by_projectors": lambda rho, family: decompose_by_projectors(rho, family),
    "ProjectiveObservable.validated": lambda rho, family: ProjectiveObservable.validated(range(3), family),
    "lueders_state": lambda rho, family: lueders_state(rho, _unchecked_observable(family)),
    "is_refinement": lambda rho, family: is_refinement(_unchecked_observable(family), _WHOLE_SPACE),
}


@pytest.mark.parametrize("name", sorted(_FAMILY_MAPS))
def test_family_with_a_stray_dimension_is_rejected(name):
    # The first projectors match the state, so only the per-projector
    # check in _stack can catch the last one.
    family = [basis_projector(3, [0]), basis_projector(3, [1]), basis_projector(4, [2])]
    with pytest.raises(DimensionMismatchError, match="projector 2 on dim 4, expected dim 3"):
        _FAMILY_MAPS[name](diag_state(0.5, 0.25, 0.25), family)


# -- support containment ------------------------------------------------


def test_support_contained_basic():
    assert support_contained(pure([1.0, 0.0]), diag_state(0.5, 0.5))
    assert not support_contained(diag_state(0.5, 0.5), pure([1.0, 0.0]))


def test_support_containment_boundary_sensitivity(tol):
    sigma = pure([1.0, 0.0])
    # leakage one decade below tol.supp: still treated as contained
    below = diag_state(1.0 - tol.supp / 10, tol.supp / 10)
    assert support_leakage(below, sigma) == pytest.approx(tol.supp / 10, rel=1e-6)
    assert support_contained(below, sigma)
    # leakage one decade above tol.supp: flips to not contained
    above = diag_state(1.0 - 10 * tol.supp, 10 * tol.supp)
    assert not support_contained(above, sigma)


@pytest.mark.parametrize("factor, contained", [(0.99, True), (1.01, False)])
def test_support_contained_gate_at_its_bound(tol, factor, contained):
    # rho = diag(1 - eps, eps) leaks eps out of supp diag(1, 0): contained
    # at 0.99x tol.supp, not at 1.01x.
    eps = factor * tol.supp
    rho, sigma = diag_state(1.0 - eps, eps), diag_state(1.0, 0.0)
    assert support_leakage(rho, sigma) == pytest.approx(eps, rel=1e-6)
    assert support_contained(rho, sigma, tol) is contained


def test_relative_entropy_decides_support_like_support_contained(tol):
    sigma = pure([1.0, 0.0])
    for leak in (tol.supp / 10, 10 * tol.supp):
        rho = diag_state(1.0 - leak, leak)
        assert quantum_relative_entropy(rho, sigma).is_finite == support_contained(rho, sigma)


def test_support_leakage_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        support_leakage(diag_state(1.0, 0.0), diag_state(1.0, 0.0, 0.0))

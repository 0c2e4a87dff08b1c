"""Lüders states, refinements, and the straight-line identities."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrelent.linop
import qrelent.lueders
from qrelent import (
    INFINITY,
    DEFAULT_TOL,
    BadObservableError,
    DimensionMismatchError,
    ExtendedReal,
    LineReport,
    NotARefinementError,
    NotDiagonalizingError,
    NotOrthogonalError,
    NotOrthonormalError,
    Projector,
    ProjectiveObservable,
    QrelentError,
    SupportViolationError,
    corollary1_check,
    corollary2_check,
    decompose_by_projectors,
    frobenius,
    haar_unitary,
    is_refinement,
    lueders_state,
    pinch,
    quantum_relative_entropy,
    random_block_projectors,
    random_density,
    random_refinement,
    random_state_in_support,
    support_contained,
    support_projector,
    theorem2_check,
    validate_density,
)
from qrelent.linop import _check_orthonormal_blocks, _stack
from qrelent.lueders import _line_checks, _refinements, _theorem2_checks, _validated_observables
from helpers import basis_projector, count_kernel_calls, count_solver_calls, diag_state, pure

LN2 = math.log(2.0)


def z_observable():
    return ProjectiveObservable.validated(
        [1.0, -1.0], [basis_projector(2, [0]), basis_projector(2, [1])]
    )


def block_observable(dim, *index_groups):
    return ProjectiveObservable.validated(
        range(len(index_groups)), [basis_projector(dim, g) for g in index_groups]
    )


# -- ProjectiveObservable -------------------------------------------------


def test_observable_rejects_duplicate_eigenvalues():
    with pytest.raises(ValueError):
        ProjectiveObservable.validated([1.0, 1.0], [basis_projector(2, [0]), basis_projector(2, [1])])


def test_observable_rejects_incomplete_family():
    with pytest.raises(ValueError):
        ProjectiveObservable.validated([1.0], [basis_projector(2, [0])])


@pytest.mark.parametrize(
    "eigenvalues,indices",
    [
        ([1.0, 2.0, 3.0], [[0], [1]]),  # one eigenvalue too many
        ([1.0, 1.0], [[0], [1]]),  # repeated eigenvalue
        ([1.0], [[0]]),  # does not resolve the identity
    ],
)
def test_observable_errors_are_package_errors(eigenvalues, indices):
    with pytest.raises(BadObservableError) as info:
        ProjectiveObservable.validated(eigenvalues, [basis_projector(2, i) for i in indices])
    assert isinstance(info.value, QrelentError)


@pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
def test_observable_completeness_gate_at_its_bound(tol, factor, accepted):
    # Two mutually orthogonal blocks of a Haar frame, the first column
    # scaled so that ||sum_i P_i - 1||_F = |s^2 - 1| is factor x
    # tol.identity: 0.99x is accepted, 1.01x raises BadObservableError.
    u = haar_unitary(3, 12)
    s = math.sqrt(1.0 + factor * tol.identity)
    family = (Projector(basis=u[:, :1] * s), Projector(basis=u[:, 1:]))
    defect = frobenius(sum(p.basis @ p.basis.conj().T for p in family) - np.eye(3))
    assert abs(defect / tol.identity - factor) < 1e-6
    if accepted:
        assert ProjectiveObservable.validated([0.0, 1.0], family, tol).eigenvalues == (0.0, 1.0)
    else:
        with pytest.raises(BadObservableError, match="do not resolve the identity"):
            ProjectiveObservable.validated([0.0, 1.0], family, tol)


@pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
def test_observable_overlap_gate_at_its_bound(tol, factor, accepted):
    # Bases that are not isometries, [a] and [b] with a^2 + b^2 = 1 on
    # dim 1, resolve the identity exactly, so only the overlap gate can
    # refuse them: an overlap ab of 0.99x tol.identity is accepted, and
    # one of 1.01x raises NotOrthogonalError.  (For isometries the
    # completeness defect is at least sqrt(2) x the largest overlap.)
    b = factor * tol.identity
    family = tuple(Projector(basis=np.array([[x]], dtype=complex)) for x in (math.sqrt(1.0 - b**2), b))
    if accepted:
        assert ProjectiveObservable.validated([0.0, 1.0], family, tol).eigenvalues == (0.0, 1.0)
    else:
        with pytest.raises(NotOrthogonalError, match=r"^projectors 0 and 1 overlap: \|\|P_i P_j\|\|_F = 1\.010e-08$"):
            ProjectiveObservable.validated([0.0, 1.0], family, tol)


def test_observable_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatchError):
        ProjectiveObservable.validated([0.0, 1.0], [basis_projector(2, [0]), basis_projector(3, [1])])


# -- Lüders state ---------------------------------------------------------


def test_lueders_equals_pinch():
    rho = random_density(4, seed=2)
    obs = block_observable(4, [0, 1], [2, 3])
    a = lueders_state(rho, obs)
    b = pinch(rho, obs.projectors)
    assert frobenius(a.matrix - b.matrix) == 0.0


def test_lueders_state_dimension_mismatch():
    obs = block_observable(3, [0], [1, 2])
    with pytest.raises(DimensionMismatchError):
        lueders_state(diag_state(0.5, 0.5), obs)


def test_lueders_state_does_not_recheck_orthogonality(monkeypatch):
    # The observable was checked when it was built; the Lüders state
    # pinches in its stacked frame without a second Gram check.
    rho = random_density(6, seed=3)
    obs = block_observable(6, [0, 1], [2, 3, 4], [5])
    expected = pinch(rho, obs.projectors)
    checked = []

    def spy(*args):
        checked.append(args)
        raise AssertionError("orthogonality re-checked")

    monkeypatch.setattr(qrelent.linop, "_check_mutually_orthogonal", spy)
    out = lueders_state(rho, obs)
    assert frobenius(out.matrix - expected.matrix) <= 1e-15
    assert checked == []


def test_lueders_state_needs_an_orthonormal_family(tol):
    # e2 tilted toward e0 by 1e-9: orthogonal within tol.identity, so
    # the observable validates and pinch accepts it, but the stacked
    # bases fail the eigenvector Gram check at tol.orth.
    tilted = np.zeros((3, 1))
    tilted[2, 0], tilted[0, 0] = math.sqrt(1.0 - 1e-18), 1e-9
    e = np.eye(3)
    family = [Projector.from_basis(cols) for cols in (e[:, [0]], e[:, [1]], tilted)]
    obs = ProjectiveObservable.validated(range(3), family)
    rho = random_density(3, seed=9)
    pinch(rho, obs.projectors)
    with pytest.raises(NotOrthonormalError, match="not orthonormal"):
        lueders_state(rho, obs)


# -- corollary1_check ------------------------------------------------------


def test_corollary1_closed_form_plus_state():
    direct, gap = corollary1_check(pure([1.0, 1.0]), z_observable())
    assert direct.value == pytest.approx(LN2, abs=1e-12)
    assert gap == pytest.approx(LN2, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_corollary1_random_with_support_inclusion(seed, tol):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    split = int(rng.integers(1, dim)) if dim > 1 else 1
    blocks = random_block_projectors(dim, (split,), seed=seed + 50)
    obs = ProjectiveObservable.validated(range(len(blocks)), blocks)
    rho = random_density(dim, rank=int(rng.integers(1, dim + 1)), seed=seed + 90)
    direct, gap = corollary1_check(rho, obs)
    assert direct.is_finite
    assert abs(direct.value - gap) <= tol.identity
    # support inclusion: supp(rho) <= supp(rho_L)
    rho_l = lueders_state(rho, obs)
    assert support_contained(rho, rho_l)


def test_corollary1_reads_the_lueders_state_only_through_its_spectrum(monkeypatch):
    # corollary1_check is the one-case call of the chunk form, which
    # builds its Lüders states in one pass.
    made = []
    real = qrelent.lueders._lueders_states

    def spy(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(qrelent.lueders, "_lueders_states", spy)
    rho = random_density(6, rank=4, seed=21)
    direct, gap = corollary1_check(rho, block_observable(6, [0, 1, 2], [3, 4, 5]))
    assert direct.is_finite
    assert len(made) == 1 and len(made[0]) == 1
    assert "matrix" not in vars(made[0][0])


def test_corollary1_pinched_blocks_match_measurement_blocks(tol):
    # With sigma = rho_L, each block of the decomposition satisfies
    # Q_k rho Q_k = P_k rho P_k even though Q_k may have smaller rank.
    rho = random_density(6, rank=3, seed=17)
    obs = block_observable(6, [0, 1, 2], [3, 4, 5])
    rho_l = lueders_state(rho, obs)
    d = decompose_by_projectors(rho_l, obs.projectors)
    for q, p in zip(d.supports, obs.projectors):
        lhs = q.matrix @ rho.matrix @ q.matrix
        rhs = p.matrix @ rho.matrix @ p.matrix
        assert frobenius(lhs - rhs) <= tol.identity


# -- refinements ----------------------------------------------------------


def test_is_refinement_grouping():
    coarse = block_observable(4, [0, 1], [2, 3])
    fine = block_observable(4, [0], [1], [2], [3])
    assert is_refinement(fine, coarse) == (0, 0, 1, 1)


def test_is_refinement_rejects_crossing_projector():
    coarse = block_observable(4, [0, 1], [2, 3])
    v = np.zeros((4, 1), dtype=complex)
    v[1, 0] = v[2, 0] = 1 / math.sqrt(2)  # straddles both coarse blocks
    from qrelent import Projector

    crossing = Projector.validated(v @ v.conj().T)
    rest = [basis_projector(4, [0]), basis_projector(4, [3])]
    comp = Projector.validated(np.eye(4) - crossing.matrix - sum(p.matrix for p in rest))
    fine = ProjectiveObservable.validated(range(4), [crossing, comp, *rest])
    with pytest.raises(NotARefinementError):
        is_refinement(fine, coarse)


def _tilted_pair(eps: float) -> tuple[Projector, Projector]:
    """Rank-1 projectors on e0 and e2, rotated into each other by ``eps``."""
    c = math.sqrt(1.0 - eps**2)
    cols = np.zeros((4, 2))
    cols[[0, 2], 0] = c, eps
    cols[[0, 2], 1] = -eps, c
    return Projector.from_basis(cols[:, [0]]), Projector.from_basis(cols[:, [1]])


def test_is_refinement_rejects_fine_projector_tilted_out_of_range():
    coarse = block_observable(4, [0, 1], [2, 3])
    for eps, refines in ((0.0, True), (1e-6, False)):
        a, b = _tilted_pair(eps)
        fine = ProjectiveObservable.validated(range(4), [a, basis_projector(4, [1]), b, basis_projector(4, [3])])
        if refines:
            assert is_refinement(fine, coarse) == (0, 0, 1, 1)
        else:
            with pytest.raises(NotARefinementError, match="fine projector 0"):
                is_refinement(fine, coarse)


@pytest.mark.parametrize("factor, refines", [(0.99, True), (1.01, False)])
def test_is_refinement_absorption_gate_at_its_bound(tol, factor, refines):
    # Fine projector 0 leaves coarse block {0, 1} by exactly factor x
    # tol.identity: 0.99x is absorbed, and 1.01x is absorbed by no
    # coarse projector.
    coarse = block_observable(4, [0, 1], [2, 3])
    a, b = _tilted_pair(factor * tol.identity)
    fine = ProjectiveObservable.validated(range(4), [a, basis_projector(4, [1]), b, basis_projector(4, [3])])
    if refines:
        assert is_refinement(fine, coarse, tol) == (0, 0, 1, 1)
    else:
        with pytest.raises(NotARefinementError, match="^fine projector 0 is absorbed by 0 coarse projectors"):
            is_refinement(fine, coarse, tol)


def test_is_refinement_rejects_group_short_of_its_coarse_projector():
    # Built without ``validated``, the fine family misses e1: each fine
    # projector is absorbed by exactly one coarse projector, but coarse
    # projector 0 (rank 2) is not the sum of its group (rank 1).
    coarse = ProjectiveObservable((0.0, 1.0), (basis_projector(3, [0, 1]), basis_projector(3, [2])))
    fine = ProjectiveObservable((0.0, 1.0), (basis_projector(3, [0]), basis_projector(3, [2])))
    with pytest.raises(NotARefinementError, match=r"^coarse projector 0 is not the sum of its fine group$"):
        is_refinement(fine, coarse)


def test_is_refinement_forms_no_coarse_projector_matrix():
    # The group sum is checked on ranks; no d x d projector is formed.
    blocks = random_block_projectors(8, (3, 5), seed=5)
    _, fine = random_refinement(blocks, seed=6)
    coarse = ProjectiveObservable.validated(range(2), [Projector.from_basis(b.basis) for b in blocks])
    grouping = is_refinement(fine, coarse)
    assert list(grouping) == sorted(grouping) and set(grouping) == {0, 1}
    assert all("matrix" not in pc.__dict__ for pc in coarse.projectors)


def test_random_refinement_grouping_is_verified():
    # The fine projectors come in coarse order, each inside its own block.
    blocks = random_block_projectors(6, (3, 3), seed=3)
    coarse, fine = random_refinement(blocks, seed=4)
    grouping = is_refinement(fine, coarse)
    assert len(grouping) == len(fine.projectors)
    assert list(grouping) == sorted(grouping) and set(grouping) == {0, 1}


# -- corollary2_check and refinements --------------------------------------


@pytest.mark.parametrize("seed,rank_one", [(0, False), (1, True), (2, False), (3, True)])
def test_corollary2_random(seed, rank_one, tol):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 9))
    split = int(rng.integers(1, dim))
    blocks = random_block_projectors(dim, (split, dim - split), seed=seed + 7)
    coarse, fine = random_refinement(blocks, seed=seed + 8, rank_one=rank_one)
    rho = random_density(dim, seed=seed + 9)
    report, composition = corollary2_check(rho, coarse, fine)
    assert report.all_finite
    assert report.residual <= tol.identity
    assert composition <= tol.identity


@pytest.mark.exploratory
def test_corollary2_with_undetectable_blocks_subdivided(tol):
    # rho is confined to the first coarse block; the refinement also
    # subdivides the block rho cannot trigger.  The straight line holds
    # anyway: zero-probability blocks contribute nothing to either
    # Lüders state.  Informational; no gating criterion relies on it.
    blocks = [basis_projector(6, [0, 1, 2]), basis_projector(6, [3, 4, 5])]
    rho = random_state_in_support(blocks[0], 2, 21)
    coarse, fine = random_refinement(blocks, seed=22, rank_one=True)
    undetectable = [
        p for p in coarse.projectors
        if float(np.einsum("ij,ji->", rho.matrix, p.matrix).real) <= tol.supp
    ]
    assert undetectable, "fixture should leave one coarse block undetectable"
    report, composition = corollary2_check(rho, coarse, fine)
    assert report.all_finite
    assert report.residual <= tol.identity
    assert composition <= tol.identity


def column_observable(u, *column_groups):
    return ProjectiveObservable.validated(
        range(len(column_groups)), [Projector.from_basis(u[:, list(g)]) for g in column_groups]
    )


@pytest.mark.parametrize(
    "coarse,fine",
    [
        pytest.param(
            block_observable(3, [0, 1], [2]), column_observable(haar_unitary(3, 5), [0], [1], [2]), id="d3-columns"
        ),
        pytest.param(
            block_observable(4, [0, 1], [2, 3]), column_observable(haar_unitary(4, 12), [0, 1], [2, 3]), id="d4-halves"
        ),
    ],
)
def test_corollary2_rejects_non_refinement_before_any_lueders_state(monkeypatch, coarse, fine):
    # The hypothesis is checked first: a pair that is no refinement
    # (the d = 3 one once returned residuals 8.45e-3 and 0.175) raises
    # before any Lüders state, so no block is solved.
    rho = random_density(coarse.dim, seed=1)
    calls = count_kernel_calls(monkeypatch)
    with pytest.raises(NotARefinementError):
        corollary2_check(rho, coarse, fine)
    assert calls == []


# -- chunk forms of the family gates ---------------------------------------


def _refinement_draws(draws):
    """A ``(coarse, fine)`` refinement of a random block frame per ``(sizes, seed, rank_one)``."""
    return [
        random_refinement(random_block_projectors(sum(sizes), sizes, seed=seed), seed + 1, rank_one=rank_one)
        for sizes, seed, rank_one in draws
    ]


@given(
    draws=st.lists(
        st.tuples(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(0, 2**32), st.booleans()),
        min_size=1,
        max_size=6,
    )
)
@settings(deadline=None, max_examples=30)
def test_chunk_family_gates_match_the_one_case_calls(draws):
    # Frames of several shapes in one list: each observable keeps its
    # projectors and the frame its one-case call builds, and each
    # grouping is is_refinement's.
    pairs = _refinement_draws(draws)
    families = [obs.projectors for pair in pairs for obs in pair]
    stacked = _validated_observables([(range(len(f)), f) for f in families], DEFAULT_TOL)
    for family, obs in zip(families, stacked):
        alone = ProjectiveObservable.validated(range(len(family)), family)
        assert obs.projectors == alone.projectors == family
        assert obs.eigenvalues == alone.eigenvalues
        for a, b in zip(obs._frame, alone._frame):
            assert a.shape == b.shape and np.array_equal(a, b)
    groupings = _refinements([(fine, coarse) for coarse, fine in pairs], DEFAULT_TOL)
    assert groupings == [is_refinement(fine, coarse) for coarse, fine in pairs]
    for (coarse, fine), grouping in zip(pairs, groupings):
        assert list(grouping) == sorted(grouping) and set(grouping) == set(range(len(coarse.projectors)))


def _tilted_toward(eps: float, dim: int, j: int, k: int) -> Projector:
    """The rank-1 projector on ``e_j`` rotated toward ``e_k`` by ``eps``."""
    v = np.zeros((dim, 1))
    v[j, 0], v[k, 0] = math.sqrt(1.0 - eps**2), eps
    return Projector.from_basis(v)


@pytest.mark.parametrize(
    "eps, error, message",
    [
        (1e-6, NotOrthogonalError, "projectors 0 and 1 overlap: ||P_i P_j||_F = 1.000e-06"),
        # Just past the overlap bound; the completeness defect, about sqrt(2) x eps, is past its bound too.
        (1.01e-8, NotOrthogonalError, "projectors 0 and 1 overlap: ||P_i P_j||_F = 1.010e-08"),
        (None, BadObservableError, "projectors do not resolve the identity: defect 1.000e+00"),
    ],
    ids=["overlap", "overlap-at-bound", "incomplete"],
)
def test_chunk_observables_raise_a_bad_family_as_it_raises_alone(eps, error, message):
    # The bad family sits in the middle of good ones of two shapes, one
    # of them its own: a pair that overlaps, or a family short of e2.
    bad = [basis_projector(3, [0]), basis_projector(3, [1]) if eps is None else _tilted_toward(eps, 3, 1, 0)]
    bad += [] if eps is None else [basis_projector(3, [2])]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        ProjectiveObservable.validated(range(len(bad)), bad)
    good = [random_block_projectors(d, (1, d - 2), seed=d) for d in (3, 5, 3)]
    cases = [(range(len(f)), f) for f in [*good[:2], bad, good[2]]]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _validated_observables(cases, DEFAULT_TOL)


def test_chunk_gates_a_block_tilted_past_orth_as_from_basis_does_alone(tol):
    # A block whose Gram defect, 1e-9, lies past tol.orth but within
    # tol.identity: from_basis and the stacked block gate refuse it with
    # one message, while the observables, gated at tol.identity, accept it.
    assert tol.orth < 1e-9 < tol.identity
    spoiled = haar_unitary(4, 7)
    spoiled[:, 1] *= math.sqrt(1.0 + 1e-9)
    message = r"^basis columns not orthonormal: defect 1\.000e-09$"
    with pytest.raises(NotOrthonormalError, match=message):
        Projector.from_basis(spoiled[:, :2])
    frames = [
        (haar_unitary(3, 1), np.array([0, 1, 1])),
        (spoiled, np.array([0, 0, 1, 1])),
        (haar_unitary(4, 2), np.zeros(4, int)),
    ]
    with pytest.raises(NotOrthonormalError, match=message):
        _check_orthonormal_blocks(frames, tol)
    _check_orthonormal_blocks(frames[::2], tol)
    family = (Projector(basis=spoiled[:, :2]), Projector(basis=spoiled[:, 2:]))
    good = random_block_projectors(3, (1,), seed=3)
    accepted = _validated_observables([(range(2), good), (range(2), family), (range(2), good)], tol)
    assert accepted[1].projectors == family


@pytest.mark.parametrize(
    "coarse, fine, message",
    [
        pytest.param(
            lambda: block_observable(3, [0, 1], [2]),
            lambda: ProjectiveObservable.validated(
                range(4), [basis_projector(3, [0]), basis_projector(3, [1]), Projector.zero(3), basis_projector(3, [2])]
            ),
            "fine projector 2 is absorbed by 2 coarse projectors, need exactly 1",
            id="absorbed-by-two",
        ),
        pytest.param(
            lambda: ProjectiveObservable((0.0, 1.0), (basis_projector(3, [0, 1]), basis_projector(3, [2]))),
            lambda: ProjectiveObservable((0.0, 1.0), (basis_projector(3, [0]), basis_projector(3, [2]))),
            "coarse projector 0 is not the sum of its fine group",
            id="group-rank",
        ),
    ],
)
def test_chunk_refinements_raise_a_bad_pair_as_it_raises_alone(coarse, fine, message):
    # The bad pair sits in the middle of good ones of two frame shapes, one
    # of them its own.
    bad = (fine(), coarse())
    with pytest.raises(NotARefinementError, match=f"^{re.escape(message)}$"):
        is_refinement(*bad)
    good = [(f, c) for c, f in _refinement_draws([((1, 2), 1, False), ((2, 2), 2, True), ((1, 1, 1), 3, False)])]
    with pytest.raises(NotARefinementError, match=f"^{re.escape(message)}$"):
        _refinements([*good[:2], bad, good[2]], DEFAULT_TOL)


@pytest.mark.parametrize("leg", ["d_total", "d_first", "d_second"])
def test_line_report_with_an_infinite_leg_has_no_residual(leg):
    legs = dict(d_total=ExtendedReal.finite(1.0), d_first=ExtendedReal.finite(0.25), d_second=ExtendedReal.finite(0.75))
    assert LineReport(**legs).residual == 0.0
    legs[leg] = INFINITY
    report = LineReport(**legs)
    assert report.residual is None
    assert report.all_finite is False


# -- the straight line ------------------------------------------------------


@given(seed=st.integers(0, 2**31), leak=st.booleans())
@settings(deadline=None, max_examples=150)
def test_line_checks_hold_the_parent_identity(seed, leak):
    # sigma = sum_k w_k V_k S_k V_k^dag over a Haar frame cut into 1 to d
    # blocks, rank-deficient S_k and zero weights allowed, is fixed by the
    # pinching E in that frame.  Then S(rho || sigma) = S(rho || E rho) +
    # S(E rho || sigma): d_first is finite, d_total and d_second are infinite
    # together (rho and E rho leak the same mass out of the E-invariant
    # supp sigma), and a finite line closes to round-off.  rho is drawn
    # inside supp sigma or, when sigma has a kernel and ``leak``, with an
    # O(1) part in it, far from tol.supp.  The same pinching towards 1/d is
    # corollary1: d_first is the distance to the Lüders state and
    # d_total - d_second = S(E rho) - S(rho), the entropy gap.
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 12))
    n = int(rng.integers(1, dim + 1))
    cuts = np.sort(rng.choice(np.arange(1, dim), n - 1, replace=False))
    u = haar_unitary(dim, int(rng.integers(2**31)))
    blocks = [Projector.from_basis(b) for b in np.split(u, cuts, axis=1)]
    weights = np.where(rng.random(n) < 0.25, 0.0, rng.uniform(0.1, 1.0, n))
    weights[0] = weights[0] or 1.0
    parts = [
        random_density(b.rank, rank=int(rng.integers(1, b.rank + 1)), seed=int(rng.integers(2**31))) for b in blocks
    ]
    sigma = validate_density(
        sum(w * b.basis @ s.matrix @ b.basis.conj().T for w, b, s in zip(weights / weights.sum(), blocks, parts))
    )
    supp = support_projector(sigma)
    rho = random_state_in_support(supp, int(rng.integers(1, supp.rank + 1)), int(rng.integers(2**31)))
    leaks = leak and supp.rank < dim
    if leaks:
        kernel = Projector.from_basis(np.linalg.qr(supp.basis, mode="complete")[0][:, supp.rank :])
        outside = random_state_in_support(kernel, int(rng.integers(1, kernel.rank + 1)), int(rng.integers(2**31)))
        t = rng.uniform(0.1, 0.9)
        rho = validate_density((1.0 - t) * rho.matrix + t * outside.matrix)
    frame = _stack(blocks, dim)
    flat_sigma = validate_density(np.eye(dim) / dim)
    (line, middle), (flat, _) = _line_checks([(rho, frame, sigma), (rho, frame, flat_sigma)], DEFAULT_TOL)
    assert line.d_first.is_finite
    assert line.d_total.is_finite == line.d_second.is_finite == (not leaks)
    if not leaks:
        assert line.residual <= 1e-12
    assert frobenius(middle.matrix - pinch(rho, blocks).matrix) <= 1e-12
    direct, gap = corollary1_check(rho, ProjectiveObservable.validated(range(n), blocks))
    assert abs(flat.d_first.value - direct.value) <= 1e-12
    assert abs(flat.d_total.value - flat.d_second.value - gap) <= 1e-12


# -- theorem2_check --------------------------------------------------------


def test_theorem2_closed_form_qubit():
    # rho = |+><+|, sigma = diag(3/4, 1/4); hand values:
    #   total   = 1/2 ln(16/3)
    #   first   = ln 2
    #   second  = 1/2 ln(4/3)
    report, middle = theorem2_check(pure([1.0, 1.0]), diag_state(0.75, 0.25))
    assert report.d_total.value == pytest.approx(0.5 * math.log(16.0 / 3.0), abs=1e-12)
    assert report.d_first.value == pytest.approx(LN2, abs=1e-12)
    assert report.d_second.value == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)
    assert report.residual <= 1e-12
    assert frobenius(middle.matrix - np.eye(2) / 2) < 1e-12


def test_theorem2_raises_on_support_violation():
    with pytest.raises(SupportViolationError):
        theorem2_check(diag_state(0.5, 0.5), pure([1.0, 0.0]))


def test_theorem2_checks_its_basis_before_its_support():
    # The hypothesis is judged on the line's d_total, after every frame:
    # a leaking rho with a bad basis raises the basis error.
    with pytest.raises(NotOrthonormalError):
        theorem2_check(diag_state(0.5, 0.5), pure([1.0, 0.0]), basis=np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_theorem2_degenerate_sigma_multiple_bases(tol):
    # sigma has a degenerate pair; three genuinely different eigenbases
    # must each satisfy the straight line, while producing different
    # middle states.
    sigma = diag_state(0.25, 0.25, 0.5)
    rho = random_density(3, seed=33)
    middles = []
    for theta, phase in [(0.0, 1.0), (0.7, 1.0), (1.1, 1j)]:
        basis = np.eye(3, dtype=complex)
        c, s = math.cos(theta), math.sin(theta)
        basis[:2, :2] = np.array([[c, -s * np.conj(phase)], [s * phase, c]])
        report, middle = theorem2_check(rho, sigma, basis=basis)
        assert report.all_finite
        assert report.residual <= tol.identity
        middles.append(middle.matrix)
    assert frobenius(middles[0] - middles[1]) > 1e-3  # the middle state is basis-dependent
    assert frobenius(middles[1] - middles[2]) > 1e-3


def test_theorem2_rejects_non_orthonormal_basis():
    sigma = validate_density(np.eye(2) / 2)
    rho = diag_state(0.5, 0.5)
    with pytest.raises(NotOrthonormalError):
        theorem2_check(rho, sigma, basis=np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_theorem2_rejects_basis_that_does_not_diagonalize():
    sigma = diag_state(0.75, 0.25)
    rho = diag_state(0.5, 0.5)
    u = haar_unitary(2, 44)
    with pytest.raises(ValueError):
        theorem2_check(rho, sigma, basis=u)


@pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
def test_theorem2_diagonalization_gate_at_its_bound(tol, factor, accepted):
    # The eigenbasis of sigma = diag(3/4, 1/4) turned by theta leaves
    # off-diagonal Frobenius mass sqrt(2)/4 * sin(2 theta) in sigma; at
    # 0.99x tol.identity the basis is accepted, at 1.01x it raises.
    off = factor * tol.identity
    theta = math.asin(2.0 * math.sqrt(2.0) * off) / 2.0
    c, s = math.cos(theta), math.sin(theta)
    basis = np.array([[c, -s], [s, c]])
    rho, sigma = diag_state(0.5, 0.5), diag_state(0.75, 0.25)
    if accepted:
        report, _middle = theorem2_check(rho, sigma, tol, basis=basis)
        assert report.all_finite
    else:
        with pytest.raises(NotDiagonalizingError, match="basis does not diagonalize"):
            theorem2_check(rho, sigma, tol, basis=basis)


def test_theorem2_non_diagonalizing_basis_is_package_error():
    u = haar_unitary(2, 44)
    with pytest.raises(NotDiagonalizingError) as info:
        theorem2_check(diag_state(0.5, 0.5), diag_state(0.75, 0.25), basis=u)
    assert isinstance(info.value, QrelentError)


@pytest.mark.parametrize("entry", [(0, 0), (1, 0), (0, 1)])
def test_theorem2_rejects_nan_basis(entry):
    basis = np.eye(2, dtype=complex)
    basis[entry] = math.nan
    with pytest.raises(NotOrthonormalError):
        theorem2_check(diag_state(0.5, 0.5), diag_state(0.75, 0.25), basis=basis)


@pytest.mark.parametrize("leak", [0.0, 1e-10])
def test_theorem2_thin_reference_matches_full_spectrum(leak):
    # A decomposition part of rank 2 carries a thin spectrum (2
    # eigenvalues on a 6 x 2 basis); theorem2_check completes it with a
    # kernel basis and pinches the kernel as one block.  The reference
    # needs no kernel basis: it validates the dense pinching
    # sum_j v_j v_j^dag rho v_j v_j^dag + K rho K, K = 1 - v v^dag.  The
    # leaking rho puts mass tol.supp / 10 outside the block, which a
    # pinching in the thin columns alone would drop.
    blocks = random_block_projectors(6, (3, 3), seed=81)
    mixture = 0.5 * random_state_in_support(blocks[0], 2, 82).matrix + 0.5 * random_state_in_support(
        blocks[1], 3, 83
    ).matrix
    part = decompose_by_projectors(validate_density(mixture), blocks).parts[0]
    assert part.spectrum.eigenvectors.shape == (6, 2)
    inside = random_state_in_support(support_projector(part), 2, 84)
    outside = random_state_in_support(blocks[1], 1, 85)
    rho = validate_density((1.0 - leak) * inside.matrix + leak * outside.matrix)
    thin, _ = theorem2_check(rho, part)
    v = part.spectrum.eigenvectors
    k = np.eye(6) - v @ v.conj().T
    dense = validate_density((v * np.diag(v.conj().T @ rho.matrix @ v).real) @ v.conj().T + k @ rho.matrix @ k)
    full = LineReport(
        d_total=quantum_relative_entropy(rho, part),
        d_first=quantum_relative_entropy(rho, dense),
        d_second=quantum_relative_entropy(dense, part),
    )
    for a, b in ((thin.d_total, full.d_total), (thin.d_first, full.d_first), (thin.d_second, full.d_second)):
        assert abs(a.value - b.value) <= 1e-12


@given(seed=st.integers(0, 2**31), leak=st.floats(1e-10, 9e-10))
@settings(deadline=None, max_examples=60)
def test_theorem2_line_holds_when_rho_leaks_into_a_thin_kernel(seed, leak):
    # rho leaks a rank-1 state of mass below tol.supp into the kernel of
    # sigma, of rank >= 2.  Pinched in any one basis of that degenerate
    # kernel, the leak's populations straddle the middle state's cutoff
    # and the line breaks by up to ~1e-10; as one block it holds to
    # round-off.  Smaller leaks fall under rho's own rank cut.
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(4, 11))
    rank = int(rng.integers(1, dim - 1))
    sigma = random_density(dim, rank=rank, seed=int(rng.integers(2**31)))
    supp = support_projector(sigma)
    inside = random_state_in_support(supp, int(rng.integers(1, rank + 1)), int(rng.integers(2**31)))
    x = (np.eye(dim) - supp.basis @ supp.basis.conj().T) @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    x /= np.linalg.norm(x)
    rho = validate_density((1.0 - leak) * inside.matrix + leak * np.outer(x, x.conj()))
    report, _ = theorem2_check(rho, sigma)
    assert report.residual <= 1e-12


@pytest.mark.parametrize("rank", [3, 6])
def test_theorem2_middle_state_matches_dense_pinching(rank):
    # The middle state is validated as a diagonal block in the frame of
    # sigma's completed eigenbasis; the report equals the one against
    # the pinched matrix validated in the full space.
    sigma = random_density(6, rank=rank, seed=86)
    rho = random_state_in_support(support_projector(sigma), 2, 87)
    report, middle = theorem2_check(rho, sigma)
    v = sigma.spectrum.eigenvectors
    v = np.concatenate([v, np.linalg.qr(v, mode="complete")[0][:, v.shape[1] :]], axis=1)
    dense = validate_density((v * np.diag(v.conj().T @ rho.matrix @ v).real) @ v.conj().T)
    assert frobenius(middle.matrix - dense.matrix) <= 1e-12
    expected = LineReport(
        d_total=quantum_relative_entropy(rho, sigma),
        d_first=quantum_relative_entropy(rho, dense),
        d_second=quantum_relative_entropy(dense, sigma),
    )
    for leg in ("d_total", "d_first", "d_second"):
        assert abs(getattr(report, leg).value - getattr(expected, leg).value) <= 1e-12


@pytest.mark.parametrize("rank", [3, 6])
def test_theorem2_middle_state_solves_only_the_kernel_block(monkeypatch, rank):
    # The middle state's spectrum is diag(v^dag rho v) on sigma's kept
    # eigenvectors, plus one batched solve of the kernel block when it
    # has rank >= 2; no d x d matrix is solved, and the three distances
    # read cached spectra.
    sigma = random_density(6, rank=rank, seed=86)
    rho = random_state_in_support(support_projector(sigma), 2, 87)
    calls = count_solver_calls(monkeypatch)
    _, middle = theorem2_check(rho, sigma)
    assert calls == ([(1, 3, 3)] if rank == 3 else [])
    # rho lives in supp(sigma): the middle state keeps one pair per
    # eigenvector of sigma's support.
    assert middle.spectrum.eigenvectors.shape == (6, rank)


def test_theorem2_completes_each_kernel_shape_in_one_qr(monkeypatch, tol):
    # The kernels of a pass's thin sigma are completed by one QR per frame
    # shape, in the order the shapes first appear: a stack for the three
    # sigma of rank 3, one matrix for the lone sigma of rank 2, none for a
    # full-rank sigma.  Each case reads as it does checked alone.
    sigmas = [random_density(6, rank=r, seed=90 + i) for i, r in enumerate((3, 2, 3, 6, 3))]
    cases = [(random_state_in_support(support_projector(s), 2, 100 + i), s, None) for i, s in enumerate(sigmas)]
    alone = [theorem2_check(rho, sigma, tol) for rho, sigma, _ in cases]
    shapes = []
    real = np.linalg.qr

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    together = _theorem2_checks(cases, tol)
    assert shapes == [(3, 6, 3), (6, 2)]
    for (report, middle), (ref, ref_middle) in zip(together, alone, strict=True):
        assert frobenius(middle.matrix - ref_middle.matrix) <= 1e-12
        for leg in ("d_total", "d_first", "d_second"):
            assert abs(getattr(report, leg).value - getattr(ref, leg).value) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_theorem2_random_and_monotone(seed, tol):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    sigma = random_density(dim, seed=seed + 60)
    rho = random_density(dim, rank=int(rng.integers(1, dim + 1)), seed=seed + 70)
    report, middle = theorem2_check(rho, sigma)
    assert report.residual <= tol.identity
    # pinching toward sigma's eigenbasis can only move rho closer to sigma
    assert report.d_total.value + 1e-12 >= report.d_second.value
    # middle commutes with sigma
    comm = middle.matrix @ sigma.matrix - sigma.matrix @ middle.matrix
    assert frobenius(comm) <= tol.identity

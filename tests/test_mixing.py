"""Orthogonal decompositions and the mixing identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelent import (
    DEFAULT_TOL,
    DimensionMismatchError,
    LeakedSupportError,
    LengthMismatchError,
    NotBlockDiagonalError,
    NotOrthogonalError,
    NotHermitianError,
    NotOrthonormalError,
    NotPositiveError,
    ProbabilityVector,
    Projector,
    QrelentError,
    classical_embedding_check,
    decompose_by_projectors,
    entropy_mixing_identity,
    extended_log,
    frobenius,
    haar_unitary,
    lemma1_log_decomposition,
    quantum_relative_entropy,
    random_block_projectors,
    random_density,
    random_state_in_support,
    support_projector,
    theorem1_breakdown,
    validate_density,
)
from qrelent.entropy import _spectral_entropy
from qrelent.linop import _pinched, _spectral_log, _stack, _stacked_block_states
from qrelent.mixing import _classical_embedding_checks
from helpers import basis_projector, count_solver_calls, diag_state, pure

LN2 = math.log(2.0)


def two_block_fixture():
    sigma = diag_state(0.5, 0.25, 0.25)
    blocks = [basis_projector(3, [0]), basis_projector(3, [1, 2])]
    return sigma, blocks


def random_decomposition(dim, seed, ranks=None):
    """A mixed state over two random orthogonal blocks, decomposed."""
    rng = np.random.default_rng(seed)
    split = int(rng.integers(1, dim))
    blocks = random_block_projectors(dim, (split, dim - split), seed=seed)
    if ranks is None:
        ranks = [b.rank for b in blocks]
    w = rng.dirichlet(np.ones(len(blocks))) + 0.15
    w /= w.sum()
    mixture = sum(
        wk * random_state_in_support(b, r, seed + 13 + i).matrix
        for i, (b, r, wk) in enumerate(zip(blocks, ranks, w.tolist()))
    )
    return decompose_by_projectors(validate_density(mixture), blocks)


# -- decompose_by_projectors ---------------------------------------------


def test_decompose_oracle():
    sigma, blocks = two_block_fixture()
    d = decompose_by_projectors(sigma, blocks)
    assert np.allclose(d.weights.probs, [0.5, 0.5], atol=1e-14)
    assert frobenius(d.parts[0].matrix - np.diag([1.0, 0, 0])) < 1e-12
    assert frobenius(d.parts[1].matrix - np.diag([0.0, 0.5, 0.5])) < 1e-12
    assert d.supports[0].rank == 1 and d.supports[1].rank == 2
    assert frobenius(d.sigma.matrix - sigma.matrix) < 1e-12


def test_decompose_zero_weight_block():
    sigma = diag_state(0.5, 0.5, 0.0)
    d = decompose_by_projectors(sigma, [basis_projector(3, [0, 1]), basis_projector(3, [2])])
    assert d.parts[1] is None
    assert d.supports[1].rank == 0
    assert d.weights.probs[1] == 0.0


@pytest.mark.parametrize("factor", [0.5, 0.99, 1.01])
def test_empty_block_policy_at_supp_boundary(factor, tol):
    # One policy for parts of sigma and conditional states of rho: a
    # block carries a state iff its weight is positive and it keeps an
    # eigenvalue at the whole operator's scale.  tol.supp plays no part,
    # so a block weighted below it is a block like any other: the parts'
    # ranks add up to sigma's, lemma1 closes, and both theorem1 routes
    # agree.  When tol.supp decided, the light part of sigma was dropped
    # (block route inf against a direct 9.6735, lemma1 residual 20.7 or
    # 21.4) and the light conditional state of rho with its term of
    # h_rel (residual 1.98e-8 or 1.04e-8).
    eps = factor * tol.supp
    blocks = [basis_projector(2, [0]), basis_projector(2, [1])]
    skewed, half = diag_state(1.0 - eps, eps), diag_state(0.5, 0.5)
    d = decompose_by_projectors(skewed, blocks, tol)
    bd = theorem1_breakdown(skewed, decompose_by_projectors(half, blocks, tol), tol)
    assert d.supports[1].rank == 1
    for state in (d.parts[1], bd.conditional_states[1]):
        assert np.allclose(state.matrix, np.diag([0.0, 1.0]), atol=1e-12)
        assert state.spectrum.eigenvalues.tolist() == [1.0]
    assert frobenius(extended_log(skewed.matrix) - lemma1_log_decomposition(d)) <= tol.identity
    for b in (bd, theorem1_breakdown(half, d, tol)):
        assert b.total_lhs.is_finite and b.total_rhs.is_finite
        assert b.residual <= tol.identity


def test_decompose_rejects_leaked_support():
    sigma = validate_density(np.eye(3) / 3)
    with pytest.raises(LeakedSupportError):
        decompose_by_projectors(sigma, [basis_projector(3, [0]), basis_projector(3, [1])])


@pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
def test_decompose_leak_gate_at_its_bound(factor, accepted, tol):
    # Trace mass of 0.99x tol.supp outside the blocks is accepted, and
    # 1.01x raises the leak gate's own error.
    eps = factor * tol.supp
    sigma = diag_state(0.5 - eps / 2, 0.5 - eps / 2, eps)
    blocks = [basis_projector(3, [0]), basis_projector(3, [1])]
    if accepted:
        assert decompose_by_projectors(sigma, blocks, tol).n_parts == 2
    else:
        with pytest.raises(LeakedSupportError, match="outside the given blocks"):
            decompose_by_projectors(sigma, blocks, tol)


def test_decompose_leak_boundary(tol):
    eps_ok = tol.supp / 10
    ok = diag_state(1.0 - eps_ok, eps_ok)
    decompose_by_projectors(ok, [basis_projector(2, [0])])  # no raise
    eps_bad = 10 * tol.supp
    bad = diag_state(1.0 - eps_bad, eps_bad)
    with pytest.raises(LeakedSupportError):
        decompose_by_projectors(bad, [basis_projector(2, [0])])


def test_decompose_rejects_overlap():
    sigma = validate_density(np.eye(2) / 2)
    with pytest.raises(NotOrthogonalError):
        decompose_by_projectors(sigma, [basis_projector(2, [0]), Projector.validated(np.eye(2))])


def test_decompose_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        decompose_by_projectors(diag_state(0.5, 0.5), [basis_projector(3, [0])])


def test_decompose_rank_deficient_part():
    # second block hosts a rank-1 state inside a 2-dim subspace
    part = random_state_in_support(basis_projector(3, [1, 2]), 1, 5)
    sigma = validate_density(0.5 * np.diag([1.0, 0, 0]) + 0.5 * part.matrix)
    d = decompose_by_projectors(sigma, [basis_projector(3, [0]), basis_projector(3, [1, 2])])
    assert d.supports[1].rank == 1  # support, not block, rank


def _ranked_blocks_fixture(ranks=(2, 3, 3)):
    """A state at d=8, block diagonal in blocks of ranks (2, 3, 3).

    Its part in block k has rank ``ranks[k]``; full rank by default.
    """
    blocks = random_block_projectors(8, (2, 3, 3), seed=91)
    mixture = sum(
        w * random_state_in_support(b, r, 92 + k).matrix
        for k, (b, r, w) in enumerate(zip(blocks, ranks, (0.2, 0.35, 0.45)))
    )
    return validate_density(mixture), blocks


def test_decompose_solves_parts_in_their_blocks(monkeypatch):
    sigma, blocks = _ranked_blocks_fixture()
    calls = count_solver_calls(monkeypatch)
    d = decompose_by_projectors(sigma, blocks)
    # The parts solve block-locally, one batched solve per block size;
    # sigma is the caller's, not rebuilt.
    assert sorted(calls) == [(1, 2, 2), (2, 3, 3)]
    assert [part.spectrum.eigenvectors.shape for part in d.parts] == [(8, 2), (8, 3), (8, 3)]


def test_route_a_keeps_full_space_solves(monkeypatch):
    sigma, blocks = _ranked_blocks_fixture()
    d = decompose_by_projectors(sigma, blocks)
    assert d.sigma.spectrum.eigenvectors.shape == (8, 8)
    rho = random_density(8, rank=5, seed=93)
    calls = count_solver_calls(monkeypatch)
    lhs = extended_log(d.sigma.matrix)
    assert calls == [(8, 8)]
    rhs = lemma1_log_decomposition(d)
    assert calls == [(8, 8)]  # route B reads the parts' block-local spectra
    assert frobenius(lhs - rhs) <= 1e-10
    del calls[:]
    bd = theorem1_breakdown(rho, d)
    # Conditional states solve in their blocks, one batched solve per
    # block size, and the pinched entropy reads the same block spectra;
    # S(rho||sigma) reads sigma's full spectrum.
    assert sorted(calls) == [(1, 2, 2), (2, 3, 3)]
    assert [s.spectrum.eigenvectors.shape for s in bd.conditional_states] == [(8, 2), (8, 3), (8, 3)]
    assert bd.residual <= 1e-10


def _dense_pinched_entropy(rho, d):
    """S of the raw pinched matrix by one d x d solve over its positive eigenvalues (the reference)."""
    w = np.linalg.eigvalsh(_pinched(rho.matrix, *_stack(d.supports, d.dim)))
    return _spectral_entropy(w[w > 0.0])


@pytest.mark.parametrize("confined", [True, False])
def test_theorem1_breakdown_solves_no_full_matrix(monkeypatch, confined, tol):
    # Ranks (1, 3, 3) leave a kernel in block 0.  A confined rho lives
    # in the supports of parts 0 and 1, so p_2 = 0 and block 2 carries
    # no state but still enters the pinched spectrum; a full-rank rho
    # leaks into the kernel, so the pinched matrix is subnormalized.
    sigma, blocks = _ranked_blocks_fixture(ranks=(1, 3, 3))
    d = decompose_by_projectors(sigma, blocks)
    if confined:
        span = Projector.from_basis(np.concatenate([d.supports[0].basis, d.supports[1].basis], axis=1))
        rho = random_state_in_support(span, 4, 94)
    else:
        rho = random_density(8, seed=94)
    calls = count_solver_calls(monkeypatch)
    bd = theorem1_breakdown(rho, d)
    assert calls and all(len(shape) == 3 and shape[-1] < 8 for shape in calls)
    assert (bd.conditional_states[2] is None) == confined
    assert bd.total_rhs.is_finite == confined
    assert abs(bd.s_pinched - _dense_pinched_entropy(rho, d)) <= 1e-12


# -- the block solver: weights, states and gates ------------------------------


def _light_block_fixture(weight, light_rank):
    """sigma and rho at d=16, block diagonal over Haar blocks of sizes (4, 4, 8).

    Block 0 carries ``weight`` in both states, with a part of rank
    ``light_rank``; each conditional state of rho lives in the support
    of its part.  Returns the states, the blocks and the block states
    mixed in.
    """
    blocks = random_block_projectors(16, (4, 4, 8), seed=31)
    ranks = (light_rank, 2, 8)
    parts = [random_state_in_support(b, r, 40 + k) for k, (b, r) in enumerate(zip(blocks, ranks))]
    conditionals = [
        random_state_in_support(Projector.from_basis(part.spectrum.eigenvectors[:, -r:]), r, 50 + k)
        for k, (part, r) in enumerate(zip(parts, ranks))
    ]
    sigma = validate_density(sum(w * s.matrix for w, s in zip((weight, 0.4, 0.6 - weight), parts)))
    rho = validate_density(sum(p * s.matrix for p, s in zip((weight, 0.7, 0.3 - weight), conditionals)))
    return sigma, rho, blocks, parts, conditionals


def _kept_frame(state, scale):
    """The eigenvectors of ``state`` with eigenvalue above ``scale``, and those eigenvalues renormalized."""
    w, v = state.spectrum.eigenvalues, state.spectrum.eigenvectors
    return v[:, w > scale], w[w > scale] / math.fsum(w[w > scale].tolist())


@pytest.mark.parametrize("light_rank", [4, 2])
@pytest.mark.parametrize("weight", [1e-7, 1e-8])
def test_blocks_of_small_weight_are_accepted(weight, light_rank, tol):
    # Judging a block's state after division by its weight magnified
    # round-off past tol.herm; the gates now run on the compression at
    # the scale of the state it came from.  sigma is cut once, at
    # tol.rank times its largest eigenvalue, so each part keeps only the
    # eigenpairs of the part mixed in that clear that scale (at weight
    # 1e-8 and rank 4 the light part loses its smallest one): w_0 is the
    # kept mass of block 0, and p_k the mass of rho on part k's support.
    # Cut at their own scale, parts took round-off divided by a weight
    # of 1e-7 or 1e-8 for support: a rank-2 light part reported rank 3
    # or 4, and at weight 1e-8 and rank 4 the direct route said +inf
    # while the block route gave 0.705.
    sigma, rho, blocks, parts, conditionals = _light_block_fixture(weight, light_rank)
    d = decompose_by_projectors(sigma, blocks)
    bd = theorem1_breakdown(rho, d)
    assert sum(q.rank for q in d.supports) == support_projector(sigma).rank
    assert bd.total_lhs.is_finite == bd.total_rhs.is_finite
    sigma_weights, rho_weights = (weight, 0.4, 0.6 - weight), (weight, 0.7, 0.3 - weight)
    raw = np.linalg.eigvalsh(sum(w * s.matrix for w, s in zip(sigma_weights, parts)))
    dropped = math.fsum(np.clip(raw[raw <= tol.rank * raw[-1]], 0.0, None).tolist())
    first = blocks[0].basis
    assert d.weights.probs[0] == pytest.approx(np.trace(first.conj().T @ sigma.matrix @ first).real, rel=1e-6)
    assert abs(d.weights.probs[0] - weight) <= dropped + sigma.dim * np.finfo(float).eps
    for k, (wk, pk) in enumerate(zip(sigma_weights, rho_weights)):
        v, kept = _kept_frame(parts[k], tol.rank * raw[-1] / wk)
        c = v.conj().T @ conditionals[k].matrix @ v
        assert bd.p.probs[k] == pytest.approx(pk * np.trace(c).real, rel=1e-6)
        assert frobenius(d.parts[k].matrix - (v * kept) @ v.conj().T) <= 1e-6
        assert frobenius(bd.conditional_states[k].matrix - v @ c @ v.conj().T / np.trace(c).real) <= 1e-6


def test_part_cut_at_the_scale_of_sigma(tol):
    # The light block {1, 2} holds 1e-4 (1 - 1e-7) and 1e-11.  Cut at
    # its own scale the part kept 1e-11 / 1e-4 = 1e-7, which sigma drops
    # (1e-11 <= tol.rank * lam_max): the lemma1 residual was 25.3 and
    # the block route gave 7.60 where the direct route said +inf.
    sigma = diag_state(1.0 - 1e-4, 1e-4 * (1.0 - 1e-7), 1e-11)
    d = decompose_by_projectors(sigma, [basis_projector(3, [0]), basis_projector(3, [1, 2])])
    assert [q.rank for q in d.supports] == [1, 1]
    assert frobenius(extended_log(sigma.matrix) - lemma1_log_decomposition(d)) <= tol.identity
    bd = theorem1_breakdown(diag_state(0.5, 0.25, 0.25), d)
    assert not bd.total_lhs.is_finite and not bd.total_rhs.is_finite


def test_block_that_keeps_no_eigenvalue(tol):
    # rho couples e_1..e_15 weakly to e_16..e_30: its compression onto
    # the second block has 15 eigenvalues 7e-11, all at or below the cut
    # tol.rank * 0.985 of the whole compression, yet their sum 1.05e-9
    # exceeds tol.supp.  That block carries no state, and its p_k still
    # counts in h_rel, in the missed mass and in s_pinched, which reads
    # the uncut block spectrum (cut, it lost 2.46e-8).
    n, mu, coupling = 15, 1e-3, 7e-8
    vectors = np.zeros((2 * n + 1, n + 1))
    vectors[0, 0] = 1.0
    for i in range(1, n + 1):
        vectors[i, i], vectors[n + i, i] = math.sqrt(1.0 - coupling), math.sqrt(coupling)
    rho = validate_density((vectors * [1.0 - n * mu, *[mu] * n]) @ vectors.T)
    blocks = [basis_projector(2 * n + 1, range(n + 1)), basis_projector(2 * n + 1, range(n + 1, 2 * n + 1))]
    d = decompose_by_projectors(validate_density(np.eye(2 * n + 1) / (2 * n + 1)), blocks)
    bd = theorem1_breakdown(rho, d)
    assert bd.conditional_states[1] is None
    p = [float(np.trace(q.basis.T @ rho.matrix @ q.basis).real) for q in blocks]
    assert p[1] == pytest.approx(n * mu * coupling, rel=1e-9) and p[1] > tol.supp
    assert np.allclose(bd.p.probs, p, rtol=1e-12, atol=0.0)
    w = d.weights.probs.tolist()
    assert bd.h_rel.value == pytest.approx(math.fsum(pk * math.log(pk / wk) for pk, wk in zip(p, w)), abs=1e-15)
    assert bd.total_lhs.is_finite and bd.total_rhs.is_finite
    assert bd.residual <= tol.identity


def test_kept_block_terms_count_its_sub_cut_mass(tol):
    # rho = .5 |e_31><e_31| plus 31 eigenvalues .5/31 on e_i (i < 31),
    # each leaking eta = 3e-9 of its weight to e_{32+i}, against a flat
    # sigma over blocks 0..30 and 31..63.  The second block keeps e_31
    # and 31 pinched eigenvalues 4.8e-11, under the cut 5e-11, that
    # sum to 1.5e-9.  s_pinched and p_k count them, so the block's term
    # of avg_rel must too: read off the cut state, it misses that mass
    # and the residual reads 3.6e-8.
    n, eta = 31, 3e-9
    vectors = np.zeros((2 * n + 2, n + 1))
    vectors[n, 0] = 1.0
    for i in range(n):
        vectors[i, i + 1], vectors[n + 1 + i, i + 1] = math.sqrt(1.0 - eta), math.sqrt(eta)
    rho = validate_density((vectors * [0.5, *[0.5 / n] * n]) @ vectors.T)
    blocks = [basis_projector(2 * n + 2, range(n)), basis_projector(2 * n + 2, range(n, 2 * n + 2))]
    d = decompose_by_projectors(validate_density(np.eye(2 * n + 2) / (2 * n + 2)), blocks)
    bd = theorem1_breakdown(rho, d)
    assert bd.conditional_states[1].spectrum.eigenvalues.tolist() == [1.0]
    assert bd.p.probs[1] - 0.5 == pytest.approx(0.5 * eta, rel=1e-6)
    assert bd.residual <= tol.identity


def test_weight_exists_with_its_part(tol):
    # sigma spreads 1 - delta over 63 dims and puts delta = 5e-11 on the
    # last: delta survives sigma's cut, tol.rank * (1 - delta) / 63, but
    # not one at tol.rank * max(w).  Its part exists, so h_rel counts its
    # weight, and the block route reads 11.1664 like the direct one.
    delta = 5e-11
    sigma = diag_state(*[(1.0 - delta) / 63] * 63, delta)
    d = decompose_by_projectors(sigma, [basis_projector(64, range(63)), basis_projector(64, [63])], tol)
    assert d.parts[1] is not None
    bd = theorem1_breakdown(diag_state(*[0.5 / 63] * 63, 0.5), d, tol)
    assert bd.total_lhs.as_float() == pytest.approx(11.1664, abs=1e-4)
    assert bd.residual <= tol.identity


@st.composite
def _split_families(draw):
    """sigma block diagonal over a fine Haar family, weights log-uniform down to 1e-12.

    Returns sigma, the fine family, a coarsening of it (consecutive fine
    blocks merged) with each fine block's group, and a state rho that is
    drawn either inside supp(sigma) or anywhere.
    """
    dim = draw(st.integers(2, 12))
    sizes = []
    while sum(sizes) < dim:
        sizes.append(draw(st.integers(1, dim - sum(sizes))))
    seed = draw(st.integers(0, 2**31))
    fine = random_block_projectors(dim, sizes, seed=seed)
    w = np.array([10.0 ** draw(st.floats(-12.0, 0.0)) for _ in fine])
    ranks = [draw(st.integers(1, b.rank)) for b in fine]
    parts = [random_state_in_support(b, r, seed + 1 + k) for k, (b, r) in enumerate(zip(fine, ranks))]
    sigma = validate_density(sum(wk * part.matrix for wk, part in zip(w / w.sum(), parts)))
    group = [0]
    for _ in fine[1:]:
        group.append(group[-1] + draw(st.booleans()))
    coarse = [
        Projector.from_basis(np.concatenate([b.basis for b, g in zip(fine, group) if g == j], axis=1))
        for j in range(group[-1] + 1)
    ]
    if draw(st.booleans()):
        supp = support_projector(sigma)
        rho = random_state_in_support(supp, draw(st.integers(1, supp.rank)), seed + 100)
    else:
        rho = random_density(dim, rank=draw(st.integers(1, dim)), seed=seed + 100)
    return sigma, fine, coarse, group, rho


@given(fixture=_split_families())
@settings(deadline=None, max_examples=80)
def test_split_and_refinement_keep_support_decisions(fixture):
    # supp(sigma) is the direct sum of the parts' supports whichever
    # family sigma is split over, so coarse ranks add up over their fine
    # groups and both breakdowns reach the same verdicts.
    sigma, fine, coarse, group, rho = fixture
    d_fine = decompose_by_projectors(sigma, fine)
    d_coarse = decompose_by_projectors(sigma, coarse)
    fine_ranks = [q.rank for q in d_fine.supports]
    for j, q in enumerate(d_coarse.supports):
        assert q.rank == sum(r for r, g in zip(fine_ranks, group) if g == j)
    bd_fine, bd_coarse = theorem1_breakdown(rho, d_fine), theorem1_breakdown(rho, d_coarse)
    assert bd_fine.total_lhs.is_finite == bd_coarse.total_lhs.is_finite
    assert bd_fine.total_rhs.is_finite == bd_coarse.total_rhs.is_finite == bd_fine.total_lhs.is_finite


@st.composite
def _dirichlet_families(draw):
    """sigma over 2-4 Haar blocks with Dirichlet weights, and rho of random rank.

    In some draws one weight is set to zero, so its block carries no
    part; rho is drawn anywhere, so both verdicts occur.
    """
    dim = draw(st.integers(2, 12))
    n_blocks = draw(st.integers(2, min(4, dim)))
    cuts = draw(st.lists(st.integers(1, dim - 1), min_size=n_blocks - 1, max_size=n_blocks - 1, unique=True))
    sizes = np.diff([0, *sorted(cuts), dim]).tolist()
    seed = draw(st.integers(0, 2**31))
    blocks = random_block_projectors(dim, sizes, seed=seed)
    w = np.random.default_rng(seed).dirichlet(np.ones(n_blocks))
    if draw(st.booleans()):
        w[draw(st.integers(0, n_blocks - 1))] = 0.0
        w /= w.sum()
    ranks = [draw(st.integers(1, b.rank)) for b in blocks]
    parts = [random_state_in_support(b, r, seed + 1 + k) for k, (b, r) in enumerate(zip(blocks, ranks))]
    sigma = validate_density(sum(wk * part.matrix for wk, part in zip(w.tolist(), parts)))
    rho = random_density(dim, rank=draw(st.integers(1, dim)), seed=seed + 100)
    return rho, sigma, blocks


def _part_ranks(states):
    return [None if state is None else support_projector(state).rank for state in states]


@given(fixture=_dirichlet_families(), u_seed=st.integers(0, 2**31))
@settings(deadline=None, max_examples=300)
def test_unitary_covariance_keeps_verdicts_ranks_and_distance(fixture, u_seed):
    # One Haar U applied to rho, sigma and every block is a change of
    # frame: the distance, both verdicts and every support rank stay.
    rho, sigma, blocks = fixture
    u = haar_unitary(rho.dim, u_seed)

    def turned(state):
        return validate_density(u @ state.matrix @ u.conj().T)

    rho_u, sigma_u = turned(rho), turned(sigma)
    d = decompose_by_projectors(sigma, blocks)
    d_u = decompose_by_projectors(sigma_u, [Projector.from_basis(u @ b.basis) for b in blocks])
    bd, bd_u = theorem1_breakdown(rho, d), theorem1_breakdown(rho_u, d_u)
    assert bd_u.total_lhs.is_finite == bd.total_lhs.is_finite
    assert bd_u.total_rhs.is_finite == bd.total_rhs.is_finite
    assert support_projector(rho_u).rank == support_projector(rho).rank
    assert support_projector(sigma_u).rank == support_projector(sigma).rank
    assert _part_ranks(d_u.parts) == _part_ranks(d.parts)
    if bd.total_lhs.is_finite:
        assert abs(bd_u.total_lhs.value - bd.total_lhs.value) <= 1e-10
    for breakdown in (bd, bd_u):
        assert breakdown.residual is None or breakdown.residual <= DEFAULT_TOL.identity


def _assert_permuted_states(got, want, order, atols):
    for state, k in zip(got, order):
        assert (state is None) == (want[k] is None)
        if state is not None:
            assert frobenius(state.matrix - want[k].matrix) <= atols[k]


@given(fixture=_dirichlet_families(), data=st.data())
@settings(deadline=None, max_examples=200)
def test_block_order_permutes_the_terms(fixture, data):
    # Reordering the blocks reorders w_k, p_k, the parts and the
    # conditional states.  The compressions are formed in the permuted
    # frame, so the rest moves by round-off, not bit for bit: a
    # conditional state reads rho through sigma's support Q_k, whose
    # basis is as well conditioned as the smallest eigenvalue of sigma
    # there.  Only the direct side reads sigma alone and stays
    # bit-identical.
    rho, sigma, blocks = fixture
    order = data.draw(st.permutations(range(len(blocks))))
    d = decompose_by_projectors(sigma, blocks)
    d_p = decompose_by_projectors(sigma, [blocks[k] for k in order])
    bd, bd_p = theorem1_breakdown(rho, d), theorem1_breakdown(rho, d_p)
    assert np.abs(d_p.weights.probs - d.weights.probs[order]).max() <= 1e-14
    assert np.abs(bd_p.p.probs - bd.p.probs[order]).max() <= 1e-14
    _assert_permuted_states(d_p.parts, d.parts, order, [1e-14] * len(blocks))
    conditioned = [
        None if part is None else 1e-14 / (wk * part.spectrum.eigenvalues[0])
        for wk, part in zip(d.weights.probs.tolist(), d.parts)
    ]
    _assert_permuted_states(bd_p.conditional_states, bd.conditional_states, order, conditioned)
    assert _part_ranks(d_p.parts) == [_part_ranks(d.parts)[k] for k in order]
    assert _part_ranks(bd_p.conditional_states) == [_part_ranks(bd.conditional_states)[k] for k in order]
    assert bd_p.total_lhs == bd.total_lhs
    assert abs(bd_p.s_pinched - bd.s_pinched) <= 1e-12
    for got, want in [(bd_p.h_rel, bd.h_rel), (bd_p.avg_rel, bd.avg_rel), (bd_p.total_rhs, bd.total_rhs)]:
        assert got.is_finite == want.is_finite
        if got.is_finite:
            assert abs(got.value - want.value) <= 1e-12


@st.composite
def _weighted_families(draw):
    """sigma block diagonal over a Haar family, every weight >= 1e-3, and a random rho."""
    dim = draw(st.integers(2, 8))
    sizes = []
    while sum(sizes) < dim:
        sizes.append(draw(st.integers(1, dim - sum(sizes))))
    seed = draw(st.integers(0, 2**31))
    blocks = random_block_projectors(dim, sizes, seed=seed)
    w = np.array([draw(st.floats(1e-3, 1.0)) for _ in blocks])
    ranks = [draw(st.integers(1, b.rank)) for b in blocks]
    parts = [random_state_in_support(b, r, seed + 1 + k) for k, (b, r) in enumerate(zip(blocks, ranks))]
    sigma = validate_density(sum(wk * part.matrix for wk, part in zip(w / w.sum(), parts)))
    rho = random_density(dim, rank=draw(st.integers(1, dim)), seed=seed + 100)
    return sigma, rho, blocks


def _dense_block_state(matrix, basis):
    """``validate_density(V C V^dag / p)`` with ``C = V^dag M V``: one d x d solve."""
    c = basis.conj().T @ matrix @ basis
    return validate_density(basis @ c @ basis.conj().T / np.trace(c).real)


def _assert_same_state(got, want):
    assert frobenius(got.matrix - want.matrix) <= 1e-12
    w = got.spectrum.eigenvalues
    assert np.all(np.diff(w) >= 0.0)
    assert w.shape == want.spectrum.eigenvalues.shape
    assert np.abs(w - want.spectrum.eigenvalues).max() <= 1e-12


@given(fixture=_weighted_families())
@settings(deadline=None, max_examples=80)
def test_block_states_match_dense_validation(fixture):
    sigma, rho, blocks = fixture
    d = decompose_by_projectors(sigma, blocks)
    for part, b in zip(d.parts, blocks):
        _assert_same_state(part, _dense_block_state(sigma.matrix, b.basis))
    bd = theorem1_breakdown(rho, d)
    for pk, rho_k, q in zip(bd.p.probs.tolist(), bd.conditional_states, d.supports):
        if pk >= 1e-3:
            _assert_same_state(rho_k, _dense_block_state(rho.matrix, q.basis))


@pytest.mark.parametrize(
    "kind, error, bad_blocks",
    [
        pytest.param("non-hermitian", NotHermitianError, 3, id="non-hermitian-NotHermitianError"),
        pytest.param("negative", NotPositiveError, 3, id="negative-NotPositiveError"),
        pytest.param("nan", NotHermitianError, 3, id="nan-NotHermitianError"),
        # On the frame of blocks 0 and 1 alone (8 columns, not 16), the
        # bad matrix is a frame-shape group of its own in the pass.
        pytest.param("non-hermitian", NotHermitianError, 2, id="non-hermitian-own-frame-shape"),
        pytest.param("negative", NotPositiveError, 2, id="negative-own-frame-shape"),
        pytest.param("nan", NotHermitianError, 2, id="nan-own-frame-shape"),
    ],
)
def test_block_states_reject_bad_matrix(kind, error, bad_blocks, tol):
    sigma, _, blocks, _, _ = _light_block_fixture(1e-7, 4)
    first = blocks[0].basis
    bad = sigma.matrix.copy()
    if kind == "non-hermitian":
        bad += 0.3j * np.outer(first[:, -1], first[:, 0].conj())
    elif kind == "negative":
        bad -= 1e-3 * np.outer(first[:, 0], first[:, 0].conj())
    else:
        bad[0, 0] = np.nan
    bad_item = (bad, *_stack(blocks[:bad_blocks], 16), bad_blocks)
    with pytest.raises(error):
        _stacked_block_states([bad_item], tol)
    # The bad matrix between good ones in one stacked pass.
    good = (sigma.matrix, *_stack(blocks, 16), len(blocks))
    with pytest.raises(error):
        _stacked_block_states([good, bad_item, good], tol)


def test_rho_outside_every_support_is_infinite():
    # rho is orthogonal to supp(sigma) and its compression onto the
    # supports is round-off only; Hermiticity is judged at rho's scale,
    # not that compression's, so both routes report +inf.
    u = haar_unitary(6, 3)
    blocks = [Projector.from_basis(u[:, :3]), Projector.from_basis(u[:, 3:])]
    sigma = validate_density(u[:, :2] @ np.diag([0.6, 0.4]) @ u[:, :2].conj().T)
    rho = validate_density(u[:, 3:5] @ np.diag([0.5, 0.5]) @ u[:, 3:5].conj().T)
    bd = theorem1_breakdown(rho, decompose_by_projectors(sigma, blocks))
    assert not bd.total_lhs.is_finite and not bd.total_rhs.is_finite
    assert bd.conditional_states == (None, None)


# -- the block-diagonal gate -------------------------------------------------


def test_decompose_keeps_callers_sigma():
    sigma, blocks = _ranked_blocks_fixture()
    assert decompose_by_projectors(sigma, blocks).sigma is sigma


def _coherent_qubit(offblock_norm):
    """diag(1/2, 1/2) plus a real coherence of the given Frobenius norm."""
    c = offblock_norm / math.sqrt(2.0)
    return validate_density(np.array([[0.5, c], [c, 0.5]], dtype=complex))


def test_decompose_block_diagonal_boundary(tol):
    blocks = [basis_projector(2, [0]), basis_projector(2, [1])]
    decompose_by_projectors(_coherent_qubit(0.99 * tol.identity), blocks)  # no raise
    with pytest.raises(NotBlockDiagonalError):
        decompose_by_projectors(_coherent_qubit(1.01 * tol.identity), blocks)


def test_decompose_checks_leak_before_coherence():
    # Coherent and leaking at once: the incomplete family is reported.
    sigma = random_density(3, seed=95)
    with pytest.raises(LeakedSupportError):
        decompose_by_projectors(sigma, [basis_projector(3, [0]), basis_projector(3, [1])])


def test_not_block_diagonal_is_package_error():
    assert issubclass(NotBlockDiagonalError, QrelentError)


# -- lemma1 --------------------------------------------------------------


def test_lemma1_oracle():
    sigma, blocks = two_block_fixture()
    d = decompose_by_projectors(sigma, blocks)
    expected = np.diag([math.log(0.5), math.log(0.25), math.log(0.25)])
    assert frobenius(lemma1_log_decomposition(d) - expected) < 1e-12
    assert frobenius(lemma1_log_decomposition(d) - extended_log(sigma.matrix)) < 1e-12


def test_lemma1_with_zero_weight_and_deficient_parts():
    part = random_state_in_support(basis_projector(4, [2, 3]), 1, 11)
    sigma = validate_density(0.6 * np.diag([1.0, 0, 0, 0]) + 0.4 * part.matrix)
    blocks = [basis_projector(4, [0]), basis_projector(4, [1]), basis_projector(4, [2, 3])]
    d = decompose_by_projectors(sigma, blocks)
    assert d.parts[1] is None  # zero-weight block
    resid = frobenius(lemma1_log_decomposition(d) - extended_log(sigma.matrix))
    assert resid <= 1e-10


@pytest.mark.parametrize("dim,seed", [(2, 0), (3, 1), (5, 2), (8, 3), (16, 4)])
def test_lemma1_random(dim, seed, tol):
    d = random_decomposition(dim, seed)
    resid = frobenius(lemma1_log_decomposition(d) - extended_log(d.sigma.matrix))
    assert resid <= tol.identity


@st.composite
def _log_weight_decompositions(draw):
    """sigma over 1-4 Haar blocks at d = 2-10, weights log-uniform down to 1e-12, decomposed.

    In some draws one weight is zero, so its block carries no part;
    the lightest parts may also lose every eigenvalue to sigma's cut.
    """
    dim = draw(st.integers(2, 10))
    n_blocks = draw(st.integers(1, min(4, dim)))
    cuts = draw(st.lists(st.integers(1, dim - 1), min_size=n_blocks - 1, max_size=n_blocks - 1, unique=True))
    sizes = np.diff([0, *sorted(cuts), dim]).tolist()
    seed = draw(st.integers(0, 2**31))
    blocks = random_block_projectors(dim, sizes, seed=seed)
    w = np.array([10.0 ** draw(st.floats(-12.0, 0.0)) for _ in blocks])
    if n_blocks > 1 and draw(st.booleans()):
        w[draw(st.integers(0, n_blocks - 1))] = 0.0
    ranks = [draw(st.integers(1, b.rank)) for b in blocks]
    parts = [random_state_in_support(b, r, seed + 1 + k) for k, (b, r) in enumerate(zip(blocks, ranks))]
    sigma = validate_density(sum(wk * part.matrix for wk, part in zip((w / w.sum()).tolist(), parts)))
    return decompose_by_projectors(sigma, blocks)


def _per_part_lemma1(d):
    """``sum'_k ln(w_k) V_k V_k^dag + sum'_k logz(sigma_k)``, one d x d matrix per term (the reference)."""
    out = np.zeros((d.dim, d.dim), dtype=complex)
    for w, part in zip(d.weights.probs.tolist(), d.parts):
        if part is not None:
            v = part.spectrum.eigenvectors
            out += math.log(w) * (v @ v.conj().T) + _spectral_log(part.spectrum)
    return (out + out.conj().T) / 2.0


@given(d=_log_weight_decompositions())
@settings(deadline=None, max_examples=200)
def test_lemma1_one_product_matches_per_part_sum(d):
    # The supports are read off the parts, and Lemma 1's right side is
    # one product over the parts' kept eigenpairs: term for term the
    # per-part sum, within round-off.
    for part, q in zip(d.parts, d.supports):
        if part is None:
            assert q.rank == 0 and q.dim == d.dim
        else:
            assert np.array_equal(q.basis, part.spectrum.eigenvectors)
    assert frobenius(lemma1_log_decomposition(d) - _per_part_lemma1(d)) <= 1e-12


# -- entropy mixing (3a) -------------------------------------------------


def test_entropy_mixing_oracle():
    sigma = validate_density(np.eye(4) / 4)
    d = decompose_by_projectors(sigma, [basis_projector(4, [0, 1]), basis_projector(4, [2, 3])])
    lhs, rhs = entropy_mixing_identity(d)
    assert lhs == pytest.approx(math.log(4), abs=1e-12)
    assert rhs == pytest.approx(math.log(4), abs=1e-12)


@pytest.mark.parametrize("dim,seed", [(2, 10), (4, 11), (6, 12), (16, 13)])
def test_entropy_mixing_random(dim, seed):
    d = random_decomposition(dim, seed)
    lhs, rhs = entropy_mixing_identity(d)
    assert abs(lhs - rhs) <= 1e-9


# -- theorem1_breakdown ----------------------------------------------------


def test_breakdown_closed_form_qubit():
    # rho = |+><+|, sigma = diag(3/4, 1/4), blocks {e0}, {e1}
    rho = pure([1.0, 1.0])
    sigma = diag_state(0.75, 0.25)
    d = decompose_by_projectors(sigma, [basis_projector(2, [0]), basis_projector(2, [1])])
    bd = theorem1_breakdown(rho, d)
    assert bd.s_pinched == pytest.approx(LN2, abs=1e-12)
    assert bd.s_rho == pytest.approx(0.0, abs=1e-12)
    assert bd.h_rel.value == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)
    assert bd.avg_rel.value == pytest.approx(0.0, abs=1e-12)
    expected_total = 0.5 * math.log(16.0 / 3.0)
    assert bd.total_lhs.value == pytest.approx(expected_total, abs=1e-12)
    assert bd.total_rhs.value == pytest.approx(expected_total, abs=1e-12)
    assert bd.residual <= 1e-12


def test_breakdown_state_confined_to_one_block():
    sigma, blocks = two_block_fixture()
    d = decompose_by_projectors(sigma, blocks)
    rho = pure([1.0, 0.0, 0.0])
    bd = theorem1_breakdown(rho, d)
    assert np.allclose(bd.p.probs, [1.0, 0.0], atol=1e-12)
    assert bd.conditional_states[1] is None
    assert bd.h_rel.value == pytest.approx(LN2, abs=1e-12)
    assert bd.avg_rel.value == pytest.approx(0.0, abs=1e-12)
    assert bd.total_lhs.value == pytest.approx(LN2, abs=1e-12)
    assert bd.residual <= 1e-12


def test_breakdown_infinite_consistency_by_hand():
    sigma = diag_state(0.5, 0.5, 0.0)
    d = decompose_by_projectors(sigma, [basis_projector(3, [0]), basis_projector(3, [1])])
    rho = diag_state(0.25, 0.25, 0.5)  # half its mass outside supp(sigma)
    bd = theorem1_breakdown(rho, d)
    assert not bd.total_lhs.is_finite
    assert not bd.total_rhs.is_finite
    assert bd.residual is None
    # finite diagnostics are still emitted
    assert bd.s_pinched == pytest.approx(-2 * 0.25 * math.log(0.25), abs=1e-12)
    assert np.allclose(bd.p.probs, [0.25, 0.25], atol=1e-12)
    assert bd.h_rel.is_finite


@pytest.mark.parametrize("dim,seed", [(3, 20), (4, 21), (8, 22), (16, 23)])
def test_breakdown_random_and_support_lemma(dim, seed, tol):
    d = random_decomposition(dim, seed)
    supp = support_projector(d.sigma)
    rho = random_state_in_support(supp, max(1, supp.rank // 2), seed + 99)
    bd = theorem1_breakdown(rho, d)
    assert bd.total_lhs.is_finite and bd.total_rhs.is_finite
    assert bd.residual <= tol.identity
    # LHS route really is the direct definition
    direct = quantum_relative_entropy(rho, d.sigma)
    assert bd.total_lhs.value == direct.value


def test_breakdown_dimension_mismatch():
    sigma, blocks = two_block_fixture()
    d = decompose_by_projectors(sigma, blocks)
    with pytest.raises(DimensionMismatchError):
        theorem1_breakdown(diag_state(0.5, 0.5), d)


# -- classical_embedding_check ---------------------------------------------


def test_classical_embedding_oracle():
    p = ProbabilityVector.validated([1.0, 0.0])
    w = ProbabilityVector.validated([0.5, 0.5])
    basis = np.eye(3)[:, :2]
    classical, quantum = classical_embedding_check(p, w, basis)
    assert classical.value == pytest.approx(LN2, abs=1e-12)
    assert quantum.value == pytest.approx(LN2, abs=1e-12)


def test_classical_embedding_infinite_agreement():
    p = ProbabilityVector.validated([0.5, 0.5])
    w = ProbabilityVector.validated([1.0, 0.0])
    classical, quantum = classical_embedding_check(p, w, np.eye(2))
    assert not classical.is_finite and not quantum.is_finite


@pytest.mark.parametrize(
    "p, w, expected",
    [
        # The p-mass on zero weights is summed: 1.5e-9 > tol.supp,
        # although each entry is below it.
        ((1.0 - 1.5e-9, 5e-10, 5e-10, 5e-10), (1.0, 0.0, 0.0, 0.0), math.inf),
        # 5e-10 survives the rank cut of diag(w), so it is a weight:
        # H = 10.0150593...
        ((0.5, 0.5), (1.0 - 5e-10, 5e-10), 0.5 * math.log(0.25 / ((1.0 - 5e-10) * 5e-10))),
        # 5e-11 does not, so p_2 = 0.5 sits on no weight.
        ((0.5, 0.5), (1.0 - 5e-11, 5e-11), math.inf),
    ],
    ids=["summed-leak", "kept-weight", "cut-weight"],
)
def test_classical_embedding_weights_exist_by_the_rank_cut(p, w, expected):
    classical, quantum = classical_embedding_check(
        ProbabilityVector.validated(p), ProbabilityVector.validated(w), np.eye(len(p))
    )
    for value in (classical, quantum):
        assert value.as_float() == pytest.approx(expected, rel=1e-12)


def test_classical_embedding_random_rotated_basis(tol):
    rng = np.random.default_rng(31)
    p = rng.dirichlet(np.ones(3))
    w = rng.dirichlet(np.ones(3))
    basis = haar_unitary(5, 7)[:, :3]
    classical, quantum = classical_embedding_check(
        ProbabilityVector.validated(p), ProbabilityVector.validated(w), basis
    )
    assert abs(classical.value - quantum.value) <= 1e-10


def test_classical_embedding_checks_validate_every_state_in_one_solve(monkeypatch, tol):
    # Three cases on one dimension: their six embedded states are one
    # stacked solve, and each case's result is the one it has alone.
    rng = np.random.default_rng(32)
    cases = [
        (
            ProbabilityVector.validated(rng.dirichlet(np.ones(k))),
            ProbabilityVector.validated(rng.dirichlet(np.ones(k))),
            haar_unitary(4, 40 + k)[:, :k],
        )
        for k in (2, 3, 4)
    ]
    alone = [classical_embedding_check(*case, tol) for case in cases]
    calls = count_solver_calls(monkeypatch)
    assert _classical_embedding_checks(cases, tol) == alone
    assert calls == [(6, 4, 4)]


def test_classical_embedding_rejects_non_orthonormal():
    p = ProbabilityVector.validated([0.5, 0.5])
    basis = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotOrthonormalError):
        classical_embedding_check(p, p, basis)


@pytest.mark.parametrize("entry", [(0, 0), (2, 1)])
def test_classical_embedding_rejects_nan_basis(entry):
    p = ProbabilityVector.validated([0.5, 0.5])
    basis = np.eye(3, 2, dtype=complex)
    basis[entry] = math.nan
    with pytest.raises(NotOrthonormalError):
        classical_embedding_check(p, p, basis)


def test_classical_embedding_length_mismatch():
    p = ProbabilityVector.validated([0.5, 0.5])
    w = ProbabilityVector.validated([0.5, 0.25, 0.25])
    with pytest.raises(LengthMismatchError):
        classical_embedding_check(p, w, np.eye(3))

"""Seeded generation: determinism, validity, parameter checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrelent.linop
from qrelent import (
    DEFAULT_TOL,
    BadSpecError,
    NotOrthonormalError,
    Projector,
    derive_seed,
    frobenius,
    haar_unitary,
    is_refinement,
    random_block_projectors,
    random_density,
    random_refinement,
    random_state_in_support,
    support_projector,
    validate_density,
)
import qrelent.stategen
from qrelent.campaign import VerifyConfig, run_campaign
from qrelent.linop import _by_shape, _validated
from qrelent.stategen import _ginibre, _haar, _random_block_families, _random_refinements, _raw_density, _rng
from helpers import count_solver_calls


# -- generator parameters -------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dim=0),
        dict(dim=3, rank=0),
        dict(dim=3, rank=4),
        dict(dim=3, seed=-1),
        dict(dim=3, block_sizes=()),
        dict(dim=3, block_sizes=(0, 3)),
        dict(dim=3, block_sizes=(2, 2)),
    ],
)
def test_genspec_rejects_bad_parameters(kwargs):
    generate = random_block_projectors if "block_sizes" in kwargs else random_density
    with pytest.raises(BadSpecError):
        generate(**kwargs)


def test_genspec_effective_rank_defaults_to_dim():
    assert support_projector(random_density(5)).rank == 5
    assert support_projector(random_density(5, rank=2)).rank == 2


@pytest.mark.parametrize(
    "draw",
    [
        pytest.param(lambda: haar_unitary(3, -1), id="haar_unitary"),
        pytest.param(
            lambda: random_state_in_support(Projector.validated(np.eye(3)), 2, -1), id="random_state_in_support"
        ),
        pytest.param(lambda: random_refinement(random_block_projectors(3, (1, 2)), -1), id="random_refinement"),
    ],
)
def test_negative_seed_is_a_bad_spec(draw):
    # The same refusal as random_density's, not numpy's bare ValueError.
    with pytest.raises(BadSpecError, match="seed must be non-negative, got -1"):
        draw()


# -- determinism ----------------------------------------------------------


def test_random_density_deterministic():
    a = random_density(4, rank=2, seed=123)
    b = random_density(4, rank=2, seed=123)
    assert np.array_equal(a.matrix, b.matrix)
    c = random_density(4, rank=2, seed=124)
    assert not np.array_equal(a.matrix, c.matrix)


def test_haar_unitary_deterministic_and_unitary():
    u1 = haar_unitary(6, 9)
    u2 = haar_unitary(6, 9)
    assert np.array_equal(u1, u2)
    assert frobenius(u1.conj().T @ u1 - np.eye(6)) < 1e-12


def test_haar_unitaries_stack_the_one_matrix_draws():
    # One QR call over the stack; each unitary is haar_unitary's for its seed.
    seeds = [3, 0, 2**40, 3]
    calls = []
    real = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "qr", counted)
        stack = _by_shape(_haar, [_ginibre(_rng(seed), 5, 5) for seed in seeds])
    assert calls == [(4, 5, 5)]
    for u, seed in zip(stack, seeds, strict=True):
        assert np.array_equal(u, haar_unitary(5, seed))
    with pytest.raises(BadSpecError):
        _by_shape(_haar, [_ginibre(_rng(seed), 5, 5) for seed in [1, -1]])


def test_derive_seed_stable_and_branch_sensitive():
    assert derive_seed(7, 3, 14) == derive_seed(7, 3, 14)
    assert derive_seed(7, 3, 14) != derive_seed(7, 3, 15)
    assert derive_seed(7, 3, 14) != derive_seed(8, 3, 14)
    with pytest.raises(BadSpecError):
        derive_seed(-1)


# -- random_density -------------------------------------------------------


@given(dim=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=30)
def test_random_density_valid_and_full_rank(dim, seed):
    rho = random_density(dim, seed=seed)
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
    assert rho.spectrum.eigenvalues.min() >= 0.0
    assert support_projector(rho).rank == dim


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_random_density_respects_rank(rank):
    rho = random_density(4, rank=rank, seed=5)
    assert support_projector(rho).rank == rank


@given(
    dim=st.integers(2, 8),
    draws=st.lists(st.tuples(st.integers(1, 8), st.integers(0, 2**63 - 1)), min_size=1, max_size=6),
)
@settings(deadline=None, max_examples=30)
def test_random_densities_stack_the_one_state_draws(dim, draws):
    # One stacked solve for several states, validate_density's own
    # solve for one; each state is random_density's for its rank and
    # seed, bit for bit.
    ranks = [min(rank, dim) for rank, _ in draws]
    seeds = [seed for _, seed in draws]
    with pytest.MonkeyPatch.context() as mp:
        calls = count_solver_calls(mp)
        states = _validated([_raw_density(dim, rank, seed) for rank, seed in zip(ranks, seeds)], DEFAULT_TOL)
    assert calls == ([(len(draws), dim, dim)] if len(draws) > 1 else [(dim, dim)])
    for state, rank, seed in zip(states, ranks, seeds, strict=True):
        alone = random_density(dim, rank=rank, seed=seed).spectrum
        assert np.array_equal(state.spectrum.eigenvalues, alone.eigenvalues)
        assert np.array_equal(state.spectrum.eigenvectors, alone.eigenvectors)


@pytest.mark.parametrize("dim, rank", [(4, 4), (4, 2), (64, 64), (64, 9)])
def test_random_density_validates_its_ginibre_draw_alone(dim, rank):
    # The lone state is validate_density of the trace-normalized
    # Ginibre draw, as its own d x d solve.
    rng = np.random.default_rng(31)
    g = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))) / np.sqrt(2.0)
    m = g @ g.conj().T
    expected = validate_density(m / np.trace(m).real).spectrum
    with pytest.MonkeyPatch.context() as mp:
        calls = count_solver_calls(mp)
        spec = random_density(dim, rank=rank, seed=31).spectrum
    assert calls == [(dim, dim)]
    assert np.array_equal(spec.eigenvalues, expected.eigenvalues)
    assert np.array_equal(spec.eigenvectors, expected.eigenvectors)


def test_random_densities_refuse_a_bad_rank_or_seed():
    for ranks, seeds in [([2, 0], [1, 2]), ([2, 4], [1, 2]), ([2, 2], [1, -2])]:
        with pytest.raises(BadSpecError):
            _validated([_raw_density(3, rank, seed) for rank, seed in zip(ranks, seeds)], DEFAULT_TOL)


# -- random_block_projectors ----------------------------------------------


def test_block_projectors_ranks_orthogonality_completeness():
    blocks = random_block_projectors(6, (1, 2, 3), seed=2)
    assert [b.rank for b in blocks] == [1, 2, 3]
    total = sum(b.matrix for b in blocks)
    assert frobenius(total - np.eye(6)) < 1e-12
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            assert frobenius(blocks[i].matrix @ blocks[j].matrix) < 1e-12


def test_block_projectors_pads_leftover():
    blocks = random_block_projectors(5, (2,), seed=3)
    assert [b.rank for b in blocks] == [2, 3]


def test_block_projectors_requires_sizes():
    with pytest.raises(TypeError):
        random_block_projectors(4, seed=1)


def test_block_families_stack_the_one_family_draws():
    # One QR call over the stack of frames; each family is
    # random_block_projectors' for its sizes and seed, bit for bit.
    sizes, seeds = [(1, 2, 3), (6,), (2,), (3, 3)], [4, 0, 2**40, 4]
    calls = []
    real = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "qr", counted)
        families = _random_block_families(6, sizes, seeds, DEFAULT_TOL)
        assert calls == [(4, 6, 6)]
        calls.clear()
        random_block_projectors(6, (1, 2, 3), seed=4)
        assert calls == [(6, 6)]
    for family, size, seed in zip(families, sizes, seeds, strict=True):
        alone = random_block_projectors(6, size, seed=seed)
        assert len(family) == len(alone)
        for b, a in zip(family, alone):
            assert np.array_equal(b.basis, a.basis)
    with pytest.raises(BadSpecError):
        _random_block_families(6, [(1, 2), (4, 4)], [1, 2], DEFAULT_TOL)


@pytest.mark.parametrize("families", [1, 3])
@pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
def test_block_frame_orth_gate_at_its_bound(monkeypatch, families, factor, accepted):
    # Every block of a drawn frame passes Projector.from_basis's Gram
    # gate: a defect of 0.99x tol.orth in one column of the last frame
    # is accepted, and one of 1.01x raises NotOrthonormalError, for one
    # family (a 2-D QR) and inside a stack alike.
    tol = DEFAULT_TOL
    real = qrelent.stategen._haar

    def spoiled(g):
        u = real(g)
        (u[-1] if u.ndim == 3 else u)[:, 0] *= math.sqrt(1.0 + factor * tol.orth)
        return u

    monkeypatch.setattr(qrelent.stategen, "_haar", spoiled)
    draw = lambda: _random_block_families(5, [(1, 4)] * families, list(range(families)), tol)  # noqa: E731
    if accepted:
        assert draw()[-1][0].rank == 1
    else:
        with pytest.raises(NotOrthonormalError, match="basis columns not orthonormal"):
            draw()


# -- random_state_in_support ----------------------------------------------


def test_state_in_support_confined_and_ranked():
    blocks = random_block_projectors(6, (4,), seed=8)
    p = blocks[0]
    rho = random_state_in_support(p, 2, 77)
    inside = float(np.einsum("ij,ji->", rho.matrix, p.matrix).real)
    assert inside == pytest.approx(1.0, abs=1e-12)
    assert support_projector(rho).rank == 2


@pytest.mark.parametrize("r", [1, 3, 7])
def test_state_in_support_solves_in_its_range(monkeypatch, r):
    p = Projector.from_basis(haar_unitary(8, 5)[:, :r])
    calls = count_solver_calls(monkeypatch)
    rho = random_state_in_support(p, max(1, r - 1), 6)
    # One r x r solve in the range's frame, and no d x d solve.
    assert calls == [(r, r)]
    # The kept spectrum: one pair per unit of rank.
    assert rho.spectrum.eigenvectors.shape == (8, max(1, r - 1))
    assert support_projector(rho).rank == max(1, r - 1)


def test_state_in_support_rejects_bad_rank():
    p = Projector.validated(np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(BadSpecError):
        random_state_in_support(p, 3, 0)
    with pytest.raises(BadSpecError):
        random_state_in_support(Projector.zero(3), 1, 0)


# -- random_refinement ----------------------------------------------------


def test_random_refinement_is_refinement_and_deterministic():
    blocks = random_block_projectors(8, (3, 5), seed=4)
    coarse1, fine1 = random_refinement(blocks, seed=10)
    _, fine2 = random_refinement(blocks, seed=10)
    assert len(fine1.projectors) == len(fine2.projectors)
    for p1, p2 in zip(fine1.projectors, fine2.projectors):
        assert np.array_equal(p1.matrix, p2.matrix)
    grouping = is_refinement(fine1, coarse1)
    assert list(grouping) == sorted(grouping) and set(grouping) == {0, 1}


@pytest.mark.parametrize("rank_one", [False, True])
def test_random_refinement_checks_each_rotated_block_once(monkeypatch, rank_one):
    # Each rotated coarse block is Gram-checked at tol.orth: a rotation
    # spoiled to a Gram defect of 1e-9, within the tol.identity that the
    # fine observable's overlaps and completeness are held to, raises
    # NotOrthonormalError, whichever block it rotates, from
    # random_refinement and from a corollary2 chunk alike.
    tol = DEFAULT_TOL
    blocks = random_block_projectors(9, (2, 3, 4), seed=4)
    real = qrelent.stategen._haar

    def spoiling(rank):
        def spoiled(g):
            u = real(g)
            if g.shape[-1] == rank:
                (u[len(u) // 2] if u.ndim == 3 else u)[:, 0] *= math.sqrt(1.0 + 1e-9)
            return u

        return spoiled

    assert tol.orth < 1e-9 < tol.identity
    _, fine = random_refinement(blocks, seed=12, rank_one=rank_one)
    assert sum(p.rank for p in fine.projectors) == 9
    for b in blocks:
        monkeypatch.setattr(qrelent.stategen, "_haar", spoiling(b.rank))
        with pytest.raises(NotOrthonormalError, match=r"^basis columns not orthonormal: defect 1\.000e-09$"):
            random_refinement(blocks, seed=12, rank_one=rank_one)
    # The chunk's frames are 5 x 5; its rotations, of ranks 1 to 4, are spoiled
    # at rank 2, which the six trials stack.
    monkeypatch.setattr(qrelent.stategen, "_haar", spoiling(2))
    cfg = VerifyConfig(identity="corollary2", dims=(5,), trials=6, seed=3)
    with pytest.raises(NotOrthonormalError, match=r"corollary2 d=5 trials 0-5 .*defect 1\.000e-09$"):
        run_campaign(cfg)
    monkeypatch.setattr(qrelent.stategen, "_haar", real)
    assert run_campaign(cfg).failures == 0


@given(
    draws=st.lists(
        st.tuples(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(0, 2**63 - 1), st.booleans()),
        min_size=1,
        max_size=5,
    )
)
@settings(deadline=None, max_examples=30)
def test_random_refinements_stack_the_one_family_draws(draws):
    # Each refinement is random_refinement's for its family, seed and
    # mode, bit for bit; the rotations of all families take one QR per
    # distinct block rank, ranks in the order first met, a rank held by
    # one block alone on its own 2-D matrix.
    families = [random_block_projectors(sum(sizes), sizes, seed=k) for k, (sizes, _, _) in enumerate(draws)]
    calls = []
    real = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "qr", counted)
        refinements = _random_refinements(families, [s for _, s, _ in draws], [r for _, _, r in draws], DEFAULT_TOL)
    ranks = {}
    for p in (p for family in families for p in family):
        ranks[p.rank] = ranks.get(p.rank, 0) + 1
    assert calls == [(n, r, r) if n > 1 else (r, r) for r, n in ranks.items()]
    for family, (_, seed, rank_one), (coarse, fine) in zip(families, draws, refinements, strict=True):
        alone = random_refinement(family, seed, rank_one=rank_one)
        for got, want in zip(coarse.projectors + fine.projectors, alone[0].projectors + alone[1].projectors, strict=True):
            assert np.array_equal(got.basis, want.basis)


def test_random_refinement_rank_one_mode():
    blocks = random_block_projectors(4, (2, 2), seed=6)
    coarse, fine = random_refinement(blocks, seed=11, rank_one=True)
    assert all(p.rank == 1 for p in fine.projectors)
    assert is_refinement(fine, coarse) == (0, 0, 1, 1)

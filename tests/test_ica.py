from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import varsparse.ica as ica
from varsparse.ica import (
    _CHUNK,
    IcaModel,
    IcaRankError,
    _symmetric_decorrelate,
    fit_fastica,
    transform,
)
from varsparse.metrics import mcc_between


def _mixed_uniforms(n=100_000, d=2, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    sources = rng.uniform(-1, 1, size=(n, d))
    mixing = rng.normal(size=(d, d))
    while abs(np.linalg.det(mixing)) < 0.3:
        mixing = rng.normal(size=(d, d))
    return sources, sources @ mixing * scale


def test_recovers_uniform_sources_through_random_mixing():
    sources, mixed = _mixed_uniforms(seed=1)
    model = fit_fastica([mixed], d=2, seed=0)
    assert model.converged
    assert mcc_between(sources, transform(model, mixed)).score >= 0.95


def test_whitening_of_already_white_data_is_nearly_orthogonal():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=(100_000, 3)) * np.sqrt(3.0)  # unit variance
    model = fit_fastica([x], d=3, seed=0)
    gram = model.whitening.T @ model.whitening
    assert np.abs(gram - np.eye(3)).max() < 0.05


def test_components_are_uncorrelated_with_unit_variance():
    _, mixed = _mixed_uniforms(seed=3, d=3)
    model = fit_fastica([mixed], d=3, seed=0)
    comp = transform(model, mixed)
    cov = np.cov(comp, rowvar=False, bias=True)
    assert np.allclose(np.diag(cov), 1.0, atol=1e-9)
    off = cov[~np.eye(3, dtype=bool)]
    assert np.abs(off).max() < 1e-3


def test_transform_of_mean_row_is_zero():
    _, mixed = _mixed_uniforms(seed=4)
    model = fit_fastica([mixed], d=2, seed=0)
    out = transform(model, mixed.mean(axis=0, keepdims=True))
    assert np.allclose(out, 0.0, atol=1e-12)


def test_round_trip_reconstruction_when_square():
    _, mixed = _mixed_uniforms(seed=5, d=3, n=20_000)
    model = fit_fastica([mixed], d=3, seed=0)
    comp = transform(model, mixed)
    back = comp @ np.linalg.inv(model.whitening @ model.rotation.T) + model.mean
    assert np.abs(back - mixed).max() < 1e-6


def test_fit_is_deterministic_and_seed_sensitive():
    _, mixed = _mixed_uniforms(seed=6, n=10_000)
    a = fit_fastica([mixed], d=2, seed=7)
    b = fit_fastica([mixed], d=2, seed=7)
    assert np.array_equal(a.rotation, b.rotation)
    assert np.array_equal(a.whitening, b.whitening)


def test_scaling_input_columns_does_not_change_recovery():
    sources, mixed = _mixed_uniforms(seed=8, n=50_000)
    scaled = mixed * np.array([100.0, 0.01])
    plain = transform(fit_fastica([mixed], d=2, seed=0), mixed)
    rescaled = transform(fit_fastica([scaled], d=2, seed=0), scaled)
    assert mcc_between(plain, rescaled).score >= 0.999
    assert mcc_between(sources, rescaled).score >= 0.95


def test_non_convergence_flags_the_model(monkeypatch):
    _, mixed = _mixed_uniforms(seed=9, n=5_000)
    monkeypatch.setattr(ica, "_MAX_ITER", 1)
    model = fit_fastica([mixed], d=2, seed=0)  # warnings are errors: this also shows none is raised
    assert not model.converged
    assert model.n_iter == 1


def test_rank_deficient_covariance_is_rejected():
    rng = np.random.default_rng(10)
    col = rng.normal(size=(1_000, 1))
    x = np.hstack([col, 2.0 * col, rng.normal(size=(1_000, 1))])
    with pytest.raises(ValueError, match="rank-deficient"):
        fit_fastica([x], d=3, seed=0)


def test_fit_rejects_bad_arguments():
    x = np.zeros((5, 3))
    with pytest.raises(ValueError, match=r"blocks have 3 columns, the mixing shape \(4, 4\)"):
        fit_fastica([x], d=4, seed=0)
    with pytest.raises(ValueError, match=r"blocks have 3 columns, the mixing shape \(2, 2\)"):
        fit_fastica([x], d=2, seed=0)
    with pytest.raises(IcaRankError, match="more samples"):
        fit_fastica([np.eye(3)], d=3, seed=0)
    with pytest.raises(ValueError, match=r"block 0 must be 2-d.*shape \(\)"):
        fit_fastica(np.zeros(5), d=1, seed=0)


def _shifted_blocks(lengths, d, seed):
    """Blocks of mixed uniform sources, each shifted by its own offset."""
    rng = np.random.default_rng(seed)
    mixing = rng.normal(size=(d, d))
    return [rng.uniform(-1, 1, size=(n, d)) @ mixing + rng.normal(size=d) for n in lengths]


@pytest.mark.parametrize("d", [1, 4, 10])
def test_fitting_blocks_equals_fitting_their_stacked_block(d):
    lengths = (5000, 9001, 12_345)
    assert np.all(np.cumsum(lengths)[:-1] % _CHUNK)  # block boundaries fall inside sweep blocks
    blocks = _shifted_blocks(lengths, d, seed=d)
    pooled = fit_fastica(blocks, d=d, seed=2)
    stacked = fit_fastica([np.vstack(blocks)], d=d, seed=2)
    assert (pooled.n_iter, pooled.converged) == (stacked.n_iter, stacked.converged)
    for part in ("mean", "whitening", "rotation"):
        assert np.abs(getattr(pooled, part) - getattr(stacked, part)).max() < 1e-12, part


def test_a_lone_2d_array_is_one_block():
    (x,) = _shifted_blocks((3000,), 3, seed=5)
    lone, listed = fit_fastica(x, d=3, seed=1), fit_fastica([x], d=3, seed=1)
    for part in ("mean", "whitening", "rotation"):
        assert np.array_equal(getattr(lone, part), getattr(listed, part))


def test_fit_rejects_malformed_blocks_with_typed_errors():
    blocks = _shifted_blocks((40, 50), 3, seed=6)
    with pytest.raises(ValueError, match="block 2 has 2 columns, block 0 has 3"):
        fit_fastica([*blocks, np.zeros((30, 2))], d=3, seed=0)
    with pytest.raises(ValueError, match=r"block 2 must be 2-d.*shape \(3,\)"):
        fit_fastica([*blocks, np.zeros(3)], d=3, seed=0)
    for zero_width in (blocks, [np.zeros((5, 0))]):  # width-0 blocks would pass pooled_moments
        with pytest.raises(ValueError, match="need d >= 1 components, got d=0"):
            fit_fastica(zero_width, d=0, seed=0)
    with pytest.raises(ValueError, match="block 2 must be 2-d with at least 1 row"):
        fit_fastica([*blocks, np.zeros((0, 3))], d=3, seed=0)
    # at most d pooled rows, however they are split into blocks
    for split in ([blocks[0][:1], blocks[1][:2]], [blocks[0][:1]] * 3, [blocks[0][:1]]):
        with pytest.raises(IcaRankError, match="more samples"):
            fit_fastica(split, d=3, seed=0)


def test_transform_validates_columns():
    _, mixed = _mixed_uniforms(seed=11, n=5_000)
    model = fit_fastica([mixed], d=2, seed=0)
    with pytest.raises(ValueError, match="columns"):
        transform(model, np.zeros((4, 3)))


def test_model_rejects_non_orthogonal_rotation():
    with pytest.raises(ValueError, match="orthogonal"):
        IcaModel(
            mean=np.zeros(2),
            whitening=np.eye(2),
            rotation=np.array([[1.0, 0.5], [0.0, 1.0]]),
            converged=True,
            n_iter=1,
        )


@pytest.mark.parametrize(
    "part, value, match",
    [
        ("mean", np.array([0.0, np.nan]), "finite"),
        ("whitening", np.array([[np.inf, 0.0], [0.0, 1.0]]), "finite"),
        ("rotation", np.array([[np.inf, 0.0], [0.0, 1.0]]), "orthogonal"),
        ("mean", np.zeros(3), "shapes"),
        ("whitening", np.eye(3), "shapes"),
        ("rotation", np.full((2, 2), np.nan), "off by nan"),  # a NaN orthogonality error
    ],
)
def test_model_rejects_malformed_parts(part, value, match):
    parts = {"mean": np.zeros(2), "whitening": np.eye(2), "rotation": np.eye(2), part: value}
    with pytest.raises(ValueError, match=match):
        IcaModel(**parts, converged=True, n_iter=1)


# The sweep runs in float32 on the whitened columns; its sums over >= 1024
# columns are added chunk by chunk into float64. The bound on the rotation's
# gap to the float64 reference is fixed from that dtype, not fitted to a run.
_SWEEP_TOL = 1e3 * np.finfo(np.float32).eps


def _assert_matches_reference(model, x, seed, max_iter, coarse=False):
    for part in ("mean", "whitening", "rotation"):
        assert getattr(model, part).dtype == np.float64, part
    xw = (x - model.mean) @ model.whitening
    d = xw.shape[1]
    w = _symmetric_decorrelate(np.random.default_rng(seed).normal(size=(d, d)))
    spent = 0
    if coarse:  # every _COARSE-th row until the coarse tolerance, then all rows
        w, spent, _ = _reference_iteration(xw[:: ica._COARSE], w, max_iter, ica._COARSE_TOL)
    rotation, n_iter, converged = _reference_iteration(xw, w, max_iter - spent, tol=1e-6)
    assert model.n_iter == spent + n_iter
    assert model.converged == converged
    assert np.abs(model.rotation - rotation).max() < _SWEEP_TOL


def _reference_iteration(xw, w, max_iter, tol):
    """The unchunked fixed-point loop from w: full n x d temporaries every step."""
    n, d = xw.shape
    for iterations in range(1, max_iter + 1):
        g = np.tanh(xw @ w.T)
        w_new = (g.T @ xw) / n - np.diag(np.mean(1.0 - g * g, axis=0)) @ w
        w_new = _symmetric_decorrelate(w_new)
        drift = np.max(np.abs(np.abs(np.sum(w_new * w, axis=1)) - 1.0))
        w = w_new
        if drift < tol:
            return w, iterations, True
    return w, max_iter, False


@st.composite
def _chunk_boundary_samples(draw):
    # Below about 1000 rows the iteration can wander without converging, and
    # there rounding differences of 1e-16 grow to O(1) within 100 steps.
    d = draw(st.integers(1, 6))
    n = draw(
        st.one_of(
            st.integers(1024, _CHUNK - 1),
            st.sampled_from([_CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sources = rng.uniform(-1, 1, size=(n, d))
    mixing = rng.normal(size=(d, d))
    # fit_fastica rightly rejects a near-singular mixing (covariance eigenvalue
    # ratio under _RANK_RTOL = 1e-10, condition number over about 1e5): seen
    # with a 5 x 5 draw whose singular values spanned 2e2 to 2e-4
    assume(np.linalg.cond(mixing) < 1e4)
    return sources @ mixing, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(_chunk_boundary_samples(), st.sampled_from([2, 100]))
def test_chunked_iteration_matches_the_unchunked_reference(sample, max_iter):
    x, seed = sample
    assert len(x) < ica._COARSE * _CHUNK  # these fits sweep all columns from the first step
    # patched in the body: Hypothesis reruns it, and a function-scoped fixture would not reset
    with patch.object(ica, "_MAX_ITER", max_iter):
        model = fit_fastica([x], d=x.shape[1], seed=seed)
    _assert_matches_reference(model, x, seed, max_iter)


def test_chunked_iteration_matches_the_reference_at_the_benchmark_dimension():
    # the Hypothesis test above draws d <= 6; the benchmark fits d=10
    rng = np.random.default_rng(12)
    n, d = 2 * _CHUNK + 1, 10
    x = rng.uniform(-1, 1, size=(n, d)) @ rng.normal(size=(d, d))
    model = fit_fastica([x], d=d, seed=3)
    _assert_matches_reference(model, x, 3, ica._MAX_ITER)


@pytest.mark.parametrize("d", [3, 10])
def test_coarse_then_full_iteration_matches_the_two_stage_reference(d):
    rng = np.random.default_rng(13 + d)
    n = 9 * _CHUNK + 1  # above the gate, with a shorter last chunk in both stages
    assert n >= ica._COARSE * _CHUNK
    x = rng.uniform(-1, 1, size=(n, d)) @ rng.normal(size=(d, d))
    model = fit_fastica([x], d=d, seed=4)
    _assert_matches_reference(model, x, 4, ica._MAX_ITER, coarse=True)


def test_a_coarse_step_alone_never_converges(monkeypatch):
    # the step cap counts coarse steps; only a step over all columns may converge
    _, mixed = _mixed_uniforms(seed=14, n=ica._COARSE * _CHUNK)
    monkeypatch.setattr(ica, "_MAX_ITER", 1)
    model = fit_fastica([mixed], d=2, seed=0)
    assert (model.n_iter, model.converged) == (1, False)

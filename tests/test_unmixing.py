import json
import re
from contextlib import contextmanager
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, minimize
from scipy.special import expit

import varsparse.unmixing as unmixing
from varsparse.data import EPS_VAR, MixingMatrix, generate
from varsparse.envs import EnvironmentSet, InterventionRegime
from varsparse.experiments import read_json, train_covariances
from varsparse.scm import chain_example_scm
from varsparse.unmixing import (
    LAMBDA_DIAG,
    LAMBDA_E,
    LAMBDA_M,
    LAMBDA_NORM,
    NORM_TARGET,
    LossBreakdown,
    TrainConfig,
    TrainingAborted,
    UnmixingModel,
    covariances,
    loss_diag,
    loss_dim,
    loss_env,
    loss_norm,
    loss_var,
    objective,
    train,
    variance_matrix,
)

CHAIN_MIX = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])

# the three two-target regimes of the worked 3-node example
CHAIN_ENVS = EnvironmentSet(
    3,
    (
        InterventionRegime((0, 1), (1.0, 1.0)),
        InterventionRegime((0, 2), (1.0, 2.0)),
        InterventionRegime((1, 2), (1.0, 3.0)),
    ),
)


def _chain_dataset(n=10_000, seed=0):
    return generate(
        chain_example_scm(), CHAIN_ENVS, MixingMatrix(CHAIN_MIX), n, rng_seed=seed
    )


def _random_batches(rng, n_envs=3, n=40, m=3):
    return [rng.normal(size=(n, m)) @ rng.normal(size=(m, m)) for _ in range(n_envs)]


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


@contextmanager
def _weights(**values):
    """The objective with some LAMBDA_* constants set to other values."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in values.items():
            patch.setattr(unmixing, name, value)
        yield


# lambda_e != lambda_m, so swapping the row and column terms shows
UNEQUAL_WEIGHTS = dict(LAMBDA_E=0.7, LAMBDA_M=1.3)
NO_WEIGHTS = dict(LAMBDA_E=0.0, LAMBDA_M=0.0, LAMBDA_DIAG=0.0, LAMBDA_NORM=0.0)


def _row_objective(batches, lhat):
    """Reference: the objective evaluated directly on the rows of each batch."""
    col_norms = np.linalg.norm(lhat, axis=0)
    safe_norms = np.where(col_norms > 0.0, col_norms, 1.0)
    directions = lhat / safe_norms
    centered = [b - b.mean(axis=0) for b in batches]
    projected = [bc @ directions for bc in centered]
    v_dir = np.stack([np.mean(yc * yc, axis=0) for yc in projected])
    scale = float(np.linalg.norm(v_dir)) / np.sqrt(v_dir.size)
    v = v_dir / scale if scale > 0 else v_dir
    l_var, g_var = loss_var(v)
    l_env, g_env = loss_env(v)
    l_dim, g_dim = loss_dim(v)
    l_diag, g_diag = loss_diag(v)
    l_norm, g_norm = loss_norm(lhat)
    total = (
        l_var
        + unmixing.LAMBDA_E * l_env
        + unmixing.LAMBDA_M * l_dim
        + unmixing.LAMBDA_DIAG * l_diag
        + unmixing.LAMBDA_NORM * l_norm
    )
    g_vn = (
        g_var
        + unmixing.LAMBDA_E * g_env
        + unmixing.LAMBDA_M * g_dim
        + unmixing.LAMBDA_DIAG * g_diag
    )
    g_v = (g_vn - float((g_vn * v).sum()) * v / v.size) / scale if scale > 0 else g_vn
    w = np.zeros_like(lhat)
    for bc, yc, row in zip(centered, projected, g_v):
        w += (2.0 / bc.shape[0]) * (bc.T @ (yc * row))
    grad = (w - directions * (directions * w).sum(axis=0)) / safe_norms
    grad[:, col_norms == 0.0] = 0.0
    grad += unmixing.LAMBDA_NORM * g_norm
    return total, grad, v


def _row_variance_matrix(batches, lhat):
    """Reference: per-column variances of each projected batch."""
    out = []
    for b in batches:
        yc = b @ lhat - (b @ lhat).mean(axis=0)
        out.append(np.mean(yc * yc, axis=0))
    return np.stack(out)


def _close(a, b, rel=1e-10, scale=0.0):
    # relative to the whole array, or to `scale` where that is larger: an entry
    # whose true value is zero has no relative error of its own, and each path
    # rounds it to a different multiple of eps times the data's own scale
    a, b = np.asarray(a), np.asarray(b)
    return float(np.linalg.norm(a - b)) <= rel * max(float(np.linalg.norm(b)), scale, 1e-300)


@st.composite
def _problems(draw):
    """(batches, lhat): E in [2, 6] batches of m in [2, 6] columns, 2-60 rows each,
    some constant, and lhat with possibly one all-zero column."""
    n_envs = draw(st.integers(2, 6))
    m = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batches = []
    for _ in range(n_envs):
        n = draw(st.integers(2, 60))
        if draw(st.integers(0, 3)) == 0:  # a quarter of the batches are constant
            batches.append(np.tile(rng.normal(size=m), (n, 1)))
        else:
            batches.append(rng.normal(size=(n, m)) @ rng.normal(size=(m, m)))
    lhat = rng.normal(size=(m, m)) * rng.uniform(0.3, 1.5)
    zero_col = draw(st.one_of(st.none(), st.integers(0, m - 1)))
    if zero_col is not None:
        lhat[:, zero_col] = 0.0
    return batches, lhat


@settings(max_examples=200, deadline=None)
@given(_problems())
def test_covariance_kernel_matches_row_path(problem):
    batches, lhat = problem
    covs = covariances(batches)
    with _weights(**UNEQUAL_WEIGHTS):
        breakdown, grad, v = objective(covs, lhat)
        ref_total, ref_grad, ref_v = _row_objective(batches, lhat)
    assert _close(breakdown.total, ref_total)
    assert _close(grad, ref_grad)
    assert _close(v, ref_v)
    # constant batches: both sides are rounding noise around a true zero
    data_scale = max(float(np.max((b @ lhat) ** 2)) for b in batches)
    v_rows = _row_variance_matrix(batches, lhat)
    assert _close(variance_matrix(covs, lhat), v_rows, scale=data_scale)


def _reference_covariances(batches, d):
    """covariances as first written, with NumPy's column mean. The fast
    column mean must match it bit for bit."""
    covs = np.empty((len(batches), d, d))
    for e, batch in enumerate(batches):
        centered = batch - batch.mean(axis=0)
        covs[e] = centered.T @ centered / batch.shape[0]
    return covs


@settings(max_examples=200, deadline=None)
@given(_problems())
def test_covariances_match_the_reference_formulation_bit_for_bit(problem):
    batches, lhat = problem
    d = lhat.shape[0]
    assert np.array_equal(covariances(batches), _reference_covariances(batches, d))


def test_covariances_match_the_reference_with_one_column():
    rng = np.random.default_rng(23)
    batches = [rng.normal(size=(n, 1)) + 40.0 for n in (2, 257, 3001)]
    assert np.array_equal(covariances(batches), _reference_covariances(batches, 1))


# ---------------------------------------------------------------- variance_matrix


def _reference_objective(covs, lhat):
    """The objective as first written: np.linalg.norm, np.add.at and copied
    broadcasts. The lean objective must match it bit for bit."""
    col_norms = np.linalg.norm(lhat, axis=0)
    safe_norms = np.where(col_norms > 0.0, col_norms, 1.0)
    directions = lhat / safe_norms
    su = covs @ directions
    v_dir = np.einsum("emd,md->ed", su, directions)
    scale = float(np.linalg.norm(v_dir)) / np.sqrt(v_dir.size)
    v = v_dir / scale if scale > 0 else v_dir

    s = expit(v)
    l_var, g_var = float(s.sum()), s * (1.0 - s)
    s = expit(v.sum(axis=1))
    l_env, g_env = float(-s.sum()), np.broadcast_to(-(s * (1.0 - s))[:, None], v.shape).copy()
    s = expit(v.sum(axis=0))
    l_dim, g_dim = float(-s.sum()), np.broadcast_to(-(s * (1.0 - s))[None, :], v.shape).copy()
    offsets = (np.arange(v.shape[1])[None, :] - np.arange(v.shape[0])[:, None]) % v.shape[1]
    sums = np.zeros(v.shape[1])
    np.add.at(sums, offsets.ravel(), (v * v).ravel())
    norms = np.sqrt(sums)
    diag_scale = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 0.0)
    l_diag, g_diag = float(norms.sum()), v * diag_scale[offsets]
    fro = np.linalg.norm(lhat)
    g_norm = 2.0 * (fro - NORM_TARGET) * lhat / fro if fro != 0.0 else np.zeros_like(lhat)
    l_norm = float((fro - NORM_TARGET) ** 2)

    total = (
        l_var
        + unmixing.LAMBDA_E * l_env
        + unmixing.LAMBDA_M * l_dim
        + unmixing.LAMBDA_DIAG * l_diag
        + unmixing.LAMBDA_NORM * l_norm
    )
    g_vn = (
        g_var
        + unmixing.LAMBDA_E * g_env
        + unmixing.LAMBDA_M * g_dim
        + unmixing.LAMBDA_DIAG * g_diag
    )
    g_v = (g_vn - float((g_vn * v).sum()) * v / v.size) / scale if scale > 0 else g_vn
    w = 2.0 * np.einsum("emd,ed->md", su, g_v)
    grad = (w - directions * (directions * w).sum(axis=0)) / safe_norms
    grad[:, col_norms == 0.0] = 0.0
    grad += unmixing.LAMBDA_NORM * g_norm
    breakdown = (float(total), l_var, l_env, l_dim, l_diag, l_norm)
    return breakdown, grad, v


@settings(max_examples=200, deadline=None)
@given(_problems())
def test_objective_matches_the_reference_formulation_bit_for_bit(problem):
    batches, lhat = problem
    covs = covariances(batches)
    with _weights(**UNEQUAL_WEIGHTS):
        breakdown, grad, v = objective(covs, lhat)
        ref_breakdown, ref_grad, ref_v = _reference_objective(covs, lhat)
    assert tuple(vars(breakdown).values()) == ref_breakdown
    assert np.array_equal(grad, ref_grad)
    assert np.array_equal(v, ref_v)


def test_objective_matches_the_reference_with_a_zero_column_and_more_envs_than_dims():
    rng = np.random.default_rng(17)
    covs = covariances(_random_batches(rng, n_envs=7, n=50, m=4))
    for zero_col in (None, 2):
        lhat = rng.normal(size=(4, 4))
        if zero_col is not None:
            lhat[:, zero_col] = 0.0
        breakdown, grad, v = objective(covs, lhat)
        ref_breakdown, ref_grad, ref_v = _reference_objective(covs, lhat)
        assert tuple(vars(breakdown).values()) == ref_breakdown
        assert np.array_equal(grad, ref_grad) and np.array_equal(v, ref_v)
        if zero_col is not None:
            assert np.array_equal(grad[:, zero_col], np.zeros(4))


@pytest.mark.parametrize("n_envs,d", [(5, 3), (2, 4)])
def test_objective_matches_the_reference_on_all_zero_stacks(n_envs, d):
    # V is all zero, so the reference takes its scale == 0 branch, which
    # objective folds into dividing by 1
    covs = np.zeros((n_envs, d, d))
    lhat = np.random.default_rng(29).normal(size=(d, d))
    lhat[:, 1] = 0.0
    for candidate in (lhat, np.zeros((d, d))):
        breakdown, grad, v = objective(covs, candidate)
        ref_breakdown, ref_grad, ref_v = _reference_objective(covs, candidate)
        assert tuple(vars(breakdown).values()) == ref_breakdown
        assert grad.tobytes() == ref_grad.tobytes() and v.tobytes() == ref_v.tobytes()


def test_diag_offsets_are_cached_and_read_only():
    offsets = unmixing._diag_offsets(5, 3)
    assert unmixing._diag_offsets(5, 3) is offsets
    with pytest.raises(ValueError, match="read-only"):
        offsets[0, 0] = 1


def test_variance_matrix_ground_truth_unmixing_isolates_free_component():
    ds = _chain_dataset()
    covs = covariances([ds.train_observed(e) for e in range(3)])
    v = variance_matrix(covs, np.linalg.inv(CHAIN_MIX))
    # env 0 pins Z1 and Z2, so only the noise of Z3 survives (unit variance)
    assert v[0, 0] < 1e-12 and v[0, 1] < 1e-12
    assert v[0, 2] == pytest.approx(1.0, rel=0.1)
    assert v[1, 0] < 1e-12 and v[1, 2] < 1e-12
    assert v[2, 1] < 1e-12 and v[2, 2] < 1e-12


def test_variance_matrix_constant_batch_gives_zero_row():
    covs = covariances([np.ones((10, 3)), np.zeros((5, 3))])
    v = variance_matrix(covs, np.eye(3))
    assert np.array_equal(v, np.zeros((2, 3)))


def test_variance_matrix_identity_on_mixed_data_sees_variance_everywhere():
    ds = _chain_dataset()
    v = variance_matrix(covariances([ds.train_observed(e) for e in range(3)]), np.eye(3))
    assert (v > EPS_VAR).all()


def test_variance_matrix_rejects_tiny_batches():
    with pytest.raises(ValueError, match="at least 2 rows"):
        covariances([np.ones((1, 3))])
    with pytest.raises(ValueError, match="block 1 has 2 columns, block 0 has 3"):
        covariances([np.ones((4, 3)), np.ones((4, 2))])


# ---------------------------------------------------------------- loss terms


def test_loss_var_zero_matrix():
    assert loss_var(np.zeros((3, 3)))[0] == pytest.approx(4.5)


def test_loss_var_single_hot_entry():
    v = np.zeros((3, 3))
    v[1, 2] = 9.0
    assert loss_var(v)[0] == pytest.approx(8 * 0.5 + expit(9.0), abs=1e-12)


def test_loss_var_monotone_in_entries():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.uniform(0, 3, size=(3, 4))
        bigger = v + rng.uniform(0, 1, size=v.shape)
        assert loss_var(bigger)[0] >= loss_var(v)[0]


def test_loss_env_values():
    assert loss_env(np.zeros((3, 3)))[0] == pytest.approx(-1.5)
    assert loss_env(np.diag([5.0, 5.0, 5.0]))[0] == pytest.approx(-3 * expit(5.0), abs=1e-12)
    assert loss_env(np.full((3, 3), 1e3))[0] == pytest.approx(-3.0, abs=1e-9)


def test_loss_dim_values():
    assert loss_dim(np.zeros((3, 3)))[0] == pytest.approx(-1.5)
    assert loss_dim(np.diag([5.0, 5.0, 5.0]))[0] == pytest.approx(-3 * expit(5.0), abs=1e-12)
    assert loss_dim(np.full((3, 3), 1e3))[0] == pytest.approx(-3.0, abs=1e-9)


def test_loss_dim_is_loss_env_of_transpose():
    rng = np.random.default_rng(1)
    for _ in range(10):
        v = rng.uniform(0, 2, size=(4, 3))
        assert loss_dim(v)[0] == pytest.approx(loss_env(v.T)[0], abs=1e-12)


def test_wrap_diagonal_indexing():
    # entry (i, (i + k) mod d) lies on wrap-around diagonal k; k=0 is the main one
    offsets = unmixing._diag_offsets(3, 3)
    for k in range(3):
        assert [offsets[i, (i + k) % 3] for i in range(3)] == [k, k, k]
    # with more environments than dimensions the rows keep cycling
    assert np.array_equal(unmixing._diag_offsets(4, 3)[3], offsets[0])


def test_loss_diag_prefers_single_occupied_diagonal():
    permuted = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    spread = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    assert loss_diag(permuted)[0] == pytest.approx(np.sqrt(3.0))
    assert loss_diag(spread)[0] == pytest.approx(2.0 * np.sqrt(2.0))
    assert loss_diag(spread)[0] > loss_diag(permuted)[0]
    assert loss_diag(np.zeros((4, 4)))[0] == 0.0


def test_loss_diag_rectangular_rows_cycle_through_offsets():
    v = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    # both entries sit on offset (j - i) mod 4 == 0
    assert loss_diag(v)[0] == pytest.approx(np.sqrt(2.0))
    v2 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    assert loss_diag(v2)[0] == pytest.approx(2.0)


def test_loss_norm_values():
    eye = np.eye(3) / np.sqrt(3.0)
    assert loss_norm(eye)[0] == pytest.approx(0.0, abs=1e-15)
    assert loss_norm(np.zeros((3, 3)))[0] == pytest.approx(1.0)
    assert loss_norm(3.0 * eye)[0] == pytest.approx(4.0)


# ---------------------------------------------------------------- invariances


def test_row_permutation_leaves_all_terms_but_diag_unchanged():
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = rng.uniform(0, 2, size=(4, 4))
        perm = rng.permutation(4)
        assert loss_var(v[perm])[0] == pytest.approx(loss_var(v)[0], abs=1e-12)
        assert loss_env(v[perm])[0] == pytest.approx(loss_env(v)[0], abs=1e-12)
        assert loss_dim(v[perm])[0] == pytest.approx(loss_dim(v)[0], abs=1e-12)


def test_loss_diag_changes_under_plain_row_swap():
    v = np.diag([1.0, 2.0, 3.0])
    swapped = v[[1, 0, 2]]
    assert abs(loss_diag(swapped)[0] - loss_diag(v)[0]) > 0.1


def test_loss_diag_invariant_under_cyclic_co_shift():
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.uniform(0, 2, size=(5, 5))
        shift = int(rng.integers(1, 5))
        rolled = np.roll(np.roll(v, shift, axis=0), shift, axis=1)
        assert loss_diag(rolled)[0] == pytest.approx(loss_diag(v)[0], abs=1e-12)


@st.composite
def _stacks(draw):
    """(covs, lhat): E in [2, 6] covariances of size d in [2, 6], some of them
    rank-deficient as under a hard intervention, and a random lhat."""
    n_envs = draw(st.integers(2, 6))
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = [rng.normal(size=(d, int(rng.integers(1, d + 1)))) for _ in range(n_envs)]
    return np.stack([f @ f.T for f in factors]), rng.normal(size=(d, d))


@settings(max_examples=200, deadline=None)
@given(_stacks(), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_sparsity_terms_are_scale_free(stack, c, seed):
    # only loss_norm sees the scale of lhat; the four V terms score directions
    covs, lhat = stack
    rng = np.random.default_rng(seed)
    col_scales = rng.uniform(0.1, 10.0, size=lhat.shape[1]) * rng.choice([-1.0, 1.0], lhat.shape[1])
    base, _, _ = objective(covs, lhat)
    rescaled = (objective(covs, lhat * col_scales)[0], objective(c * covs, lhat)[0])
    for other in rescaled:
        for name in ("loss_var", "loss_env", "loss_dim", "loss_diag"):
            assert _rel_err(getattr(other, name), getattr(base, name)) < 1e-12, name


def test_ground_truth_unmixing_beats_identity_on_sparsity_term():
    ds = _chain_dataset()
    covs = covariances([ds.train_observed(e) for e in range(3)])
    identity = loss_var(variance_matrix(covs, np.eye(3)))[0]
    rng = np.random.default_rng(4)
    for _ in range(5):
        perm = np.eye(3)[rng.permutation(3)]
        scales = np.diag(rng.uniform(0.5, 2.0, size=3) * rng.choice([-1.0, 1.0], size=3))
        lhat = np.linalg.inv(CHAIN_MIX) @ perm @ scales
        truth = loss_var(variance_matrix(covs, lhat))[0]
        assert truth < identity


# ---------------------------------------------------------------- gradients


def _fd_grad(fn, v, h=1e-5):
    g = np.zeros_like(v)
    for idx in np.ndindex(v.shape):
        vp = v.copy()
        vp[idx] += h
        vm = v.copy()
        vm[idx] -= h
        g[idx] = (fn(vp) - fn(vm)) / (2 * h)
    return g


@pytest.mark.parametrize("term", [loss_var, loss_env, loss_dim, loss_diag])
def test_term_gradients_match_finite_differences(term):
    rng = np.random.default_rng(5)
    for i in range(20):
        shape = (3, 3) if i % 2 == 0 else (4, 3)
        if term is loss_diag and i % 2 != 0:
            shape = (6, 3)  # rectangular diagonals exercise the cycling rule
        v = rng.uniform(0.05, 3.0, size=shape)
        fd = _fd_grad(lambda a: term(a)[0], v)
        an = term(v)[1]
        worst = np.max(np.abs(fd - an) / np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1e-12))
        assert worst < 1e-4


def test_norm_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    for _ in range(20):
        lhat = rng.normal(size=(4, 4))
        fd = _fd_grad(lambda a: loss_norm(a)[0], lhat)
        an = loss_norm(lhat)[1]
        assert np.max(np.abs(fd - an)) < 1e-4


def test_diag_subgradient_is_zero_on_empty_diagonals():
    v = np.diag([1.0, 2.0, 3.0])
    g = loss_diag(v)[1]
    off = ~np.eye(3, dtype=bool)
    assert np.array_equal(g[off], np.zeros(6))
    assert (g[np.eye(3, dtype=bool)] > 0).all()


def test_norm_gradient_vanishes_at_target_norm():
    lhat = np.eye(3) / np.sqrt(3.0)
    assert np.allclose(loss_norm(lhat)[1], 0.0, atol=1e-15)
    assert np.array_equal(loss_norm(np.zeros((2, 2)))[1], np.zeros((2, 2)))


def test_total_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(20):
        covs = covariances(_random_batches(rng))
        lhat = rng.normal(size=(3, 3)) * rng.uniform(0.3, 1.5)
        _, an, _ = objective(covs, lhat)
        worst = 0.0
        for idx in np.ndindex(lhat.shape):
            lp = lhat.copy()
            lp[idx] += h
            lm = lhat.copy()
            lm[idx] -= h
            fp, _, _ = objective(covs, lp)
            fm, _, _ = objective(covs, lm)
            worst = max(worst, _rel_err((fp.total - fm.total) / (2 * h), an[idx]))
        assert worst < 1e-4


def _probe_direction(grad, draw):
    """A unit direction half along grad and half along the part of draw
    orthogonal to it. Along a direction near-orthogonal to grad the
    directional derivative is at rounding level, where a relative error
    means nothing; the fixed share keeps it at 0.71 |grad|."""
    along = grad / np.linalg.norm(grad)
    across = draw - (draw * along).sum() * along
    return (along + across / np.linalg.norm(across)) / np.sqrt(2.0)


def _central_difference_error(covs, lhat, grad, direction):
    """Relative error of grad's derivative along direction against the
    central difference of the objective with h = 1e-5."""
    h = 1e-5
    f_plus = objective(covs, lhat + h * direction)[0].total
    f_minus = objective(covs, lhat - h * direction)[0].total
    return _rel_err((f_plus - f_minus) / (2 * h), float((grad * direction).sum()))


@settings(max_examples=200, deadline=None)
@given(_stacks(), st.integers(0, 2**32 - 1))
def test_objective_gradient_matches_central_difference_on_rank_deficient_stacks(stack, seed):
    # E and d drawn apart, and stacks of rank below d as under hard interventions
    covs, lhat = stack
    _, grad, _ = objective(covs, lhat)
    direction = _probe_direction(grad, np.random.default_rng(seed).normal(size=lhat.shape))
    assert _central_difference_error(covs, lhat, grad, direction) < 1e-4


def test_probe_direction_keeps_its_share_of_the_gradient_on_an_orthogonal_draw():
    # E = 6, d = 2, and a draw exactly orthogonal to the gradient: along the
    # draw itself the derivative is rounding noise, along the probe it is not
    rng = np.random.default_rng(31)
    factors = [rng.normal(size=(2, int(rng.integers(1, 3)))) for _ in range(6)]
    covs, lhat = np.stack([f @ f.T for f in factors]), rng.normal(size=(2, 2))
    _, grad, _ = objective(covs, lhat)
    draw = np.array([[grad[0, 1], -grad[0, 0]], [grad[1, 1], -grad[1, 0]]])
    assert abs((grad * draw).sum()) <= 1e-12 * np.linalg.norm(grad) * np.linalg.norm(draw)
    direction = _probe_direction(grad, draw)
    assert np.linalg.norm(direction) == pytest.approx(1.0, rel=1e-12)
    assert (grad * direction).sum() == pytest.approx(np.linalg.norm(grad) / np.sqrt(2.0), rel=1e-12)
    assert _central_difference_error(covs, lhat, grad, direction) < 1e-4
    # the check still sees one entry of the gradient off by 1e-3 of itself
    worst = np.unravel_index(np.argmax(np.abs(grad * direction)), grad.shape)
    mutated = grad.copy()
    mutated[worst] *= 1.0 + 1e-3
    assert _central_difference_error(covs, lhat, mutated, direction) > 1e-4


def test_gradient_zero_for_constant_batches_without_norm_term():
    covs = covariances([np.ones((8, 3)), 2.0 * np.ones((8, 3))])
    with _weights(**NO_WEIGHTS):
        assert np.array_equal(objective(covs, np.full((3, 3), 0.4))[1], np.zeros((3, 3)))


def test_objective_breakdown_is_consistent():
    rng = np.random.default_rng(8)
    covs = covariances(_random_batches(rng))
    lhat = rng.normal(size=(3, 3))
    b, _, _ = objective(covs, lhat)
    assert b.total == pytest.approx(
        b.loss_var + b.loss_env + b.loss_dim + 10.0 * b.loss_diag + 5.0 * b.loss_norm, abs=1e-12
    )
    with _weights(LAMBDA_E=0.7, LAMBDA_M=1.3, LAMBDA_DIAG=2.0, LAMBDA_NORM=0.5):
        b, _, _ = objective(covs, lhat)
    assert b.total == pytest.approx(
        b.loss_var + 0.7 * b.loss_env + 1.3 * b.loss_dim + 2.0 * b.loss_diag + 0.5 * b.loss_norm,
        abs=1e-12,
    )
    assert list(asdict(b)) == [
        "total", "loss_var", "loss_env", "loss_dim", "loss_diag", "loss_norm"
    ]


def test_objective_norm_weight_scales_norm_term_alone():
    rng = np.random.default_rng(9)
    covs = covariances(_random_batches(rng))
    lhat = rng.normal(size=(3, 3))
    with _weights(**NO_WEIGHTS):
        b0, _, _ = objective(covs, lhat)
    with _weights(**{**NO_WEIGHTS, "LAMBDA_NORM": 5.0}):
        b1, _, _ = objective(covs, lhat)
    assert b1.total - b0.total == pytest.approx(5.0 * loss_norm(lhat)[0], abs=1e-12)


# ---------------------------------------------------------------- training


def _blocks(report, n_rows, config):
    """The epoch count the report must hold: one per started block of accepted iterates."""
    return max(1, -(-report.n_iter // -(-n_rows // config.batch_size)))


def test_train_loss_decreases_on_chain_data():
    down = 0
    for seed in range(5):
        ds = _chain_dataset(n=20_000, seed=seed)
        config = TrainConfig(seed=seed)
        _, report = train(train_covariances(ds), ds.n_train, config)
        assert len(report.epoch_losses) == _blocks(report, ds.n_train, config)
        assert report.grad_check_rel_err < 1e-4
        if report.epoch_losses[-1].total < report.epoch_losses[0].total:
            down += 1
    assert down == 5


def test_train_is_bit_reproducible():
    ds = _chain_dataset(n=2_000, seed=1)
    covs = train_covariances(ds)
    config = TrainConfig(epochs=3, batch_size=500, seed=11)
    model_a, report_a = train(covs, ds.n_train, config)
    model_b, report_b = train(covs, ds.n_train, config)
    assert np.array_equal(model_a.lhat, model_b.lhat)
    assert report_a.epoch_losses == report_b.epoch_losses
    model_c, _ = train(covs, ds.n_train, TrainConfig(epochs=3, batch_size=500, seed=12))
    assert not np.array_equal(model_a.lhat, model_c.lhat)


def test_train_leaves_its_stack_unwritten():
    # a read-only stack trains to the same bytes, so several methods can share one
    ds = _chain_dataset(n=2_000, seed=5)
    covs = train_covariances(ds)
    before = covs.tobytes()
    frozen = covs.copy()
    frozen.flags.writeable = False
    config = TrainConfig(epochs=2, batch_size=500, seed=5)
    from_frozen, _ = train(frozen, ds.n_train, config)
    from_writable, _ = train(covs, ds.n_train, config)
    assert from_frozen.lhat.tobytes() == from_writable.lhat.tobytes()
    assert covs.tobytes() == before


@st.composite
def _row_free_stacks(draw):
    """An (E, d, d) stack of positive-definite matrices, E in [2, 8] and d in
    [2, 6], drawn directly rather than estimated from rows."""
    n_envs, d = draw(st.integers(2, 8)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = rng.normal(size=(n_envs, d, d))
    return factors @ factors.transpose(0, 2, 1) + 1e-3 * np.eye(d)


@settings(max_examples=25, deadline=None)
@given(_row_free_stacks(), st.integers(2, 10_000), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_train_runs_on_a_stack_built_without_rows(covs, n_rows, epochs, seed):
    config = TrainConfig(epochs=epochs, seed=seed)
    first, report = train(covs, n_rows, config)
    second, _ = train(covs, n_rows, config)
    assert np.isfinite(first.lhat).all()
    assert first.lhat.tobytes() == second.lhat.tobytes()
    assert report.n_iter <= epochs * -(-n_rows // config.batch_size)
    assert len(report.epoch_losses) == _blocks(report, n_rows, config)
    assert report.final_variances.shape == covs.shape[:2]


def test_train_report_shapes_and_exports():
    ds = _chain_dataset(n=2_000, seed=2)
    _, report = train(train_covariances(ds), ds.n_train, TrainConfig(epochs=2, batch_size=500, seed=0))
    assert report.final_variances.shape == (3, 3)
    assert report.wall_time_s > 0
    doc = json.loads(report.to_json())
    assert len(doc["epochs"]) == 2
    assert all(np.isfinite(list(e.values())).all() for e in doc["epochs"])
    # each epoch's keys are LossBreakdown's fields in order, its floats round-trip
    assert [LossBreakdown(**epoch) for epoch in doc["epochs"]] == report.epoch_losses
    assert [list(epoch) for epoch in doc["epochs"]] == [[f.name for f in fields(LossBreakdown)]] * 2


def test_train_rejects_degenerate_inputs():
    single_env = EnvironmentSet(3, (InterventionRegime((0, 1), (1.0, 1.0)),))
    ds = generate(
        chain_example_scm(), single_env, MixingMatrix(CHAIN_MIX), 1_000, rng_seed=0
    )
    with pytest.raises(ValueError, match="at least 2 environments"):
        train(train_covariances(ds), ds.n_train, TrainConfig(seed=0))


@pytest.mark.parametrize(
    "covs,n_rows,match",
    [
        (np.eye(3), 100, r"\(E, d, d\) stack"),
        (np.ones((2, 2, 3, 3)), 100, r"\(E, d, d\) stack"),
        (np.ones((3, 3, 4)), 100, "square"),
        (np.ones((3, 4, 3)), 100, "square"),
        (np.eye(3)[None], 100, "at least 2 environments"),
        (np.empty((0, 3, 3)), 100, "at least 2 environments"),
        (np.stack([np.eye(3)] * 3), 1, "n_rows must be >= 2"),
        (np.stack([np.eye(3)] * 3), 0, "n_rows must be >= 2"),
        (np.stack([np.eye(3)] * 3), 2.5, "n_rows must be an integer"),
        (np.stack([np.eye(3)] * 3), float("nan"), "n_rows must be an integer"),
        (np.stack([np.eye(3)] * 3), True, "n_rows must be an integer"),
        (np.stack([np.eye(3)] * 3), "100", "n_rows must be an integer"),
        (np.stack([np.eye(3), np.full((3, 3), np.nan)]), 100, "covs must be finite"),
        (np.stack([np.eye(3), np.eye(3) + np.triu(np.ones((3, 3)), 1)]), 100, "symmetric"),
        (-np.stack([np.eye(3)] * 3), 100, "positive semi-definite"),
        (np.zeros((2, 0, 0)), 100, r"square, d >= 1, .* shape \(2, 0, 0\)"),
    ],
    ids=["2-d", "4-d", "wide", "tall", "one-env", "no-env", "one-row", "no-rows",
         "float-rows", "nan-rows", "bool-rows", "str-rows", "non-finite", "asymmetric",
         "negative-definite", "empty-d"],
)
def test_train_rejects_malformed_stacks_before_the_first_step(monkeypatch, covs, n_rows, match):
    def no_step(*args):
        raise AssertionError("train evaluated the objective on input it should have rejected")

    monkeypatch.setattr(unmixing, "objective", no_step)
    with pytest.raises(ValueError, match=match):
        train(covs, n_rows, TrainConfig(seed=0))


@settings(max_examples=50, deadline=None)
@given(_problems(), st.integers(2, 10_000))
def test_train_accepts_every_row_built_stack(problem, n_rows):
    # the eigenvalues of rank-deficient and constant-batch covariances round
    # a little below zero; the stack check must take them as covariances
    batches, lhat = problem
    model, _ = train(covariances(batches), n_rows, TrainConfig(epochs=1))
    assert np.isfinite(model.lhat).all()


@pytest.mark.parametrize("epochs,batch_size", [(1, 4096), (3, 300)])
def test_train_evaluates_the_objective_once_per_step_plus_the_gradient_check(
    monkeypatch, epochs, batch_size
):
    calls = []

    def counting(covs, lhat):
        calls.append(1)
        return objective(covs, lhat)

    ds = _chain_dataset(n=1_000)
    monkeypatch.setattr(unmixing, "objective", counting)
    _, report = train(train_covariances(ds), ds.n_train, TrainConfig(epochs=epochs, batch_size=batch_size))
    # each L-BFGS-B evaluation once, and the three directions of the start's
    # gradient check, each evaluated on both sides
    assert len(calls) == report.n_evals + 6


def test_train_caps_its_iterations_at_the_epochs_steps():
    ds = _chain_dataset(n=1_000)
    covs = train_covariances(ds)
    # 3 steps per epoch; 6 iterations do not reach the minimum, 300 do
    _, capped = train(covs, ds.n_train, TrainConfig(epochs=2, batch_size=300, seed=0))
    assert (capped.n_iter, capped.converged) == (6, False)
    assert capped.n_evals >= capped.n_iter
    _, free = train(covs, ds.n_train, TrainConfig(epochs=100, batch_size=300, seed=0))
    assert free.converged and free.n_iter < 300
    doc = json.loads(free.to_json())
    assert (doc["converged"], doc["n_iter"], doc["n_evals"]) == (True, free.n_iter, free.n_evals)


def _spy_on_accepted_iterates(monkeypatch, calls):
    """The list that train's L-BFGS-B fills with (point, len(calls)) at each
    iterate it accepts, and then with SciPy's result."""
    accepted = []

    def spying(fun, x0, callback, **kwargs):
        def accept(x):
            accepted.append((x.copy(), len(calls)))
            callback(x)

        result = minimize(fun, x0, callback=accept, **kwargs)
        accepted.append(result)
        return result

    monkeypatch.setattr(unmixing, "minimize", spying)
    return accepted


def test_train_reports_each_block_of_accepted_iterates(monkeypatch):
    ds = _chain_dataset(n=1_000)
    covs = train_covariances(ds)
    config = TrainConfig(epochs=100, batch_size=300, seed=0)  # 3 steps per epoch
    spied = _spy_on_accepted_iterates(monkeypatch, [])
    model, report = train(covs, ds.n_train, config)
    *accepted, result = spied
    assert (report.converged, report.n_iter, report.n_evals) == (result.success, result.nit, result.nfev)
    assert report.converged and report.n_iter == len(accepted) and report.n_iter % 3 != 0
    assert len(report.epoch_losses) == len(report.grad_norms) == _blocks(report, ds.n_train, config)
    points = [x.reshape(3, 3) for x, _ in accepted]
    assert np.array_equal(points[-1], model.lhat)
    for k, (mean, norm) in enumerate(zip(report.epoch_losses, report.grad_norms)):
        block = [objective(covs, lhat) for lhat in points[3 * k : 3 * k + 3]]
        terms = np.mean([list(asdict(breakdown).values()) for breakdown, _, _ in block], axis=0)
        assert np.allclose(list(asdict(mean).values()), terms, rtol=1e-12, atol=0.0)
        assert norm == float(np.linalg.norm(block[-1][1]))


def test_a_run_that_accepts_no_iterate_reports_its_start(monkeypatch):
    ds = _chain_dataset(n=1_000)
    covs = train_covariances(ds)

    def no_iterate(fun, x0, callback, **kwargs):
        fun(x0)
        return OptimizeResult(x=x0, success=True)

    monkeypatch.setattr(unmixing, "minimize", no_iterate)
    model, report = train(covs, ds.n_train, TrainConfig(seed=2))
    breakdown, grad, _ = objective(covs, unmixing._initial_lhat(3, 2))
    assert (report.n_iter, report.n_evals, report.converged) == (0, 1, True)
    assert report.epoch_losses == [breakdown]
    assert report.grad_norms == [float(np.linalg.norm(grad))]


def _halt_after(monkeypatch, n_iter):
    """Make train's L-BFGS-B stop once it has accepted n_iter iterates, as a
    finished run: a callback that raises StopIteration ends SciPy's minimize."""

    def halting(fun, x0, callback, **kwargs):
        seen = []

        def accept(x):
            callback(x)
            seen.append(x)
            if len(seen) == n_iter:
                raise StopIteration

        return minimize(fun, x0, callback=accept, **kwargs)

    monkeypatch.setattr(unmixing, "minimize", halting)


def test_a_numerical_error_mid_run_aborts_at_the_iterations_done(monkeypatch):
    ds = _chain_dataset(n=1_000)
    covs = train_covariances(ds)
    config = TrainConfig(epochs=5, batch_size=300, seed=0)  # 3 steps per epoch
    calls, fail_at = [], []

    def failing(covs, lhat):
        calls.append(1)
        if [len(calls)] == fail_at:
            raise unmixing.NumericalError("injected")
        return objective(covs, lhat)

    monkeypatch.setattr(unmixing, "objective", failing)
    accepted = _spy_on_accepted_iterates(monkeypatch, calls)
    _, clean = train(covs, ds.n_train, config)
    # the first evaluation after the fifth accepted iterate
    fail_at.append(accepted[4][1] + 1)
    calls.clear()
    with pytest.raises(TrainingAborted) as err:
        train(covs, ds.n_train, config)
    assert str(err.value) == "aborted after 5 iterations: injected"
    partial = err.value.report
    assert partial.n_iter == 5 and not partial.converged and partial.wall_time_s > 0
    # the blocks a finished run records over the same five accepted iterates:
    # one full epoch, the clean run's first, and a short one of two
    fail_at.clear()
    _halt_after(monkeypatch, 5)
    _, finished = train(covs, ds.n_train, config)
    assert (finished.n_iter, finished.converged) == (5, False)
    assert partial.epoch_losses == finished.epoch_losses and len(partial.epoch_losses) == 2
    assert partial.grad_norms == finished.grad_norms
    assert partial.epoch_losses[0] == clean.epoch_losses[0] != partial.epoch_losses[1]


def test_train_takes_one_step_per_epoch_from_any_batch_size_past_the_train_rows():
    # training is full-batch: batch_size only sets ceil(n_rows / batch_size) steps
    ds = _chain_dataset(n=1_000)
    covs = train_covariances(ds)
    whole, report_whole = train(covs, ds.n_train, TrainConfig(epochs=3, batch_size=ds.n_train, seed=0))
    huge, report_huge = train(covs, ds.n_train, TrainConfig(epochs=3, batch_size=10**6, seed=0))
    assert np.array_equal(whole.lhat, huge.lhat)
    assert report_whole.epoch_losses == report_huge.epoch_losses


def test_train_records_each_epochs_last_gradient_norm():
    ds = _chain_dataset(n=1_000)
    covs = train_covariances(ds)
    config = TrainConfig(epochs=1, batch_size=ds.n_train, seed=3)
    model, report = train(covs, ds.n_train, config)
    last = objective(covs, model.lhat)[1]  # one step per epoch: the last accepted iterate
    assert report.n_iter == 1
    assert report.grad_norms == [float(np.linalg.norm(last))]
    _, report = train(covs, ds.n_train, TrainConfig(epochs=4, batch_size=300, seed=3))
    assert json.loads(report.to_json())["grad_norms"] == report.grad_norms
    assert len(report.grad_norms) == 4


def test_grad_check_diagnostic_leaves_training_unchanged(monkeypatch):
    ds = _chain_dataset(n=2_000, seed=4)
    covs = train_covariances(ds)
    config = TrainConfig(epochs=3, batch_size=500, seed=7)
    checked, report = train(covs, ds.n_train, config)
    assert report.grad_check_rel_err < 1e-4
    monkeypatch.setattr(unmixing, "_directional_grad_check", lambda *args: float("nan"))
    unchecked, report = train(covs, ds.n_train, config)
    assert np.isnan(report.grad_check_rel_err)
    assert np.array_equal(checked.lhat, unchecked.lhat)


def test_training_aborted_carries_partial_report(monkeypatch):
    ds = _chain_dataset(n=2_000, seed=3)
    # a weight this large overflows the objective at the first evaluation
    monkeypatch.setattr(unmixing, "LAMBDA_DIAG", 1e308)
    config = TrainConfig(epochs=5, batch_size=500, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingAborted) as err:
        train(train_covariances(ds), ds.n_train, config)
    assert str(err.value).startswith("aborted after 0 iterations: ") and "total=inf" in str(err.value)
    # the start's own evaluation failed, so no breakdown exists to record
    partial = err.value.report
    assert (partial.n_iter, partial.n_evals) == (0, 0)
    assert partial.epoch_losses == [] and partial.wall_time_s > 0


def test_a_failing_gradient_check_aborts_training_like_a_failing_step(monkeypatch):
    ds = _chain_dataset(n=2_000, seed=3)

    def injected(*args):
        raise unmixing.NumericalError("injected")

    # the steps call objective too, so the failure enters through the check alone
    monkeypatch.setattr(unmixing, "_directional_grad_check", injected)
    covs = train_covariances(ds)
    with pytest.raises(TrainingAborted) as err:
        train(covs, ds.n_train, TrainConfig(epochs=5, batch_size=500, seed=0))
    assert str(err.value) == "aborted after 0 iterations: injected"
    partial = err.value.report
    assert partial.n_iter == 0 and partial.wall_time_s > 0
    assert np.isnan(partial.grad_check_rel_err)
    # as in a finished run that accepts no iterate, the one epoch is the start
    breakdown, grad, _ = objective(covs, unmixing._initial_lhat(3, 0))
    assert partial.epoch_losses == [breakdown]
    assert partial.grad_norms == [float(np.linalg.norm(grad))]


# ---------------------------------------------------------------- model/config types


def test_model_initialize_is_bounded_and_deterministic():
    a = unmixing._initial_lhat(4, seed=5)
    assert a.shape == (4, 4)
    assert np.abs(a).max() <= 0.5  # 1/sqrt(4)
    assert np.array_equal(a, unmixing._initial_lhat(4, seed=5))
    assert UnmixingModel(a).d == 4


def test_model_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="finite"):
        UnmixingModel(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError, match="2-d"):
        UnmixingModel(np.zeros(3))
    with pytest.raises(ValueError, match="square"):
        UnmixingModel(np.zeros((4, 3)))


def test_loss_weights_and_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        TrainConfig(seed=-1)
    # a float or bool count would pass the range checks and fail later, in range()
    for bad in (dict(epochs=float("nan")), dict(epochs=2.5), dict(epochs=True),
                dict(batch_size=2.5), dict(batch_size=float("inf")), dict(seed=1.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            TrainConfig(**bad)
    assert TrainConfig(epochs=np.int64(2), batch_size=np.int64(8)).epochs == 2
    defaults = TrainConfig(seed=0)
    assert (defaults.epochs, defaults.batch_size) == (50, 4096)
    assert [f.name for f in fields(TrainConfig)] == ["epochs", "batch_size", "seed"]
    assert (LAMBDA_E, LAMBDA_M, LAMBDA_DIAG, LAMBDA_NORM) == (1.0, 1.0, 10.0, 5.0)
    assert NORM_TARGET == 1.0


# ---------------------------------------------------------------- checkpoints

# float64 values whose JSON text is easy to get wrong: signed zero, the smallest
# subnormal and normal magnitudes, and the largest finite magnitudes
_EDGE_FLOATS = (-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308)


@st.composite
def _square_matrices(draw):
    d = draw(st.integers(1, 8))
    elements = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
    return np.array(draw(st.lists(st.lists(elements, min_size=d, max_size=d), min_size=d, max_size=d)))


@settings(max_examples=200, deadline=None)
@given(_square_matrices())
@example(np.array([[-0.0, 5e-324], [1e308, -1.7976931348623157e308]]))
def test_checkpoint_round_trip(lhat):
    # the document train writes: JSON's shortest float repr parses back to the
    # same bits, and from_dict reads lhat alone, not the config beside it
    doc = {"config": vars(TrainConfig(seed=9)), **UnmixingModel(lhat).to_dict()}
    loaded = UnmixingModel.from_dict(json.loads(json.dumps(doc)))
    assert loaded.lhat.dtype == np.float64 and loaded.lhat.tobytes() == lhat.tobytes()


def test_checkpoint_loads_a_header_with_keys_it_does_not_use(tmp_path):
    # a checkpoint document carrying keys from_dict does not read, such as the
    # fields of the binary header it replaced, loads from its lhat alone
    lhat = np.arange(9.0).reshape(3, 3)
    path = tmp_path / "old.json"
    doc = {"config": None, "d": 3, "epoch": 50, "init_seed": 9, "m": 3, "lhat": lhat.tolist()}
    path.write_text(json.dumps(doc))
    assert np.array_equal(read_json(path, UnmixingModel.from_dict).lhat, lhat)


@pytest.mark.parametrize(
    "doc,match",
    [
        ([[1.0]], "not a JSON object"),
        ({"config": {}}, "'lhat'"),
        ({"lhat": [[1.0, 0.0], [0.0]]}, ""),  # NumPy's message for a ragged list
        ({"lhat": [[True]]}, "lhat entry must be a real number, got True"),
        ({"lhat": [["1.0"]]}, "lhat entry must be a real number, got '1.0'"),
        ({"lhat": [[10**400]]}, "lhat entry is too large for a float"),
        ({"lhat": [[float("nan")]]}, "lhat must be finite"),
        ({"lhat": [[1.0, 0.0]]}, r"lhat must be square, got shape \(1, 2\)"),
        ({"lhat": []}, "lhat must be a 2-d matrix"),
        ({"lhat": [1.0, 0.0]}, "not iterable"),  # 1-d: each row is a number
    ],
    ids=["json-list", "no-lhat", "ragged", "bool", "string", "huge-integer", "nan", "non-square", "empty", "1-d"],
)
def test_checkpoint_rejects_malformed_documents(doc, match):
    with pytest.raises(ValueError, match=f"^malformed checkpoint: .*{match}"):
        UnmixingModel.from_dict(json.loads(json.dumps(doc)))


def test_checkpoint_rejects_corruption(tmp_path):
    # a truncated document, and a checkpoint in the binary format the JSON document replaced
    path = tmp_path / "checkpoint.json"
    text = json.dumps(UnmixingModel(np.eye(3)).to_dict())
    for raw in (text[:-8].encode(), b'{"config": null, "d": 3}\n' + np.eye(3).tobytes()):
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            read_json(path, UnmixingModel.from_dict)

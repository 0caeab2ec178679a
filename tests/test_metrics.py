import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from varsparse.data import MixingMatrix, zero_variance

from varsparse.metrics import (
    DisentanglementReport,
    MccResult,
    disentanglement_check,
    mcc,
    mcc_between,
    moments_pearson,
    pearson,
    pooled_moments,
)

CHAIN_MIX = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])


# ---------------------------------------------------------------- pearson


def test_pearson_self_correlation_is_identity_diagonal():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(500, 4))
    c = pearson(x, x)
    assert np.allclose(np.diag(c), 1.0, atol=1e-12)


def test_pearson_is_scale_and_sign_invariant():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(300, 3))
    c = pearson(x, -2.0 * x)
    assert np.allclose(np.diag(c), -1.0, atol=1e-12)


def test_pearson_independent_columns_nearly_uncorrelated():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(100_000, 1))
    y = rng.normal(size=(100_000, 1))
    assert abs(pearson(x, y)[0, 0]) < 0.02


def test_pearson_matches_numpy_corrcoef():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(size=(50, 3))
        y = rng.normal(size=(50, 4))
        c = pearson(x, y)
        full = np.corrcoef(x, y, rowvar=False)
        assert np.allclose(c, full[:3, 3:], atol=1e-12)


def test_pearson_masks_zero_variance_columns():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(100, 3))
    y = x.copy()
    y[:, 1] = 7.0  # constant learned dimension
    c = pearson(x, y)
    assert np.array_equal(c[:, 1], np.zeros(3))
    assert c[0, 0] == pytest.approx(1.0)


def test_pearson_entries_bounded_on_random_data():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(size=(20, 5))
        y = x @ rng.normal(size=(5, 5)) + 0.01 * rng.normal(size=(20, 5))
        assert np.abs(pearson(x, y)).max() <= 1.0 + 1e-12


def test_pearson_rejects_bad_shapes():
    with pytest.raises(ValueError, match="at least 2 rows"):
        pearson(np.ones((1, 2)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="row counts"):
        pearson(np.ones((3, 2)), np.ones((4, 2)))
    with pytest.raises(ValueError, match="2-d"):
        pearson(np.ones(3), np.ones(3))


@st.composite
def _sample_pairs(draw):
    """Two sample matrices mixing constant, jittered-constant, ordinary and
    large-offset columns.

    Every column sits far from the zero-variance threshold: constants have
    variance 0, jittered constants 1e-18 times their mean square (but above
    EPS_VAR in absolute terms), the others at least 1e-6 times it.
    """
    n = draw(st.integers(3, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def column(kind):
        if kind == "constant":
            return np.full(n, draw(st.sampled_from([0.0, 1.0, -3.5, 7e5])))
        noise = rng.normal(size=n)
        noise = (noise - noise.mean()) / noise.std()  # variance exactly ~1
        if kind == "jitter":
            return 1e-3 * noise + draw(st.sampled_from([1e6, -3e7]))
        if kind == "ordinary":
            return draw(st.floats(0.1, 10.0)) * noise + draw(st.floats(-5.0, 5.0))
        offset = draw(st.sampled_from([1e3, -1e4, 1e5]))
        return 1e-3 * abs(offset) * noise + offset  # variance 1e-6 * offset^2

    kinds = st.sampled_from(["constant", "jitter", "ordinary", "offset"])
    x = np.column_stack([column(k) for k in draw(st.lists(kinds, min_size=1, max_size=4))])
    y = np.column_stack([column(k) for k in draw(st.lists(kinds, min_size=1, max_size=4))])
    return x, y


@settings(max_examples=200, deadline=None)
@given(_sample_pairs())
def test_pearson_zeroes_exactly_the_zero_variance_columns(pair):
    x, y = pair
    x_dead = np.array([zero_variance(c.mean(), c.var()) for c in x.T])
    y_dead = np.array([zero_variance(c.mean(), c.var()) for c in y.T])
    # a column's self-correlation is 1 if it is live and 0 if it is zeroed
    assert np.allclose(np.diag(pearson(x, x)), np.where(x_dead, 0.0, 1.0), rtol=0, atol=1e-12)
    assert np.allclose(np.diag(pearson(y, y)), np.where(y_dead, 0.0, 1.0), rtol=0, atol=1e-12)
    c = pearson(x, y)
    assert (c[x_dead, :] == 0.0).all() and (c[:, y_dead] == 0.0).all()
    live_x, live_y = np.flatnonzero(~x_dead), np.flatnonzero(~y_dead)
    if live_x.size and live_y.size:
        full = np.corrcoef(x[:, live_x], y[:, live_y], rowvar=False)[: live_x.size, live_x.size :]
        assert np.allclose(c[np.ix_(live_x, live_y)], full, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- moments form


def test_pooled_moments_match_the_stacked_rows():
    rng = np.random.default_rng(11)
    blocks = [rng.normal(size=(n, 5)) + rng.normal(size=5) * 4 - 7.0 for n in (5, 40, 13)]
    mixing = rng.normal(size=(5, 4))
    moments = pooled_moments(blocks, mixing)
    rows = np.vstack(blocks)
    assert np.array_equal(moments.mixing, mixing)
    assert np.allclose(moments.mean, rows.mean(axis=0), rtol=0, atol=1e-12)
    assert np.allclose(moments.cov, np.cov(rows, rowvar=False, bias=True), rtol=0, atol=1e-12)


def test_pooled_moments_reject_mismatched_blocks():
    with pytest.raises(ValueError, match="at least 2 rows"):
        pooled_moments([np.ones((1, 2))], np.eye(2))
    with pytest.raises(ValueError, match=r"block 0 must be 2-d with at least 1 row, got shape \(2, 3, 2\)"):
        pooled_moments([(np.ones((3, 2)), np.ones((3, 2)))], np.eye(4))
    with pytest.raises(ValueError, match="2-d with at least 1 row"):
        pooled_moments([np.ones(3)], np.eye(3))
    with pytest.raises(ValueError, match="2-d with at least 1 row"):
        pooled_moments([np.ones((3, 2)), np.ones((0, 2))], np.eye(2))
    with pytest.raises(ValueError, match="block 1 has 3 columns, block 0 has 2"):
        pooled_moments([np.ones((3, 2)), np.ones((3, 3))], np.eye(2))
    with pytest.raises(ValueError, match=r"blocks have 3 columns, the mixing shape \(3,\)"):
        pooled_moments([np.eye(3)], np.ones(3))
    with pytest.raises(ValueError, match=r"blocks have 3 columns, the mixing shape \(2, 3\)"):
        pooled_moments([np.eye(3)], np.ones((2, 3)))
    with pytest.raises(ValueError, match="rows"):
        moments_pearson(pooled_moments([np.eye(3)], np.eye(3)), np.eye(2), 0.0)


@st.composite
def _blocks_and_maps(draw):
    """(blocks, mixing, noise, unmixing, offset, constant, dead): 1-4 blocks
    of latents z of unequal sizes whose means shift like intervened
    environments, a mixing x = z @ mixing, noise of the stacked rows' shape,
    maybe a reference column constant over every row, maybe an all-zero
    column of the learned map, and a zero or nonzero offset."""
    d = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # with few rows per column every correlation is near +-1 and the best
    # permutation a tie, so the pooled rows number at least 4 d
    sizes = draw(st.lists(st.integers(2, 80), min_size=1, max_size=4).filter(lambda s: sum(s) >= 4 * d))
    mixing = rng.normal(size=(d, d))
    # at d = 2 a constant column leaves one live latent, which every learned
    # column of x = z @ mixing correlates with at +-1: the matching is a tie
    constant = draw(st.one_of(st.none(), st.integers(0, d - 1))) if d > 2 else None
    blocks = []
    for n in sizes:
        z = rng.normal(size=(n, d)) + rng.uniform(-5.0, 5.0, size=d)
        if constant is not None:
            z[:, constant] = 2.5
        blocks.append(z)
    noise = 0.1 * rng.normal(size=(sum(sizes), d))
    unmixing = rng.normal(size=(d, d))
    dead = draw(st.one_of(st.none(), st.integers(0, d - 1)))
    if dead is not None:
        unmixing[:, dead] = 0.0
    offset = draw(st.sampled_from(["zero", "vector"]))
    offset = 0.0 if offset == "zero" else rng.uniform(-10.0, 10.0, size=d)
    return blocks, mixing, noise, unmixing, offset, constant, dead


def _assert_pearson_of_rows(c, z, y, constant, dead):
    """c's live entries match the stacked rows' corrcoef, an independent
    reference; a constant reference column and an all-zero learned column
    are dead."""
    live_z = np.flatnonzero([not zero_variance(c.mean(), c.var()) for c in z.T])
    live_y = np.flatnonzero([not zero_variance(c.mean(), c.var()) for c in y.T])
    full = np.corrcoef(z[:, live_z], y[:, live_y], rowvar=False)[: live_z.size, live_z.size :]
    assert np.allclose(c[np.ix_(live_z, live_y)], full, rtol=0, atol=1e-12)
    if constant is not None:
        assert np.array_equal(c[constant], np.zeros(len(c)))
    if dead is not None:
        assert np.array_equal(c[:, dead], np.zeros(len(c)))


@settings(max_examples=300, deadline=None)
@given(_blocks_and_maps())
def test_moments_mcc_matches_the_row_mcc(problem):
    blocks, mixing, noise, unmixing, offset, constant, dead = problem
    z = np.vstack(blocks)
    y = (z @ mixing - offset) @ unmixing
    rows = mcc_between(z, y)
    moments = mcc_between(pooled_moments(blocks, mixing), (unmixing, offset))
    assert abs(moments.score - rows.score) <= 1e-12
    assert moments.permutation == rows.permutation
    c = moments_pearson(pooled_moments(blocks, mixing), unmixing, offset)
    assert np.allclose(c, pearson(z, y), rtol=0, atol=1e-12)
    _assert_pearson_of_rows(c, z, y, constant, dead)
    # an arbitrary pair of sample matrices, where y is no map of z, through pearson
    y = (z @ mixing + noise - offset) @ unmixing
    _assert_pearson_of_rows(pearson(z, y), z, y, constant, dead)


def _reference_pooled_moments(blocks):
    """pooled_moments' mean and covariance as first written, with NumPy's
    column mean. The fast column mean must match it bit for bit."""
    counts, means, scatter = [], [], 0.0
    for rows in blocks:
        mean = rows.mean(axis=0)
        centred = rows - mean
        scatter = scatter + centred.T @ centred
        counts.append(len(rows))
        means.append(mean)
    n = sum(counts)
    block_means = np.array(means)
    mean = np.array(counts) @ block_means / n
    spread = block_means - mean
    return mean, (scatter + (spread.T * counts) @ spread) / n


@settings(max_examples=200, deadline=None)
@given(_blocks_and_maps())
def test_pooled_moments_match_the_reference_formulation_bit_for_bit(problem):
    blocks, mixing = problem[:2]
    moments = pooled_moments(blocks, mixing)
    mean, cov = _reference_pooled_moments(blocks)
    assert np.array_equal(moments.mean, mean) and np.array_equal(moments.cov, cov)


def test_moments_mcc_matches_the_row_mcc_under_an_ill_conditioned_mixing():
    # singular values from 100 down to 100 / 9e5, just inside MixingMatrix's
    # condition bound; y is scored from z's moments through the mixing and,
    # independently, by corrcoef of the stacked rows plus an exact assignment
    d = 5
    rng = np.random.default_rng(29)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)))
    v, _ = np.linalg.qr(rng.normal(size=(d, d)))
    mixing = MixingMatrix(u @ np.diag(np.geomspace(100.0, 100.0 / 9e5, d)) @ v.T).entries
    assert 8e5 < np.linalg.cond(mixing) < 1e6
    blocks = [rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, size=d) + rng.uniform(-5.0, 5.0, size=d)
              for n in (400, 700, 300)]
    z = np.vstack(blocks)
    moments = pooled_moments(blocks, mixing)
    for unmixing, offset in [
        (np.linalg.inv(mixing), 0.0),
        (rng.normal(size=(d, d)), rng.uniform(-10.0, 10.0, size=d)),
    ]:
        y = (z @ mixing - offset) @ unmixing
        c = np.abs(np.corrcoef(z, y, rowvar=False)[:d, d:])
        rows, cols = linear_sum_assignment(-c)
        assert abs(mcc_between(moments, (unmixing, offset)).score - c[rows, cols].mean()) <= 1e-12


# ---------------------------------------------------------------- mcc


def _brute_force_mcc(weights):
    d = weights.shape[0]
    best = -1.0
    for perm in itertools.permutations(range(d)):
        score = np.mean([weights[j, perm[j]] for j in range(d)])
        best = max(best, score)
    return best


def test_mcc_identity_matrix():
    out = mcc(np.eye(4))
    assert out.score == pytest.approx(1.0)
    assert out.permutation == (0, 1, 2, 3)


def test_mcc_recovers_signed_permutation():
    perm = np.array([2, 0, 1])
    c = np.zeros((3, 3))
    for j, p in enumerate(perm):
        c[j, p] = -1.0 if j % 2 else 1.0
    out = mcc(c)
    assert out.score == pytest.approx(1.0)
    assert out.permutation == tuple(perm)
    assert out.pair_correlations == (1.0, 1.0, 1.0)


def test_mcc_equals_brute_force_for_all_small_dims():
    rng = np.random.default_rng(6)
    for d in range(1, 7):
        for _ in range(100):
            weights = rng.uniform(0, 1, size=(d, d))
            out = mcc(weights)
            assert out.score == pytest.approx(_brute_force_mcc(weights), abs=1e-12)
            assert sorted(out.permutation) == list(range(d))


def test_mcc_constant_matrix_scores_the_constant():
    out = mcc(np.full((4, 4), 0.3))
    assert out.score == pytest.approx(0.3)


def test_mcc_score_stays_in_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(50):
        c = rng.uniform(-1, 1, size=(5, 5))
        assert 0.0 <= mcc(c).score <= 1.0


def test_mcc_invariant_under_column_permutation_and_rescaling():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2_000, 4))
    learned = x @ rng.normal(size=(4, 4))
    base = mcc_between(x, learned)
    perm = rng.permutation(4)
    scales = rng.uniform(0.5, 3.0, size=4) * rng.choice([-1.0, 1.0], size=4)
    shuffled = learned[:, perm] * scales
    moved = mcc_between(x, shuffled)
    assert moved.score == pytest.approx(base.score, abs=1e-10)
    # matched pairs follow the shuffle: new column position of old match
    inverse = np.argsort(perm)
    assert moved.permutation == tuple(int(inverse[j]) for j in base.permutation)


def test_mcc_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        mcc(np.zeros((2, 3)))


def test_mcc_result_is_plain_data():
    out = mcc(np.eye(2))
    assert isinstance(out, MccResult)
    assert isinstance(out.permutation, tuple)
    assert isinstance(out.pair_correlations, tuple)


# ---------------------------------------------------------------- structural check


def test_check_passes_scaled_identity():
    report = disentanglement_check(np.diag([2.0, -1.0, 0.5]))
    assert report.passed
    assert report.violating_columns == ()


def test_check_fails_dense_mixing_matrix():
    report = disentanglement_check(CHAIN_MIX)
    assert not report.passed
    assert len(report.violating_columns) == 3


def test_check_passes_random_scaled_permutations():
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        perm = np.eye(d)[rng.permutation(d)]
        scales = np.diag(rng.uniform(0.2, 5.0, size=d) * rng.choice([-1.0, 1.0], size=d))
        assert disentanglement_check(perm @ scales).passed


def test_check_tolerates_noise_below_threshold_only():
    base = np.diag([1.0, 1.0, 1.0])
    # the threshold is 1e-2 of the largest entry
    report = disentanglement_check(base + 5e-3)
    assert report.passed
    report = disentanglement_check(base + 5e-2)
    assert not report.passed


def test_check_requires_row_coverage():
    # each column keeps one survivor but both land on row 0
    doubled_row = np.array([[1.0, 1.0], [0.0, 0.0]])
    report = disentanglement_check(doubled_row)
    assert not report.passed
    assert report.violating_columns == ()


def test_check_rejects_bad_matrices():
    with pytest.raises(ValueError, match="square"):
        disentanglement_check(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        disentanglement_check(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_check_report_renders():
    report = disentanglement_check(np.eye(2))
    assert isinstance(report, DisentanglementReport)
    assert "pass" in str(report)

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import varsparse.ica as ica
from varsparse.experiments import ExperimentConfig, make_dataset
from varsparse.ica import (
    _CHUNK,
    IcaModel,
    IcaRankError,
    _anderson,
    _symmetric_decorrelate,
    fit_fastica,
)
from varsparse.metrics import mcc_between


def _components(model, x):
    return ((x - model.mean) @ model.whitening) @ model.rotation.T


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
    assert mcc_between(sources, _components(model, mixed)).score >= 0.95


def test_whitening_of_already_white_data_is_nearly_orthogonal():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=(100_000, 3)) * np.sqrt(3.0)  # unit variance
    model = fit_fastica([x], d=3, seed=0)
    gram = model.whitening.T @ model.whitening
    assert np.abs(gram - np.eye(3)).max() < 0.05


def test_components_are_uncorrelated_with_unit_variance():
    _, mixed = _mixed_uniforms(seed=3, d=3)
    model = fit_fastica([mixed], d=3, seed=0)
    comp = _components(model, mixed)
    cov = np.cov(comp, rowvar=False, bias=True)
    assert np.allclose(np.diag(cov), 1.0, atol=1e-9)
    off = cov[~np.eye(3, dtype=bool)]
    assert np.abs(off).max() < 1e-3


def test_round_trip_reconstruction_when_square():
    _, mixed = _mixed_uniforms(seed=5, d=3, n=20_000)
    model = fit_fastica([mixed], d=3, seed=0)
    comp = _components(model, mixed)
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
    plain = _components(fit_fastica([mixed], d=2, seed=0), mixed)
    rescaled = _components(fit_fastica([scaled], d=2, seed=0), scaled)
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
    rotation, n_iter, converged, _ = _reference_iteration(xw, seed, max_iter, coarse)
    assert model.n_iter == n_iter
    assert model.converged == converged
    assert np.abs(model.rotation - rotation).max() < _SWEEP_TOL


def _reference_iteration(xw, seed, max_iter, coarse=False, accelerate=True):
    """The unchunked fixed-point loop in float64: full n x d temporaries every step.

    With coarse, steps sweep every _COARSE-th row until a drift falls below
    _COARSE_TOL, then all rows. Once a drift falls below _COARSE_TOL, each
    step with accelerate is the _anderson mix of the last _DEPTH + 1 (rotation,
    sign-aligned update) pairs, forgotten whenever a drift does not fall.
    Returns the rotation, the steps, whether it converged and every drift.
    """
    w = _random_rotation(xw.shape[1], seed)  # fit_fastica's initial draw
    x = xw[:: ica._COARSE] if coarse else xw
    pairs, drifts = None, []
    for iterations in range(1, max_iter + 1):
        g = np.tanh(x @ w.T)
        update = (g.T @ x) / len(x) - np.diag(np.mean(1.0 - g * g, axis=0)) @ w
        update = _symmetric_decorrelate(update)
        cos = np.sum(update * w, axis=1)
        drifts.append(np.max(np.abs(np.abs(cos) - 1.0)))
        if x is xw and drifts[-1] < ica._TOL:
            return update, iterations, True, drifts
        if pairs is not None:
            if drifts[-1] >= drifts[-2]:
                pairs = []
            pairs = (pairs + [(w, np.sign(cos)[:, None] * update)])[-ica._DEPTH - 1 :]
            update = _anderson(pairs)
        elif drifts[-1] < ica._COARSE_TOL:
            x = xw
            pairs = [] if accelerate else None
        w = update
    return w, max_iter, False, drifts


def _random_rotation(d, seed):
    return _symmetric_decorrelate(np.random.default_rng(seed).normal(size=(d, d)))


def test_anderson_with_one_pair_returns_the_update():
    w, update = _random_rotation(3, 0), _random_rotation(3, 1)
    assert _anderson([(w, update)]) is update


def test_anderson_solves_an_affine_contraction_from_two_pairs():
    fixed = _random_rotation(4, 2)

    def contraction(w):
        return fixed + 0.8 * (w - fixed)

    w0 = _random_rotation(4, 3)
    w1 = contraction(w0)
    mixed = _anderson([(w0, w1), (w1, contraction(w1))])
    assert np.abs(mixed - fixed).max() < 1e-12


@pytest.mark.parametrize(
    "first, update",
    [
        ([[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]),  # the mix is this rank-1 matrix
        ([[0.0, -1e308], [0.0, 0.0]], [[1.0, 1e308], [0.0, 1.0]]),  # update - first overflows
    ],
)
def test_anderson_falls_back_to_the_update_on_a_singular_or_non_finite_mix(first, update):
    # residuals 0 and e00 give gamma = 1, so the mix is update - (update - first);
    # warnings are errors, so this also shows that no divide or overflow warning escapes
    first, update = np.array(first), np.array(update)
    pairs = [(first, first), (update - np.diag([1.0, 0.0]), update)]
    assert _anderson(pairs) is update


def test_a_step_whose_drift_does_not_fall_clears_the_history(monkeypatch):
    x, seed = _accelerated_fit()
    sizes = []

    def turn_the_second_mix(pairs):
        sizes.append(len(pairs))
        mixed = _anderson(pairs)
        if len(sizes) == 2:  # half a radian off: the next plain step moves far more
            c, s = np.cos(0.5), np.sin(0.5)
            turn = np.eye(len(mixed))
            turn[:2, :2] = [[c, -s], [s, c]]
            mixed = turn @ mixed
        return mixed

    monkeypatch.setattr(ica, "_anderson", turn_the_second_mix)
    model = fit_fastica(x, d=4, seed=seed)
    assert model.converged
    assert sizes[:3] == [1, 2, 1]
    assert max(sizes) == ica._DEPTH + 1


def _accelerated_fit():
    """Pooled train rows and an init seed on which acceleration engages: n < the
    coarse gate, and the plain loop converges linearly from drift 7.6e-5 to 1e-6."""
    config = ExperimentConfig(d=4, p=0.5, n_per_env=20_000, seeds=(3,))
    dataset, _ = make_dataset(config, 3)
    return np.vstack([dataset.train_observed(e) for e in range(dataset.n_envs)]), 3


def test_acceleration_takes_fewer_steps_to_the_plain_loops_fixed_point():
    x, seed = _accelerated_fit()
    model = fit_fastica(x, d=4, seed=seed)
    _assert_matches_reference(model, x, seed, ica._MAX_ITER)
    xw = (x - model.mean) @ model.whitening
    plain, plain_steps, converged, drifts = _reference_iteration(xw, seed, ica._MAX_ITER, accelerate=False)
    assert converged
    assert model.n_iter < plain_steps
    # Both fits stop once a plain step turns each row by an angle s with
    # 1 - cos s < _TOL. Near the fixed point the plain map shrinks the angle to
    # it by rho = sqrt(q) per step, q the ratio of consecutive drifts, so the
    # returned step lies within rho s / (1 - rho) of it, and the two rows
    # within twice that: 1 - |cos| < 4 q _TOL / (1 - sqrt(q))^2.
    q = drifts[-1] / drifts[-2]
    assert 0 < q < 1
    gap = 1.0 - np.abs(np.sum(model.rotation * plain, axis=1))
    assert gap.max() < 4 * q * ica._TOL / (1 - np.sqrt(q)) ** 2


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

"""End-to-end acceptance run: nine criteria, one verdict line each.

Criteria 1-4 and 9 execute the full benchmark protocol (5 seeds, 50 epochs,
up to 2*10^5 rows per environment, d up to 30) and dominate the runtime.
Each criterion prints a single CRITERION k: PASS/FAIL line with the measured
numbers. The last test holds README's results table to the same means.
"""

import itertools
import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from varsparse._rng import derive_seed
from varsparse.data import MixingMatrix, generate, sample_mixing, zero_variance
from varsparse.envs import (
    EnvironmentSet,
    InterventionRegime,
    check_sufficient_coverage,
    coverage_from_supports,
    separating_design,
)
from varsparse.experiments import ExperimentConfig, run_cell, train_covariances
from varsparse.metrics import _STRUCTURE_TOL, disentanglement_check, mcc
from varsparse.scm import chain_example_scm, sample, sample_er_dag, sample_linear_scm
from varsparse.unmixing import (
    TrainConfig,
    _initial_lhat,
    covariances,
    loss_diag,
    loss_dim,
    loss_env,
    loss_norm,
    loss_var,
    objective,
    train,
)

SEEDS = (0, 1, 2, 3, 4)

CHAIN_MIX = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
CHAIN_ENVS = EnvironmentSet(
    3,
    (
        InterventionRegime((0, 1), (1.0, 1.0)),
        InterventionRegime((0, 2), (1.0, 2.0)),
        InterventionRegime((1, 2), (1.0, 3.0)),
    ),
)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_channel(capsys):
    # lets _verdict print outside pytest's capture, so every run logs the lines
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _verdict(criterion: int, passed: bool, detail: str) -> None:
    line = f"CRITERION {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert passed, line


@lru_cache(maxsize=None)
def _mean_mcc(method: str, scm: str, d: int, p: float, n: int, design: str = "leave-one-out") -> float:
    config = ExperimentConfig(d=d, p=p, n_per_env=n, scm=scm, design=design)
    scores = [run_cell("acceptance", config, seed, method).mcc for seed in SEEDS]
    assert all(np.isfinite(s) for s in scores), f"failed runs in {scm} d={d} p={p} n={n} {design}"
    return float(np.mean(scores))


def test_criterion_1_linear_defaults_reach_high_mcc():
    means = {d: _mean_mcc("ours", "linear", d, 0.5, 100_000) for d in (3, 6, 10)}
    detail = ", ".join(f"d={d}: {m:.4f}" for d, m in means.items()) + " (need >= 0.95 each)"
    _verdict(1, all(m >= 0.95 for m in means.values()), detail)


def test_criterion_1_linear_d30_reaches_floor():
    mean = _mean_mcc("ours", "linear", 30, 0.5, 100_000)
    _verdict(1, mean >= 0.90, f"d=30: {mean:.4f} (need >= 0.90)")


def test_criterion_2_density_sweep_and_ica_gap_at_independence():
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    means = {p: _mean_mcc("ours", "linear", 6, p, 100_000) for p in grid}
    ica_p0 = _mean_mcc("fastica", "linear", 6, 0.0, 100_000)
    gap = means[0.0] - ica_p0
    detail = (
        ", ".join(f"p={p}: {m:.4f}" for p, m in means.items())
        + f" (need >= 0.95); fastica at p=0: {ica_p0:.4f}, gap {gap:.4f} (need >= 0.1)"
    )
    _verdict(2, all(m >= 0.95 for m in means.values()) and gap >= 0.1, detail)


def test_criterion_3_nonlinear_mechanisms_within_reported_band():
    targets = {"nonlinear-1": 0.96, "nonlinear-2": 0.97}
    means = {kind: _mean_mcc("ours", kind, 6, 0.5, 100_000) for kind in targets}
    ok = all(means[k] >= 0.90 and abs(means[k] - t) <= 0.06 for k, t in targets.items())
    detail = ", ".join(
        f"{k}: {means[k]:.4f} (target {t} +/- 0.06, floor 0.90)" for k, t in targets.items()
    )
    _verdict(3, ok, detail)


def test_criterion_4_sample_size_sweep_saturates():
    grid = (10_000, 50_000, 100_000, 200_000)
    means = [_mean_mcc("ours", "linear", 6, 0.5, n) for n in grid]
    monotone = all(b >= a - 0.02 for a, b in zip(means, means[1:]))
    detail = (
        ", ".join(f"n={n}: {m:.4f}" for n, m in zip(grid, means))
        + " (nondecreasing within 0.02, last >= 0.98)"
    )
    _verdict(4, monotone and means[-1] >= 0.98, detail)


def test_criterion_5_mixing_never_kills_observational_variance():
    checked = 0
    for d in (3, 6, 10):
        for k in range(100):
            base = derive_seed(1000 + d, k)
            dag = sample_er_dag(d, 0.5, derive_seed(base, 0))
            scm = sample_linear_scm(dag, derive_seed(base, 1))
            mixing = sample_mixing(d, derive_seed(base, 2))
            z = sample(scm, 400, rng_seed=derive_seed(base, 3))
            x = z @ mixing.entries
            for j in range(d):
                c = x[:, j]
                assert not zero_variance(c.mean(), c.var()), f"d={d} trial {k} column {j}"
                checked += 1
    _verdict(5, True, f"{checked} mixed columns across 300 random instances, zero below threshold")


def _fd(fn, v, h=1e-5):
    g = np.zeros_like(v)
    for idx in np.ndindex(v.shape):
        vp, vm = v.copy(), v.copy()
        vp[idx] += h
        vm[idx] -= h
        g[idx] = (fn(vp) - fn(vm)) / (2 * h)
    return g


def _grad_gap(analytic, numeric):
    denom = max(float(np.linalg.norm(numeric)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / denom


def test_criterion_6_every_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    worst = 0.0
    for term in (loss_var, loss_env, loss_dim, loss_diag):
        for k in range(20):
            shape = [(4, 4), (6, 3), (3, 5)][k % 3]
            v = np.abs(rng.normal(size=shape)) + 0.05  # keep FD steps inside the valid domain
            worst = max(worst, _grad_gap(term(v)[1], _fd(lambda a: term(a)[0], v)))
    for k in range(20):
        lhat = _initial_lhat(3, seed=100 + k)
        fn = lambda flat: loss_norm(flat.reshape(3, 3))[0]
        worst = max(worst, _grad_gap(loss_norm(lhat)[1], _fd(fn, lhat.copy())))
    for k in range(20):
        covs = covariances([rng.normal(size=(30, 3)) @ rng.normal(size=(3, 3)) for _ in range(3)])
        lhat = _initial_lhat(3, seed=200 + k)
        fn = lambda flat: objective(covs, flat.reshape(3, 3))[0].total
        worst = max(worst, _grad_gap(objective(covs, lhat)[1], _fd(fn, lhat.copy())))
    _verdict(6, worst < 1e-4, f"worst relative error {worst:.3e} over 120 instances (need < 1e-4)")


def test_criterion_7_assignment_equals_brute_force():
    rng = np.random.default_rng(7)
    compared = 0
    for d in range(1, 7):
        for _ in range(100):
            c = rng.uniform(-1.0, 1.0, size=(d, d))
            fast = mcc(c).score
            a = np.abs(c)
            brute = max(
                float(np.mean(a[np.arange(d), list(perm)]))
                for perm in itertools.permutations(range(d))
            )
            assert fast == brute, f"d={d}: {fast!r} != {brute!r}"
            compared += 1
    _verdict(7, True, f"{compared} random matrices, optimizer == brute force exactly")


def _direct_coverage(d: int, support_masks: tuple[int, ...]) -> bool:
    # for every j: the union of supports avoiding j must hit all other coordinates
    full = (1 << d) - 1
    for j in range(d):
        union = 0
        for s in support_masks:
            if not (s >> j) & 1:
                union |= s
        if union != full & ~(1 << j):
            return False
    return True


def test_criterion_8_coverage_checker_exhaustive_and_separating_bound():
    collections = 0
    for d in range(1, 5):
        supports = list(range(1 << d))  # every subset of coordinates, as bitmasks
        for include in range(1 << len(supports)):
            masks = tuple(s for i, s in enumerate(supports) if (include >> i) & 1)
            sets = [frozenset(j for j in range(d) if (s >> j) & 1) for s in masks]
            assert coverage_from_supports(d, sets).passed == _direct_coverage(d, masks)
            collections += 1
    sizes_ok = True
    for d in range(2, 65):
        envs = separating_design(d, value_seed=0)
        report = check_sufficient_coverage(envs)
        bound = 2 * math.ceil(math.log2(d))
        sizes_ok = sizes_ok and report.passed and len(envs) <= bound
    _verdict(
        8,
        sizes_ok,
        f"exhaustive agreement on {collections} support collections (d<=4); "
        "separating designs pass within 2*ceil(log2 d) regimes for d in [2..64]",
    )


def test_criterion_9_trained_composition_is_scaled_permutation():
    assert _STRUCTURE_TOL == 1e-2  # the check's threshold, which this criterion fixes
    passes = 0
    for seed in SEEDS:
        dataset = generate(
            chain_example_scm(), CHAIN_ENVS, MixingMatrix(CHAIN_MIX), 100_000,
            rng_seed=derive_seed(seed, 1),
        )
        config = TrainConfig(seed=derive_seed(seed, 4))
        model, _ = train(train_covariances(dataset), dataset.n_train, config)
        effective = CHAIN_MIX @ model.lhat
        passes += disentanglement_check(effective).passed
    dense_fails = not disentanglement_check(CHAIN_MIX).passed
    detail = (
        f"{passes}/5 seeds pass the structural check at tol 1e-2 (need >= 4); "
        f"dense mixing itself fails: {dense_fails}"
    )
    _verdict(9, passes >= 4 and dense_fails, detail)


# README's results table: the (scm, d, p, n_per_env[, design]) cell behind
# each row label; a leave-one-out cell leaves its design out, so that its
# _mean_mcc call is the criteria's and the cache serves both
_TABLE_CELLS = {
    "linear d=3": ("linear", 3, 0.5, 100_000),
    "linear d=6": ("linear", 6, 0.5, 100_000),
    "linear d=10": ("linear", 10, 0.5, 100_000),
    "linear d=30": ("linear", 30, 0.5, 100_000),
    "d=6, independent (p=0)": ("linear", 6, 0.0, 100_000),
    "nonlinear mechanisms 1": ("nonlinear-1", 6, 0.5, 100_000),
    "nonlinear mechanisms 2": ("nonlinear-2", 6, 0.5, 100_000),
    "d=6, separating design": ("linear", 6, 0.5, 100_000, "separating"),
}
_EMPTY = "\u2014"  # an em dash: a cell nothing computes


def _readme_table() -> list[list[str]]:
    """The rows of README's results table, header first, as stripped cells."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| setting "))
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return [rows[0], *rows[2:]]  # without the --- row


def _markdown(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |" for row in rows]
    lines.insert(1, "| " + " | ".join("-" * w for w in widths) + " |")
    return "\n".join(lines)


def test_readme_results_table_is_what_the_code_computes():
    # the same _mean_mcc calls as the criteria, so its cache serves their cells
    header, *body = _readme_table()
    unmapped = [row[0] for row in body if row[0] not in _TABLE_CELLS and set(row[1:]) != {_EMPTY}]
    assert unmapped == [], f"README's results table has rows no cell computes: {unmapped}"
    computed = [header] + [
        [label] + [
            text if text == _EMPTY else f"{_mean_mcc(method, *_TABLE_CELLS[label]):.3f}"
            for method, text in zip(header[1:], cells)
        ]
        for label, *cells in body
    ]
    assert computed == [header, *body], (
        "README's results table differs from what the code computes, which is:\n\n"
        + _markdown(computed)
    )

"""Disentanglement metrics.

Three layers: Pearson correlation matrices between two sets of sample
columns (zero-variance columns score 0 rather than erroring), the
permutation-maximized mean absolute correlation (MCC) solved exactly as a
linear assignment problem, and a structural check that an effective matrix
is a permutation composed with nonzero scalings.

Pearson has one kernel, on moments: for a linear map of the observed
columns, every correlation with the reference columns is read off the pooled
mean and covariance of the rows [reference | observed], so scoring never
re-reads the rows once their moments are known. Two sample matrices are
scored as one block under the identity map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import column_mean, zero_variance

# disentanglement_check treats entries below this share of the largest as zero
_STRUCTURE_TOL = 1e-2


@dataclass(frozen=True)
class MccResult:
    """Assignment-maximized mean absolute correlation."""

    score: float
    permutation: tuple[int, ...]
    pair_correlations: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class PooledMoments:
    """Mean and biased (divide-by-n) covariance of the rows [z | x], where the
    first n_reference columns are the reference z and the rest observed x."""

    n_reference: int
    mean: np.ndarray
    cov: np.ndarray


def pooled_moments(blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> PooledMoments:
    """PooledMoments of the rows of all (z, x) blocks, without stacking them.

    Each block is centred on its own mean; the pooled covariance is the sum of
    the within-block scatters plus the scatter of the block means about the
    pooled mean, over n (the pairwise update of Chan, Golub and LeVeque, 1979,
    applied to all blocks at once).
    """
    counts, means, widths, scatter = [], [], set(), 0.0
    buf = np.empty(0)  # one buffer for every block's rows, as in unmixing.covariances
    for z, x in blocks:
        z = np.asarray(z, dtype=float)
        x = np.asarray(x, dtype=float)
        if z.ndim != 2 or x.ndim != 2 or len(z) != len(x):
            raise ValueError(f"a block needs 2-d z and x with equal rows, got {z.shape} and {x.shape}")
        widths.add((z.shape[1], x.shape[1]))
        shape = (len(z), z.shape[1] + x.shape[1])
        if buf.size < shape[0] * shape[1]:
            buf = np.empty(shape[0] * shape[1])
        rows = np.concatenate([z, x], axis=1, out=buf[: shape[0] * shape[1]].reshape(shape))
        mean = column_mean(rows)
        centred = np.subtract(rows, mean, out=rows)
        scatter = scatter + centred.T @ centred
        counts.append(len(rows))
        means.append(mean)
    n = sum(counts)
    if n < 2:
        raise ValueError("need at least 2 rows to correlate")
    if len(widths) > 1:
        raise ValueError(f"blocks differ in their (z, x) column counts: {sorted(widths)}")
    ((n_reference, _),) = widths
    block_means = np.array(means)
    mean = np.array(counts) @ block_means / n
    spread = block_means - mean
    cov = (scatter + (spread.T * counts) @ spread) / n
    return PooledMoments(n_reference, mean, cov)


def pearson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson coefficients between all column pairs of x and y.

    c[i, j] correlates column i of x with column j of y. Where either column
    has numerically zero variance (data.zero_variance) the correlation is 0,
    so a collapsed learned dimension degrades the score instead of raising.
    It is moments_pearson of the one block (x, y) under the identity map.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("inputs must be 2-d sample matrices")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"row counts differ: {x.shape[0]} vs {y.shape[0]}")
    return moments_pearson(pooled_moments([(x, y)]), np.eye(y.shape[1]), 0.0)


def moments_pearson(
    moments: PooledMoments, unmixing: np.ndarray, offset: Union[np.ndarray, float]
) -> np.ndarray:
    """pearson(z, (x - offset) @ unmixing), read off the moments of [z | x].

    With C the covariance and mu the mean: cov(z, y) = C_zx A,
    var(y) = diag(A^T C_xx A) (clamped at 0 against rounding), and
    mean(y) = (mu_x - offset) A. Where either column is dead
    (data.zero_variance) the entry is 0, and every entry is clipped to
    [-1, 1] against rounding past a perfect correlation.
    """
    a = np.asarray(unmixing, dtype=float)
    k = moments.n_reference
    if a.ndim != 2 or a.shape[0] != moments.cov.shape[0] - k:
        raise ValueError(
            f"unmixing must be 2-d with {moments.cov.shape[0] - k} rows, got shape {a.shape}"
        )
    z_mean, x_mean = moments.mean[:k], moments.mean[k:]
    z_var = np.diag(moments.cov)[:k]
    y_var = np.maximum(np.einsum("ij,ij->j", a, moments.cov[k:, k:] @ a), 0.0)
    y_mean = (x_mean - offset) @ a
    z_dead = zero_variance(z_mean, z_var)
    y_dead = zero_variance(y_mean, y_var)
    z_sd = np.where(z_dead, 1.0, np.sqrt(z_var))
    y_sd = np.where(y_dead, 1.0, np.sqrt(y_var))
    c = moments.cov[:k, k:] @ a / np.outer(z_sd, y_sd)
    c[z_dead, :] = 0.0
    c[:, y_dead] = 0.0
    np.clip(c, -1.0, 1.0, out=c)
    return c


def mcc(c: np.ndarray) -> MccResult:
    """Best permutation matching of |correlations|, solved exactly.

    Maximizes (1/d) * sum_j |c[j, perm[j]]| over permutations via the
    rectangular linear assignment algorithm.
    """
    arr = np.asarray(c, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"mcc needs a square matrix, got {arr.shape}")
    weights = np.abs(arr)
    rows, cols = linear_sum_assignment(-weights)
    pairs = weights[rows, cols]
    perm = tuple(int(j) for j in cols)
    return MccResult(float(pairs.mean()), perm, tuple(float(p) for p in pairs))


def mcc_between(
    reference: Union[np.ndarray, PooledMoments],
    learned: Union[np.ndarray, tuple[np.ndarray, Union[np.ndarray, float]]],
) -> MccResult:
    """MCC of a learned representation against the reference.

    Either reference and learned are sample matrices with the same rows, or
    reference is the PooledMoments of [z | x] and learned is the pair
    (unmixing, offset) of the map y = (x - offset) @ unmixing.
    """
    if isinstance(reference, PooledMoments):
        return mcc(moments_pearson(reference, *learned))
    return mcc(pearson(reference, learned))


@dataclass(frozen=True)
class DisentanglementReport:
    """Outcome of the permutation-scaling structural check."""

    passed: bool
    threshold: float
    column_survivors: tuple[tuple[int, ...], ...]

    @property
    def violating_columns(self) -> tuple[int, ...]:
        return tuple(j for j, rows in enumerate(self.column_survivors) if len(rows) != 1)

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "fail"
        return (
            f"disentanglement check: {verdict} "
            f"(threshold {self.threshold:.3g}, "
            f"violating columns {list(self.violating_columns)})"
        )


def disentanglement_check(effective: np.ndarray) -> DisentanglementReport:
    """Test whether a square effective matrix is a scaled permutation.

    Entries below _STRUCTURE_TOL * max|entry| are treated as zero; the check
    passes iff every column keeps exactly one entry and those entries sit in
    distinct rows.
    """
    arr = np.asarray(effective, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("effective matrix must be finite")
    d = arr.shape[0]
    threshold = _STRUCTURE_TOL * np.abs(arr).max(initial=0.0)
    surviving = np.abs(arr) > threshold
    survivors = tuple(
        tuple(int(i) for i in np.flatnonzero(surviving[:, j])) for j in range(d)
    )
    passed = all(len(rows) == 1 for rows in survivors) and len({rows[0] for rows in survivors}) == d
    return DisentanglementReport(passed, float(threshold), survivors)

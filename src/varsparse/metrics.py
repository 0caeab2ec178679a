"""Disentanglement metrics.

Three layers: Pearson correlation matrices between two sets of sample
columns (zero-variance columns score 0 rather than erroring), the
permutation-maximized mean absolute correlation (MCC) solved exactly as a
linear assignment problem, and a structural check that an effective matrix
is a permutation composed with nonzero scalings.

Pearson has one kernel, on moments: the observed columns are x = z @ mixing
for the reference columns z, so for a linear map of x every correlation with
z is read off z's pooled mean and covariance through the mixing, and scoring
never re-reads the rows once their moments are known. Two sample matrices
x and y are scored as the one block [x | y] under the mixing that selects y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import block_moments, zero_variance

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
    """Mean and biased (divide-by-n) covariance of the reference rows z, and
    the map x = z @ mixing to the rows that a learned map reads."""

    mean: np.ndarray
    cov: np.ndarray
    mixing: np.ndarray


def pooled_moments(blocks: Iterable, mixing: np.ndarray) -> PooledMoments:
    """PooledMoments of the rows of all blocks of z, without stacking them.

    Every block has one column per row of the mixing. Each block is centred
    on its own mean (data.block_moments); the pooled covariance is the sum
    of the within-block scatters plus the scatter of the block means about
    the pooled mean, over n (the pairwise update of Chan, Golub and LeVeque,
    1979, applied to all blocks at once).
    """
    mixing = np.asarray(mixing, dtype=float)
    counts, means, scatters = block_moments(blocks)
    if mixing.ndim != 2 or means.shape[1] != len(mixing):
        raise ValueError(f"blocks have {means.shape[1]} columns, the mixing shape {mixing.shape}")
    n = counts.sum()
    if n < 2:
        raise ValueError("need at least 2 rows to correlate")
    mean = counts @ means / n
    spread = means - mean
    # the builtin sum adds the scatters in block order, which scatters.sum(axis=0)
    # does not promise: with one column it sums the contiguous axis pairwise
    cov = (sum(scatters) + (spread.T * counts) @ spread) / n
    return PooledMoments(mean, cov, mixing)


def pearson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson coefficients between all column pairs of x and y.

    c[i, j] correlates column i of x with column j of y. Where either column
    has numerically zero variance (data.zero_variance) the correlation is 0,
    so a collapsed learned dimension degrades the score instead of raising.
    It is moments_pearson of the one block [x | y], whose mixing [0; I]
    selects y, with the rows of x kept.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("inputs must be 2-d sample matrices")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"row counts differ: {x.shape[0]} vs {y.shape[0]}")
    moments = pooled_moments([np.hstack((x, y))], np.eye(x.shape[1] + y.shape[1], y.shape[1], -x.shape[1]))
    return moments_pearson(moments, np.eye(y.shape[1]), 0.0)[: x.shape[1]]


def moments_pearson(
    moments: PooledMoments, unmixing: np.ndarray, offset: Union[np.ndarray, float]
) -> np.ndarray:
    """pearson(z, (x - offset) @ unmixing), read off the moments of z.

    With C the covariance, mu the mean and B = mixing @ unmixing:
    cov(z, y) = C B, var(y) = diag(B^T C B) (clamped at 0 against rounding),
    and mean(y) = (mu mixing - offset) unmixing. Where either column is dead
    (data.zero_variance) the entry is 0, and every entry is clipped to
    [-1, 1] against rounding past a perfect correlation.
    """
    a = np.asarray(unmixing, dtype=float)
    m = moments.mixing.shape[1]
    if a.ndim != 2 or a.shape[0] != m:
        raise ValueError(f"unmixing must be 2-d with {m} rows, got shape {a.shape}")
    b = moments.mixing @ a
    cov_zy = moments.cov @ b
    z_var = np.diag(moments.cov)
    y_var = np.maximum(np.einsum("ij,ij->j", b, cov_zy), 0.0)
    y_mean = (moments.mean @ moments.mixing - offset) @ a
    z_dead = zero_variance(moments.mean, z_var)
    y_dead = zero_variance(y_mean, y_var)
    z_sd = np.where(z_dead, 1.0, np.sqrt(z_var))
    y_sd = np.where(y_dead, 1.0, np.sqrt(y_var))
    c = cov_zy / np.outer(z_sd, y_sd)
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
    reference is the PooledMoments of z with the mixing x = z @ mixing and
    learned is the pair (unmixing, offset) of the map y = (x - offset) @ unmixing.
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

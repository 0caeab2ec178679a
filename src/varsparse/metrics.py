"""Disentanglement metrics.

Three layers: Pearson correlation matrices between two sets of sample
columns (zero-variance columns score 0 rather than erroring), the
permutation-maximized mean absolute correlation (MCC) solved exactly as a
linear assignment problem, and a structural check that an effective matrix
is a permutation composed with nonzero scalings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import EPS_VAR

# disentanglement_check treats entries below this share of the largest as zero
_STRUCTURE_TOL = 1e-2


@dataclass(frozen=True)
class MccResult:
    """Assignment-maximized mean absolute correlation."""

    score: float
    permutation: tuple[int, ...]
    pair_correlations: tuple[float, ...]


def _dead_columns(mean: np.ndarray, norm: np.ndarray, n: int) -> np.ndarray:
    # is_zero_variance from the centred column norms: variance = norm^2 / n,
    # mean square = variance + mean^2
    var = norm * norm / n
    return var <= EPS_VAR * np.maximum(1.0, var + mean * mean)


def pearson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson coefficients between all column pairs of x and y.

    c[i, j] correlates column i of x with column j of y. Where either column
    has numerically zero variance (is_zero_variance) the correlation is 0,
    so a collapsed learned dimension degrades the score instead of raising.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("inputs must be 2-d sample matrices")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"row counts differ: {x.shape[0]} vs {y.shape[0]}")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 rows to correlate")

    x_mean = x.mean(axis=0)
    y_mean = y.mean(axis=0)
    xc = x - x_mean
    yc = y - y_mean
    sx = np.linalg.norm(xc, axis=0)
    sy = np.linalg.norm(yc, axis=0)
    x_dead = _dead_columns(x_mean, sx, n)
    y_dead = _dead_columns(y_mean, sy, n)
    denom = np.outer(np.where(x_dead, 1.0, sx), np.where(y_dead, 1.0, sy))
    c = (xc.T @ yc) / denom
    c[x_dead, :] = 0.0
    c[:, y_dead] = 0.0
    # guard against rounding pushing a perfect correlation past 1
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


def mcc_between(reference: np.ndarray, learned: np.ndarray) -> MccResult:
    """MCC of a learned representation against reference samples."""
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
    passes iff every column keeps at most one entry, at least d columns keep
    exactly one, and the kept entries cover every row.
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
    singles = sum(1 for rows in survivors if len(rows) == 1)
    no_doubles = all(len(rows) <= 1 for rows in survivors)
    covered = {rows[0] for rows in survivors if len(rows) == 1}
    passed = no_doubles and singles >= d and len(covered) == d
    return DisentanglementReport(passed, float(threshold), survivors)

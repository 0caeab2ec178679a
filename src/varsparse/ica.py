"""Linear ICA baseline, implemented from first principles.

Center, whiten through an eigendecomposition of the biased sample
covariance, then run a symmetric fixed-point iteration with the tanh
contrast until the rotation stabilizes. The model keeps the three pieces
(mean, whitening map, orthogonal rotation) separately so transforms are a
plain affine map.

Each fixed-point step sweeps once over the whitened rows x, _CHUNK rows at a
time through one preallocated buffer, and accumulates the d x d sum of g^T x
and the per-component sum of g^2, where g = tanh(x W^T). Full-size n x d
temporaries would be streamed through memory several times per step instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

_RANK_RTOL = 1e-10
# Rows per chunk of the fixed-point sweep. At d=10 and 750k rows, with one
# OpenBLAS thread on a 2-CPU x86-64 machine, chunks of 2048-8192 rows cost
# 52-55 ms per iteration and chunks of 16384 rows 65 ms.
_CHUNK = 8192


class IcaConvergenceWarning(UserWarning):
    """Fixed-point iteration hit max_iter before reaching tol."""


class IcaRankError(ValueError):
    """The sample covariance has fewer than d numerically nonzero eigenvalues."""


@dataclass(frozen=True, eq=False)
class IcaModel:
    """Fitted ICA: components(x) = ((x - mean) @ whitening) @ rotation.T."""

    mean: np.ndarray
    whitening: np.ndarray  # d x d, maps centered rows to unit-covariance rows
    rotation: np.ndarray  # d x d orthogonal, rows are unmixing directions
    converged: bool
    n_iter: int

    def __post_init__(self) -> None:
        gram = self.rotation @ self.rotation.T
        if np.abs(gram - np.eye(self.d)).max() > 1e-6:
            raise ValueError("rotation must be orthogonal within 1e-6")

    @property
    def d(self) -> int:
        return self.rotation.shape[0]


def _symmetric_decorrelate(w: np.ndarray) -> np.ndarray:
    # W <- (W W^T)^(-1/2) W, the symmetric orthogonalization step
    values, vectors = np.linalg.eigh(w @ w.T)
    inv_sqrt = vectors @ np.diag(1.0 / np.sqrt(values)) @ vectors.T
    return inv_sqrt @ w


def fit_fastica(
    x: np.ndarray,
    d: int,
    seed: int = 0,
    max_iter: int = 500,
    tol: float = 1e-6,
) -> IcaModel:
    """Fit d independent components to the rows of x, which has d columns.

    Deterministic for a fixed seed. Raises IcaRankError on a rank-deficient
    covariance; warns (and flags the model) if the iteration does not converge.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be a 2-d sample matrix")
    n, m = x.shape
    if d < 1 or d != m:
        raise ValueError(f"d must equal the {m} columns of x and be positive, got {d}")
    if n <= d:
        raise ValueError(f"need more samples than components, got n={n}, d={d}")

    mean = x.mean(axis=0)
    xc = x - mean
    cov = (xc.T @ xc) / n
    values, vectors = np.linalg.eigh(cov)
    if values[-1] <= 0 or values[0] < _RANK_RTOL * values[-1]:
        raise IcaRankError(f"covariance is rank-deficient: eigenvalues {values[::-1]}")
    # leading direction first; columns scaled so whitened rows have unit covariance
    whitening = vectors[:, ::-1] / np.sqrt(values[::-1])
    xw = xc @ whitening
    del xc

    rng = np.random.default_rng(seed)
    w = _symmetric_decorrelate(rng.normal(size=(d, d)))
    buf = np.empty((min(n, _CHUNK), d))
    ones = np.ones(len(buf))  # column sums through BLAS: faster than g.sum(axis=0)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        gx = np.zeros((d, d))  # sum of g^T x over the rows
        g2 = np.zeros(d)  # sum of g^2 over the rows
        for start in range(0, n, _CHUNK):
            xb = xw[start : start + _CHUNK]
            g = buf[: len(xb)]
            np.matmul(xb, w.T, out=g)
            np.tanh(g, out=g)
            gx += g.T @ xb
            np.square(g, out=g)
            g2 += ones[: len(xb)] @ g
        w_new = gx / n - np.diag(1.0 - g2 / n) @ w
        w_new = _symmetric_decorrelate(w_new)
        # directions are sign-ambiguous; compare |cos| of old vs new rows
        drift = np.max(np.abs(np.abs(np.sum(w_new * w, axis=1)) - 1.0))
        w = w_new
        if drift < tol:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"FastICA did not converge within {max_iter} iterations",
            IcaConvergenceWarning,
        )
    return IcaModel(mean, whitening, w, converged, iterations)


def transform(model: IcaModel, x: np.ndarray) -> np.ndarray:
    """Project rows of x onto the fitted independent components."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.mean.shape[0]:
        raise ValueError(
            f"x must be 2-d with {model.mean.shape[0]} columns, got {x.shape}"
        )
    return (x - model.mean) @ model.whitening @ model.rotation.T

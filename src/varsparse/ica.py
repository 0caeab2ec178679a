"""Linear ICA baseline, implemented from first principles.

Center, whiten through an eigendecomposition of the biased sample
covariance, then run a symmetric fixed-point iteration with the tanh
contrast until the rotation stabilizes. The model keeps the three pieces
(mean, whitening map, orthogonal rotation) separately so transforms are a
plain affine map.

The whitened data is stored component-major, as a d x n array with one
column per sample. Each fixed-point step sweeps its columns _CHUNK at a time
through one preallocated d x _CHUNK buffer, and accumulates the d x d sum of
g x^T and the per-component sum of g^2, where g = tanh(W x). Full-size d x n
temporaries would be streamed through memory several times per step instead.
Every product in this layout is a wide GEMM, (d, d) @ (d, _CHUNK) or
(d, _CHUNK) @ (_CHUNK, d); OpenBLAS runs the skinny (_CHUNK, d) @ (d, d)
products of a row-major sweep slower. At d=10 and 750k samples, with one
thread on a 2-CPU x86-64 machine, a step takes 27.3 ms in this layout and
38.4 ms row-major (medians of 20 interleaved runs); at d=30 it takes 156 ms
and 168 ms, about the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_RANK_RTOL = 1e-10
# Columns per block of the fixed-point sweep. At d=10 and 750k columns, with
# one OpenBLAS thread on a 2-CPU x86-64 machine, blocks of 2048-8192 columns
# cost 26-29 ms per iteration, 1024 columns 32 ms and 16384 columns 41 ms
# (medians of 12 interleaved runs each).
_CHUNK = 8192
# Fixed-point iteration cap, and the largest change in |cos| between a row of
# the rotation and its update at which the iteration counts as converged
_MAX_ITER = 500
_TOL = 1e-6


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
        d = self.d
        shapes = (self.mean.shape, self.whitening.shape, self.rotation.shape)
        if shapes != ((d,), (d, d), (d, d)):
            raise ValueError(f"mean, whitening, rotation need shapes (d,), (d, d), (d, d); got {shapes}")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.whitening).all()):
            raise ValueError("mean and whitening must be finite")
        # a non-finite rotation makes the error inf or NaN, and NaN <= tol is False
        with np.errstate(over="ignore", invalid="ignore"):
            err = np.abs(self.rotation @ self.rotation.T - np.eye(d)).max()
        if not (err <= 1e-6):
            raise ValueError(f"rotation must be orthogonal within 1e-6, off by {err}")

    @property
    def d(self) -> int:
        return self.rotation.shape[0]


def _symmetric_decorrelate(w: np.ndarray) -> np.ndarray:
    # W <- (W W^T)^(-1/2) W, the symmetric orthogonalization step
    values, vectors = np.linalg.eigh(w @ w.T)
    inv_sqrt = vectors @ np.diag(1.0 / np.sqrt(values)) @ vectors.T
    return inv_sqrt @ w


def fit_fastica(x: np.ndarray, d: int, seed: int = 0) -> IcaModel:
    """Fit d independent components to the rows of x, which has d columns.

    Deterministic for a fixed seed. Raises IcaRankError on a rank-deficient
    covariance, which n <= d rows always give. model.converged is False when
    the iteration stops at _MAX_ITER.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be a 2-d sample matrix")
    n, m = x.shape
    if d < 1 or d != m:
        raise ValueError(f"d must equal the {m} columns of x and be positive, got {d}")
    if n <= d:  # n centred rows have rank at most n - 1 < d
        raise IcaRankError(f"need more samples than components, got n={n}, d={d}")

    mean = x.mean(axis=0)
    xc = x - mean
    cov = (xc.T @ xc) / n
    values, vectors = np.linalg.eigh(cov)
    if values[-1] <= 0 or values[0] < _RANK_RTOL * values[-1]:
        raise IcaRankError(f"covariance is rank-deficient: eigenvalues {values[::-1]}")
    # leading direction first; columns scaled so whitened rows have unit covariance
    whitening = vectors[:, ::-1] / np.sqrt(values[::-1])
    xw = whitening.T @ xc.T  # d x n: column j is whitened row j
    del xc

    rng = np.random.default_rng(seed)
    w = _symmetric_decorrelate(rng.normal(size=(d, d)))
    buf = np.empty(d * min(n, _CHUNK))
    ones = np.ones(min(n, _CHUNK))  # row sums through BLAS: faster than g.sum(axis=1)
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        gx = np.zeros((d, d))  # sum of g x^T over the columns
        g2 = np.zeros(d)  # sum of g^2 over the columns
        for start in range(0, n, _CHUNK):
            xb = xw[:, start : start + _CHUNK]
            k = xb.shape[1]
            g = buf[: d * k].reshape(d, k)  # contiguous for the last, shorter block too
            np.matmul(w, xb, out=g)
            np.tanh(g, out=g)
            gx += g @ xb.T
            g *= g
            g2 += g @ ones[:k]
        w_new = gx / n - np.diag(1.0 - g2 / n) @ w
        w_new = _symmetric_decorrelate(w_new)
        # directions are sign-ambiguous; compare |cos| of old vs new rows
        drift = np.max(np.abs(np.abs(np.sum(w_new * w, axis=1)) - 1.0))
        w = w_new
        if drift < _TOL:
            converged = True
            break
    return IcaModel(mean, whitening, w, converged, iterations)


def transform(model: IcaModel, x: np.ndarray) -> np.ndarray:
    """Project rows of x onto the fitted independent components."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.mean.shape[0]:
        raise ValueError(
            f"x must be 2-d with {model.mean.shape[0]} columns, got {x.shape}"
        )
    return (x - model.mean) @ model.whitening @ model.rotation.T

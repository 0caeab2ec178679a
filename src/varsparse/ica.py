"""Linear ICA baseline, implemented from first principles.

Whiten through an eigendecomposition of the biased covariance of the rows of
all blocks pooled (one block per environment), then run a symmetric
fixed-point iteration with the tanh contrast until the rotation stabilizes.
The model keeps the mean, the whitening map and the orthogonal rotation
apart; the components of rows x are ((x - mean) @ whitening) @ rotation.T.

Each block is whitened as whitening^T block^T - whitening^T mean, with no
centred copy, and rounded once into its columns of a float32 d x n array.
Each step sweeps those columns _CHUNK at a time through one float32 buffer,
so every product is a wide GEMM, and adds each chunk's float32 sums of g x^T
and g^2 (g = tanh(W x)) into float64 totals. float32 suffices because each
sum is a mean over n samples, whose sampling error (about n^-1/2) is far
above float32 rounding; the whitening, the decorrelation and the convergence
test stay float64.

A fit with at least _COARSE * _CHUNK samples takes its first steps on a
contiguous copy of every _COARSE-th column, and moves to all columns once a
step's drift falls below _COARSE_TOL. From there (or the same point in a
smaller fit) each step is Anderson-accelerated by _anderson (Walker and Ni,
SIAM J. Numer. Anal. 49(4), 2011). Only a plain step over all columns
converges, so neither the subsample nor the mixing moves the fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import pooled_moments

_RANK_RTOL = 1e-10
# Columns per block of the fixed-point sweep, the fastest of the powers of two
# from 1024 to 16384 at d=10; changing it changes the order of the float32
# sums, and so the results.
_CHUNK = 8192
# Fixed-point step cap, coarse steps included, and the largest change in |cos|
# between a row of the rotation and its update at which a step over all
# columns counts as converged
_MAX_ITER = 500
_TOL = 1e-6
# Stride of the coarse subsample: every _COARSE-th pooled column, so it spans
# every block. Its steps only turn the random start roughly into place, and
# its sampling error (about 3e-3 on 94k columns at 750k) is far below the
# distance they cover. A fit with fewer than _COARSE * _CHUNK columns, whose
# subsample would not fill one chunk, skips the coarse stage.
_COARSE = 8
# The drift below which the coarse stage hands its rotation to the full sweep
_COARSE_TOL = 1e-4
# Earlier (rotation, update) pairs that Anderson acceleration mixes into each
# full step, once a step's drift falls below _COARSE_TOL
_DEPTH = 2


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


def _anderson(pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The type-II Anderson mix of (rotation, update) pairs, oldest first.

    With residuals r_i = F_i - W_i, gamma minimizes |r_k - dR gamma| over the
    differences of consecutive residuals, and the mix F_k - dF gamma is
    decorrelated. A lone pair, or a mix that is not finite or not of full
    rank, gives the last update F_k unchanged.
    """
    update = pairs[-1][1]
    if len(pairs) < 2:
        return update
    rotations, updates = (np.stack(part).reshape(len(pairs), -1) for part in zip(*pairs))
    residuals = updates - rotations
    gamma = np.linalg.lstsq(np.diff(residuals, axis=0).T, residuals[-1], rcond=None)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = update - (gamma @ np.diff(updates, axis=0)).reshape(update.shape)
        gram = mixed @ mixed.T
    # _symmetric_decorrelate would divide by zero or NaN eigenvalues
    if not np.isfinite(gram).all():
        return update
    values = np.linalg.eigvalsh(gram)
    if not values[0] > _RANK_RTOL * values[-1]:
        return update
    return _symmetric_decorrelate(mixed)


def fit_fastica(blocks: list[np.ndarray], d: int, seed: int = 0) -> IcaModel:
    """Fit d independent components to the rows of all blocks pooled.

    Each block is a 2-d array with d columns; a lone 2-d array is one block.
    The pooled mean and covariance come from metrics.pooled_moments, so the
    blocks are never stacked, and each is whitened straight into its columns
    of the d x n whitened array. Deterministic for a fixed seed.
    Raises IcaRankError on a rank-deficient covariance, which n <= d pooled
    rows always give. model.converged is False when the iteration stops at
    _MAX_ITER; model.n_iter counts the coarse steps too, and each
    accelerated step as one.
    """
    blocks = [blocks] if isinstance(blocks, np.ndarray) and blocks.ndim == 2 else list(blocks)
    if d < 1:  # np.eye(0) would let (k, 0) blocks through to an empty eigenproblem
        raise ValueError(f"need d >= 1 components, got d={d}")
    n = sum(len(np.atleast_1d(block)) for block in blocks)
    if n <= d:  # n centred rows have rank at most n - 1 < d
        raise IcaRankError(f"need more samples than components, got n={n}, d={d}")

    moments = pooled_moments(blocks, np.eye(d))  # owns the 2-d, row and width checks
    values, vectors = np.linalg.eigh(moments.cov)
    if values[-1] <= 0 or values[0] < _RANK_RTOL * values[-1]:
        raise IcaRankError(f"covariance is rank-deficient: eigenvalues {values[::-1]}")
    # leading direction first; columns scaled so whitened rows have unit covariance
    whitening = vectors[:, ::-1] / np.sqrt(values[::-1])
    # column j is whitened row j: whitening^T x_j - whitening^T mean, computed in
    # float64 one block at a time and rounded once to float32 as it is stored
    xw = np.empty((d, n), dtype=np.float32)
    shift = (moments.mean @ whitening)[:, None]
    for block, stop in zip(blocks, np.cumsum([len(block) for block in blocks])):
        np.subtract(whitening.T @ block.T, shift, out=xw[:, stop - len(block) : stop])

    rng = np.random.default_rng(seed)
    w = _symmetric_decorrelate(rng.normal(size=(d, d)))
    # the columns swept: every _COARSE-th one until the coarse tolerance, then all
    x = np.ascontiguousarray(xw[:, ::_COARSE]) if n >= _COARSE * _CHUNK else xw
    buf = np.empty(d * min(n, _CHUNK), dtype=np.float32)
    ones = np.ones(min(n, _CHUNK), dtype=np.float32)  # row sums through BLAS: faster than g.sum(axis=1)
    pairs = None  # the (rotation, update) pairs mixed by _anderson, once accelerating
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        m = x.shape[1]
        gx = np.zeros((d, d))  # sum of g x^T over the columns, chunk sums added in float64
        g2 = np.zeros(d)  # sum of g^2 over the columns
        w32 = w.astype(np.float32)
        for start in range(0, m, _CHUNK):
            xb = x[:, start : start + _CHUNK]
            k = xb.shape[1]
            g = buf[: d * k].reshape(d, k)  # contiguous for the last, shorter block too
            np.matmul(w32, xb, out=g)
            np.tanh(g, out=g)
            gx += g @ xb.T
            g *= g
            g2 += g @ ones[:k]
        w_new = gx / m - np.diag(1.0 - g2 / m) @ w
        w_new = _symmetric_decorrelate(w_new)
        # directions are sign-ambiguous; compare |cos| of old vs new rows
        cos = np.sum(w_new * w, axis=1)
        drift = np.max(np.abs(np.abs(cos) - 1.0))
        if x is xw and drift < _TOL:  # only a plain step over all columns converges
            w = w_new
            converged = True
            break
        if pairs is not None:
            if drift >= last_drift:  # the mixing did not help: restart from the plain step
                pairs = []
            # rows of the update turned to the signs of the rotation's, so that
            # a row whose sign flips each step has a small residual
            pairs = [*pairs[-_DEPTH:], (w, np.where(cos < 0, -1.0, 1.0)[:, None] * w_new)]
            w_new = _anderson(pairs)
        elif drift < _COARSE_TOL:
            x = xw  # releases the subsample
            pairs = []
        w, last_drift = w_new, drift
    return IcaModel(moments.mean, whitening, w, converged, iterations)


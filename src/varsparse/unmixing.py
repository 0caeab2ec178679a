"""Learning the unmixing matrix by variance-sparsity minimization.

The model is a single matrix lhat mapping observations to a candidate
representation. Per environment we form the vector of per-column variances;
stacking them gives the variance matrix V (environments x learned dims). The
data enter only through each environment's covariance S_e, since
V[e, j] = l_j^T S_e l_j, so training is full-batch on the (E, d, d) stack of
train covariances. The objective pushes V toward a permuted diagonal:

  total = loss_var + LAMBDA_E * loss_env + LAMBDA_M * loss_dim
          + LAMBDA_DIAG * loss_diag + LAMBDA_NORM * loss_norm

where loss_var sums sigmoids of all entries (few nonzero variances overall),
loss_env and loss_dim reward every row resp. column keeping at least one
nonzero entry, loss_diag is a group norm over wrap-around diagonals of V
(nonzeros should align on few diagonals), and loss_norm = (||lhat||_F - 1)^2
keeps the parameters away from the all-zero collapse. Each term function
returns its value and its analytic gradient (wrt V, or wrt lhat for
loss_norm; the row and column terms' gradients broadcast against V), and
objective(covs, lhat) calls them and combines them on the stack with the
fixed weights LAMBDA_*. It is the one implementation of the loss: every step
of train, a self-contained AdamW, calls it.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np
from scipy.special import expit

from ._rng import derive_seed
from .data import block_moments
from .envs import _integer

# AdamW step size, moment decays, denominator guard and decoupled weight decay
ADAMW_LEARNING_RATE = 2e-3
ADAMW_BETA1 = 0.9
ADAMW_BETA2 = 0.999
ADAMW_EPS = 1e-8
ADAMW_WEIGHT_DECAY = 1e-2
# Frobenius norm that loss_norm holds lhat to. The variance terms are
# scale-free, so this only sets ||lhat||_F, which MCC and the relative
# structural check both ignore.
NORM_TARGET = 1.0
# Weights of the four terms added to loss_var
LAMBDA_E = 1.0
LAMBDA_M = 1.0
LAMBDA_DIAG = 10.0
LAMBDA_NORM = 5.0


class NumericalError(RuntimeError):
    """A loss or gradient evaluation produced non-finite values."""


class TrainingAborted(RuntimeError):
    """Training stopped early; carries the partial report for inspection."""

    def __init__(self, message: str, epoch: int, step: int, report: "TrainReport"):
        super().__init__(message)
        self.epoch = epoch
        self.step = step
        self.report = report


@dataclass(eq=False)
class UnmixingModel:
    """Learned linear unmixing, one square matrix of shape (d, d)."""

    lhat: np.ndarray

    def __post_init__(self) -> None:
        lhat = np.asarray(self.lhat, dtype=float)
        if lhat.ndim != 2:
            raise ValueError("lhat must be a 2-d matrix")
        if not np.isfinite(lhat).all():
            raise ValueError("lhat must be finite")
        if lhat.shape[0] != lhat.shape[1]:
            raise ValueError(f"lhat must be square, got shape {lhat.shape}")
        self.lhat = lhat

    @property
    def d(self) -> int:
        return self.lhat.shape[1]


def _initial_lhat(d: int, seed: int) -> np.ndarray:
    # uniform [-1/sqrt(d), 1/sqrt(d)]: E||lhat||_F^2 = d/3, near the norm target
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(d)
    return rng.uniform(-bound, bound, size=(d, d))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 4096
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size", "seed"):
            _integer(name, getattr(self, name))  # NaN or 2.5 would fail late, in range()
        if self.epochs < 1 or self.batch_size < 2:
            raise ValueError("need epochs >= 1 and batch_size >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class LossBreakdown:
    """Raw (unweighted) term values plus the weighted total.

    Field order is the column order of train_losses.csv and the key order of
    each epoch in train_report.json."""

    total: float
    loss_var: float
    loss_env: float
    loss_dim: float
    loss_diag: float
    loss_norm: float


@dataclass
class TrainReport:
    """Per-epoch mean loss breakdown and end-of-run diagnostics.

    grad_norms[k] is the Frobenius norm of epoch k's last gradient."""

    epoch_losses: list[LossBreakdown] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    final_variances: Optional[np.ndarray] = None
    wall_time_s: float = 0.0
    grad_check_rel_err: float = float("nan")

    def to_json(self) -> str:
        doc = {
            "epochs": [asdict(b) for b in self.epoch_losses],
            "grad_norms": self.grad_norms,
            "wall_time_s": self.wall_time_s,
            "grad_check_rel_err": self.grad_check_rel_err,
            "final_variances": None
            if self.final_variances is None
            else self.final_variances.tolist(),
        }
        return json.dumps(doc, indent=2)

    def to_csv(self, path: Union[str, Path]) -> None:
        names = [f.name for f in fields(LossBreakdown)]
        lines = [",".join(["epoch", *names])]
        lines += [
            ",".join([str(i), *(repr(getattr(b, name)) for name in names)])
            for i, b in enumerate(self.epoch_losses)
        ]
        Path(path).write_text("\n".join(lines) + "\n")


def covariances(batches: Iterable[np.ndarray]) -> np.ndarray:
    """(E, d, d) stack of the biased (divide-by-n) covariances of the batches."""
    counts, _, scatters = block_moments(batches)
    if counts.min() < 2:
        raise ValueError(f"every batch needs at least 2 rows, got {counts.tolist()}")
    return scatters / counts[:, None, None]


def variance_matrix(covs: np.ndarray, lhat: np.ndarray) -> np.ndarray:
    """(E, d) variances V[e, j] = l_j^T S_e l_j of each column of lhat under each covariance."""
    # l^T S l can round below zero where the true variance is exactly zero
    return np.maximum(np.einsum("emd,md->ed", covs @ lhat, lhat), 0.0)


def loss_var(v: np.ndarray) -> tuple[float, np.ndarray]:
    """Sum of sigmoids over all variance entries."""
    s = expit(v)
    return float(s.sum()), s * (1.0 - s)


def loss_env(v: np.ndarray) -> tuple[float, np.ndarray]:
    """Minus the sum of sigmoids of row sums: every environment keeps signal.
    The gradient has shape (E, 1), one entry per row, and broadcasts against V."""
    value, gain = loss_var(v.sum(axis=1))
    return -value, -gain[:, None]


def loss_dim(v: np.ndarray) -> tuple[float, np.ndarray]:
    """Minus the sum of sigmoids of column sums: every dimension keeps signal.
    The gradient has shape (1, d), one entry per column, and broadcasts against V."""
    value, gain = loss_var(v.sum(axis=0))
    return -value, -gain[None, :]


@functools.lru_cache(maxsize=16)
def _diag_offsets(e: int, d: int) -> np.ndarray:
    # offset (j - i) mod d identifies the wrap-around diagonal of entry (i, j);
    # for e != d rows keep cycling through the d offsets. Cached per shape,
    # so the shared array is read-only.
    offsets = (np.arange(d)[None, :] - np.arange(e)[:, None]) % d
    offsets.flags.writeable = False
    return offsets


def loss_diag(v: np.ndarray) -> tuple[float, np.ndarray]:
    """Sum of Euclidean norms of the wrap-around diagonals (group sparsity)."""
    # subgradient 0 on diagonals that are exactly zero
    offsets = _diag_offsets(*v.shape)
    # bincount adds the weights into each bin in index order, as np.add.at does
    sums = np.bincount(offsets.ravel(), weights=(v * v).ravel(), minlength=v.shape[1])
    norms = np.sqrt(sums)
    if norms.min() > 0:
        scale = 1.0 / norms
    else:
        scale = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 0.0)
    return float(norms.sum()), v * scale[offsets]


def _frobenius(a: np.ndarray) -> np.floating:
    # np.linalg.norm(a)'s own arithmetic, without its dispatch
    flat = a.ravel(order="K")
    return np.sqrt(flat.dot(flat))


def loss_norm(lhat: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared distance of the parameter Frobenius norm from NORM_TARGET."""
    # subgradient 0 at the (non-differentiable) all-zero point
    fro = _frobenius(lhat)
    grad = 2.0 * (fro - NORM_TARGET) * lhat / fro if fro != 0.0 else np.zeros_like(lhat)
    return float((fro - NORM_TARGET) ** 2), grad


def objective(covs: np.ndarray, lhat: np.ndarray) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """The weighted objective at lhat over an (E, d, d) covariance stack.

    The four variance-based terms are evaluated on the variance matrix of
    the *unit-normalized* columns of lhat, so they score only the directions
    of the learned coordinates, in the data's natural variance units. This
    closes two degenerate escape routes that the raw parameterization
    leaves open: shrinking ||lhat|| to drive every variance (and with it the
    diagonal group norm, which grows linearly while the sigmoid gains stay
    bounded) to zero at the bounded price of the norm penalty, and parking
    an individual column at zero, which is a stationary point of every
    variance term because V is quadratic in the column. On unit directions
    the variance terms exert pure rotations, the norm penalty alone sets the
    overall scale, and no column can be silenced. Sufficient coverage of the
    environments guarantees every direction carries variance somewhere, so
    the trapped mass can only be rearranged - and at fixed mass the diagonal
    group norm favors one evenly-spread wrap-around diagonal over hoarding
    by a factor of sqrt(d).

    Returns (per-term breakdown, exact gradient wrt lhat, variance matrix of
    the unit directions).
    """
    col_norms = np.sqrt(np.add.reduce(lhat * lhat, axis=0))  # np.linalg.norm(lhat, axis=0)
    # False for a zero column and for a NaN one, which the finiteness check reports
    all_live = col_norms.min() > 0.0
    safe_norms = col_norms if all_live else np.where(col_norms > 0.0, col_norms, 1.0)
    directions = lhat / safe_norms
    su = covs @ directions  # S_e U, shape (E, d, d)
    v_dir = np.einsum("emd,md->ed", su, directions)
    # an all-zero V has no scale to remove, and dividing it by 1 changes no bit
    scale = float(_frobenius(v_dir)) / math.sqrt(v_dir.size) or 1.0
    v = v_dir / scale

    l_var, g_var = loss_var(v)
    l_env, g_env = loss_env(v)
    l_dim, g_dim = loss_dim(v)
    l_diag, g_diag = loss_diag(v)
    l_norm, g_norm = loss_norm(lhat)
    total = (
        l_var
        + LAMBDA_E * l_env
        + LAMBDA_M * l_dim
        + LAMBDA_DIAG * l_diag
        + LAMBDA_NORM * l_norm
    )

    # dtotal/dV, pulled back through the per-environment variance map
    # (dV[e, j]/du_j = 2 S_e u_j) onto the unit directions, then through the
    # normalization (the tangent projection I - u u^T, scaled by 1/||l_j||)
    g_vn = g_var + LAMBDA_E * g_env + LAMBDA_M * g_dim + LAMBDA_DIAG * g_diag
    g_v = (g_vn - float((g_vn * v).sum()) * v / v.size) / scale
    w = 2.0 * np.einsum("emd,ed->md", su, g_v)
    grad = (w - directions * (directions * w).sum(axis=0)) / safe_norms
    if not all_live:
        grad[:, col_norms == 0.0] = 0.0  # direction undefined; subgradient 0
    grad += LAMBDA_NORM * g_norm

    if not (math.isfinite(total) and np.isfinite(grad).all()):
        raise NumericalError(
            f"non-finite loss or gradient (total={total!r}, |lhat|_max={np.abs(lhat).max():g})"
        )
    return LossBreakdown(total, l_var, l_env, l_dim, l_diag, l_norm), grad, v


@dataclass
class AdamWState:
    """Optimizer state: parameters plus first/second moment accumulators."""

    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adamw_init(theta: np.ndarray) -> AdamWState:
    theta = np.asarray(theta, dtype=float)
    return AdamWState(theta.copy(), np.zeros_like(theta), np.zeros_like(theta), 0)


def adamw_step(state: AdamWState, grad: np.ndarray) -> AdamWState:
    """One decoupled-weight-decay update; returns a fresh state."""
    if grad.shape != state.theta.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {state.theta.shape}")
    t = state.t + 1
    # theta - lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta), with
    # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g, each operation in
    # that order, on fresh arrays updated in place
    m = ADAMW_BETA1 * state.m
    m += (1.0 - ADAMW_BETA1) * grad
    v = ADAMW_BETA2 * state.v
    g2 = (1.0 - ADAMW_BETA2) * grad
    g2 *= grad
    v += g2
    step = m / (1.0 - ADAMW_BETA1**t)
    denom = v / (1.0 - ADAMW_BETA2**t)
    np.sqrt(denom, out=denom)
    denom += ADAMW_EPS
    step /= denom
    step += ADAMW_WEIGHT_DECAY * state.theta
    step *= ADAMW_LEARNING_RATE
    return AdamWState(state.theta - step, m, v, t)


def _directional_grad_check(
    covs: np.ndarray, lhat: np.ndarray, grad: np.ndarray, rng: np.random.Generator
) -> float:
    """Max relative error of <grad, D> vs a central finite difference along D,
    over three random unit directions D."""
    h = 1e-5
    worst = 0.0
    for _ in range(3):
        direction = rng.normal(size=lhat.shape)
        direction /= np.linalg.norm(direction)
        f_plus, _, _ = objective(covs, lhat + h * direction)
        f_minus, _, _ = objective(covs, lhat - h * direction)
        fd = (f_plus.total - f_minus.total) / (2.0 * h)
        analytic = float((grad * direction).sum())
        denom = max(abs(fd), abs(analytic), 1e-12)
        worst = max(worst, abs(fd - analytic) / denom)
    return worst


def train(covs: np.ndarray, n_rows: int, config: TrainConfig) -> tuple[UnmixingModel, TrainReport]:
    """Full-batch minimization of the objective over an (E, d, d) stack of
    per-environment train covariances, E >= 2 and d >= 1, which it only
    reads. A stack that is not finite, symmetric and positive semi-definite
    is rejected.

    n_rows, the train rows per environment, only sets the steps per epoch,
    ceil(n_rows / batch_size), so any batch_size >= n_rows takes one.
    Bit-reproducible for a fixed config.seed.
    """
    covs = np.asarray(covs, dtype=float)
    if covs.ndim != 3:
        raise ValueError(f"covs must be an (E, d, d) stack, got shape {covs.shape}")
    if covs.shape[1] != covs.shape[2] or covs.shape[1] < 1:
        raise ValueError(f"covs must be square, d >= 1, in its last two axes, got shape {covs.shape}")
    n_envs, d = covs.shape[:2]
    if n_envs < 2:
        raise ValueError(f"need at least 2 environments, got {n_envs}")
    if not np.isfinite(covs).all():
        raise ValueError("covs must be finite")
    # symmetric positive semi-definite up to rounding, relative to each matrix's
    # largest entry: hard interventions make every S_e exactly singular
    slack = 1e-8 * np.abs(covs).max(axis=(1, 2))
    if (np.abs(covs - covs.transpose(0, 2, 1)).max(axis=(1, 2)) > slack).any():
        raise ValueError("covs must be symmetric")
    if (np.linalg.eigvalsh(covs)[:, 0] < -slack).any():
        raise ValueError("covs must be positive semi-definite")
    n_rows = _integer("n_rows", n_rows)
    if n_rows < 2:
        raise ValueError(f"n_rows must be >= 2, got {n_rows}")

    started = time.perf_counter()
    lhat = _initial_lhat(d, config.seed)
    state = adamw_init(lhat)
    steps_per_epoch = -(-n_rows // config.batch_size)
    report = TrainReport()

    for epoch in range(config.epochs):
        sums = [0.0] * len(fields(LossBreakdown))
        for step in range(steps_per_epoch):
            try:
                breakdown, grad, _ = objective(covs, lhat)
                if epoch == 0 and step == 0:
                    # a stream of its own: switching the diagnostic off changes no result
                    check_rng = np.random.default_rng(derive_seed(config.seed, 1))
                    report.grad_check_rel_err = _directional_grad_check(covs, lhat, grad, check_rng)
            except NumericalError as err:
                report.wall_time_s = time.perf_counter() - started
                raise TrainingAborted(
                    f"aborted at epoch {epoch}, step {step}: {err}", epoch, step, report
                ) from err
            state = adamw_step(state, grad)
            lhat = state.theta
            sums = [total + term for total, term in zip(sums, vars(breakdown).values())]
        report.epoch_losses.append(LossBreakdown(*(total / steps_per_epoch for total in sums)))
        report.grad_norms.append(float(np.linalg.norm(grad)))

    report.final_variances = variance_matrix(covs, lhat)
    report.wall_time_s = time.perf_counter() - started
    return UnmixingModel(lhat), report


def save_checkpoint(model: UnmixingModel, path: Union[str, Path], config: TrainConfig) -> None:
    """One-line JSON header, newline, then the row-major float64 parameters."""
    header = {"d": model.d, "config": vars(config).copy()}
    blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    blob += np.ascontiguousarray(model.lhat, dtype="<f8").tobytes()
    Path(path).write_bytes(blob)


def load_checkpoint(path: Union[str, Path]) -> tuple[UnmixingModel, dict]:
    raw = Path(path).read_bytes()
    sep = raw.find(b"\n")
    if sep < 0:
        raise ValueError(f"{path}: missing checkpoint header")
    try:
        header = json.loads(raw[:sep].decode("utf-8"))
    except ValueError as err:
        raise ValueError(f"{path}: malformed checkpoint header: {err}") from err
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    d = header.get("d")  # older headers also carry the row count m, which equals d
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise ValueError(f"{path}: checkpoint d must be a nonnegative integer, got {d!r}")
    payload = raw[sep + 1 :]
    if len(payload) != 8 * d * d:
        raise ValueError(f"{path}: expected {8 * d * d} payload bytes, found {len(payload)}")
    lhat = np.frombuffer(payload, dtype="<f8").reshape(d, d).copy()
    return UnmixingModel(lhat), header

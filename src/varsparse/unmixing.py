"""Learning the unmixing matrix by variance-sparsity minimization.

The model is a single matrix lhat mapping observations to a candidate
representation. Per environment we form the vector of per-column variances;
stacking them gives the variance matrix V (environments x learned dims). The
data enter only through each environment's covariance S_e, since
V[e, j] = l_j^T S_e l_j, so training is full-batch on the (E, m, m) stack of
train covariances. The objective pushes V toward a permuted diagonal:

  total = loss_var + le * loss_env + lm * loss_dim + ld * loss_diag + ln * loss_norm

where loss_var sums sigmoids of all entries (few nonzero variances overall),
loss_env and loss_dim reward every row resp. column keeping at least one
nonzero entry, loss_diag is a group norm over wrap-around diagonals of V
(nonzeros should align on few diagonals), and loss_norm = (||lhat||_F - a)^2
keeps the parameters away from the all-zero collapse.

Gradients are analytic; the optimizer is a self-contained AdamW.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import expit

from ._rng import derive_seed
from .data import EnvDataset


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
    """Learned linear unmixing, one matrix of shape (m, d)."""

    lhat: np.ndarray
    init_seed: int

    def __post_init__(self) -> None:
        lhat = np.asarray(self.lhat, dtype=float)
        if lhat.ndim != 2:
            raise ValueError("lhat must be a 2-d matrix")
        if not np.isfinite(lhat).all():
            raise ValueError("lhat must be finite")
        self.lhat = lhat

    @property
    def m(self) -> int:
        return self.lhat.shape[0]

    @property
    def d(self) -> int:
        return self.lhat.shape[1]

    @classmethod
    def initialize(cls, m: int, d: int, seed: int) -> "UnmixingModel":
        # uniform [-1/sqrt(m), 1/sqrt(m)]: E||lhat||_F^2 = d/3, near the norm target
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(m)
        return cls(rng.uniform(-bound, bound, size=(m, d)), init_seed=seed)

    def transform(self, observed: np.ndarray) -> np.ndarray:
        return np.asarray(observed, dtype=float) @ self.lhat


@dataclass(frozen=True, eq=False)
class VarianceMatrix:
    """Stacked per-environment, per-dimension variances."""

    v: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.v, dtype=float)
        if v.ndim != 2:
            raise ValueError("variance matrix must be 2-d")
        if not (v >= 0).all():
            raise ValueError("variances cannot be negative")
        object.__setattr__(self, "v", v)

    @property
    def n_envs(self) -> int:
        return self.v.shape[0]

    @property
    def d(self) -> int:
        return self.v.shape[1]


@dataclass(frozen=True)
class LossWeights:
    """Term weights and the Frobenius norm target."""

    lambda_e: float = 1.0
    lambda_m: float = 1.0
    lambda_diag: float = 10.0
    lambda_norm: float = 5.0
    norm_target: float = 1.0

    def __post_init__(self) -> None:
        for name in ("lambda_e", "lambda_m", "lambda_diag", "lambda_norm"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.norm_target <= 0:
            raise ValueError("norm_target must be positive")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 4096
    learning_rate: float = 2e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 2:
            raise ValueError("need epochs >= 1 and batch_size >= 2")
        if self.learning_rate <= 0 or self.eps <= 0:
            raise ValueError("learning_rate and eps must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")


@dataclass(frozen=True)
class LossBreakdown:
    """Raw (unweighted) term values plus the weighted total."""

    total: float
    var: float
    env: float
    dim: float
    diag: float
    norm: float

    def as_dict(self) -> dict[str, float]:
        return {
            "total": self.total,
            "loss_var": self.var,
            "loss_env": self.env,
            "loss_dim": self.dim,
            "loss_diag": self.diag,
            "loss_norm": self.norm,
        }


@dataclass
class TrainReport:
    """Per-epoch mean loss breakdown and end-of-run diagnostics."""

    epoch_losses: list[LossBreakdown] = field(default_factory=list)
    final_variances: Optional[np.ndarray] = None
    wall_time_s: float = 0.0
    grad_check_rel_err: float = float("nan")

    def to_json(self) -> str:
        doc = {
            "epochs": [b.as_dict() for b in self.epoch_losses],
            "wall_time_s": self.wall_time_s,
            "grad_check_rel_err": self.grad_check_rel_err,
            "final_variances": None
            if self.final_variances is None
            else self.final_variances.tolist(),
        }
        return json.dumps(doc, indent=2)

    def to_csv(self, path: Union[str, Path]) -> None:
        lines = ["epoch,total,loss_var,loss_env,loss_dim,loss_diag,loss_norm"]
        for i, b in enumerate(self.epoch_losses):
            lines.append(
                f"{i},{b.total!r},{b.var!r},{b.env!r},{b.dim!r},{b.diag!r},{b.norm!r}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


def _as_v(v: Union[VarianceMatrix, np.ndarray]) -> np.ndarray:
    if isinstance(v, VarianceMatrix):
        return v.v
    return np.asarray(v, dtype=float)


def _covariances(batches: Sequence[np.ndarray], m: int) -> np.ndarray:
    """(E, m, m) stack of the biased (divide-by-n) covariances of the batches."""
    covs = np.empty((len(batches), m, m))
    for e, batch in enumerate(batches):
        batch = np.asarray(batch, dtype=float)
        if batch.ndim != 2 or batch.shape[0] < 2:
            raise ValueError(f"batch {e} needs at least 2 rows, got shape {batch.shape}")
        if batch.shape[1] != m:
            raise ValueError(f"batch {e} has {batch.shape[1]} columns, model expects {m}")
        centered = batch - batch.mean(axis=0)
        covs[e] = centered.T @ centered / batch.shape[0]
    return covs


def _variances(covs: np.ndarray, lhat: np.ndarray) -> np.ndarray:
    # l^T S l can round below zero where the true variance is exactly zero
    return np.maximum(np.einsum("emd,md->ed", covs @ lhat, lhat), 0.0)


def variance_matrix(
    batches: Sequence[np.ndarray], model: UnmixingModel
) -> VarianceMatrix:
    """Biased (divide-by-n) per-column variances of each projected batch."""
    return VarianceMatrix(_variances(_covariances(batches, model.m), model.lhat))


def loss_var(v: Union[VarianceMatrix, np.ndarray]) -> float:
    """Sum of sigmoids over all variance entries."""
    return float(expit(_as_v(v)).sum())


def loss_env(v: Union[VarianceMatrix, np.ndarray]) -> float:
    """Minus the sum of sigmoids of row sums: every environment keeps signal."""
    return float(-expit(_as_v(v).sum(axis=1)).sum())


def loss_dim(v: Union[VarianceMatrix, np.ndarray]) -> float:
    """Minus the sum of sigmoids of column sums: every dimension keeps signal."""
    return float(-expit(_as_v(v).sum(axis=0)).sum())


def wrap_diagonal(v: Union[VarianceMatrix, np.ndarray], k: int) -> np.ndarray:
    """k-th wrap-around diagonal of a square matrix, k in [1..d].

    Entry i of the result is v[i, (i + k - 1) mod d]; k=1 is the main
    diagonal.
    """
    arr = _as_v(v)
    d = arr.shape[0]
    if arr.shape != (d, d):
        raise ValueError(f"wrap_diagonal needs a square matrix, got {arr.shape}")
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}], got {k}")
    i = np.arange(d)
    return arr[i, (i + k - 1) % d]


def _diag_offsets(e: int, d: int) -> np.ndarray:
    # offset (j - i) mod d identifies the wrap-around diagonal of entry (i, j);
    # for e != d rows keep cycling through the d offsets
    return (np.arange(d)[None, :] - np.arange(e)[:, None]) % d


def _diag_norms(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    e, d = arr.shape
    offsets = _diag_offsets(e, d)
    sums = np.zeros(d)
    np.add.at(sums, offsets.ravel(), (arr * arr).ravel())
    return np.sqrt(sums), offsets


def loss_diag(v: Union[VarianceMatrix, np.ndarray]) -> float:
    """Sum of Euclidean norms of the wrap-around diagonals (group sparsity)."""
    arr = _as_v(v)
    norms, _ = _diag_norms(arr)
    return float(norms.sum())


def loss_norm(model: UnmixingModel, norm_target: float = 1.0) -> float:
    """Squared distance of the parameter Frobenius norm from its target."""
    return float((np.linalg.norm(model.lhat) - norm_target) ** 2)


def grad_loss_var(v: Union[VarianceMatrix, np.ndarray]) -> np.ndarray:
    s = expit(_as_v(v))
    return s * (1.0 - s)


def grad_loss_env(v: Union[VarianceMatrix, np.ndarray]) -> np.ndarray:
    arr = _as_v(v)
    s = expit(arr.sum(axis=1))
    return np.broadcast_to(-(s * (1.0 - s))[:, None], arr.shape).copy()


def grad_loss_dim(v: Union[VarianceMatrix, np.ndarray]) -> np.ndarray:
    arr = _as_v(v)
    s = expit(arr.sum(axis=0))
    return np.broadcast_to(-(s * (1.0 - s))[None, :], arr.shape).copy()


def grad_loss_diag(v: Union[VarianceMatrix, np.ndarray]) -> np.ndarray:
    # subgradient 0 on diagonals that are exactly zero
    arr = _as_v(v)
    norms, offsets = _diag_norms(arr)
    safe = np.where(norms > 0, norms, 1.0)
    scale = np.where(norms > 0, 1.0 / safe, 0.0)
    return arr * scale[offsets]


def grad_loss_norm(model: UnmixingModel, norm_target: float = 1.0) -> np.ndarray:
    # subgradient 0 at the (non-differentiable) all-zero point
    fro = np.linalg.norm(model.lhat)
    if fro == 0.0:
        return np.zeros_like(model.lhat)
    return 2.0 * (fro - norm_target) * model.lhat / fro


def _loss_and_grad(
    covs: np.ndarray, model: UnmixingModel, weights: LossWeights
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Shared forward+backward pass over an (E, m, m) covariance stack.

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

    Returns (breakdown, gradient wrt lhat, variance matrix of the unit
    directions).
    """
    lhat = model.lhat
    col_norms = np.linalg.norm(lhat, axis=0)
    safe_norms = np.where(col_norms > 0.0, col_norms, 1.0)
    directions = lhat / safe_norms
    su = covs @ directions  # S_e U, shape (E, m, d)
    v_dir = np.einsum("emd,md->ed", su, directions)
    scale = float(np.linalg.norm(v_dir)) / np.sqrt(v_dir.size)
    v = v_dir / scale if scale > 0 else v_dir

    l_var = loss_var(v)
    l_env = loss_env(v)
    l_dim = loss_dim(v)
    l_diag = loss_diag(v)
    l_norm = loss_norm(model, weights.norm_target)
    total = (
        l_var
        + weights.lambda_e * l_env
        + weights.lambda_m * l_dim
        + weights.lambda_diag * l_diag
        + weights.lambda_norm * l_norm
    )

    # dtotal/dV, pulled back through the per-environment variance map
    # (dV[e, j]/du_j = 2 S_e u_j) onto the unit directions, then through the
    # normalization (the tangent projection I - u u^T, scaled by 1/||l_j||)
    g_vn = (
        grad_loss_var(v)
        + weights.lambda_e * grad_loss_env(v)
        + weights.lambda_m * grad_loss_dim(v)
        + weights.lambda_diag * grad_loss_diag(v)
    )
    if scale > 0:
        g_v = (g_vn - float((g_vn * v).sum()) * v / v.size) / scale
    else:
        g_v = g_vn
    w = 2.0 * np.einsum("emd,ed->md", su, g_v)
    grad = (w - directions * (directions * w).sum(axis=0)) / safe_norms
    grad[:, col_norms == 0.0] = 0.0  # direction undefined; subgradient 0
    grad += weights.lambda_norm * grad_loss_norm(model, weights.norm_target)

    if not (np.isfinite(total) and np.isfinite(grad).all()):
        raise NumericalError(
            f"non-finite loss or gradient (total={total!r}, |lhat|_max={np.abs(lhat).max():g})"
        )
    breakdown = LossBreakdown(
        total=float(total), var=l_var, env=l_env, dim=l_dim, diag=l_diag, norm=l_norm
    )
    return breakdown, grad, v


def total_loss(
    batches: Sequence[np.ndarray], model: UnmixingModel, weights: LossWeights
) -> tuple[float, LossBreakdown]:
    """Weighted objective value and its per-term breakdown."""
    breakdown, _, _ = _loss_and_grad(_covariances(batches, model.m), model, weights)
    return breakdown.total, breakdown


def gradient(
    batches: Sequence[np.ndarray], model: UnmixingModel, weights: LossWeights
) -> np.ndarray:
    """Exact gradient of the weighted objective with respect to lhat."""
    _, grad, _ = _loss_and_grad(_covariances(batches, model.m), model, weights)
    return grad


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


def adamw_step(state: AdamWState, grad: np.ndarray, config: TrainConfig) -> AdamWState:
    """One decoupled-weight-decay update; returns a fresh state."""
    if grad.shape != state.theta.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {state.theta.shape}")
    t = state.t + 1
    m = config.beta1 * state.m + (1.0 - config.beta1) * grad
    v = config.beta2 * state.v + (1.0 - config.beta2) * grad * grad
    m_hat = m / (1.0 - config.beta1**t)
    v_hat = v / (1.0 - config.beta2**t)
    theta = state.theta - config.learning_rate * (
        m_hat / (np.sqrt(v_hat) + config.eps) + config.weight_decay * state.theta
    )
    return AdamWState(theta, m, v, t)


def _directional_grad_check(
    covs: np.ndarray,
    model: UnmixingModel,
    weights: LossWeights,
    grad: np.ndarray,
    rng: np.random.Generator,
    h: float = 1e-5,
    n_directions: int = 3,
) -> float:
    """Max relative error of <grad, D> vs a central finite difference along D."""
    worst = 0.0
    for _ in range(n_directions):
        direction = rng.normal(size=model.lhat.shape)
        direction /= np.linalg.norm(direction)
        plus = UnmixingModel(model.lhat + h * direction, model.init_seed)
        minus = UnmixingModel(model.lhat - h * direction, model.init_seed)
        f_plus, _, _ = _loss_and_grad(covs, plus, weights)
        f_minus, _, _ = _loss_and_grad(covs, minus, weights)
        fd = (f_plus.total - f_minus.total) / (2.0 * h)
        analytic = float((grad * direction).sum())
        denom = max(abs(fd), abs(analytic), 1e-12)
        worst = max(worst, abs(fd - analytic) / denom)
    return worst


def train(
    dataset: EnvDataset, weights: LossWeights, config: TrainConfig
) -> tuple[UnmixingModel, TrainReport]:
    """Full-batch minimization of the objective over the dataset's train split.

    The train rows enter once, as the stack of per-environment covariances;
    every step evaluates loss and gradient on it and applies one optimizer
    update. batch_size only sets the steps per epoch,
    ceil(n_train / batch_size). Bit-reproducible for a fixed config.seed.
    """
    n_envs = dataset.n_envs
    if n_envs < 2:
        raise ValueError(f"need at least 2 environments, got {n_envs}")
    n_train = dataset.n_train
    if config.batch_size > n_train:
        raise ValueError(
            f"batch_size {config.batch_size} exceeds the {n_train} train rows per environment"
        )

    started = time.perf_counter()
    model = UnmixingModel.initialize(dataset.m, dataset.d, config.seed)
    state = adamw_init(model.lhat)
    covs = _covariances([dataset.train_observed(e) for e in range(n_envs)], dataset.m)
    steps_per_epoch = -(-n_train // config.batch_size)
    report = TrainReport()

    for epoch in range(config.epochs):
        sums = np.zeros(6)
        for step in range(steps_per_epoch):
            try:
                breakdown, grad, _ = _loss_and_grad(covs, model, weights)
            except NumericalError as err:
                report.wall_time_s = time.perf_counter() - started
                raise TrainingAborted(
                    f"aborted at epoch {epoch}, step {step}: {err}", epoch, step, report
                ) from err
            if epoch == 0 and step == 0:
                # a stream of its own: switching the diagnostic off changes no result
                check_rng = np.random.default_rng(derive_seed(config.seed, 1))
                report.grad_check_rel_err = _directional_grad_check(
                    covs, model, weights, grad, check_rng
                )
            state = adamw_step(state, grad, config)
            model = UnmixingModel(state.theta, init_seed=config.seed)
            sums += [
                breakdown.total,
                breakdown.var,
                breakdown.env,
                breakdown.dim,
                breakdown.diag,
                breakdown.norm,
            ]
        means = sums / steps_per_epoch
        report.epoch_losses.append(LossBreakdown(*means))

    report.final_variances = _variances(covs, model.lhat)
    report.wall_time_s = time.perf_counter() - started
    return model, report


def save_checkpoint(
    model: UnmixingModel,
    path: Union[str, Path],
    config: Optional[TrainConfig] = None,
    epoch: Optional[int] = None,
) -> None:
    """One-line JSON header, newline, then the row-major float64 parameters."""
    header = {
        "m": model.m,
        "d": model.d,
        "init_seed": model.init_seed,
        "epoch": epoch,
        "config": None if config is None else vars(config).copy(),
    }
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
        m, d = int(header["m"]), int(header["d"])
    except (ValueError, KeyError) as err:
        raise ValueError(f"{path}: malformed checkpoint header: {err}") from err
    payload = raw[sep + 1 :]
    if len(payload) != 8 * m * d:
        raise ValueError(f"{path}: expected {8 * m * d} payload bytes, found {len(payload)}")
    lhat = np.frombuffer(payload, dtype="<f8").reshape(m, d).copy()
    return UnmixingModel(lhat, init_seed=int(header.get("init_seed", 0))), header

"""Seeded benchmark grids and their CSV export.

One experiment cell = (scm kind, d, p, n_per_env, seed, method). Every seed
expands into independent substreams for the graph/coefficients, the data,
the mixing matrix, the intervention constants, the optimizer, and the ICA
init, so different seeds are fully fresh problem instances while any single
cell is bit-reproducible. Results collect into long-format rows plus a
mean/standard-error summary, both written with round-trippable float
formatting so identical configs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from ._rng import derive_seed
from .data import EnvDataset, MixingMatrix, generate, sample_mixing
from .envs import EnvironmentSet, check_sufficient_coverage, leave_one_out_design, separating_design
from .ica import fit_fastica, transform
from .metrics import mcc_between
from .scm import Scm, builtin_nonlinear_scm, sample_er_dag, sample_linear_scm
from .unmixing import LossWeights, NumericalError, TrainConfig, TrainingAborted, train

# substream purposes hung off each run seed
SEED_SCM = 0
SEED_DATA = 1
SEED_MIXING = 2
SEED_DESIGN = 3
SEED_TRAIN = 4
SEED_ICA = 5

SCM_KINDS = ("linear", "nonlinear-1", "nonlinear-2")
DESIGN_KINDS = ("leave-one-out", "separating")
METHODS = ("ours", "fastica")

DEFAULT_SEEDS = (0, 1, 2, 3, 4)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one benchmark run needs, with validated ranges."""

    d: int = 6
    p: float = 0.5
    n_per_env: int = 100_000
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    design: str = "leave-one-out"
    design_file: Optional[str] = None
    scm: str = "linear"
    weights: LossWeights = field(default_factory=LossWeights)
    epochs: int = 50
    batch_size: int = 4096
    learning_rate: float = 2e-3
    out_dir: str = "."

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.n_per_env < 4:
            raise ValueError(f"n_per_env must be >= 4, got {self.n_per_env}")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if self.scm not in SCM_KINDS:
            raise ValueError(f"scm must be one of {SCM_KINDS}, got {self.scm!r}")
        if self.design not in DESIGN_KINDS + ("custom-file",):
            raise ValueError(f"unknown design {self.design!r}")
        if self.design == "custom-file":
            if not self.design_file:
                raise ValueError("design custom-file needs design_file")
            if not Path(self.design_file).exists():
                raise ValueError(f"design file not found: {self.design_file}")
        if self.scm in ("nonlinear-1", "nonlinear-2") and self.d != 6:
            raise ValueError("the built-in nonlinear mechanisms are defined for d=6")

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            seed=seed,
        )


@dataclass(frozen=True)
class ResultRow:
    """One long-format result: a single (cell, seed, method) evaluation."""

    experiment: str
    scm: str
    d: int
    p: Optional[float]
    n_per_env: int
    seed: int
    method: str
    mcc: float
    error: str = ""


@dataclass(frozen=True)
class SummaryRow:
    experiment: str
    scm: str
    d: int
    p: Optional[float]
    n_per_env: int
    method: str
    mean_mcc: float
    stderr_mcc: float
    n_seeds: int


def build_scm(kind: str, d: int, p: float, seed: int) -> Scm:
    """Instantiate the generating mechanisms for one run seed."""
    if kind == "linear":
        dag = sample_er_dag(d, p, derive_seed(seed, SEED_SCM))
        return sample_linear_scm(dag, derive_seed(seed, SEED_SCM, 1))
    if kind == "nonlinear-1":
        return builtin_nonlinear_scm(1)
    if kind == "nonlinear-2":
        return builtin_nonlinear_scm(2)
    raise ValueError(f"unknown scm kind {kind!r}")


def build_design(kind: str, d: int, seed: int, design_file: Optional[str] = None) -> EnvironmentSet:
    if kind == "leave-one-out":
        return leave_one_out_design(d, derive_seed(seed, SEED_DESIGN))
    if kind == "separating":
        return separating_design(d, derive_seed(seed, SEED_DESIGN))
    if kind == "custom-file":
        envs = EnvironmentSet.from_json(Path(design_file).read_text())
        if envs.d != d:
            raise ValueError(f"design file is for d={envs.d}, experiment wants d={d}")
        return envs
    raise ValueError(f"unknown design kind {kind!r}")


def make_dataset(config: ExperimentConfig, seed: int) -> tuple[EnvDataset, dict]:
    """Dataset for one run seed plus the manifest that regenerates it."""
    scm = build_scm(config.scm, config.d, config.p, seed)
    envs = build_design(config.design, config.d, seed, config.design_file)
    report = check_sufficient_coverage(envs)
    if not report.passed:
        raise ValueError(f"design lacks sufficient coverage: {report}")
    mixing = sample_mixing(config.d, config.d, derive_seed(seed, SEED_MIXING))
    dataset = generate(
        scm, envs, mixing, config.n_per_env, rng_seed=derive_seed(seed, SEED_DATA)
    )
    manifest = {
        "format": "varsparse-manifest",
        "version": 1,
        "scm": config.scm,
        "d": config.d,
        "p": config.p if config.scm == "linear" else None,
        "n_per_env": config.n_per_env,
        "seed": seed,
        "derived_seeds": {
            "dag": derive_seed(seed, SEED_SCM),
            "coefficients": derive_seed(seed, SEED_SCM, 1),
            "data": derive_seed(seed, SEED_DATA),
            "mixing": derive_seed(seed, SEED_MIXING),
            "design": derive_seed(seed, SEED_DESIGN),
        },
        "design": config.design,
        "environments": json.loads(envs.to_json()),
        "mixing": mixing.entries.tolist(),
        "n_edges": scm.dag.n_edges,
    }
    return dataset, manifest


def regenerate(manifest: dict) -> EnvDataset:
    """Rebuild the exact dataset a manifest describes (bit-identical)."""
    if manifest.get("format") != "varsparse-manifest":
        raise ValueError("not a dataset manifest")
    kind = manifest["scm"]
    seeds = manifest["derived_seeds"]
    if kind == "linear":
        dag = sample_er_dag(manifest["d"], manifest["p"], seeds["dag"])
        scm = sample_linear_scm(dag, seeds["coefficients"])
    else:
        scm = builtin_nonlinear_scm(1 if kind == "nonlinear-1" else 2)
    envs = EnvironmentSet.from_json(json.dumps(manifest["environments"]))
    mixing = MixingMatrix(np.array(manifest["mixing"], dtype=float))
    return generate(scm, envs, mixing, manifest["n_per_env"], rng_seed=seeds["data"])


def evaluate_method(
    dataset: EnvDataset, method: str, config: ExperimentConfig, seed: int
) -> float:
    """Train/fit one method on the dataset and score MCC on the test split."""
    n_envs = dataset.n_envs
    test_latents = np.vstack([dataset.test_latents(e) for e in range(n_envs)])
    test_observed = np.vstack([dataset.test_observed(e) for e in range(n_envs)])
    if method == "ours":
        model, _ = train(
            dataset, config.weights, config.train_config(derive_seed(seed, SEED_TRAIN))
        )
        learned = test_observed @ model.lhat
    elif method == "fastica":
        pooled = np.vstack([dataset.train_observed(e) for e in range(n_envs)])
        model = fit_fastica(pooled, dataset.d, seed=derive_seed(seed, SEED_ICA))
        learned = transform(model, test_observed)
    else:
        raise ValueError(f"unknown method {method!r}")
    return mcc_between(test_latents, learned).score


def _score_methods(
    experiment: str, config: ExperimentConfig, seed: int, methods: Sequence[str]
) -> list[ResultRow]:
    """One row per method, all scored on the seed's single dataset; failures land in the rows."""
    base = dict(
        experiment=experiment,
        scm=config.scm,
        d=config.d,
        p=config.p if config.scm == "linear" else None,
        n_per_env=config.n_per_env,
        seed=seed,
    )
    try:
        dataset, _ = make_dataset(config, seed)
    except (ValueError, RuntimeError) as exc:
        return [ResultRow(method=m, mcc=float("nan"), error=str(exc), **base) for m in methods]
    rows = []
    for method in methods:
        try:
            score = evaluate_method(dataset, method, config, seed)
        except (TrainingAborted, NumericalError, ValueError, RuntimeError) as exc:
            rows.append(ResultRow(method=method, mcc=float("nan"), error=str(exc), **base))
        else:
            rows.append(ResultRow(method=method, mcc=score, **base))
    return rows


def run_cell(
    experiment: str, config: ExperimentConfig, seed: int, method: str
) -> ResultRow:
    """One (cell, seed, method) evaluation; failures land in the row."""
    (row,) = _score_methods(experiment, config, seed, (method,))
    return row


def _grid(which: str, config: ExperimentConfig) -> list[ExperimentConfig]:
    if which == "fig2a":
        return [replace(config, d=d, p=0.5, scm="linear") for d in (3, 6, 10, 30)]
    if which == "fig2b":
        return [replace(config, d=6, p=p, scm="linear") for p in (0.0, 0.25, 0.5, 0.75, 1.0)]
    if which == "fig2c":
        return [
            replace(config, d=6, p=0.5, scm="linear", n_per_env=n)
            for n in (10_000, 50_000, 100_000, 200_000)
        ]
    if which == "table1":
        return [replace(config, d=6, scm="nonlinear-1"), replace(config, d=6, scm="nonlinear-2")]
    raise ValueError(f"unknown experiment {which!r} (pick fig2a, fig2b, fig2c or table1)")


def run_experiment(
    which: str,
    config: Optional[ExperimentConfig] = None,
    methods: Sequence[str] = METHODS,
    d_limit: Optional[int] = None,
) -> list[ResultRow]:
    """All rows of one named grid, in deterministic (cell, seed, method) order."""
    config = config or ExperimentConfig()
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    rows = []
    for cell in _grid(which, config):
        if d_limit is not None and cell.d > d_limit:
            continue
        for seed in cell.seeds:
            rows.extend(_score_methods(which, cell, seed, methods))
    return rows


def summarize(rows: Sequence[ResultRow]) -> list[SummaryRow]:
    """Mean and standard error over seeds, nan rows dropped, cell order kept."""
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        key = (row.experiment, row.scm, row.d, row.p, row.n_per_env, row.method)
        groups.setdefault(key, []).append(row)
    out = []
    for key, members in groups.items():
        scores = np.array([r.mcc for r in members if np.isfinite(r.mcc)])
        k = len(scores)
        mean = float(scores.mean()) if k else float("nan")
        stderr = float(scores.std(ddof=1) / np.sqrt(k)) if k > 1 else (0.0 if k else float("nan"))
        out.append(SummaryRow(*key[:5], key[5], mean, stderr, k))
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


ROWS_HEADER = "experiment,scm,d,p,n_per_env,seed,method,mcc,error"
SUMMARY_HEADER = "experiment,scm,d,p,n_per_env,method,mean_mcc,stderr_mcc,n_seeds"


def write_rows_csv(rows: Sequence[ResultRow], path: Union[str, Path]) -> None:
    lines = [ROWS_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r.experiment,
                    r.scm,
                    str(r.d),
                    _fmt(r.p),
                    str(r.n_per_env),
                    str(r.seed),
                    r.method,
                    _fmt(r.mcc),
                    r.error.replace(",", ";").replace("\n", " "),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_csv(rows: Sequence[SummaryRow], path: Union[str, Path]) -> None:
    lines = [SUMMARY_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r.experiment,
                    r.scm,
                    str(r.d),
                    _fmt(r.p),
                    str(r.n_per_env),
                    r.method,
                    _fmt(r.mean_mcc),
                    _fmt(r.stderr_mcc),
                    str(r.n_seeds),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def reproduce(
    which: str,
    out_dir: Union[str, Path],
    config: Optional[ExperimentConfig] = None,
    methods: Sequence[str] = METHODS,
    d_limit: Optional[int] = None,
) -> tuple[Path, Path, list[ResultRow]]:
    """Run one grid and write <which>.csv plus <which>_summary.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = run_experiment(which, config, methods, d_limit)
    rows_path = out / f"{which}.csv"
    summary_path = out / f"{which}_summary.csv"
    write_rows_csv(rows, rows_path)
    write_summary_csv(summarize(rows), summary_path)
    return rows_path, summary_path, rows

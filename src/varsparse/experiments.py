"""Seeded benchmark grids and their CSV export.

One experiment cell = (scm kind, d, p, n_per_env, seed, method). Every seed
expands into independent substreams for the graph/coefficients, the data,
the mixing matrix, the intervention constants, the optimizer, and the ICA
init, so different seeds are fully fresh problem instances while any single
cell is bit-reproducible. regenerate rebuilds a seed's dataset from its
manifest and checks the manifest's sha256 (dataset_sha256) where it has one:
NumPy may change its streams across versions (NEP 19). Results collect into
long-format rows plus a mean/standard-error summary, both written with
round-trippable float formatting so identical configs produce byte-identical
files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ._rng import derive_seed
from .data import EnvDataset, MixingDrawsExhausted, MixingMatrix, generate, sample_mixing, rows_per_env
from .envs import (
    EnvironmentSet,
    _integer,
    _real,
    check_sufficient_coverage,
    leave_one_out_design,
    separating_design,
)
from .ica import IcaRankError, fit_fastica
from .metrics import PooledMoments, mcc_between, pooled_moments
from .scm import Scm, builtin_nonlinear_scm, sample_er_dag, sample_linear_scm
from .unmixing import TrainConfig, TrainingAborted, covariances, train

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

# The benchmark grids: each cell is a set of overrides of the caller's config,
# listed in row order.
GRIDS: dict[str, tuple[dict, ...]] = {
    "fig2a": tuple(dict(d=d, p=0.5, scm="linear") for d in (3, 6, 10, 30)),
    "fig2b": tuple(dict(d=6, p=p, scm="linear") for p in (0.0, 0.25, 0.5, 0.75, 1.0)),
    "fig2c": tuple(
        dict(d=6, p=0.5, scm="linear", n_per_env=n) for n in (10_000, 50_000, 100_000, 200_000)
    ),
    "table1": (dict(d=6, scm="nonlinear-1"), dict(d=6, scm="nonlinear-2")),
}


class CoverageError(ValueError):
    """The run's intervention design fails the sufficient-coverage condition."""


class DesignDimensionError(ValueError):
    """A design file's dimension differs from the experiment's d."""


class ManifestDigestError(ValueError):
    """The regenerated data differs from what the manifest's sha256 records."""


# Failures a valid configuration can meet on some seed. Each becomes a NaN row
# whose error names its class; any other exception is a bug and propagates.
_EXPECTED_FAILURES = (
    CoverageError,
    DesignDimensionError,
    MixingDrawsExhausted,
    TrainingAborted,
    IcaRankError,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one benchmark run needs, with validated ranges.

    design is a name in DESIGN_KINDS or the path of a regimes JSON file."""

    d: int = 6
    p: float = 0.5
    n_per_env: int = 100_000
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    design: str = "leave-one-out"
    scm: str = "linear"
    epochs: int = 50
    batch_size: int = 4096
    out_dir: str = "."

    def __post_init__(self) -> None:
        # a float or bool count would pass the range checks and fail later, in
        # make_dataset; NumPy numbers are stored as ints and floats, which JSON
        # and the CSV writers print plainly
        d, n_per_env = _integer("d", self.d), rows_per_env(self.n_per_env)
        seeds = tuple(_integer("seed", seed) for seed in self.seeds)
        p = _real("p", self.p)
        for name, value in (("d", d), ("p", p), ("n_per_env", n_per_env), ("seeds", seeds)):
            object.__setattr__(self, name, value)
        if d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if not seeds:
            raise ValueError("seeds must be nonempty")
        if min(seeds) < 0:
            raise ValueError(f"seeds must be nonnegative, got {self.seeds}")
        if len(set(seeds)) < len(seeds):  # summarize would count a repeat as another seed
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        if self.scm not in SCM_KINDS:
            raise ValueError(f"scm must be one of {SCM_KINDS}, got {self.scm!r}")
        if self.design not in DESIGN_KINDS and not Path(self.design).is_file():
            raise ValueError(f"design {self.design!r} is neither one of {DESIGN_KINDS} nor a file")
        if self.scm in ("nonlinear-1", "nonlinear-2") and self.d != 6:
            raise ValueError("the built-in nonlinear mechanisms are defined for d=6")
        self.train_config(0)  # TrainConfig states the rules for the training fields

    def train_config(self, seed: int) -> TrainConfig:
        """The optimizer settings of one run seed, on its training substream."""
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            seed=derive_seed(seed, SEED_TRAIN),
        )


@dataclass(frozen=True)
class ResultRow:
    """One long-format result: a single (cell, seed, method) evaluation.

    Field order is the column order of the rows CSV."""

    experiment: str
    scm: str
    d: int
    p: Optional[float]
    n_per_env: int
    seed: int
    method: str
    mcc: float
    converged: Optional[bool] = None  # None (a blank CSV cell) for failed rows
    n_iter: Optional[int] = None
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


def _derived_seeds(seed: int) -> dict[str, int]:
    """The substream seeds of one run seed, by purpose, as the manifest records them."""
    return {
        "dag": derive_seed(seed, SEED_SCM),
        "coefficients": derive_seed(seed, SEED_SCM, 1),
        "data": derive_seed(seed, SEED_DATA),
        "mixing": derive_seed(seed, SEED_MIXING),
        "design": derive_seed(seed, SEED_DESIGN),
    }


def _scm(kind: str, d: int, p: Optional[float], seeds: dict) -> Scm:
    """The generating mechanisms of one kind, from a run's _derived_seeds."""
    if kind == "linear":
        return sample_linear_scm(sample_er_dag(d, p, seeds["dag"]), seeds["coefficients"])
    if kind == "nonlinear-1":
        return builtin_nonlinear_scm(1)
    if kind == "nonlinear-2":
        return builtin_nonlinear_scm(2)
    raise ValueError(f"unknown scm kind {kind!r}")


def read_json(path: Union[str, Path], parse: Callable):
    """parse(document) for the JSON document in the file at path. A file that
    cannot be parsed, or a document that parse rejects with ValueError, raises
    ValueError whose message starts with the path."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except (ValueError, RecursionError) as err:  # undecodable, not JSON, nested too deep, or malformed
        raise ValueError(f"{path}: {err}") from err


def build_design(design: str, d: int, seed: int) -> EnvironmentSet:
    """The named design for one run seed, or else the regimes file at path design."""
    if design == "leave-one-out":
        return leave_one_out_design(d, derive_seed(seed, SEED_DESIGN))
    if design == "separating":
        return separating_design(d, derive_seed(seed, SEED_DESIGN))
    envs = read_json(design, EnvironmentSet.from_dict)
    if envs.d != d:
        raise DesignDimensionError(f"{design}: design file is for d={envs.d}, experiment wants d={d}")
    return envs


def make_dataset(config: ExperimentConfig, seed: int) -> tuple[EnvDataset, dict]:
    """Dataset for one run seed plus the manifest that regenerates it."""
    envs = build_design(config.design, config.d, seed)
    report = check_sufficient_coverage(envs)
    if not report.passed:
        raise CoverageError(f"design lacks sufficient coverage: {report}")
    seeds = _derived_seeds(seed)
    p = config.p if config.scm == "linear" else None
    manifest = {
        "format": "varsparse-manifest",
        "version": 1,
        "scm": config.scm,
        "d": config.d,
        "p": p,
        "n_per_env": config.n_per_env,
        "seed": seed,
        "derived_seeds": seeds,
        "design": config.design,
        "environments": envs.to_dict(),
        "mixing": sample_mixing(config.d, seeds["mixing"]).entries.tolist(),
        "n_edges": _scm(config.scm, config.d, p, seeds).dag.n_edges,
    }
    return regenerate(manifest), manifest


def dataset_sha256(dataset: EnvDataset) -> str:
    """Hex sha256 of the mixing, then each environment's latents, as little-endian float64."""
    digest = hashlib.sha256()
    for array in (dataset.mixing.entries, *dataset.latents):
        digest.update(np.ascontiguousarray(array, dtype="<f8"))
    return digest.hexdigest()


def regenerate(manifest: dict) -> EnvDataset:
    """Rebuild the exact dataset a manifest describes (bit-identical).

    A missing or mistyped field raises ValueError("malformed manifest: ...").
    Data that differ from the manifest's sha256, if any, raise ManifestDigestError."""
    if not isinstance(manifest, dict) or manifest.get("format") != "varsparse-manifest":
        raise ValueError("not a dataset manifest")
    try:
        kind, p = manifest["scm"], manifest["p"]
        if kind == "linear":
            p = _real("p", p)
        d = _integer("d", manifest["d"])
        n_per_env = _integer("n_per_env", manifest["n_per_env"])
        seeds = {
            key: _integer(f"derived seed {key}", manifest["derived_seeds"][key])
            for key in ("dag", "coefficients", "data")
        }
        envs = EnvironmentSet.from_dict(manifest["environments"])
        entries = np.array([[_real("mixing entry", x) for x in row] for row in manifest["mixing"]])
    except KeyError as err:
        raise ValueError(f"malformed manifest: missing field {err}") from err
    except (TypeError, ValueError) as err:
        raise ValueError(f"malformed manifest: {err}") from err
    scm = _scm(kind, d, p, seeds)
    dataset = generate(scm, envs, MixingMatrix(entries), n_per_env, rng_seed=seeds["data"])
    if "sha256" in manifest and manifest["sha256"] != (found := dataset_sha256(dataset)):
        raise ManifestDigestError(f"regenerated sha256 {found} != manifest's {manifest['sha256']!r}")
    return dataset


def train_covariances(dataset: EnvDataset) -> np.ndarray:
    """(E, d, d) stack of the covariances of each environment's train rows."""
    return covariances([dataset.train_observed(e) for e in range(dataset.n_envs)])


def pooled_test_moments(dataset: EnvDataset) -> PooledMoments:
    """Pooled moments of the test latents over the environments, with the
    mixing that maps them to the observations."""
    return pooled_moments(
        (dataset.test_latents(e) for e in range(dataset.n_envs)), dataset.mixing.entries
    )


def evaluate_method(
    dataset: EnvDataset, method: str, config: ExperimentConfig, seed: int
) -> float:
    """Train/fit one method on the dataset and score MCC on the test split."""
    return _fit_and_score(dataset, method, config, seed, pooled_test_moments(dataset))["mcc"]


def _fit_and_score(
    dataset: EnvDataset,
    method: str,
    config: ExperimentConfig,
    seed: int,
    moments: PooledMoments,
) -> dict:
    """The ResultRow fields of one method's fit: its mcc, whether the fit
    converged and after how many iterations.

    Both methods learn a linear map (x - offset) @ unmixing, scored from the
    dataset's pooled test moments, which the caller builds once."""
    if method == "ours":
        model, report = train(train_covariances(dataset), dataset.n_train, config.train_config(seed))
        learned, converged, n_iter = (model.lhat, 0.0), report.converged, report.n_iter
    elif method == "fastica":
        blocks = [dataset.train_observed(e) for e in range(dataset.n_envs)]
        ica = fit_fastica(blocks, dataset.d, seed=derive_seed(seed, SEED_ICA))
        learned, converged, n_iter = (ica.whitening @ ica.rotation.T, ica.mean), ica.converged, ica.n_iter
    else:
        raise ValueError(f"unknown method {method!r}")
    return dict(mcc=mcc_between(moments, learned).score, converged=converged, n_iter=n_iter)


def _score_methods(
    experiment: str, config: ExperimentConfig, seed: int, methods: Sequence[str]
) -> list[ResultRow]:
    """One row per method, all scored on the seed's single dataset; expected
    failures land in the rows, anything else raises."""
    base = dict(
        experiment=experiment,
        scm=config.scm,
        d=config.d,
        p=config.p if config.scm == "linear" else None,
        n_per_env=config.n_per_env,
        seed=seed,
    )

    def failed(method: str, exc: Exception) -> ResultRow:
        error = f"{type(exc).__name__}: {exc}"
        return ResultRow(method=method, mcc=float("nan"), error=error, **base)

    try:
        dataset, _ = make_dataset(config, seed)
    except _EXPECTED_FAILURES as exc:
        return [failed(m, exc) for m in methods]
    moments = pooled_test_moments(dataset)  # built once, shared by the methods
    rows = []
    for method in methods:
        try:
            fit = _fit_and_score(dataset, method, config, seed, moments)
        except _EXPECTED_FAILURES as exc:
            rows.append(failed(method, exc))
        else:
            rows.append(ResultRow(method=method, **fit, **base))
    return rows


def run_cell(
    experiment: str, config: ExperimentConfig, seed: int, method: str
) -> ResultRow:
    """One (cell, seed, method) evaluation; expected failures land in the row."""
    (row,) = _score_methods(experiment, config, seed, (method,))
    return row


def _check_grid(which: str, methods: Sequence[str]) -> None:
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    if len(set(methods)) < len(methods):  # summarize would count a repeat as another seed
        raise ValueError(f"methods must be distinct, got {tuple(methods)}")
    if which not in GRIDS:
        raise ValueError(f"unknown experiment {which!r} (pick one of {', '.join(GRIDS)})")


def run_experiment(
    which: str,
    config: Optional[ExperimentConfig] = None,
    methods: Sequence[str] = METHODS,
) -> list[ResultRow]:
    """All rows of one named grid, in deterministic (cell, seed, method) order."""
    config = config or ExperimentConfig()
    _check_grid(which, methods)
    rows = []
    for cell in [replace(config, **overrides) for overrides in GRIDS[which]]:
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
        out.append(SummaryRow(*key, mean, stderr, k))
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value.replace(",", ";").replace("\n", " ")  # keep commas and newlines out of cells
    return str(value)


def _write_csv(cls: type, rows: Sequence, path: Union[str, Path]) -> None:
    """One header line of cls's field names, then one line per row, fields in order."""
    names = [f.name for f in fields(cls)]
    lines = [",".join(names)]
    lines += [",".join(_fmt(getattr(r, name)) for name in names) for r in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_rows_csv(rows: Sequence[ResultRow], path: Union[str, Path]) -> None:
    _write_csv(ResultRow, rows, path)


def write_summary_csv(rows: Sequence[SummaryRow], path: Union[str, Path]) -> None:
    _write_csv(SummaryRow, rows, path)


def reproduce(
    which: str,
    config: Optional[ExperimentConfig] = None,
    methods: Sequence[str] = METHODS,
) -> tuple[Path, Path, list[ResultRow]]:
    """Run one grid and write <which>.csv plus <which>_summary.csv under
    config.out_dir."""
    config = config or ExperimentConfig()
    _check_grid(which, methods)  # a bad request creates no directory
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = run_experiment(which, config, methods)
    rows_path = out / f"{which}.csv"
    summary_path = out / f"{which}_summary.csv"
    write_rows_csv(rows, rows_path)
    write_summary_csv(summarize(rows), summary_path)
    return rows_path, summary_path, rows

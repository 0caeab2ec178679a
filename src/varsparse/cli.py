"""Command-line front end: generate datasets, validate intervention designs,
train and evaluate unmixing models, and reproduce the benchmark grids as CSV.

Configuration comes from an INI-style file (sections ``[experiment]`` and
``[train]``) with command-line flags taking precedence over file values.
Exit codes: 0 on success, 1 on validation or I/O failure, 2 when
optimization aborts on non-finite numbers.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

from .data import export_csv, load, save
from .envs import EnvironmentSet, check_sufficient_coverage
from .experiments import (
    DESIGN_KINDS,
    GRIDS,
    METHODS,
    SCM_KINDS,
    ExperimentConfig,
    build_design,
    make_dataset,
    pooled_test_moments,
    regenerate,
    reproduce,
    train_covariances,
)
from .metrics import disentanglement_check, mcc_between
from .unmixing import (
    TrainConfig,
    TrainingAborted,
    load_checkpoint,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _seed_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _parsers(cls: type) -> dict:
    """Each field of cls with the parser of its default's type."""
    return {f.name: _seed_list if f.name == "seeds" else type(f.default) for f in fields(cls)}


# Config-file keys are ExperimentConfig's fields. [train] holds those that
# TrainConfig shares; [experiment] holds the rest.
_TRAIN_FIELDS = {f.name for f in fields(TrainConfig)}
_SECTIONS = {
    "experiment": {k: v for k, v in _parsers(ExperimentConfig).items() if k not in _TRAIN_FIELDS},
    "train": {k: v for k, v in _parsers(ExperimentConfig).items() if k in _TRAIN_FIELDS},
}

class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this tool reserves 2 for
    numerical aborts, so route them to the validation code instead. A flag
    must be spelled out: a prefix such as --d is not read as --data."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _parse_section(parser: configparser.ConfigParser, name: str, schema: dict) -> dict:
    out = {}
    if not parser.has_section(name):
        return out
    for key, raw in parser.items(name):
        if key not in schema:
            raise ValueError(f"unknown config key [{name}] {key}")
        try:
            out[key] = schema[key](raw)
        except ValueError as err:
            raise ValueError(f"bad config value [{name}] {key} = {raw!r}: {err}") from err
    return out


def load_config_file(path: str) -> tuple[dict, dict]:
    """Read the two sections of a config file into typed dicts."""
    parser = configparser.ConfigParser(interpolation=None)  # values are literal: '%' is no escape
    text = Path(path).read_text()
    try:
        parser.read_string(text, source=path)
    except configparser.Error as err:
        raise ValueError(f"cannot parse config {path}: {err}") from err
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}] in {path}")
    return tuple(_parse_section(parser, name, keys) for name, keys in _SECTIONS.items())


def _given_fields(args: argparse.Namespace) -> dict:
    """The ExperimentConfig fields that the config file or a flag sets, flags winning."""
    exp, train_kwargs = load_config_file(args.config) if args.config else ({}, {})
    given = {**exp, **train_kwargs}
    for f in fields(ExperimentConfig):  # flags are stored under the field they set
        value = getattr(args, f.name, None)
        if value is not None:
            given[f.name] = (value,) if f.name == "seeds" else value
    return given


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge config file then flags into a validated ExperimentConfig."""
    return ExperimentConfig(**_given_fields(args))


def _flags_given(args: argparse.Namespace, names: Sequence[str]) -> str:
    """The command-line flags, among those that set the ExperimentConfig fields names, given."""
    spelled = {"seeds": "--seed", "n_per_env": "--n"}  # where a flag differs from its field
    return " ".join(spelled.get(n, f"--{n}") for n in names if getattr(args, n, None) is not None)


def cmd_generate(args: argparse.Namespace) -> int:
    if args.from_manifest:  # the manifest fixes what these flags would set
        unread = _flags_given(args, ("seeds", "design", "d", "scm", "p", "n_per_env"))
        if unread:
            raise ValueError(f"--from-manifest regenerates what the manifest records; drop {unread}")
    config = build_config(args)
    seed = config.seeds[0]
    out = Path(config.out_dir)
    if args.from_manifest:
        manifest = json.loads(Path(args.from_manifest).read_text())
        dataset = regenerate(manifest)
    else:
        dataset, manifest = make_dataset(config, seed)
    try:  # read before writing: a manifest short of a summary field leaves no output
        summary = f"seed {manifest['seed']}, {manifest['n_edges']} edges"
    except KeyError as err:
        raise ValueError(f"malformed manifest: missing field {err}") from err
    out.mkdir(parents=True, exist_ok=True)
    save(dataset, out / "dataset.bin")
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    paths = export_csv(dataset, out)
    print(f"wrote {out / 'dataset.bin'} ({dataset.n_envs} environments, {dataset.n_per_env} rows each)")
    print(f"wrote {out / 'manifest.json'} ({summary})")
    print(f"wrote {len(paths)} per-environment CSV files under {out}")
    return EXIT_OK


def cmd_check_design(args: argparse.Namespace) -> int:
    given = _given_fields(args)
    config = ExperimentConfig(**given)
    if config.design in DESIGN_KINDS or "d" in given:
        envs = build_design(config.design, config.d, config.seeds[0])
    else:  # a regimes file keeps its own d unless --d or the config file names one
        envs = EnvironmentSet.from_json(Path(config.design).read_text())
    report = check_sufficient_coverage(envs)
    print(f"{len(envs)} environments over d={envs.d}: {report}")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_train(args: argparse.Namespace) -> int:
    config = build_config(args)
    if not args.data:
        raise ValueError("train needs --data pointing at a generated dataset")
    dataset = load(args.data)
    seed = config.seeds[0]
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_config = config.train_config(seed)
    model, report = train(train_covariances(dataset), dataset.n_train, train_config)
    save_checkpoint(model, out / "checkpoint.bin", train_config)
    (out / "train_report.json").write_text(report.to_json() + "\n")
    report.to_csv(out / "train_losses.csv")
    score = mcc_between(pooled_test_moments(dataset), (model.lhat, 0.0)).score
    print(f"last epoch's mean training loss {float(report.epoch_losses[-1].total)!r}")
    print(f"test-split mcc {score!r}")
    print(f"wrote {out / 'checkpoint.bin'}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    if not args.data or not args.checkpoint:
        raise ValueError("evaluate needs --data and --checkpoint")
    dataset = load(args.data)
    model, _ = load_checkpoint(args.checkpoint)
    if model.d != dataset.d:
        raise ValueError(f"checkpoint unmixes d={model.d} but the dataset has d={dataset.d}")
    result = mcc_between(pooled_test_moments(dataset), (model.lhat, 0.0))
    print(f"test-split mcc {result.score!r}")
    print(f"matched pairs (reference -> learned): {result.permutation}")
    effective = dataset.mixing.entries @ model.lhat
    verdict = disentanglement_check(effective)
    print(f"scaled-permutation structure: {'pass' if verdict.passed else 'FAIL'}")
    if not verdict.passed:
        print(str(verdict))
    return EXIT_OK


def cmd_reproduce(args: argparse.Namespace) -> int:
    fixed = set.intersection(*(set(cell) for cell in GRIDS[args.which]))
    unread = _flags_given(args, [f.name for f in fields(ExperimentConfig) if f.name in fixed])
    if unread:
        raise ValueError(f"every cell of {args.which} sets what {unread} would; drop them")
    config = build_config(args)
    methods = tuple(args.methods.split(",")) if args.methods else METHODS
    rows_path, summary_path, rows = reproduce(args.which, config, methods=methods)
    print(f"wrote {rows_path} ({len(rows)} rows)")
    print(f"wrote {summary_path}")
    for r in rows:
        where = f"scm={r.scm} d={r.d} p={r.p} n={r.n_per_env} seed={r.seed} {r.method}"
        if r.error:
            print(f"row failed ({where}): {r.error}")
        elif r.ica_converged is False:
            print(f"row did not converge ({where}): FastICA stopped at {r.ica_n_iter} iterations")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="varsparse", description=__doc__)
    # flags grouped by what they describe; each subcommand takes the groups it reads
    run, out, design, sampling = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    run.add_argument("--config", help="INI config file; flags override it")
    run.add_argument("--seed", type=int, dest="seeds", metavar="SEED", help="run seed")
    out.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
    design.add_argument("--design", help="leave-one-out, separating, or a regimes JSON file")
    design.add_argument("--d", type=int, help="latent dimension")
    sampling.add_argument("--scm", choices=SCM_KINDS)
    sampling.add_argument("--p", type=float, help="edge probability of the random graph")
    sampling.add_argument("--n", type=int, dest="n_per_env", metavar="N", help="rows per environment")
    everything = [run, out, design, sampling]

    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("generate", parents=everything, help="sample a dataset to disk")
    gen.add_argument("--from-manifest", help="regenerate bit-exactly from a manifest JSON")
    gen.set_defaults(func=cmd_generate)

    chk = sub.add_parser(
        "check-design", parents=[run, design], help="validate an intervention design"
    )
    chk.set_defaults(func=cmd_check_design)

    trn = sub.add_parser("train", parents=[run, out], help="fit the unmixing model on a dataset")
    trn.add_argument("--data", help="dataset container from generate")
    trn.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    ev.add_argument("--data", help="dataset container from generate")
    ev.add_argument("--checkpoint", help="checkpoint from train")
    ev.set_defaults(func=cmd_evaluate)

    rep = sub.add_parser("reproduce", parents=everything, help="run a benchmark grid to CSV")
    rep.add_argument("which", choices=tuple(GRIDS))
    rep.add_argument("--methods", help="comma list from {ours,fastica}; default both")
    rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingAborted as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as err:  # json.JSONDecodeError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: generate datasets, validate intervention designs,
train and evaluate unmixing models, and reproduce the benchmark grids as CSV.

A run's fields come from flags, with ExperimentConfig's defaults for the rest;
the files it reads (manifests, regimes files, checkpoints) are JSON documents.
Exit codes: 0 on success, 1 on validation or I/O failure, 2 when
optimization aborts on non-finite numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

from .data import export_csv
from .envs import EnvironmentSet, _integer, check_sufficient_coverage
from .experiments import (
    DESIGN_KINDS,
    GRIDS,
    METHODS,
    SCM_KINDS,
    ExperimentConfig,
    build_design,
    dataset_sha256,
    make_dataset,
    pooled_test_moments,
    read_json,
    regenerate,
    reproduce,
    train_covariances,
)
from .metrics import disentanglement_check, mcc_between
from .unmixing import TrainingAborted, UnmixingModel, train

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _seed_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:  # argparse would name this function in its message
        raise argparse.ArgumentTypeError(f"not a list of integer seeds: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this tool reserves 2 for
    numerical aborts, so route them to the validation code instead. A flag
    must be spelled out: a prefix such as --d is not read as --data."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The validated ExperimentConfig of the flags given, defaults filling the rest."""
    given = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}  # flags are stored by field
    return ExperimentConfig(**{name: value for name, value in given.items() if value is not None})


def _one_run(args: argparse.Namespace) -> tuple[ExperimentConfig, int]:
    """build_config(args) and the seed of a command that makes one run: the
    one seed --seed names, else the first default."""
    config = build_config(args)
    if args.seeds is not None and len(args.seeds) > 1:
        raise ValueError(f"{args.command} makes one run, so --seed takes one seed, not {len(args.seeds)}")
    return config, config.seeds[0]


def _flags_given(args: argparse.Namespace, names: Sequence[str]) -> str:
    """The command-line flags, among those that set the ExperimentConfig fields names, given."""
    spelled = {"seeds": "--seed", "n_per_env": "--n"}  # where a flag differs from its field
    return " ".join(spelled.get(n, f"--{n}") for n in names if getattr(args, n, None) is not None)


def _summary(manifest: dict) -> str:
    """The seed and edge count that generate reports for a manifest."""
    try:
        return f"seed {manifest['seed']}, {manifest['n_edges']} edges"
    except KeyError as err:
        raise ValueError(f"malformed manifest: missing field {err}") from err


def cmd_generate(args: argparse.Namespace) -> int:
    if args.from_manifest:  # the manifest fixes what these flags would set
        unread = _flags_given(args, ("seeds", "design", "d", "scm", "p", "n_per_env"))
        if unread:
            raise ValueError(f"--from-manifest regenerates what the manifest records; drop {unread}")
    config, seed = _one_run(args)
    out = Path(config.out_dir)
    if args.from_manifest:  # read before writing: a manifest short of a summary field leaves no output
        manifest, dataset, summary = read_json(
            args.from_manifest, lambda doc: (doc, regenerate(doc), _summary(doc))
        )
    else:
        dataset, manifest = make_dataset(config, seed)
        summary = _summary(manifest)
    if "sha256" not in manifest:  # one that regenerate checked is kept as it was
        manifest["sha256"] = dataset_sha256(dataset)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    paths = export_csv(dataset, out)
    print(f"wrote {out / 'manifest.json'} ({summary})")
    print(f"wrote {len(paths)} per-environment CSV files under {out} ({dataset.n_per_env} rows each)")
    return EXIT_OK


def cmd_check_design(args: argparse.Namespace) -> int:
    config, seed = _one_run(args)
    if config.design in DESIGN_KINDS or args.d is not None:
        envs = build_design(config.design, config.d, seed)
    else:  # a regimes file keeps its own d unless --d names one
        envs = read_json(config.design, EnvironmentSet.from_dict)
    report = check_sufficient_coverage(envs)
    print(f"{len(envs)} environments over d={envs.d}: {report}")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _run_seed(manifest: dict) -> int:
    """The run seed a manifest records: it names the data and the optimizer together."""
    try:
        seed = _integer("seed", manifest["seed"])
    except KeyError as err:
        raise ValueError(f"malformed manifest: missing field {err}") from err
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return seed


def cmd_train(args: argparse.Namespace) -> int:
    config = build_config(args)
    if not args.data:
        raise ValueError("train needs --data pointing at a generated manifest.json")
    dataset, train_config = read_json(
        args.data, lambda doc: (regenerate(doc), config.train_config(_run_seed(doc)))
    )
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model, report = train(train_covariances(dataset), dataset.n_train, train_config)
    checkpoint = out / "checkpoint.json"
    checkpoint.write_text(json.dumps({"config": vars(train_config), **model.to_dict()}) + "\n")
    (out / "train_report.json").write_text(report.to_json() + "\n")
    score = mcc_between(pooled_test_moments(dataset), (model.lhat, 0.0)).score
    print(f"last epoch's mean training loss {float(report.epoch_losses[-1].total)!r}")
    print(f"L-BFGS-B converged {report.converged} after {report.n_iter} iterations, {report.n_evals} evaluations")
    print(f"test-split mcc {score!r}")
    print(f"wrote {checkpoint}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    if not args.data or not args.checkpoint:
        raise ValueError("evaluate needs --data and --checkpoint")
    dataset = read_json(args.data, regenerate)
    model = read_json(args.checkpoint, UnmixingModel.from_dict)
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
        elif r.converged is False:
            print(f"row did not converge ({where}): stopped at {r.n_iter} iterations")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="varsparse", description=__doc__)
    # flags grouped by what they describe; each subcommand takes the groups it reads
    run, out, design, sampling = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    run.add_argument(
        "--seed", type=_seed_list, dest="seeds", metavar="SEEDS",
        help="run seed; reproduce also takes a comma list, such as 0,1,2",
    )
    out.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
    design.add_argument("--design", help="leave-one-out, separating, or a regimes JSON file")
    design.add_argument("--d", type=int, help="latent dimension")
    sampling.add_argument("--scm", choices=SCM_KINDS)
    sampling.add_argument("--p", type=float, help="edge probability of the random graph")
    sampling.add_argument("--n", type=int, dest="n_per_env", metavar="N", help="rows per environment")
    everything = [run, out, design, sampling]

    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("generate", parents=everything, help="write a dataset's manifest and CSVs")
    gen.add_argument("--from-manifest", help="regenerate bit-exactly from a manifest JSON")
    gen.set_defaults(func=cmd_generate)

    chk = sub.add_parser(
        "check-design", parents=[run, design], help="validate an intervention design"
    )
    chk.set_defaults(func=cmd_check_design)

    trn = sub.add_parser("train", parents=[out], help="fit the unmixing model on a dataset")
    trn.add_argument("--data", help="manifest.json from generate; its seed is the run seed")
    trn.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    ev.add_argument("--data", help="manifest.json from generate")
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

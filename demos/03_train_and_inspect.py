"""Train the variance-sparsity unmixer and watch the structure appear.

Generates a random linear problem, trains with the default objective, and
prints the learned representation's per-environment variance matrix (which
becomes one-nonzero-per-row), the effective matrix mixing @ lhat (which
becomes a scaled permutation), the structural check verdict, and the MCC.
"""

import argparse

import numpy as np

from varsparse.experiments import (
    ExperimentConfig,
    make_dataset,
    pooled_test_moments,
    train_covariances,
)
from varsparse.metrics import disentanglement_check, mcc_between
from varsparse.unmixing import covariances, train, variance_matrix


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--n", type=int, default=20_000, help="rows per environment")
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = ExperimentConfig(
        d=args.d, n_per_env=args.n, seeds=(args.seed,), epochs=args.epochs, batch_size=1024
    )
    dataset, _ = make_dataset(config, args.seed)
    train_covs = train_covariances(dataset)
    model, report = train(train_covs, dataset.n_train, config.train_config(args.seed))

    np.set_printoptions(precision=5, suppress=True)
    first, last = report.epoch_losses[0], report.epoch_losses[-1]
    print(f"loss {first.total:.3f} -> {last.total:.3f} over {len(report.epoch_losses)} epochs, "
          f"{report.n_iter} L-BFGS-B iterations, converged {report.converged} "
          f"({report.wall_time_s:.1f}s, gradient check {report.grad_check_rel_err:.2e})")
    print()

    covs = covariances([dataset.test_observed(e) for e in range(dataset.n_envs)])
    print("variance matrix of the learned representation (rows = environments):")
    print(variance_matrix(covs, model.lhat))
    print()

    effective = dataset.mixing.entries @ model.lhat
    print("effective matrix mixing @ lhat:")
    print(effective)
    verdict = disentanglement_check(effective)
    print(verdict)
    print()

    result = mcc_between(pooled_test_moments(dataset), (model.lhat, 0.0))
    print(f"mcc on the test split: {result.score:.4f}")
    print(f"matched pairs (true -> learned): {result.permutation}")


if __name__ == "__main__":
    main()

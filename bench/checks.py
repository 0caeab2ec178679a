"""Correctness checks the benchmark applies to the program's outputs.

Every check recomputes what it compares from raw arrays with plain NumPy and
SciPy's assignment solver, apart from varsparse's own code paths, and raises
CheckFailed with the numbers when an output is wrong.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

MCC_TOL = 1e-9  # program MCC vs the recomputed one
MCC_FLOOR_D10 = 0.95  # acceptance criterion 1's floor on the mean MCC at d=10
WHITE_TOL = 1e-8  # FastICA components: max |covariance - identity|
MIXING_TOL = 1e-9  # max |observed - latents @ mixing|


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def independent_mcc(reference: np.ndarray, learned: np.ndarray) -> float:
    """Mean |Pearson r| under the best one-to-one matching of columns.

    A column without variance has no defined correlation; it counts as 0,
    which is how the program scores a collapsed learned dimension.
    """
    d = reference.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.corrcoef(reference, learned, rowvar=False)[:d, d:]
    weights = np.abs(np.nan_to_num(corr, nan=0.0))
    rows, cols = linear_sum_assignment(weights, maximize=True)
    return float(weights[rows, cols].mean())


def check_mcc(reference: np.ndarray, learned: np.ndarray, program_mcc: float) -> None:
    expected = independent_mcc(reference, learned)
    if not abs(program_mcc - expected) <= MCC_TOL:
        raise CheckFailed(f"program MCC {program_mcc!r} != recomputed {expected!r}")


def check_mcc_floor(scores: Sequence[float], floor: float) -> None:
    mean = float(np.mean(scores))
    if not mean >= floor:
        raise CheckFailed(f"mean MCC {mean:.4f} over {len(scores)} datasets is below {floor}")


def ica_components(mean: np.ndarray, whitening: np.ndarray, rotation: np.ndarray,
                   x: np.ndarray) -> np.ndarray:
    """((x - mean) @ whitening) @ rotation.T, the map an IcaModel documents."""
    return ((x - mean) @ whitening) @ rotation.T


def check_whitened(components: np.ndarray) -> None:
    centered = components - components.mean(axis=0)
    cov = centered.T @ centered / components.shape[0]
    err = float(np.abs(cov - np.eye(cov.shape[0])).max())
    if not err <= WHITE_TOL:
        raise CheckFailed(f"FastICA components have max |cov - I| = {err:.3g}")


def digest(array: np.ndarray) -> str:
    """sha256 over the array's dtype, shape and bytes."""
    h = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    h.update(np.ascontiguousarray(array))
    return h.hexdigest()


def check_bitwise_equal(name: str, saved_digest: str, loaded: np.ndarray) -> None:
    if digest(loaded) != saved_digest:
        raise CheckFailed(f"{name}: loaded array differs from the saved one")


def check_mixed(e: int, latents: np.ndarray, observed: np.ndarray, mixing: np.ndarray) -> None:
    err = float(np.abs(observed - latents @ mixing).max())
    if not err <= MIXING_TOL:
        raise CheckFailed(f"environment {e}: max |observed - latents @ mixing| = {err:.3g}")


def check_constant_columns(e: int, latents: np.ndarray, targets: Sequence[int]) -> None:
    """The columns that never change must be exactly the intervention targets."""
    constant = np.flatnonzero((latents == latents[0]).all(axis=0)).tolist()
    if constant != sorted(targets):
        raise CheckFailed(
            f"environment {e}: constant latent columns {constant} != targets {sorted(targets)}"
        )

"""Structural causal models with additive noise over DAGs, plus hard interventions.

A model is a DAG, one mechanism per node, and independent Gaussian noise.
Sampling walks the topological order; a hard intervention pins a node to a
constant and skips its mechanism and noise entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from ._rng import substream

if TYPE_CHECKING:
    from .envs import InterventionRegime

# Domain guards for the second builtin nonlinear model: sqrt/log arguments are
# floored and the exp exponent clamped so random noise cannot leave the domain
# or overflow. Values are small enough not to distort typical samples.
_DOMAIN_FLOOR = 1e-6
_EXP_CLAMP = 20.0


@dataclass(frozen=True, eq=False)
class DagAdjacency:
    """Adjacency of a DAG over nodes 0..d-1; ``edges[i, j]`` means i -> j."""

    d: int
    edges: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"node count must be >= 1, got {self.d}")
        edges = np.asarray(self.edges, dtype=bool)
        if edges.shape != (self.d, self.d):
            raise ValueError(f"edges must be {self.d}x{self.d}, got {edges.shape}")
        if edges.diagonal().any():
            raise ValueError("self-loops are not allowed")
        object.__setattr__(self, "edges", edges)
        self.topological_order()  # raises on cycles

    @property
    def n_edges(self) -> int:
        return int(self.edges.sum())

    def parents(self, j: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.edges[:, j]))

    def topological_order(self) -> tuple[int, ...]:
        ts = TopologicalSorter(
            {j: [int(i) for i in np.flatnonzero(self.edges[:, j])] for j in range(self.d)}
        )
        try:
            return tuple(ts.static_order())
        except CycleError as err:
            raise ValueError("adjacency contains a cycle") from err


@dataclass(frozen=True, eq=False)
class LinearMechanism:
    """f(z_pa, eta) = coeffs . z_pa + eta, one coefficient per parent."""

    parents: tuple[int, ...]
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (len(self.parents),):
            raise ValueError("need exactly one coefficient per parent")
        object.__setattr__(self, "coeffs", coeffs)

    def evaluate(self, parent_values: np.ndarray, noise: np.ndarray) -> np.ndarray:
        if not self.parents:
            return np.asarray(noise, dtype=float).copy()
        return parent_values @ self.coeffs + noise


@dataclass(frozen=True, eq=False)
class QuadraticSumMechanism:
    """f(z_pa, eta) = sum of squared parent values + eta."""

    parents: tuple[int, ...]

    def evaluate(self, parent_values: np.ndarray, noise: np.ndarray) -> np.ndarray:
        if not self.parents:
            return np.asarray(noise, dtype=float).copy()
        return np.sum(parent_values * parent_values, axis=1) + noise


@dataclass(frozen=True, eq=False)
class Nonlinear2Mechanism:
    """One node of the second builtin nonlinear model (sin/sqrt/log/arctan/exp forms).

    ``node`` is the 1-based node index selecting the equation; parent columns
    arrive in ascending parent-index order.
    """

    parents: tuple[int, ...]
    node: int

    def evaluate(self, parent_values: np.ndarray, noise: np.ndarray) -> np.ndarray:
        noise = np.asarray(noise, dtype=float)
        if self.node == 1:
            return noise.copy()
        if self.node == 2:
            (z1,) = parent_values.T
            return np.sin(z1) + noise
        if self.node == 3:
            z1, z2 = parent_values.T
            return np.sqrt(np.maximum(z1 + z2, _DOMAIN_FLOOR)) + noise
        if self.node == 4:
            z1, z2, z3 = parent_values.T
            return np.log(np.maximum(z1 * z1 + z2, _DOMAIN_FLOOR)) + z3 * z3 + noise
        if self.node == 5:
            z1, z3, z4 = parent_values.T
            return z3 * np.cos(z1) + np.arctan(z4) + noise
        if self.node == 6:
            z2, z3, z4, z5 = parent_values.T
            with np.errstate(divide="ignore", invalid="ignore"):
                expo = z4 * z4 / z5
            expo = np.nan_to_num(expo, nan=0.0, posinf=_EXP_CLAMP, neginf=-_EXP_CLAMP)
            expo = np.clip(expo, -_EXP_CLAMP, _EXP_CLAMP)
            return z2 * z3 * np.exp(expo) + noise
        raise ValueError(f"no equation for node {self.node}")


Mechanism = Union[LinearMechanism, QuadraticSumMechanism, Nonlinear2Mechanism]


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Independent Gaussian noise per node, eta_j ~ N(mean_j, variance_j)."""

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=float)
        variances = np.asarray(self.variances, dtype=float)
        if means.ndim != 1 or means.shape != variances.shape:
            raise ValueError("means and variances must be 1-d arrays of equal length")
        if not (variances > 0).all():
            raise ValueError("every noise variance must be strictly positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    @classmethod
    def iid(cls, d: int, mean: float = 0.0, variance: float = 0.1) -> "NoiseSpec":
        return cls(np.full(d, mean), np.full(d, variance))


@dataclass(frozen=True, eq=False)
class Scm:
    """Immutable model: DAG + per-node mechanisms + noise + cached topological order."""

    dag: DagAdjacency
    mechanisms: tuple[Mechanism, ...]
    noise: NoiseSpec
    topo_order: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        d = self.dag.d
        if len(self.mechanisms) != d:
            raise ValueError(f"expected {d} mechanisms, got {len(self.mechanisms)}")
        for j, mech in enumerate(self.mechanisms):
            if tuple(mech.parents) != self.dag.parents(j):
                raise ValueError(f"mechanism {j} disagrees with the DAG about its parents")
        if self.noise.means.shape != (d,):
            raise ValueError("noise spec length must equal node count")
        object.__setattr__(self, "topo_order", self.dag.topological_order())

    @property
    def d(self) -> int:
        return self.dag.d


def sample_er_dag(d: int, p: float, rng_seed: int) -> DagAdjacency:
    """Erdos-Renyi DAG: random node order, each forward edge kept with probability p."""
    if d < 1:
        raise ValueError(f"node count must be >= 1, got {d}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(d)
    keep = rng.random((d, d)) < p
    rows, cols = np.triu_indices(d, k=1)
    edges = np.zeros((d, d), dtype=bool)
    edges[order[rows], order[cols]] = keep[rows, cols]
    return DagAdjacency(d, edges)


def sample_linear_scm(dag: DagAdjacency, rng_seed: int) -> Scm:
    """Linear mechanisms with coefficients ~ U[-0.1, 1.0] and noise N(0, 0.1)."""
    rng = np.random.default_rng(rng_seed)
    mechanisms = []
    for j in range(dag.d):
        parents = dag.parents(j)
        coeffs = rng.uniform(-0.1, 1.0, size=len(parents))
        mechanisms.append(LinearMechanism(parents, coeffs))
    return Scm(dag, tuple(mechanisms), NoiseSpec.iid(dag.d))


# Shared 6-node graph of the two builtin nonlinear models, 1-based edge list.
_NONLINEAR_EDGES = (
    (1, 2), (1, 3), (1, 4), (1, 5),
    (2, 3), (2, 4), (2, 6),
    (3, 4), (3, 5), (3, 6),
    (4, 5), (4, 6),
    (5, 6),
)


def builtin_nonlinear_scm(which: int) -> Scm:
    """The fixed 6-node nonlinear model: 1 = quadratic sums, 2 = mixed nonlinearities."""
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    d = 6
    edges = np.zeros((d, d), dtype=bool)
    for i, j in _NONLINEAR_EDGES:
        edges[i - 1, j - 1] = True
    dag = DagAdjacency(d, edges)
    mechanisms: list[Mechanism] = []
    for j in range(d):
        parents = dag.parents(j)
        if which == 1:
            mechanisms.append(QuadraticSumMechanism(parents))
        else:
            mechanisms.append(Nonlinear2Mechanism(parents, node=j + 1))
    return Scm(dag, tuple(mechanisms), NoiseSpec.iid(d))


def sample(
    scm: Scm,
    n: int,
    intervention: Optional["InterventionRegime"] = None,
    rng_seed: int = 0,
) -> np.ndarray:
    """Draw n rows by ancestral sampling, honouring a hard intervention if given.

    Intervened nodes are set to their constants bit-identically; everything else
    evaluates its mechanism on the (possibly intervened) parent values. Each
    node draws noise from its own counter-based substream of ``rng_seed``, so
    results do not depend on evaluation order.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    d = scm.d
    do: dict[int, float] = {}
    if intervention is not None:
        targets = tuple(intervention.targets)
        values = tuple(intervention.values)
        if len(targets) != len(values):
            raise ValueError(
                f"{len(targets)} intervention targets but {len(values)} constants"
            )
        do = dict(zip(targets, values))
        out_of_range = [t for t in do if not 0 <= t < d]
        if out_of_range:
            raise ValueError(f"intervention targets {out_of_range} outside [0, {d})")
    z = np.empty((n, d), dtype=float)
    if do:
        # one contiguous broadcast pins every target; free columns are overwritten below
        template = np.zeros(d)
        template[list(do)] = list(do.values())
        z[:] = template
    stds = np.sqrt(scm.noise.variances)
    for j in scm.topo_order:
        if j in do:
            continue
        noise = substream(rng_seed, j).normal(scm.noise.means[j], stds[j], size=n)
        parents = scm.mechanisms[j].parents
        z[:, j] = scm.mechanisms[j].evaluate(z[:, parents], noise)
    return z


def chain_example_scm() -> Scm:
    """Three-node chain Z1 -> Z2 -> Z3 with Z1 -> Z3, unit coefficients and N(0, 1) noise.

    The smallest model on which mixing visibly destroys intervention sparsity;
    used throughout the demos and tests.
    """
    edges = np.zeros((3, 3), dtype=bool)
    edges[0, 1] = edges[0, 2] = edges[1, 2] = True
    dag = DagAdjacency(3, edges)
    mechanisms = (
        LinearMechanism((), np.array([])),
        LinearMechanism((0,), np.array([1.0])),
        LinearMechanism((0, 1), np.array([1.0, 1.0])),
    )
    return Scm(dag, mechanisms, NoiseSpec.iid(3, 0.0, 1.0))

"""Intervention environments: regimes, coverage checking, and design constructors.

An environment is a hard intervention regime do(Z_T = a). Its support set is
the complement of the targets: the coordinates whose variance survives. The
coverage condition asks, for every coordinate j, that the regimes *not*
supporting j jointly support everything else; designs failing it leave pairs
of coordinates that are never separated.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Sequence

from ._rng import substream


def _integer(name: str, value) -> int:
    """value as an int, refusing what is not one: bools, floats, strings."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """value as a float, refusing what is not a real number: bools, strings, None."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True, eq=True)
class InterventionRegime:
    """Hard intervention do(Z_t = v) for (t, v) in zip(targets, values).

    Targets are 0-indexed and stored sorted with values kept aligned.
    """

    targets: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        targets = tuple(_integer("target", t) for t in self.targets)
        values = tuple(_real("intervention value", v) for v in self.values)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"intervention values must be finite, got {values}")
        if len(targets) != len(values):
            raise ValueError(f"{len(targets)} targets but {len(values)} values")
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate targets in {targets}")
        if any(t < 0 for t in targets):
            raise ValueError(f"negative target index in {targets}")
        order = sorted(range(len(targets)), key=targets.__getitem__)
        object.__setattr__(self, "targets", tuple(targets[k] for k in order))
        object.__setattr__(self, "values", tuple(values[k] for k in order))


@dataclass(frozen=True, eq=False)
class EnvironmentSet:
    """Ordered collection of regimes over d coordinates."""

    d: int
    regimes: tuple[InterventionRegime, ...]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        regimes = tuple(self.regimes)
        for k, reg in enumerate(regimes):
            bad = [t for t in reg.targets if t >= self.d]
            if bad:
                raise ValueError(f"regime {k} targets {bad} outside [0, {self.d})")
        object.__setattr__(self, "regimes", regimes)

    def __len__(self) -> int:
        return len(self.regimes)

    def to_json(self) -> str:
        doc = {
            "d": self.d,
            "regimes": [
                {"targets": list(r.targets), "values": list(r.values)}
                for r in self.regimes
            ],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "EnvironmentSet":
        doc = json.loads(text)
        try:
            d = _integer("d", doc["d"])
            regimes = tuple(
                InterventionRegime(tuple(r["targets"]), tuple(r["values"]))
                for r in doc["regimes"]
            )
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise ValueError(f"malformed environment document: {err}") from err
        return cls(d, regimes)


def support_sets(envs: EnvironmentSet) -> list[frozenset[int]]:
    """Support of each regime: the coordinates left un-intervened."""
    full = frozenset(range(envs.d))
    return [full - frozenset(r.targets) for r in envs.regimes]


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of the coverage check; missing maps each failing coordinate to
    the indices its complementary supports never reach."""

    d: int
    passed: bool
    missing: dict[int, frozenset[int]] = field(default_factory=dict)

    def __str__(self) -> str:
        if self.passed:
            return f"coverage ok for all {self.d} coordinates"
        parts = [
            f"coordinate {j}: never co-supported with {sorted(miss)}"
            for j, miss in sorted(self.missing.items())
        ]
        return "coverage violated; " + "; ".join(parts)


def coverage_from_supports(d: int, supports: Sequence[frozenset[int]]) -> CoverageReport:
    """Check the coverage condition directly on support sets.

    For each j, the union of all supports excluding j must equal the other
    d - 1 coordinates.
    """
    missing: dict[int, frozenset[int]] = {}
    for j in range(d):
        union: set[int] = set()
        for s in supports:
            if j not in s:
                union |= s
        want = set(range(d)) - {j}
        if union != want:
            missing[j] = frozenset(want - union)
    return CoverageReport(d, passed=not missing, missing=missing)


def check_sufficient_coverage(envs: EnvironmentSet) -> CoverageReport:
    """Does the environment collection satisfy the coverage condition?"""
    return coverage_from_supports(envs.d, support_sets(envs))


def _regime_values(value_seed: int, index: int, n_targets: int) -> tuple[float, ...]:
    # one fixed constant per target, drawn from U[-2, 2] on the regime's own stream
    rng = substream(value_seed, index)
    return tuple(rng.uniform(-2.0, 2.0, size=n_targets))


def leave_one_out_design(d: int, value_seed: int) -> EnvironmentSet:
    """d regimes: regime j intervenes on everything except coordinate j."""
    if d < 2:
        raise ValueError(
            f"leave-one-out design needs d >= 2: with d={d} every regime's "
            "complement is empty and the coverage condition cannot hold"
        )
    regimes = []
    for j in range(d):
        targets = tuple(i for i in range(d) if i != j)
        regimes.append(InterventionRegime(targets, _regime_values(value_seed, j, d - 1)))
    return EnvironmentSet(d, tuple(regimes))


def separating_design(d: int, value_seed: int) -> EnvironmentSet:
    """2 * ceil(log2 d) regimes from binary labels of the coordinates.

    For each bit position, one regime targets the coordinates with that bit
    set and one targets those with it clear. Any degenerate regime (empty or
    full target set) is dropped. Every pair of coordinates differs in some
    bit, which is exactly what the coverage condition needs.
    """
    if d < 2:
        raise ValueError(f"separating design needs d >= 2, got {d}")
    n_bits = max(1, math.ceil(math.log2(d)))
    regimes = []
    index = 0
    for b in range(n_bits):
        ones = tuple(j for j in range(d) if (j >> b) & 1)
        zeros = tuple(j for j in range(d) if not (j >> b) & 1)
        for targets in (ones, zeros):
            if 0 < len(targets) < d:
                regimes.append(
                    InterventionRegime(targets, _regime_values(value_seed, index, len(targets)))
                )
            index += 1
    return EnvironmentSet(d, tuple(regimes))

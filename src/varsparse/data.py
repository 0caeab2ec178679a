"""Mixed multi-environment datasets: generation, train/test split, persistence.

Ground-truth latents Z are drawn per environment, observations are their image
under a fixed invertible square mixing. Both are kept: the latents only ever
feed evaluation. Files round-trip bit-exactly through a small self-describing
binary container with a trailing checksum.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ._rng import derive_seed
from .envs import EnvironmentSet
from .scm import Scm, sample

# Relative zero-variance threshold: a column counts as constant when its
# variance is below EPS_VAR * max(1, mean squared magnitude). Hard-intervened
# columns sit at exactly 0; honest noise sits at 0.1 or above.
EPS_VAR = 1e-8

_MAGIC = b"VSDS"
_VERSION = 1
_DET_MIN = 1e-6
_COND_MAX = 1e6
_TRAIN_FRACTION = 0.75  # n_train = floor(0.75 * n)
_SAMPLE_RETRIES = 100
_MIX_TOL = 1e-9  # atol and rtol of the observed == latents @ mixing check
_CHECK_ROWS = 8192  # rows per chunk of that check


class DatasetFormatError(ValueError):
    """File is not a readable dataset container."""


class DatasetChecksumError(DatasetFormatError):
    """Container checksum does not match its payload."""


class MixingDrawsExhausted(RuntimeError):
    """No draw of a mixing matrix passed the invertibility guard."""


def is_zero_variance(column: np.ndarray) -> bool:
    """Numerically-zero variance test, scaled by the column's magnitude."""
    column = np.asarray(column, dtype=float)
    scale = max(1.0, float(np.mean(column * column)))
    return float(np.var(column)) <= EPS_VAR * scale


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Comfortably invertible d x d linear map."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.size == 0:
            raise ValueError(f"mixing must be a nonempty square matrix, got shape {entries.shape}")
        svals = np.linalg.svd(entries, compute_uv=False)
        if svals[-1] <= 0 or svals[0] / svals[-1] >= _COND_MAX:
            raise ValueError(
                f"mixing is numerically rank-deficient (condition {svals[0] / max(svals[-1], 1e-300):.3g})"
            )
        if abs(np.linalg.det(entries)) <= _DET_MIN:
            raise ValueError("mixing must have |det| > 1e-6")
        object.__setattr__(self, "entries", entries)

    @property
    def d(self) -> int:
        return self.entries.shape[0]


def sample_mixing(d: int, rng_seed: int) -> MixingMatrix:
    """d x d entries i.i.d. uniform [-1, 1]; redraw until the invertibility guard holds."""
    rng = np.random.default_rng(rng_seed)
    for _ in range(_SAMPLE_RETRIES):
        entries = rng.uniform(-1.0, 1.0, size=(d, d))
        try:
            return MixingMatrix(entries)
        except ValueError:
            continue
    raise MixingDrawsExhausted(
        f"no well-conditioned {d}x{d} mixing within {_SAMPLE_RETRIES} draws (seed {rng_seed})"
    )


def _mixes_to(z: np.ndarray, x: np.ndarray, mixing: np.ndarray) -> bool:
    """np.allclose(x, z @ mixing, atol=_MIX_TOL, rtol=_MIX_TOL), in row chunks.

    Each chunk's product and |x - y| go through two preallocated buffers. A
    chunk passes at once when every |x - y| - tol is <= 0: that needs every
    tol = atol + rtol |y| finite, hence every y. Otherwise the chunk gets the
    exact isclose predicate, (|x - y| <= tol and y finite) or x == y, which
    also accepts equal infinities. The first failing chunk decides.
    """
    n = z.shape[0]
    y = np.empty((min(n, _CHECK_ROWS), mixing.shape[1]))
    diff = np.empty_like(y)
    with np.errstate(invalid="ignore"):  # inf - inf, as isclose allows
        for start in range(0, n, _CHECK_ROWS):
            zc, xc = z[start : start + _CHECK_ROWS], x[start : start + _CHECK_ROWS]
            yc, dc = y[: len(zc)], diff[: len(zc)]
            np.matmul(zc, mixing, out=yc)
            np.subtract(xc, yc, out=dc)
            np.abs(dc, out=dc)
            np.abs(yc, out=yc)
            yc *= _MIX_TOL
            yc += _MIX_TOL
            dc -= yc
            if dc.max() <= 0.0:  # a NaN maximum fails too
                continue
            yc = zc @ mixing
            close = (np.abs(xc - yc) <= _MIX_TOL + _MIX_TOL * np.abs(yc)) & np.isfinite(yc)
            if not (close | (xc == yc)).all():
                return False
    return True


@dataclass(frozen=True, eq=False)
class EnvDataset:
    """Per-environment latents and observations plus the train/test row split.

    Rows [:n_train] of every environment are training rows, the rest test.
    """

    envs: EnvironmentSet
    mixing: MixingMatrix
    latents: tuple[np.ndarray, ...]
    observed: tuple[np.ndarray, ...]
    n_per_env: int
    n_train: int
    seed: int

    def __post_init__(self) -> None:
        n_envs = len(self.envs.regimes)
        if len(self.latents) != n_envs or len(self.observed) != n_envs:
            raise ValueError("need one latent and one observed matrix per environment")
        if not 0 < self.n_train < self.n_per_env:
            raise ValueError(
                f"split must leave both parts nonempty: n_train={self.n_train}, n={self.n_per_env}"
            )
        d = self.mixing.d
        if self.envs.d != d:
            raise ValueError(f"environment dimension {self.envs.d} != mixing rows {d}")
        for e, (z, x) in enumerate(zip(self.latents, self.observed)):
            if z.shape != (self.n_per_env, d):
                raise ValueError(f"environment {e}: latents shaped {z.shape}, expected {(self.n_per_env, d)}")
            if x.shape != (self.n_per_env, d):
                raise ValueError(f"environment {e}: observed shaped {x.shape}, expected {(self.n_per_env, d)}")
            if not _mixes_to(z, x, self.mixing.entries):
                raise ValueError(f"environment {e}: observed rows are not latents @ mixing")

    @property
    def d(self) -> int:
        return self.mixing.d

    @property
    def n_envs(self) -> int:
        return len(self.latents)

    def train_observed(self, e: int) -> np.ndarray:
        return self.observed[e][: self.n_train]

    def test_observed(self, e: int) -> np.ndarray:
        return self.observed[e][self.n_train :]

    def train_latents(self, e: int) -> np.ndarray:
        return self.latents[e][: self.n_train]

    def test_latents(self, e: int) -> np.ndarray:
        return self.latents[e][self.n_train :]


def generate(
    scm: Scm,
    envs: EnvironmentSet,
    mixing: MixingMatrix,
    n_per_env: int,
    rng_seed: int,
) -> EnvDataset:
    """Draw n_per_env rows under every regime, mix them, and split 75/25."""
    if scm.d != envs.d or scm.d != mixing.d:
        raise ValueError(
            f"dimension mismatch: scm d={scm.d}, envs d={envs.d}, mixing rows={mixing.d}"
        )
    if n_per_env < 4:
        raise ValueError("need at least 4 rows per environment for a 75/25 split")
    latents = []
    observed = []
    for e, regime in enumerate(envs.regimes):
        z = sample(scm, n_per_env, intervention=regime, rng_seed=derive_seed(rng_seed, e))
        latents.append(z)
        observed.append(z @ mixing.entries)
    n_train = int(n_per_env * _TRAIN_FRACTION)
    return EnvDataset(
        envs=envs,
        mixing=mixing,
        latents=tuple(latents),
        observed=tuple(observed),
        n_per_env=n_per_env,
        n_train=n_train,
        seed=rng_seed,
    )


def _matrix_records(dataset: EnvDataset) -> list[tuple[str, np.ndarray]]:
    records = [("mixing", dataset.mixing.entries)]
    for e in range(dataset.n_envs):
        records.append((f"latents_{e}", dataset.latents[e]))
        records.append((f"observed_{e}", dataset.observed[e]))
    return records


def save(dataset: EnvDataset, path: Union[str, Path]) -> None:
    """Write the container: magic, version, header JSON, float64 payload, sha256."""
    records = _matrix_records(dataset)
    header = {
        "d": dataset.d,
        "m": dataset.d,  # kept for the container format: the mixing is d x d
        "n_per_env": dataset.n_per_env,
        "n_train": dataset.n_train,
        "seed": dataset.seed,
        "envs": json.loads(dataset.envs.to_json()),
        "matrices": [{"name": name, "shape": list(arr.shape)} for name, arr in records],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<I", _VERSION)
    blob += struct.pack("<Q", len(header_bytes))
    blob += header_bytes
    for _, arr in records:
        blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    blob += hashlib.sha256(blob).digest()
    Path(path).write_bytes(bytes(blob))


def _matrix_specs(matrices: object) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of each header matrix entry; ValueError unless well formed."""
    if not isinstance(matrices, list):
        raise ValueError(f"matrices must be a list, got {type(matrices).__name__}")
    specs = []
    for rec in matrices:
        if not (
            isinstance(rec, dict)
            and isinstance(rec.get("name"), str)
            and isinstance(rec.get("shape"), list)
        ):
            raise ValueError(f"matrix entry needs a string name and a list shape: {rec!r}")
        shape = tuple(rec["shape"])
        if not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in shape):
            raise ValueError(f"matrix {rec['name']} has a bad shape {rec['shape']!r}")
        specs.append((rec["name"], shape))
    return specs


def load(path: Union[str, Path]) -> EnvDataset:
    """Read a container written by save, verifying structure and checksum."""
    raw = Path(path).read_bytes()
    if len(raw) < len(_MAGIC) + 4 + 8 + 32:
        raise DatasetFormatError(f"{path}: file too short to be a dataset container")
    body, digest = memoryview(raw)[:-32], raw[-32:]  # a view: slicing bytes would copy the body
    if hashlib.sha256(body).digest() != digest:
        raise DatasetChecksumError(f"{path}: checksum mismatch, file corrupted")
    if body[:4] != _MAGIC:
        raise DatasetFormatError(f"{path}: bad magic {bytes(body[:4])!r}")
    (version,) = struct.unpack_from("<I", body, 4)
    if version != _VERSION:
        raise DatasetFormatError(f"{path}: unsupported container version {version}")
    (header_len,) = struct.unpack_from("<Q", body, 8)
    header_start = 16
    payload_start = header_start + header_len
    if payload_start > len(body):
        raise DatasetFormatError(f"{path}: header length overruns file")
    try:
        header = json.loads(bytes(body[header_start:payload_start]).decode("utf-8"))
        d = int(header["d"])
        m = int(header["m"])
        n_per_env = int(header["n_per_env"])
        n_train = int(header["n_train"])
        seed = int(header["seed"])
        envs = EnvironmentSet.from_json(json.dumps(header["envs"]))
        specs = _matrix_specs(header["matrices"])
    except (ValueError, KeyError, TypeError, OverflowError) as err:
        raise DatasetFormatError(f"{path}: malformed header: {err}") from err

    arrays: dict[str, np.ndarray] = {}
    offset = payload_start
    for name, shape in specs:
        end = offset + 8 * math.prod(shape)
        if end > len(body):
            raise DatasetFormatError(f"{path}: payload truncated at matrix {name}")
        try:
            arrays[name] = np.frombuffer(body[offset:end], dtype="<f8").reshape(shape).copy()
        except ValueError as err:  # an empty matrix with a dimension numpy cannot hold
            raise DatasetFormatError(f"{path}: matrix {name} shaped {shape}: {err}") from err
        offset = end
    if offset != len(body):
        raise DatasetFormatError(f"{path}: {len(body) - offset} trailing payload bytes")

    n_envs = len(envs.regimes)
    expected = {"mixing"} | {f"latents_{e}" for e in range(n_envs)} | {
        f"observed_{e}" for e in range(n_envs)
    }
    if set(arrays) != expected:
        raise DatasetFormatError(f"{path}: matrix set does not match environment count")
    if arrays["mixing"].shape != (d, m):
        raise DatasetFormatError(
            f"{path}: header says d={d}, m={m} but mixing is {arrays['mixing'].shape}"
        )
    try:
        return EnvDataset(
            envs=envs,
            mixing=MixingMatrix(arrays["mixing"]),
            latents=tuple(arrays[f"latents_{e}"] for e in range(n_envs)),
            observed=tuple(arrays[f"observed_{e}"] for e in range(n_envs)),
            n_per_env=n_per_env,
            n_train=n_train,
            seed=seed,
        )
    except ValueError as err:
        raise DatasetFormatError(f"{path}: inconsistent contents: {err}") from err


def export_csv(dataset: EnvDataset, directory: Union[str, Path]) -> list[Path]:
    """One CSV per environment with header z~1..z~d; returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = ",".join(f"z~{j + 1}" for j in range(dataset.d))
    paths = []
    for e in range(dataset.n_envs):
        path = directory / f"env_{e:02d}.csv"
        np.savetxt(path, dataset.observed[e], delimiter=",", header=header, comments="")
        paths.append(path)
    return paths

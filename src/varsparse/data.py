"""Mixed multi-environment datasets: generation, train/test split, persistence.

Ground-truth latents Z are drawn per environment; observations are derived once
as their image under a fixed invertible square mixing. The latents only ever
feed evaluation. Files round-trip bit-exactly through a small self-describing
binary container with a trailing checksum; load checks its stored observations.
save and load stream the container a record or a few MiB at a time, so neither
holds more than the dataset itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Union

import numpy as np

from ._rng import derive_seed
from .envs import EnvironmentSet, _integer
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
_MIX_TOL = 1e-9  # atol and rtol of load's stored observed == latents @ mixing check
_IO_CHUNK = 4 << 20  # bytes load reads at a time: the checksum pass and the observed check


class DatasetFormatError(ValueError):
    """File is not a readable dataset container."""


class DatasetChecksumError(DatasetFormatError):
    """Container checksum does not match its payload."""


class MixingDrawsExhausted(RuntimeError):
    """No draw of a mixing matrix passed the invertibility guard."""


def zero_variance(mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Which columns of the given means and variances count as constant.

    The threshold is relative to the mean square, var + mean^2."""
    return var <= EPS_VAR * np.maximum(1.0, var + mean * mean)


def column_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=0) of a 2-d float64 array, bit for bit, in one pass.

    On a C-contiguous array with at least 2 columns both add the rows in
    order into one accumulator per column, but mean reduces one short row at
    a time while einsum streams the block, which is several times faster on
    a tall block of few columns. With 1 column mean sums the contiguous axis
    pairwise, so that case, like any other layout, falls back to mean.
    """
    if a.ndim == 2 and a.shape[1] >= 2 and a.dtype == np.float64 and a.flags.c_contiguous:
        return np.einsum("ij->j", a) / a.shape[0]
    return a.mean(axis=0)


def block_moments(blocks: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(counts, means, scatters) of k blocks, of shapes (k,), (k, d), (k, d, d).

    A block is a 2-d array of at least 1 row, and all blocks have d columns.
    Each is centred on its column_mean into one reused buffer, and its scatter
    is c.T @ c of the centred rows c: a fresh array per block would fault in
    its pages each time, which costs as much as the subtraction.
    """
    counts, means, scatters = [], [], []
    buf = np.empty(0)
    for i, block in enumerate(blocks):
        rows = np.asarray(block, dtype=float)
        if rows.ndim != 2 or not len(rows):
            raise ValueError(f"block {i} must be 2-d with at least 1 row, got shape {rows.shape}")
        if means and rows.shape[1] != len(means[0]):
            raise ValueError(f"block {i} has {rows.shape[1]} columns, block 0 has {len(means[0])}")
        buf = buf if buf.size >= rows.size else np.empty(rows.size)
        means.append(column_mean(rows))
        centred = np.subtract(rows, means[-1], out=buf[: rows.size].reshape(rows.shape))
        counts.append(len(rows))
        scatters.append(centred.T @ centred)
    if not counts:
        raise ValueError("need at least 1 block")
    return np.array(counts), np.array(means), np.array(scatters)


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Comfortably invertible d x d linear map."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.size == 0:
            raise ValueError(f"mixing must be a nonempty square matrix, got shape {entries.shape}")
        if not np.isfinite(entries).all():
            raise ValueError("mixing entries must be finite")
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


@dataclass(frozen=True, eq=False)
class EnvDataset:
    """Per-environment latents, their mixing, and the train/test row split.

    The observations are derived once, observed[e] = latents[e] @ mixing, and
    every environment has n_per_env rows, the latents' row count. Rows
    [:n_train] of every environment are training rows, the rest test.
    """

    envs: EnvironmentSet
    mixing: MixingMatrix
    latents: tuple[np.ndarray, ...]
    n_train: int
    seed: int
    observed: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n_envs = len(self.envs.regimes)
        if n_envs == 0:
            raise ValueError("need at least one environment")
        if len(self.latents) != n_envs:
            raise ValueError(f"{len(self.latents)} latent matrices for {n_envs} environments")
        d = self.mixing.d
        if self.envs.d != d:
            raise ValueError(f"environment dimension {self.envs.d} != mixing rows {d}")
        for e, z in enumerate(self.latents):  # n_per_env reads environment 0, 2-D once e=0 passes
            if z.ndim != 2 or z.shape != (self.n_per_env, d):
                raise ValueError(
                    f"environment {e}: latents shaped {z.shape}, expected one (n, {d}) shape for all"
                )
        if not 0 < self.n_train < self.n_per_env:
            raise ValueError(
                f"split must leave both parts nonempty: n_train={self.n_train}, n={self.n_per_env}"
            )
        object.__setattr__(self, "observed", tuple(z @ self.mixing.entries for z in self.latents))

    @property
    def d(self) -> int:
        return self.mixing.d

    @property
    def n_envs(self) -> int:
        return len(self.latents)

    @property
    def n_per_env(self) -> int:
        return self.latents[0].shape[0]

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
    latents = tuple(
        sample(scm, n_per_env, intervention=regime, rng_seed=derive_seed(rng_seed, e))
        for e, regime in enumerate(envs.regimes)
    )
    n_train = int(n_per_env * _TRAIN_FRACTION)
    return EnvDataset(envs=envs, mixing=mixing, latents=latents, n_train=n_train, seed=rng_seed)


def _layout(d: int, n_envs: int, n_per_env: int) -> list[dict]:
    """The container's records in file order: the d x d mixing, then each
    environment's (n_per_env, d) latents and observations."""
    layout = [{"name": "mixing", "shape": [d, d]}]
    for e in range(n_envs):
        layout.append({"name": f"latents_{e}", "shape": [n_per_env, d]})
        layout.append({"name": f"observed_{e}", "shape": [n_per_env, d]})
    return layout


def save(dataset: EnvDataset, path: Union[str, Path]) -> None:
    """Write the container: magic, version, header JSON, float64 payload, sha256.

    Each record goes out from its array's own buffer; a failed write removes
    the partial file and re-raises.
    """
    header = {
        "d": dataset.d,
        "m": dataset.d,  # kept for the container format: the mixing is d x d
        "n_per_env": dataset.n_per_env,
        "n_train": dataset.n_train,
        "seed": dataset.seed,
        "envs": json.loads(dataset.envs.to_json()),
        "matrices": _layout(dataset.d, dataset.n_envs, dataset.n_per_env),
    }
    records = [dataset.mixing.entries]  # in _layout's order
    for latents, observed in zip(dataset.latents, dataset.observed):
        records += [latents, observed]
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix = _MAGIC + struct.pack("<I", _VERSION) + struct.pack("<Q", len(header_bytes))
    path = Path(path)
    file = path.open("wb")  # a path that cannot be opened is left as it was
    try:
        with file:
            digest = hashlib.sha256()
            arrays = (np.ascontiguousarray(arr, dtype="<f8") for arr in records)
            for piece in (prefix + header_bytes, *arrays):
                file.write(piece)
                digest.update(piece)
            file.write(digest.digest())
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _read_into(file: BinaryIO, path: Union[str, Path], array: np.ndarray) -> None:
    """Fill a C-contiguous array with the file's next bytes."""
    view = array.reshape(-1).view(np.uint8)  # a view: the array is contiguous
    done = 0
    while done < view.size:
        n = file.readinto(view[done:])
        if not n:
            raise DatasetFormatError(f"{path}: file ended while being read")
        done += n


def _body_digest(file: BinaryIO, path: Union[str, Path], body_len: int) -> bytes:
    """sha256 of the file's first body_len bytes, read through one reused buffer."""
    digest = hashlib.sha256()
    buffer = np.empty(_IO_CHUNK, np.uint8)
    for start in range(0, body_len, _IO_CHUNK):
        piece = buffer[: min(_IO_CHUNK, body_len - start)]
        _read_into(file, path, piece)
        digest.update(piece)
    return digest.digest()


def _matches_stored(file: BinaryIO, path: Union[str, Path], derived: np.ndarray) -> bool:
    """Is the record at the file position bit-equal to derived, or within _MIX_TOL?

    The stored record is read and compared a chunk of rows at a time.
    """
    rows = max(1, _IO_CHUNK // derived[0].nbytes)
    buffer = np.empty((min(rows, len(derived)), derived.shape[1]), "<f8")
    for start in range(0, len(derived), rows):
        part = derived[start : start + rows]
        stored = buffer[: len(part)]
        _read_into(file, path, stored)
        if not (
            np.array_equal(stored, part)  # what save writes; skips allclose's temporaries
            or np.allclose(stored, part, atol=_MIX_TOL, rtol=_MIX_TOL)
        ):
            return False
    return True


def load(path: Union[str, Path]) -> EnvDataset:
    """Read a container written by save, verifying checksum and layout.

    The whole body is hashed before anything is parsed, and the header must
    list exactly the records _layout gives for its counts. Each latents record
    is then read straight into its final array; the stored observations are
    compared with the derived ones a chunk at a time and never held whole.
    """
    with open(path, "rb") as file:
        body_len = os.fstat(file.fileno()).st_size - 32
        if body_len < len(_MAGIC) + 4 + 8:
            raise DatasetFormatError(f"{path}: file too short to be a dataset container")
        body_digest = _body_digest(file, path, body_len)
        if body_digest != file.read(32):
            raise DatasetChecksumError(f"{path}: checksum mismatch, file corrupted")
        file.seek(0)
        magic, version, header_len = struct.unpack("<4sIQ", file.read(16))
        if magic != _MAGIC:
            raise DatasetFormatError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise DatasetFormatError(f"{path}: unsupported container version {version}")
        payload_start = 16 + header_len
        if payload_start > body_len:
            raise DatasetFormatError(f"{path}: header length overruns file")
        try:
            header = json.loads(file.read(header_len).decode("utf-8"))
            counts = [_integer(k, header[k]) for k in ("d", "m", "n_per_env", "n_train", "seed")]
            if min(counts) < 0:
                raise ValueError(f"d, m, n_per_env, n_train and seed must be nonnegative: {counts}")
            d, m, n_per_env, n_train, seed = counts
            envs = EnvironmentSet.from_json(json.dumps(header["envs"]))
            matrices = header["matrices"]
        except (ValueError, KeyError, TypeError, OverflowError) as err:
            raise DatasetFormatError(f"{path}: malformed header: {err}") from err
        if m != d:
            raise DatasetFormatError(f"{path}: header says d={d} but m={m}: the mixing is d x d")
        n_envs = len(envs.regimes)
        layout = _layout(d, n_envs, n_per_env)
        # compared as JSON: in Python [4.0, 3] == [4, 3] and True == 1
        if json.dumps(matrices, sort_keys=True) != json.dumps(layout, sort_keys=True):
            raise DatasetFormatError(
                f"{path}: header says d={d}, {n_envs} environments, n_per_env={n_per_env}, "
                "but lists other matrices than that layout"
            )
        payload_len = 8 * sum(math.prod(rec["shape"]) for rec in layout)
        if body_len - payload_start != payload_len:
            raise DatasetFormatError(f"{path}: payload is not its layout's {payload_len} bytes")

        try:  # at d=0 the size check leaves n_per_env unbounded: numpy may refuse the shape
            mixing = np.empty((d, d), "<f8")
            latents = tuple(np.empty((n_per_env, d), "<f8") for _ in range(n_envs))
            _read_into(file, path, mixing)
            for z in latents:
                _read_into(file, path, z)
                file.seek(z.nbytes, os.SEEK_CUR)  # past the stored observations, checked below
            dataset = EnvDataset(
                envs=envs, mixing=MixingMatrix(mixing), latents=latents, n_train=n_train, seed=seed
            )
        except ValueError as err:
            raise DatasetFormatError(f"{path}: inconsistent contents: {err}") from err
        for e, derived in enumerate(dataset.observed):  # every record is derived.nbytes long
            file.seek(payload_start + mixing.nbytes + (2 * e + 1) * derived.nbytes)
            if not _matches_stored(file, path, derived):
                raise DatasetFormatError(f"{path}: observed_{e} is not latents_{e} @ mixing")
    return dataset


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

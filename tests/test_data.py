import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varsparse import data
from varsparse.data import (
    DatasetChecksumError,
    DatasetFormatError,
    EPS_VAR,
    EnvDataset,
    MixingMatrix,
    block_moments,
    column_mean,
    export_csv,
    generate,
    load,
    sample_mixing,
    save,
    zero_variance,
)
from varsparse.envs import (
    EnvironmentSet,
    InterventionRegime,
    leave_one_out_design,
    separating_design,
)
from varsparse.experiments import ExperimentConfig, make_dataset
from varsparse.scm import chain_example_scm, sample, sample_er_dag, sample_linear_scm

CHAIN_MIX = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])


def _chain_dataset(n=400, seed=0):
    return generate(
        chain_example_scm(),
        leave_one_out_design(3, 1),
        MixingMatrix(CHAIN_MIX),
        n_per_env=n,
        rng_seed=seed,
    )


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(2, 5000),
    cols=st.integers(1, 40),
    keep=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_mean_equals_numpy_mean_bit_for_bit(rows, cols, keep, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, cols)) * rng.uniform(1e-3, 1e3) + rng.normal(scale=100.0)
    k = 2 + int(keep * (rows - 2))  # a [:k] row slice, as the train and test splits are
    for block in (a, a[:k]):
        assert np.array_equal(column_mean(block), block.mean(axis=0))


def test_column_mean_falls_back_to_numpy_mean_off_its_fast_layout():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(1001, 7)) + 50.0
    for block in (a[:, :1], a[:, 2:3].copy(), np.asfortranarray(a), a[::2], a.T):
        assert np.array_equal(column_mean(block), block.mean(axis=0))


def test_block_moments_are_each_blocks_count_mean_and_scatter():
    rng = np.random.default_rng(5)
    blocks = [rng.normal(size=(n, 3)) * 2.0 + 10.0 for n in (1, 7, 50)]
    counts, means, scatters = block_moments(iter(blocks))
    assert counts.tolist() == [1, 7, 50]
    assert means.shape == (3, 3) and scatters.shape == (3, 3, 3)
    for block, mean, scatter in zip(blocks, means, scatters):
        assert np.array_equal(mean, block.mean(axis=0))
        assert np.allclose(scatter, len(block) * np.cov(block, rowvar=False, bias=True), rtol=1e-12, atol=1e-12)


def test_block_moments_reject_malformed_blocks():
    with pytest.raises(ValueError, match="need at least 1 block"):
        block_moments([])
    with pytest.raises(ValueError, match=r"block 1 must be 2-d with at least 1 row, got shape \(3,\)"):
        block_moments([np.ones((2, 3)), np.ones(3)])
    with pytest.raises(ValueError, match=r"block 0 must be 2-d with at least 1 row, got shape \(0, 3\)"):
        block_moments([np.ones((0, 3))])
    with pytest.raises(ValueError, match="block 2 has 2 columns, block 0 has 3"):
        block_moments([np.ones((2, 3)), np.ones((4, 3)), np.ones((2, 2))])


def test_mixing_accepts_chain_matrix():
    mix = MixingMatrix(CHAIN_MIX)
    assert abs(np.linalg.det(mix.entries)) == pytest.approx(4.0)
    assert np.linalg.cond(mix.entries) < 1e6


def test_mixing_rejects_singular_and_thin_matrices():
    with pytest.raises(ValueError):
        MixingMatrix(np.ones((3, 3)))
    for entries in (np.eye(3)[:, :2], np.eye(3)[:2], np.zeros((0, 0)), np.ones(3)):
        with pytest.raises(ValueError, match="square"):
            MixingMatrix(entries)
    near_singular = np.eye(3)
    near_singular[2, 2] = 1e-9
    with pytest.raises(ValueError):
        MixingMatrix(near_singular)


def test_mixing_rejects_non_finite_entries_by_name():
    # a NaN once reached the SVD and failed there as LinAlgError
    for bad in (np.nan, np.inf, -np.inf):
        entries = np.eye(3)
        entries[1, 2] = bad
        with pytest.raises(ValueError, match="mixing entries must be finite"):
            MixingMatrix(entries)


def test_identity_mixing_leaves_data_unchanged():
    ds = generate(
        chain_example_scm(),
        leave_one_out_design(3, 1),
        MixingMatrix(np.eye(3)),
        n_per_env=100,
        rng_seed=5,
    )
    for z, x in zip(ds.latents, ds.observed):
        assert np.array_equal(z, x)


def test_sampled_mixing_passes_guards():
    for seed in range(100):
        mix = sample_mixing(6, seed)
        assert abs(np.linalg.det(mix.entries)) > 1e-6
        assert np.linalg.cond(mix.entries) < 1e6
        assert np.abs(mix.entries).max() <= 1.0


def test_sampled_mixing_deterministic():
    a = sample_mixing(4, 3)
    b = sample_mixing(4, 3)
    assert np.array_equal(a.entries, b.entries)


def test_generate_shapes_and_split():
    ds = _chain_dataset(n=4)
    assert ds.n_train == 3
    assert ds.train_observed(0).shape == (3, 3)
    assert ds.test_observed(0).shape == (1, 3)
    ds = _chain_dataset(n=400)
    assert ds.n_train == 300
    assert ds.n_envs == 3


def test_generate_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        generate(
            chain_example_scm(),
            leave_one_out_design(4, 0),
            MixingMatrix(CHAIN_MIX),
            n_per_env=8,
            rng_seed=0,
        )


def test_observed_is_mixed_latents():
    ds = _chain_dataset()
    for z, x in zip(ds.latents, ds.observed):
        assert np.allclose(x, z @ CHAIN_MIX)
    # first regime pins coordinates 1 and 2 (supports are {0},{1},{2})
    reg = ds.envs.regimes[0]
    assert reg.targets == (1, 2)
    z0 = ds.latents[0]
    assert np.ptp(z0[:, 1]) == 0.0 and np.ptp(z0[:, 2]) == 0.0


def test_mixing_spreads_intervention_variance():
    # under this mixing every observed column keeps nonzero variance even
    # though two latent columns are constant
    ds = _chain_dataset()
    for x in ds.observed:
        assert not any(zero_variance(c.mean(), c.var()) for c in x.T)


def test_generate_is_deterministic_and_seed_sensitive():
    a = _chain_dataset(seed=7)
    b = _chain_dataset(seed=7)
    c = _chain_dataset(seed=8)
    for za, zb in zip(a.latents, b.latents):
        assert np.array_equal(za, zb)
    assert not np.array_equal(a.latents[0], c.latents[0])


def test_mixing_commutes_with_row_split():
    ds = _chain_dataset()
    for e in range(ds.n_envs):
        assert np.allclose(ds.train_observed(e), ds.train_latents(e) @ CHAIN_MIX)
        assert np.allclose(ds.test_observed(e), ds.test_latents(e) @ CHAIN_MIX)


def test_zero_variance_threshold():
    rng = np.random.default_rng(0)
    constant, zeros = np.full(100, 3.7), np.zeros(100)
    noise = rng.normal(0, np.sqrt(0.1), size=100)
    jitter = 1e6 + rng.normal(0, 1e-4, size=100)  # on a large constant, still constant
    dead = [zero_variance(c.mean(), c.var()) for c in (constant, zeros, noise, jitter)]
    assert dead == [True, True, False, True]
    assert EPS_VAR == 1e-8


def test_nonvanishing_variance_under_random_mixing():
    # observational data keeps every mixed column stochastic, for any
    # well-conditioned mixing; 100 draws at a small d (the acceptance
    # suite repeats this at scale)
    scm = sample_linear_scm(sample_er_dag(3, 0.5, 0), 0)
    z = sample(scm, 2000, rng_seed=1)
    for seed in range(100):
        mix = sample_mixing(3, seed)
        x = z @ mix.entries
        assert not any(zero_variance(c.mean(), c.var()) for c in x.T)


def test_save_load_round_trip(tmp_path):
    ds = _chain_dataset()
    path = tmp_path / "chain.vsds"
    save(ds, path)
    back = load(path)
    assert back.n_per_env == ds.n_per_env
    assert back.n_train == ds.n_train
    assert back.seed == ds.seed
    assert back.envs.regimes == ds.envs.regimes
    assert np.array_equal(back.mixing.entries, ds.mixing.entries)
    for e in range(ds.n_envs):
        assert np.array_equal(back.latents[e], ds.latents[e])
        assert np.array_equal(back.observed[e], ds.observed[e])


def test_load_detects_corruption(tmp_path):
    ds = _chain_dataset(n=40)
    path = tmp_path / "chain.vsds"
    save(ds, path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(DatasetChecksumError):
        load(path)


def _split_container(path):
    """(header dict, payload bytes) of a saved container."""
    raw = path.read_bytes()[:-32]
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    return json.loads(raw[16 : 16 + header_len]), raw[16 + header_len :]


def _write_container(path, header_bytes, payload):
    """A container with the given header JSON and payload and a valid checksum."""
    body = b"VSDS" + struct.pack("<I", 1) + struct.pack("<Q", len(header_bytes))
    body += header_bytes + payload
    path.write_bytes(body + hashlib.sha256(body).digest())


def test_load_detects_header_payload_mismatch(tmp_path):
    ds = _chain_dataset(n=40)
    path = tmp_path / "chain.vsds"
    save(ds, path)
    header, payload = _split_container(path)
    header["d"] = 7  # payload still describes d=3
    _write_container(path, json.dumps(header, sort_keys=True).encode(), payload)
    with pytest.raises(DatasetFormatError, match="header says"):
        load(path)


def _tiny_container_dataset():
    """Integer latents times CHAIN_MIX: every stored float is exact."""
    envs = EnvironmentSet(
        3,
        (
            InterventionRegime((0, 1), (1.0, 1.0)),
            InterventionRegime((0, 2), (1.0, 2.0)),
            InterventionRegime((1, 2), (1.0, 3.0)),
        ),
    )
    latents = tuple(np.arange(12.0).reshape(4, 3) * (e + 1) - 5.0 * e for e in range(3))
    return EnvDataset(envs=envs, mixing=MixingMatrix(CHAIN_MIX), latents=latents, n_train=3, seed=11)


def test_container_bytes_are_pinned(tmp_path):
    path = tmp_path / "tiny.vsds"
    save(_tiny_container_dataset(), path)
    raw = path.read_bytes()
    assert len(raw) == 1208
    assert hashlib.sha256(raw).hexdigest() == (
        "f6a46dff4b783d97421c4e7aad9badf97831352102e4886e259744186208f16f"
    )
    header, _ = _split_container(path)
    assert header["m"] == header["d"] == 3


def test_load_rejects_a_wide_mixing(tmp_path):
    # a consistent container whose mixing maps 3 latents to 4 observed columns
    ds = _tiny_container_dataset()
    wide = np.hstack([CHAIN_MIX, [[1.0], [2.0], [3.0]]])
    path = tmp_path / "wide.vsds"
    save(ds, path)
    header, _ = _split_container(path)
    header["m"] = 4
    matrices = [wide]
    for e, z in enumerate(ds.latents):
        matrices += [z, z @ wide]
    for rec, arr in zip(header["matrices"], matrices):
        rec["shape"] = list(arr.shape)
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in matrices)
    _write_container(path, json.dumps(header).encode(), payload)
    with pytest.raises(DatasetFormatError, match="header says d=3 but m=4"):
        load(path)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda h: h["matrices"][1].pop("shape"),
        lambda h: h.update(matrices={"name": "mixing", "shape": [3, 3]}),
        lambda h: h.update(matrices=7),
        lambda h: h["matrices"][1].update(shape=[-4, -3]),
        lambda h: h["matrices"][1].update(shape=[0, 10**30]),
        lambda h: h["matrices"][1].update(shape=[4.0, 3]),
        lambda h: h["matrices"][1].update(name=["latents_0"]),
        lambda h: h.update(d=float("inf")),
        lambda h: h["envs"]["regimes"][0].update(targets=[float("inf")]),
        lambda h: h["envs"]["regimes"][0].update(targets=[0], values=["1.5"]),
        # an empty mixing, its 9 floats handed to the next matrix
        lambda h: (
            h.update(d=0, m=0),
            h["matrices"][0].update(shape=[0, 0]),
            h["matrices"][1].update(shape=[7, 3]),
        ),
        # the 12 floats of observed_0, transposed: no broadcast may reach the caller
        lambda h: h["matrices"][2].update(shape=[3, 4]),
        # counts that int() would coerce or that no dataset has
        lambda h: h.update(d=3.7),
        lambda h: h.update(n_train=2.9),
        lambda h: h.update(n_train=True),
        lambda h: h.update(seed="11"),
        lambda h: h.update(seed=-4),
        lambda h: h.update(n_per_env="4"),
    ],
)
def test_load_rejects_malformed_headers_with_format_errors(tmp_path, mutate):
    path = tmp_path / "tiny.vsds"
    save(_tiny_container_dataset(), path)
    header, payload = _split_container(path)
    mutate(header)
    _write_container(path, json.dumps(header).encode(), payload)
    with pytest.raises(DatasetFormatError):
        load(path)


@pytest.mark.parametrize(
    "records",
    [
        # a junk latents_0 listed before the real one
        lambda recs: recs[:1] + [("latents_0", np.full((4, 3), 7.0))] + recs[1:],
        # observed_0 listed before latents_0
        lambda recs: [recs[0], recs[2], recs[1], *recs[3:]],
        # one more record after the last environment's
        lambda recs: recs + [("latents_3", np.zeros((4, 3)))],
    ],
    ids=["duplicate-name", "out-of-order", "extra-record"],
)
def test_load_rejects_records_off_the_saved_layout(tmp_path, records):
    path = tmp_path / "tiny.vsds"
    ds = _tiny_container_dataset()
    save(ds, path)
    header, _ = _split_container(path)
    recs = [("mixing", ds.mixing.entries)]
    for e in range(ds.n_envs):
        recs += [(f"latents_{e}", ds.latents[e]), (f"observed_{e}", ds.observed[e])]
    recs = records(recs)
    header["matrices"] = [{"name": name, "shape": list(a.shape)} for name, a in recs]
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in recs)
    _write_container(path, json.dumps(header).encode(), payload)
    with pytest.raises(DatasetFormatError, match="header says"):
        load(path)


def test_load_rejects_empty_records_numpy_cannot_shape(tmp_path):
    # with d=0 every record holds 0 bytes whatever n_per_env says
    path = tmp_path / "tiny.vsds"
    save(_tiny_container_dataset(), path)
    header, _ = _split_container(path)
    header.update(d=0, m=0, n_per_env=2**62)
    for rec in header["matrices"]:
        rec["shape"] = [0, 0] if rec["name"] == "mixing" else [2**62, 0]
    _write_container(path, json.dumps(header).encode(), b"")
    with pytest.raises(DatasetFormatError):
        load(path)


def test_load_rejects_a_container_with_no_environments(tmp_path):
    path = tmp_path / "empty.vsds"
    save(_tiny_container_dataset(), path)
    header, payload = _split_container(path)
    header["envs"]["regimes"] = []
    header["matrices"] = header["matrices"][:1]
    _write_container(path, json.dumps(header).encode(), payload[: 8 * 9])  # the mixing alone
    with pytest.raises(DatasetFormatError, match="at least one environment"):
        load(path)


def _json_values():
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        st.floats(),
        st.text(max_size=4),
    )
    keys = st.sampled_from(["d", "m", "name", "shape", "targets", "values", "regimes", "x"])
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3),
        max_leaves=6,
    )


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list):
        children = list(enumerate(node))
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


# 1-3 edits, each dropping or replacing one node anywhere in the header; the
# replacements include negative and huge integers, so shapes get those too
_header_edits = st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from(["drop", "replace"]), _json_values()),
    min_size=1,
    max_size=3,
)


def _apply(header, edits):
    for pick, op, value in edits:
        paths = list(_paths(header))
        path = paths[pick % len(paths)]
        if not path:
            header = value
            continue
        parent = header
        for key in path[:-1]:
            parent = parent[key]
        if op == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return header


@settings(max_examples=300, deadline=None)
@given(_header_edits)
def test_load_raises_only_format_errors_on_rewritten_headers(tmp_path_factory, edits):
    path = tmp_path_factory.mktemp("mutated") / "tiny.vsds"
    save(_tiny_container_dataset(), path)
    header, payload = _split_container(path)
    _write_container(path, json.dumps(_apply(header, edits)).encode(), payload)
    try:
        load(path)
    except DatasetFormatError:
        pass


def test_load_rejects_wrong_magic_and_version(tmp_path):
    path = tmp_path / "bogus.vsds"
    path.write_bytes(b"nope")
    with pytest.raises(DatasetFormatError, match="too short"):
        load(path)
    ds = _chain_dataset(n=40)
    good = tmp_path / "good.vsds"
    save(ds, good)
    raw = bytearray(good.read_bytes()[:-32])
    raw[0:4] = b"XXXX"
    path.write_bytes(bytes(raw) + hashlib.sha256(bytes(raw)).digest())
    with pytest.raises(DatasetFormatError, match="magic"):
        load(path)


def test_csv_export(tmp_path):
    ds = _chain_dataset(n=8)
    paths = export_csv(ds, tmp_path / "csv")
    assert len(paths) == 3
    text = paths[0].read_text().splitlines()
    assert text[0] == "z~1,z~2,z~3"
    assert len(text) == 1 + 8
    got = np.loadtxt(paths[0], delimiter=",", skiprows=1)
    assert np.allclose(got, ds.observed[0])


def test_dataset_validation():
    ds = _chain_dataset(n=40)
    with pytest.raises(ValueError, match="split"):
        EnvDataset(
            envs=ds.envs,
            mixing=ds.mixing,
            latents=ds.latents,
            n_train=ds.n_per_env,
            seed=ds.seed,
        )
    with pytest.raises(ValueError, match="at least one environment"):
        EnvDataset(envs=EnvironmentSet(3, ()), mixing=ds.mixing, latents=(), n_train=1, seed=0)
    with pytest.raises(ValueError, match="latents shaped"):
        EnvDataset(
            envs=ds.envs,
            mixing=ds.mixing,
            latents=(ds.latents[0], ds.latents[1][:-1], ds.latents[2]),
            n_train=ds.n_train,
            seed=ds.seed,
        )


def _with_observed_0(path, observed_0):
    """Rewrite a saved container with another observed_0 record and a valid checksum."""
    header, payload = _split_container(path)
    sizes = [8 * int(np.prod(rec["shape"])) for rec in header["matrices"]]
    start = sum(sizes[:2])  # records run mixing, latents_0, observed_0, ...
    record = np.ascontiguousarray(observed_0, dtype="<f8").tobytes()
    assert len(record) == sizes[2]
    payload = payload[:start] + record + payload[start + sizes[2] :]
    _write_container(path, json.dumps(header).encode(), payload)


def test_load_accepts_stored_observations_within_tolerance(tmp_path):
    ds = _tiny_container_dataset()
    path = tmp_path / "tiny.vsds"
    save(ds, path)
    nudged = np.nextafter(ds.observed[0], np.inf)  # one ulp up: within 1e-9, not bit-equal
    assert not np.array_equal(nudged, ds.observed[0])
    _with_observed_0(path, nudged)
    assert np.array_equal(load(path).observed[0], ds.latents[0] @ CHAIN_MIX)


def test_load_rejects_stored_observations_off_the_mixing(tmp_path):
    path = tmp_path / "tiny.vsds"
    ds = _tiny_container_dataset()
    save(ds, path)
    _with_observed_0(path, ds.observed[0] + 1.0)
    with pytest.raises(DatasetFormatError, match="not latents_0 @ mixing"):
        load(path)


@pytest.mark.parametrize("chunk", [40, 72])  # 1 and 3 rows of 3 floats; neither divides the body
def test_load_checks_across_chunk_boundaries(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(data, "_IO_CHUNK", chunk)
    ds = _tiny_container_dataset()
    path = tmp_path / "tiny.vsds"
    save(ds, path)
    back = load(path)
    for e in range(ds.n_envs):
        assert back.latents[e].tobytes() == ds.latents[e].tobytes()
        assert back.observed[e].tobytes() == ds.observed[e].tobytes()

    off = ds.observed[0].copy()
    off[-1] += 1.0  # the last row sits in the last chunk
    _with_observed_0(path, off)
    with pytest.raises(DatasetFormatError, match="not latents_0 @ mixing"):
        load(path)
    _with_observed_0(path, np.nextafter(ds.observed[0], np.inf))
    assert np.array_equal(load(path).observed[0], ds.observed[0])

    raw = bytearray(path.read_bytes())
    raw[-33] ^= 0x01  # the last byte the checksum covers
    path.write_bytes(bytes(raw))
    with pytest.raises(DatasetChecksumError):
        load(path)


def test_save_and_load_hold_no_second_copy(tmp_path):
    # tracemalloc sees NumPy's data buffers as well as Python's own objects
    ds, _ = make_dataset(ExperimentConfig(d=6, p=0.5, n_per_env=20000), 0)
    nbytes = ds.mixing.entries.nbytes + sum(a.nbytes for a in ds.latents + ds.observed)
    assert nbytes > 10e6
    path = tmp_path / "ds.vsds"
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        save(ds, path)
        save_rise = tracemalloc.get_traced_memory()[1] - before
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = load(path)
        load_rise = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert back.observed[-1].tobytes() == ds.observed[-1].tobytes()
    assert save_rise < 1e6
    assert load_rise <= nbytes + data._IO_CHUNK


_SAVE_BEYOND_A_FILE_SIZE_LIMIT = """
import errno, resource, sys
import numpy as np
from varsparse.data import MixingMatrix, generate, save
from varsparse.envs import leave_one_out_design
from varsparse.scm import chain_example_scm

ds = generate(chain_example_scm(), leave_one_out_design(3, 1), MixingMatrix(np.eye(3)), 400, 0)
resource.setrlimit(resource.RLIMIT_FSIZE, (10000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    save(ds, sys.argv[1])
except OSError as err:
    print(errno.errorcode[err.errno])
"""


def test_a_failed_save_leaves_no_partial_file(tmp_path):
    pytest.importorskip("resource")
    path = tmp_path / "ds.vsds"
    env = dict(os.environ)
    src = str(Path(data.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # past the limit, write raises OSError(EFBIG): Python ignores SIGXFSZ
    proc = subprocess.run(
        [sys.executable, "-c", _SAVE_BEYOND_A_FILE_SIZE_LIMIT, str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "EFBIG"
    assert not path.exists()


def test_load_rejects_a_row_count_the_latents_do_not_have(tmp_path):
    path = tmp_path / "tiny.vsds"
    save(_tiny_container_dataset(), path)
    header, payload = _split_container(path)
    header["n_per_env"] = 5
    _write_container(path, json.dumps(header).encode(), payload)
    with pytest.raises(DatasetFormatError, match="n_per_env"):
        load(path)


@st.composite
def _small_datasets(draw):
    d = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32))
    design = draw(st.sampled_from(("leave-one-out", "separating", "random")))
    if design == "leave-one-out":
        envs = leave_one_out_design(d, seed)
    elif design == "separating":
        envs = separating_design(d, seed)
    else:
        regimes = draw(
            st.lists(
                st.lists(st.integers(0, d - 1), unique=True).map(
                    lambda t: InterventionRegime(tuple(t), tuple(0.5 * k for k in range(len(t))))
                ),
                min_size=1,
                max_size=4,
            )
        )
        envs = EnvironmentSet(d, tuple(regimes))
    scm = sample_linear_scm(sample_er_dag(d, draw(st.floats(0.0, 1.0)), seed), seed)
    n = draw(st.integers(4, 40))
    return generate(scm, envs, sample_mixing(d, seed), n_per_env=n, rng_seed=seed)


@settings(max_examples=60, deadline=None)
@given(_small_datasets())
def test_container_round_trip_is_bitwise(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("round-trip") / "ds.vsds"
    save(ds, path)
    back = load(path)
    assert back.envs.d == ds.envs.d
    assert back.envs.regimes == ds.envs.regimes
    assert (back.n_per_env, back.n_train, back.seed) == (ds.n_per_env, ds.n_train, ds.seed)
    assert back.mixing.entries.tobytes() == ds.mixing.entries.tobytes()
    for e in range(ds.n_envs):
        assert back.latents[e].tobytes() == ds.latents[e].tobytes()
        assert back.observed[e].tobytes() == ds.observed[e].tobytes()

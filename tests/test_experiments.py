import hashlib
import json
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varsparse.data as data
import varsparse.experiments as experiments
import varsparse.ica as ica
import varsparse.unmixing as unmixing
from varsparse.experiments import (
    DESIGN_KINDS,
    SCM_KINDS,
    ExperimentConfig,
    ManifestDigestError,
    ResultRow,
    dataset_sha256,
    make_dataset,
    pooled_test_moments,
    regenerate,
    reproduce,
    run_cell,
    run_experiment,
    summarize,
    train_covariances,
    write_rows_csv,
    write_summary_csv,
)
from varsparse.ica import fit_fastica
from varsparse.metrics import mcc_between, pooled_moments
from varsparse.unmixing import train

TINY = ExperimentConfig(d=3, p=0.5, n_per_env=1200, seeds=(0,), epochs=3, batch_size=200)


def test_config_defaults_match_benchmark_protocol():
    cfg = ExperimentConfig()
    assert cfg.d == 6 and cfg.p == 0.5 and cfg.n_per_env == 100_000
    assert cfg.seeds == (0, 1, 2, 3, 4)
    assert cfg.epochs == 50 and cfg.batch_size == 4096
    assert [f.name for f in fields(ExperimentConfig)] == [
        "d", "p", "n_per_env", "seeds", "design", "scm", "epochs", "batch_size", "out_dir"
    ]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(d=1),
        dict(p=-0.1),
        dict(p=1.5),
        dict(n_per_env=3),
        dict(seeds=()),
        dict(seeds=(0, -1)),
        dict(scm="cubic"),
        dict(design="latin-square"),
        dict(design="/no/such/file.json"),
        dict(scm="nonlinear-1", d=4),
        dict(epochs=0),
        dict(batch_size=1),
        dict(scm="nonlinear-2", d=3),
        dict(p=float("inf")),
        dict(seeds=(-3,)),
        dict(p=float("nan")),
        dict(epochs=float("nan")),
        dict(epochs=2.5),
        dict(batch_size=2.5),
        dict(d=6.5),
        dict(seeds=(0.5,)),
        dict(p=True),
        dict(seeds=(True,)),
        dict(p="0.5"),
        dict(seeds=(0, 0)),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


def test_config_accepts_numpy_scalars():
    cfg = ExperimentConfig(
        d=np.int64(3), p=np.float64(0.5), n_per_env=np.int64(400), seeds=(np.int64(0), np.int32(1))
    )
    assert cfg == ExperimentConfig(d=3, p=0.5, n_per_env=400, seeds=(0, 1))
    assert all(type(n) is int for n in (cfg.d, cfg.n_per_env, *cfg.seeds))
    assert type(cfg.p) is float  # CSV cells are reprs; np.float64(0.5) would write its type
    _, manifest = make_dataset(cfg, cfg.seeds[1])
    assert json.loads(json.dumps(manifest))["d"] == 3


def test_build_scm_kinds():
    linear = experiments._scm("linear", 4, 0.5, experiments._derived_seeds(3))
    assert linear.d == 4
    for which, kind in ((1, "nonlinear-1"), (2, "nonlinear-2")):
        scm = experiments._scm(kind, 6, 0.5, experiments._derived_seeds(0))
        # fixed mechanisms ignore the seed
        again = experiments._scm(kind, 6, 0.5, experiments._derived_seeds(99))
        assert scm.d == 6
        assert np.array_equal(scm.dag.edges, again.dag.edges)
    with pytest.raises(ValueError):
        experiments._scm("polynomial", 4, 0.5, experiments._derived_seeds(0))


def test_linear_scm_differs_across_seeds():
    # fresh instance per seed: over several seeds the graphs cannot all agree
    dags = [
        experiments._scm("linear", 6, 0.5, experiments._derived_seeds(s)).dag.edges
        for s in range(5)
    ]
    assert any(not np.array_equal(dags[0], d) for d in dags[1:])


def test_make_dataset_shape_and_manifest_fields():
    dataset, manifest = make_dataset(TINY, seed=7)
    assert dataset.n_envs == TINY.d  # leave-one-out
    assert dataset.n_per_env == TINY.n_per_env
    assert manifest["format"] == "varsparse-manifest"
    assert manifest["seed"] == 7
    assert manifest["d"] == 3 and manifest["p"] == 0.5
    assert np.array(manifest["mixing"]).shape == (3, 3)
    for key in ("dag", "coefficients", "data", "mixing", "design"):
        assert key in manifest["derived_seeds"]
    assert manifest["n_edges"] >= 0


def test_manifest_regenerates_dataset_bit_exactly():
    dataset, manifest = make_dataset(TINY, seed=5)
    # through a JSON round trip, as the CLI stores it
    clone = regenerate(json.loads(json.dumps(manifest)))
    for e in range(dataset.n_envs):
        assert np.array_equal(dataset.latents[e], clone.latents[e])
        assert np.array_equal(dataset.observed[e], clone.observed[e])
    assert np.array_equal(dataset.mixing.entries, clone.mixing.entries)


def test_regenerate_checks_a_recorded_sha256_and_hashes_nothing_without_one(monkeypatch):
    dataset, manifest = make_dataset(TINY, seed=5)
    assert "sha256" not in manifest
    digest = dataset_sha256(dataset)
    arrays = (dataset.mixing.entries, *dataset.latents)  # in that order, little-endian float64
    assert digest == hashlib.sha256(b"".join(a.astype("<f8").tobytes() for a in arrays)).hexdigest()
    assert regenerate({**manifest, "sha256": digest}).latents[2].tobytes() == dataset.latents[2].tobytes()
    with pytest.raises(ManifestDigestError, match=f"regenerated sha256 {digest} != manifest's 'beef'"):
        regenerate({**manifest, "sha256": "beef"})

    def refuse(dataset):
        raise AssertionError("hashed a manifest that records no sha256")

    monkeypatch.setattr(experiments, "dataset_sha256", refuse)
    regenerate(make_dataset(TINY, seed=5)[1])


@st.composite
def _small_configs(draw):
    scm = draw(st.sampled_from(SCM_KINDS))
    return ExperimentConfig(
        d=6 if scm != "linear" else draw(st.integers(2, 6)),  # the nonlinear mechanisms are d=6
        p=draw(st.floats(0.0, 1.0)),
        n_per_env=draw(st.integers(4, 30)),
        seeds=(draw(st.integers(0, 2**32)),),
        design=draw(st.sampled_from(DESIGN_KINDS)),
        scm=scm,
    )


@settings(max_examples=40, deadline=None)
@given(_small_configs())
def test_the_digest_is_the_same_from_make_dataset_regenerate_and_the_container(tmp_path_factory, config):
    dataset, manifest = make_dataset(config, config.seeds[0])
    path = tmp_path_factory.mktemp("container") / "ds.vsds"
    data.save(dataset, path)
    digests = {
        dataset_sha256(dataset),
        dataset_sha256(regenerate(json.loads(json.dumps(manifest)))),
        dataset_sha256(data.load(path)),
    }
    assert len(digests) == 1


def test_zero_edge_probability_recorded_in_manifest():
    _, manifest = make_dataset(ExperimentConfig(d=3, p=0.0, n_per_env=100, seeds=(0,)), seed=0)
    assert manifest["n_edges"] == 0


@pytest.mark.parametrize(
    "entry,match",
    [
        # "0.5" once regenerated the same dataset as 0.5, and true one mixed by 1.0
        ("0.5", "malformed manifest: mixing entry must be a real number"),
        (True, "malformed manifest: mixing entry must be a real number"),
        (None, "malformed manifest: mixing entry must be a real number"),
        (float("nan"), "mixing entries must be finite"),
    ],
)
def test_regenerate_reads_mixing_entries_as_finite_real_numbers(entry, match):
    _, manifest = make_dataset(TINY, seed=5)
    manifest["mixing"][1][2] = entry
    with pytest.raises(ValueError, match=match):
        regenerate(manifest)


def test_regenerate_rejects_foreign_documents():
    with pytest.raises(ValueError, match="manifest"):
        regenerate({"format": "something-else"})


@pytest.mark.parametrize("method", experiments.METHODS)
def test_methods_are_scored_from_test_moments_as_the_test_rows_score(method, monkeypatch):
    fitted = []

    def spy(fit):
        def recorded(*args, **kwargs):
            fitted.append(fit(*args, **kwargs))
            return fitted[-1]
        return recorded

    for name in ("train", "fit_fastica"):  # called through experiments' attributes, as bench/ wraps them
        monkeypatch.setattr(experiments, name, spy(getattr(experiments, name)))
    dataset, _ = make_dataset(TINY, 0)
    fit = experiments._fit_and_score(dataset, method, TINY, 0, pooled_test_moments(dataset))
    z = np.vstack([dataset.test_latents(e) for e in range(dataset.n_envs)])
    x = np.vstack([dataset.test_observed(e) for e in range(dataset.n_envs)])
    (model,) = fitted
    if method == "ours":
        model, report = model
        assert fit == {"mcc": fit["mcc"], "converged": report.converged, "n_iter": report.n_iter}
        learned = x @ model.lhat
    else:
        assert fit == {"mcc": fit["mcc"], "converged": model.converged, "n_iter": model.n_iter}
        learned = ((x - model.mean) @ model.whitening) @ model.rotation.T
    assert abs(fit["mcc"] - mcc_between(z, learned).score) <= 1e-12


def _pinned(config: ExperimentConfig) -> tuple[str, str]:
    """The sha256 of the lhat bytes and the repr of the last epoch's loss that
    training on config's seed-0 dataset computes."""
    dataset, _ = make_dataset(config, 0)
    model, report = train(train_covariances(dataset), dataset.n_train, config.train_config(0))
    digest = hashlib.sha256(np.ascontiguousarray(model.lhat, dtype="<f8").tobytes()).hexdigest()
    return digest, repr(report.epoch_losses[-1].total)


def test_training_output_is_pinned_bit_for_bit():
    # lhat's bytes and the last epoch's loss as L-BFGS-B computes them; a
    # refactor of the objective or the optimizer must leave both exactly as
    # they are, and a deliberate change re-records them from the message
    computed = _pinned(TINY)
    assert computed == (
        "1369994d7adc6edc022f32f785fe0d9342a269d33a63d4c9276caf08ce4175c0",
        "33.22815517055214",
    ), f"training computes {computed}"


def test_training_output_is_pinned_bit_for_bit_at_the_benchmark_dimension():
    # E = d = 10, as in the train-d10 benchmark
    computed = _pinned(ExperimentConfig(d=10, n_per_env=2000, seeds=(0,), epochs=2, batch_size=500))
    assert computed == (
        "cf82e475bf871031410ef1b898a3e9ba87c8f111a48aa0c92c624672babc3690",
        "219.54759762098868",
    ), f"training computes {computed}"


def test_a_grid_builds_the_test_moments_once_per_seed(monkeypatch):
    calls = []

    def counting(blocks, mixing):
        calls.append(1)
        return pooled_moments(blocks, mixing)

    monkeypatch.setattr(experiments, "pooled_moments", counting)
    rows = run_experiment("table1", replace(TINY, seeds=(0, 1)), methods=("ours", "fastica"))
    assert len(rows) == 8 and all(row.error == "" for row in rows)
    assert len(calls) == 4  # two cells of two seeds


@pytest.mark.parametrize(
    "methods,builds", [(("ours", "fastica"), 4), (("fastica",), 0)], ids=["both", "fastica"]
)
def test_a_grid_builds_the_train_stack_once_per_seed_for_ours_alone(monkeypatch, methods, builds):
    calls = []

    def counting(dataset):
        calls.append(1)
        return train_covariances(dataset)

    monkeypatch.setattr(experiments, "train_covariances", counting)
    rows = run_experiment("table1", replace(TINY, seeds=(0, 1)), methods=methods)
    assert len(rows) == 4 * len(methods) and all(row.error == "" for row in rows)
    assert len(calls) == builds  # two cells of two seeds


def test_run_cell_both_methods_return_scores():
    for method in ("ours", "fastica"):
        row = run_cell("unit", TINY, seed=0, method=method)
        assert row.error == ""
        assert 0.0 <= row.mcc <= 1.0
        assert row.method == method and row.seed == 0 and row.d == 3
        assert row.n_iter >= 1
        assert row.converged is (method == "fastica")  # TINY caps ours at 3 epochs x 5 steps


@pytest.mark.parametrize("method", experiments.METHODS)
def test_evaluate_method_scores_as_the_grid_does(method):
    # the benchmark's panel calls evaluate_method, the grids run_cell, which
    # shares one set of test moments between the methods; both must agree exactly
    dataset, _ = make_dataset(TINY, 0)
    assert experiments.evaluate_method(dataset, method, TINY, 0) == run_cell("unit", TINY, 0, method).mcc


def test_scoring_never_reads_the_observed_test_rows(monkeypatch):
    # the test moments are the latents' moments carried through the mixing,
    # so a dataset that kept no observed test rows would score the same
    dataset, _ = make_dataset(TINY, 0)
    expected = run_cell("unit", TINY, 0, "ours").mcc

    def unread(self, e):
        raise AssertionError("the observed test rows were read")

    monkeypatch.setattr(data.EnvDataset, "test_observed", unread)
    assert run_cell("unit", TINY, 0, "ours").mcc == expected
    moments = pooled_test_moments(dataset)
    z = np.vstack([dataset.test_latents(e) for e in range(dataset.n_envs)])
    assert np.array_equal(moments.mixing, dataset.mixing.entries)
    assert np.allclose(moments.mean, z.mean(axis=0), rtol=0, atol=1e-12)
    assert np.allclose(moments.cov, np.cov(z, rowvar=False, bias=True), rtol=0, atol=1e-12)


def test_run_cell_records_fastica_non_convergence(monkeypatch):
    monkeypatch.setattr(ica, "_MAX_ITER", 1)
    row = run_cell("unit", TINY, seed=0, method="fastica")
    assert row.error == "" and np.isfinite(row.mcc)
    assert row.converged is False and row.n_iter == 1


def test_grid_of_capped_fastica_fits_writes_every_row(monkeypatch):
    monkeypatch.setattr(ica, "_MAX_ITER", 1)
    rows = run_experiment("fig2b", ExperimentConfig(d=3, n_per_env=400, seeds=(0,)), methods=("fastica",))
    assert len(rows) == 5
    for row in rows:
        assert row.error == "" and row.converged is False and row.n_iter == 1


def test_an_ours_row_carries_its_training_reports_convergence(monkeypatch):
    reports = []

    def spied(*args):
        model, report = train(*args)
        reports.append(report)
        return model, report

    monkeypatch.setattr(experiments, "train", spied)
    config = replace(TINY, epochs=50, batch_size=4096)  # a cap of 50 iterations
    rows = [run_cell("unit", config, seed, "ours") for seed in (0, 1)]
    assert [(row.converged, row.n_iter) for row in rows] == [(r.converged, r.n_iter) for r in reports]
    assert all(row.converged is True and 1 <= row.n_iter < 50 for row in rows)


def test_a_capped_ours_run_records_that_it_did_not_converge():
    # 300 train rows in one batch: one iteration per epoch, a cap of 1
    row = run_cell("unit", ExperimentConfig(d=3, n_per_env=400, epochs=1, batch_size=300), 0, "ours")
    assert row.error == "" and np.isfinite(row.mcc)
    assert row.converged is False and row.n_iter == 1


def test_run_cell_records_failures_as_rows(monkeypatch):
    monkeypatch.setattr(unmixing, "LAMBDA_DIAG", 1e308)  # a non-finite objective
    with np.errstate(over="ignore", invalid="ignore"):
        row = run_cell("unit", TINY, seed=0, method="ours")
    assert np.isnan(row.mcc)
    assert row.error.startswith("TrainingAborted: ")


def test_run_cell_records_a_failing_gradient_check_as_training_aborted(monkeypatch):
    def injected(*args):
        raise unmixing.NumericalError("injected")

    monkeypatch.setattr(unmixing, "objective", injected)
    row = run_cell("unit", TINY, seed=0, method="ours")
    assert np.isnan(row.mcc) and row.error.startswith("TrainingAborted: ") and row.error.endswith("injected")


@pytest.mark.parametrize(
    "doc,expected",
    [
        # every regime targets coordinate 0, so 1 and 2 are never separated
        ({"d": 3, "regimes": [{"targets": [0], "values": [1.0]}] * 3}, "CoverageError"),
        ({"d": 4, "regimes": [{"targets": [j], "values": [1.0]} for j in range(4)]}, "DesignDimensionError"),
    ],
)
def test_run_cell_records_a_failing_design_file_as_a_typed_row(tmp_path, doc, expected):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc))
    config = ExperimentConfig(d=3, n_per_env=400, seeds=(0,), design=str(path))
    row = run_cell("unit", config, seed=0, method="fastica")
    assert np.isnan(row.mcc) and row.error.startswith(f"{expected}: ")
    assert row.converged is None and row.n_iter is None


def test_run_cell_records_exhausted_mixing_draws_as_a_typed_row(monkeypatch):
    monkeypatch.setattr(data, "_SAMPLE_RETRIES", 0)
    row = run_cell("unit", TINY, seed=0, method="fastica")
    assert np.isnan(row.mcc) and row.error.startswith("MixingDrawsExhausted: ")


def test_run_cell_records_a_rank_deficient_ica_input_as_a_row(monkeypatch):
    def collapsed(blocks, d, seed):  # the last column copies the first
        return fit_fastica([np.column_stack([x[:, :-1], x[:, 0]]) for x in blocks], d, seed=seed)

    monkeypatch.setattr(experiments, "fit_fastica", collapsed)
    row = run_cell("unit", TINY, seed=0, method="fastica")
    assert np.isnan(row.mcc)
    assert row.error.startswith("IcaRankError: covariance is rank-deficient")


def test_fastica_holds_under_one_copy_of_the_pooled_train_rows(monkeypatch):
    # the environments are whitened block by block into one float32 d x n
    # array, half the bytes of the train rows: no stacked or centred copy of
    # all the train rows is made beside it, only the coarse stage's copy of
    # every _COARSE-th column
    monkeypatch.setattr(ica, "_MAX_ITER", 1)
    config = ExperimentConfig(d=6, n_per_env=20_000, seeds=(0,))
    dataset, _ = make_dataset(config, 0)
    moments = pooled_test_moments(dataset)
    pooled_bytes = sum(dataset.train_observed(e).nbytes for e in range(dataset.n_envs))
    tracemalloc.start()
    try:
        fit = experiments._fit_and_score(dataset, "fastica", config, 0, moments)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit["n_iter"] == 1
    assert peak < pooled_bytes, (peak, pooled_bytes)


def test_run_cell_records_too_few_pooled_fastica_rows_as_a_typed_row():
    # 10 separating environments x 3 train rows = 30 rows for d = 30 components
    config = ExperimentConfig(d=30, n_per_env=4, design="separating", seeds=(0,))
    row = run_cell("x", config, 0, "fastica")
    assert np.isnan(row.mcc)
    assert row.error.startswith("IcaRankError:")


def test_run_cell_raises_unexpected_errors(monkeypatch):
    def broken(blocks, d, seed):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(experiments, "fit_fastica", broken)
    monkeypatch.setitem(experiments.GRIDS, "fig2a", experiments.GRIDS["fig2a"][:1])  # d=3 only
    with pytest.raises(ValueError, match="broadcast"):
        run_cell("unit", TINY, seed=0, method="fastica")
    with pytest.raises(ValueError, match="broadcast"):
        run_experiment("fig2a", TINY, methods=("ours", "fastica"))


def test_run_cell_nonlinear_rows_have_no_edge_probability():
    cfg = ExperimentConfig(d=6, scm="nonlinear-1", n_per_env=400, seeds=(0,), epochs=1, batch_size=64)
    row = run_cell("unit", cfg, seed=0, method="fastica")
    assert row.p is None and row.scm == "nonlinear-1"


def test_grids_enumerate_documented_settings(monkeypatch):
    base = ExperimentConfig(n_per_env=400, seeds=(0,), epochs=1, batch_size=64)
    assert [cell["d"] for cell in experiments.GRIDS["fig2a"]] == [3, 6, 10, 30]
    monkeypatch.setitem(experiments.GRIDS, "fig2a", experiments.GRIDS["fig2a"][:1])  # d=3 only
    rows = run_experiment("fig2a", base, methods=("fastica",))
    assert [r.d for r in rows] == [3]
    rows = run_experiment("fig2b", base, methods=("fastica",))
    assert [r.p for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    rows = run_experiment("fig2c", base, methods=("fastica",))
    assert [r.n_per_env for r in rows] == [10_000, 50_000, 100_000, 200_000]
    rows = run_experiment("table1", base, methods=("fastica",))
    assert [r.scm for r in rows] == ["nonlinear-1", "nonlinear-2"]
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("fig9", base)
    with pytest.raises(ValueError, match="unknown method"):
        run_experiment("fig2a", base, methods=("gradient-boosting",))


def test_a_repeated_method_is_rejected_before_anything_runs(tmp_path, monkeypatch):
    # summarize would count the repeat as a second seed with a stderr of 0
    monkeypatch.setattr(experiments, "make_dataset", None)  # nothing may be generated
    config = ExperimentConfig(n_per_env=400, seeds=(0,), epochs=1, batch_size=64,
                              out_dir=str(tmp_path / "out"))
    with pytest.raises(ValueError, match="methods must be distinct"):
        run_experiment("table1", config, methods=("ours", "ours"))
    with pytest.raises(ValueError, match="methods must be distinct"):
        reproduce("table1", config, methods=("ours", "fastica", "ours"))
    assert not (tmp_path / "out").exists()


def test_rows_come_out_in_cell_seed_method_order():
    base = ExperimentConfig(n_per_env=400, seeds=(0, 1), epochs=1, batch_size=64)
    rows = run_experiment("table1", base, methods=("fastica", "ours"))
    key = [(r.scm, r.seed, r.method) for r in rows]
    assert key == [
        (s, seed, m)
        for s in ("nonlinear-1", "nonlinear-2")
        for seed in (0, 1)
        for m in ("fastica", "ours")
    ]


def test_grid_generates_each_dataset_once_with_unchanged_rows(tmp_path, monkeypatch):
    base = ExperimentConfig(n_per_env=400, seeds=(0,), epochs=1, batch_size=64)
    methods = ("ours", "fastica")
    # one dataset per method and row, as run_cell makes them
    per_row = [
        run_cell("fig2b", cell, seed, method)
        for cell in [replace(base, **o) for o in experiments.GRIDS["fig2b"]]
        for seed in cell.seeds
        for method in methods
    ]
    calls = []

    def counted(*args):
        calls.append(args)
        return make_dataset(*args)

    monkeypatch.setattr(experiments, "make_dataset", counted)
    rows = run_experiment("fig2b", base, methods=methods)
    assert len(calls) == 5  # one per (cell, seed), shared by both methods
    write_rows_csv(per_row, tmp_path / "per_row.csv")
    write_rows_csv(rows, tmp_path / "grid.csv")
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "per_row.csv").read_bytes()


def _row(seed, mcc, method="ours"):
    return ResultRow("x", "linear", 3, 0.5, 100, seed, method, mcc)


def test_summarize_mean_and_standard_error():
    rows = [_row(0, 0.9), _row(1, 0.8), _row(2, 1.0)]
    (summary,) = summarize(rows)
    scores = np.array([0.9, 0.8, 1.0])
    assert summary.mean_mcc == pytest.approx(scores.mean())
    assert summary.stderr_mcc == pytest.approx(scores.std(ddof=1) / np.sqrt(3))
    assert summary.n_seeds == 3


def test_summarize_drops_failed_rows_and_handles_degenerate_counts():
    rows = [_row(0, 0.9), _row(1, float("nan"))]
    (summary,) = summarize(rows)
    assert summary.mean_mcc == pytest.approx(0.9)
    assert summary.stderr_mcc == 0.0 and summary.n_seeds == 1
    (empty,) = summarize([_row(0, float("nan"))])
    assert np.isnan(empty.mean_mcc) and np.isnan(empty.stderr_mcc) and empty.n_seeds == 0


def test_summarize_groups_methods_separately():
    rows = [_row(0, 0.9), _row(0, 0.5, method="fastica")]
    summaries = summarize(rows)
    assert [s.method for s in summaries] == ["ours", "fastica"]


def test_csv_headers_and_failure_cells(tmp_path):
    rows = [
        _row(0, 0.9),
        ResultRow("x", "linear", 3, 0.5, 100, 1, "ours", float("nan"), error="boom, bad\nline"),
        ResultRow("x", "linear", 3, 0.5, 100, 0, "fastica", 0.5, converged=False, n_iter=500),
        ResultRow("y", "linear", 3, 0.5, 100, 0, "ours", 0.8, converged=True, n_iter=231),
    ]
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "experiment,scm,d,p,n_per_env,seed,method,mcc,converged,n_iter,error"
    assert lines[1] == "x,linear,3,0.5,100,0,ours,0.9,,,"
    assert lines[2].endswith("nan,,,boom; bad line")  # commas and newlines stay out of cells
    assert lines[3] == "x,linear,3,0.5,100,0,fastica,0.5,False,500,"
    assert lines[4] == "y,linear,3,0.5,100,0,ours,0.8,True,231,"
    spath = tmp_path / "summary.csv"
    write_summary_csv(summarize(rows), spath)
    slines = spath.read_text().splitlines()
    assert slines[0] == "experiment,scm,d,p,n_per_env,method,mean_mcc,stderr_mcc,n_seeds"
    assert slines[1] == "x,linear,3,0.5,100,ours,0.9,0.0,1"


def test_reproduce_writes_both_csvs_under_the_configured_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(experiments.GRIDS, "fig2a", experiments.GRIDS["fig2a"][:1])  # d=3 only
    out = tmp_path / "grid"
    cfg = ExperimentConfig(n_per_env=400, seeds=(0,), out_dir=str(out))
    rows_path, summary_path, _ = reproduce("fig2a", cfg, methods=("fastica",))
    assert (rows_path, summary_path) == (out / "fig2a.csv", out / "fig2a_summary.csv")
    assert sorted(tmp_path.iterdir()) == [out]
    assert sorted(out.iterdir()) == [rows_path, summary_path]


def test_reproduce_outputs_are_byte_identical_across_runs(tmp_path, monkeypatch):
    cfg = ExperimentConfig(d=3, p=0.5, n_per_env=400, seeds=(0,), epochs=1, batch_size=64)
    monkeypatch.setitem(experiments.GRIDS, "fig2a", experiments.GRIDS["fig2a"][:1])  # d=3 only
    first = reproduce("fig2a", replace(cfg, out_dir=str(tmp_path / "a")), methods=("fastica",))
    second = reproduce("fig2a", replace(cfg, out_dir=str(tmp_path / "b")), methods=("fastica",))
    assert first[0].read_bytes() == second[0].read_bytes()
    assert first[1].read_bytes() == second[1].read_bytes()
    assert first[0].name == "fig2a.csv" and first[1].name == "fig2a_summary.csv"
    assert len(first[2]) == len(first[0].read_text().splitlines()) - 1

"""Fast self-tests of the benchmark on tiny inputs.

Each correctness check accepts the program's real output and rejects a
deliberately wrong one. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from tracing import Span, Tracer
from varsparse import data, experiments
from varsparse.ica import fit_fastica
from varsparse.metrics import mcc_between

BENCH = Path(__file__).resolve().parent
TINY = workloads.WARM_UP


@pytest.fixture(scope="module")
def tiny():
    return experiments.make_dataset(TINY, 0)[0]


def _correlated(seed=0, n=500, d=4):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1, 1, size=(n, d))
    return z, z @ rng.normal(size=(d, d)) + 0.1 * rng.uniform(-1, 1, size=(n, d))


def test_independent_mcc_agrees_with_the_program():
    z, x = _correlated()
    program = mcc_between(z, x).score
    assert abs(checks.independent_mcc(z, x) - program) < 1e-12
    checks.check_mcc(z, x, program)


def test_mcc_check_rejects_a_wrong_score():
    z, x = _correlated(1)
    with pytest.raises(checks.CheckFailed):
        checks.check_mcc(z, x, mcc_between(z, x).score + 1e-8)


def test_mcc_floor_rejects_a_low_mean():
    checks.check_mcc_floor([0.96, 0.95], 0.95)
    with pytest.raises(checks.CheckFailed):
        checks.check_mcc_floor([0.99, 0.90], 0.95)


def test_whiteness_check_accepts_fastica_and_rejects_a_skewed_rotation():
    _, x = _correlated(2, n=5000)
    model = fit_fastica(x, 4, seed=0)
    checks.check_whitened(checks.ica_components(model.mean, model.whitening, model.rotation, x))
    skewed = model.rotation.copy()
    skewed[0] *= 1 + 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_whitened(checks.ica_components(model.mean, model.whitening, skewed, x))


def test_bitwise_check_rejects_one_flipped_bit_and_a_changed_dtype():
    saved = np.random.default_rng(3).normal(size=(50, 3))
    checks.check_bitwise_equal("a", checks.digest(saved), saved.copy())
    flipped = saved.copy()
    flipped.view(np.uint64)[7, 1] ^= 1
    with pytest.raises(checks.CheckFailed):
        checks.check_bitwise_equal("a", checks.digest(saved), flipped)
    with pytest.raises(checks.CheckFailed):
        checks.check_bitwise_equal("a", checks.digest(saved), saved.view(np.int64))


def test_mixing_check_rejects_observed_off_by_more_than_tolerance():
    z, _ = _correlated(4)
    mixing = np.random.default_rng(5).uniform(-1, 1, size=(4, 4))
    x = z @ mixing
    checks.check_mixed(0, z, x, mixing)
    x[3, 2] += 1e-8
    with pytest.raises(checks.CheckFailed):
        checks.check_mixed(0, z, x, mixing)


def test_constant_column_check_rejects_missing_and_extra_targets():
    z, _ = _correlated(6)
    z[:, 1] = 0.7
    checks.check_constant_columns(0, z, (1,))
    for wrong in ((), (1, 2), (0,)):
        with pytest.raises(checks.CheckFailed):
            checks.check_constant_columns(0, z, wrong)


def test_evaluation_pass_passes_real_output_and_catches_a_wrong_score(tiny, monkeypatch):
    for method in ("ours", "fastica"):
        outcome, fitted = workloads.Outcome(), []
        with workloads.ExitStack() as stack:
            workloads.replace_attr(stack, experiments, "train",
                                   lambda f: workloads.keeping(f, fitted))
            workloads.replace_attr(stack, experiments, "fit_fastica",
                                   lambda f: workloads.keeping(f, fitted))
            result = workloads.evaluation_pass(method, TINY, [(0, tiny)], outcome, fitted)
            assert (outcome.attempted, outcome.failed, outcome.problems) == (1, 0, [])
            assert len(result.scores) == 1 and result.clock.cpu > 0

            real = experiments.mcc_between
            monkeypatch.setattr(experiments, "mcc_between", lambda a, b: dataclasses.replace(
                real(a, b), score=real(a, b).score + 1e-6))
            workloads.evaluation_pass(method, TINY, [(0, tiny)], outcome, fitted)
            monkeypatch.undo()
        assert len(outcome.problems) == 1 and "MCC" in outcome.problems[0]


def test_evaluation_pass_counts_an_exception_as_a_failed_operation(tiny, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(experiments, "fit_fastica", broken)
    outcome = workloads.Outcome()
    workloads.evaluation_pass("fastica", TINY, [(0, tiny), (1, None)], outcome, [])
    assert (outcome.attempted, outcome.failed) == (2, 2)


def test_store_pass_checks_the_round_trip_and_catches_a_corrupt_load(tiny, tmp_path, monkeypatch):
    saved = workloads.Saved.of(tiny)
    inputs, outcome = [(0, tiny)], workloads.Outcome()
    result = workloads.store_pass(inputs, saved, tmp_path / "d.bin", outcome)
    assert (outcome.attempted, outcome.failed, outcome.problems) == (2, 0, [])
    assert result.container_bytes == (tmp_path / "d.bin").stat().st_size
    assert inputs[0][1] is not tiny

    real = data.load

    def corrupt(path):
        loaded = real(path)
        loaded.observed[1].view(np.uint64)[5, 0] ^= 1  # within allclose, not bit-equal
        return loaded

    monkeypatch.setattr(data, "load", corrupt)
    workloads.store_pass(inputs, saved, tmp_path / "d.bin", outcome)
    assert outcome.problems == ["observed_1: loaded array differs from the saved one"]


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        Span("outer", None, "pass", 0.0, 0.0, 1.0, 5.0),
        Span("inner", 0, "pass", 0.0, 1.0, 1.0, 4.0),
        Span("outer", None, "setup", 0.0, 0.0, 1.0, 2.0),
    ]
    total, own = tracer.layer_cpu("pass")
    assert total == {"outer": 5.0, "inner": 3.0}
    assert own == {"outer": 2.0, "inner": 3.0}


def test_traced_pass_nests_layer_spans_under_evaluate_method(tiny):
    tracer, outcome = Tracer(), workloads.Outcome()
    tracer.phase = "pass"
    with workloads.instrumented(tracer), workloads.ExitStack() as stack:
        fitted = []
        workloads.replace_attr(stack, experiments, "train", lambda f: workloads.keeping(f, fitted))
        result = workloads.evaluation_pass("ours", TINY, [(0, tiny)], outcome, fitted)
    assert outcome.problems == []
    evaluate, train, score = tracer.spans
    assert (evaluate.name, train.name, score.name) == (
        "experiments.evaluate_method", "unmixing.train", "metrics.mcc_between")
    assert evaluate.parent is None and train.parent == score.parent == 0
    metrics = workloads.layer_metrics(tracer, [result], [result], result)
    assert metrics["unmixing.train_s"] == train.cpu_s
    assert metrics["unmixing.steps"] == -(-tiny.n_train // TINY.batch_size)
    assert metrics["experiments.evaluate_self_s"] == pytest.approx(
        evaluate.cpu_s - train.cpu_s - score.cpu_s)
    assert metrics["trace.overhead_s"] == 0.0


def test_run_without_the_program_sources_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(BENCH / "run.py", tmp_path / "bench")
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ica-d10", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_benchmark_json_names_every_workload_the_runner_knows():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

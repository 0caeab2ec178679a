"""The benchmark's workloads: inputs, warm-up, timed passes, checks and metrics.

A run warms up on a tiny dataset, makes its inputs SET_UPS times (setup_s is
the median), then repeats whole passes over the inputs until the timed part
of the passes has taken --seconds. pass_s is the median CPU seconds of a
pass. A traced run then repeats as many passes with spans on, then one more
untraced pass, and reports the per-layer metrics instead.

train-d10 and ica-d10 evaluate a fixed panel of d=10 instances, made and
scored exactly as the experiment grid does. --seed does not change them:
FastICA's work on one instance ranges over 18-76 iterations with the
instance and 25-63 with its init seed alone, and the trained MCC over
0.92-1.00 with the draw, so no panel drawn from the seed and small enough for
one run is steady. store-d30's cost does not depend on the instance, so there
--seed picks the instance.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
import warnings
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np
from varsparse import data, experiments
from varsparse.data import EnvDataset
from varsparse.experiments import ExperimentConfig

import checks
from tracing import Tracer, replace_attr

D10 = ExperimentConfig(d=10, p=0.5, n_per_env=100_000, seeds=(0, 1))
D30 = ExperimentConfig(d=30, p=0.5, n_per_env=100_000)
WARM_UP = ExperimentConfig(d=3, p=0.5, n_per_env=400, seeds=(0,), epochs=1, batch_size=64)
SET_UPS = 3
# store-d30's pass is bound by page faults and I/O; one pass of its CPU time
# spread 9.4 % (IQR over median, ten runs), so it takes the median of two.
MIN_PASSES = {"store-d30": 2}
METHODS = {"train-d10": "ours", "ica-d10": "fastica"}
WORKLOADS = (*METHODS, "store-d30")

# (module, attribute the caller looks up, span name, sample resident memory)
LAYERS = (
    (data, "sample", "scm.sample", False),
    (experiments, "generate", "data.generate", False),
    (data, "save", "data.save", True),
    (data, "load", "data.load", True),
    (experiments, "evaluate_method", "experiments.evaluate_method", False),
    (experiments, "train", "unmixing.train", False),
    (experiments, "fit_fastica", "ica.fit_fastica", False),
    (experiments, "mcc_between", "metrics.mcc_between", False),
)


class BenchmarkError(Exception):
    """The run cannot measure what it claims to; no result is printed."""


def thread_count() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise BenchmarkError("no Threads line in /proc/self/status")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def attempt(self, label: str, call: Callable):
        """Run one operation of a pass; returns (result, ok)."""
        self.attempted += 1
        try:
            return call(), True
        except Exception:
            self.failed += 1
            print(f"operation {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None, False

    def skip(self, label: str) -> None:
        """An operation whose input an earlier failure left missing."""
        self.attempted += 1
        self.failed += 1
        print(f"operation {label} failed: its input is missing", file=sys.stderr)

    def check(self, check: Callable, *args) -> None:
        try:
            check(*args)
        except checks.CheckFailed as err:
            self.problems.append(str(err))
            print(f"check failed: {err}", file=sys.stderr)


@dataclass
class Clock:
    cpu: float = 0.0
    wall: float = 0.0

    @contextmanager
    def running(self) -> Iterator[None]:
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            self.cpu += time.process_time() - cpu
            self.wall += time.perf_counter() - wall


@dataclass
class PassResult:
    clock: Clock = field(default_factory=Clock)
    scores: list[float] = field(default_factory=list)
    steps: int = 0
    final_losses: list[float] = field(default_factory=list)
    iterations: int = 0
    container_bytes: int = 0


def make_inputs(workload: str, seed: int) -> list[tuple[int, Optional[EnvDataset]]]:
    """(instance seed, dataset) pairs; a dataset that could not be made is None."""
    config, instances = (D30, (seed,)) if workload == "store-d30" else (D10, D10.seeds)
    inputs = []
    for instance in instances:
        try:
            dataset = experiments.make_dataset(config, instance)[0]
        except Exception:
            print(f"make_dataset({instance}) failed:\n{traceback.format_exc()}", file=sys.stderr)
            dataset = None
        inputs.append((instance, dataset))
    return inputs


def rows(arrays: tuple[np.ndarray, ...], start: int, stop: Optional[int] = None) -> np.ndarray:
    return np.vstack([a[start:stop] for a in arrays])


def evaluation_pass(method: str, config: ExperimentConfig, inputs, outcome: Outcome,
                    fitted: list) -> PassResult:
    result = PassResult()
    for instance, dataset in inputs:
        label = f"evaluate_method({method!r}, instance {instance})"
        if dataset is None:
            outcome.skip(label)
            continue
        fitted.clear()
        with result.clock.running():
            score, ok = outcome.attempt(
                label, lambda: experiments.evaluate_method(dataset, method, config, instance)
            )
        if not ok:
            continue
        result.scores.append(score)
        n_train = dataset.n_train
        test_x = rows(dataset.observed, n_train)
        if method == "ours":
            model, report = fitted[-1]
            learned = test_x @ model.lhat
            result.steps += len(report.epoch_losses) * -(-n_train // config.batch_size)
            result.final_losses.append(report.epoch_losses[-1].total)
        else:
            ica = fitted[-1]
            parts = (ica.mean, ica.whitening, ica.rotation)
            learned = checks.ica_components(*parts, test_x)
            train_components = checks.ica_components(*parts, rows(dataset.observed, 0, n_train))
            outcome.check(checks.check_whitened, train_components)
            result.iterations += ica.n_iter
        outcome.check(checks.check_mcc, rows(dataset.latents, n_train), learned, score)
    return result


def named_arrays(dataset: EnvDataset) -> dict[str, np.ndarray]:
    arrays = {"mixing": dataset.mixing.entries}
    for e in range(dataset.n_envs):
        arrays[f"latents_{e}"] = dataset.latents[e]
        arrays[f"observed_{e}"] = dataset.observed[e]
    return arrays


@dataclass
class Saved:
    """What a loaded d=30 dataset must match: digests of the generated arrays
    and the targets of each environment's intervention."""

    digests: dict[str, str]
    targets: list[tuple[int, ...]]

    @classmethod
    def of(cls, dataset: EnvDataset) -> "Saved":
        digests = {name: checks.digest(a) for name, a in named_arrays(dataset).items()}
        return cls(digests, [regime.targets for regime in dataset.envs.regimes])


def store_pass(inputs: list, saved: Saved, path: Path, outcome: Outcome) -> PassResult:
    """Save the dataset, drop it, load it back and make the loaded one the input.

    Dropping the generated arrays before the load keeps one copy of the
    dataset in memory at a time; the checks compare against digests instead.
    """
    result = PassResult()
    (instance, dataset), = inputs
    if dataset is None:
        outcome.skip("data.save")
        outcome.skip("data.load")
        return result
    with result.clock.running():
        _, ok = outcome.attempt("data.save", lambda: data.save(dataset, path))
    if not ok:
        outcome.skip("data.load")
        return result
    result.container_bytes = path.stat().st_size
    inputs[0] = (instance, None)
    del dataset
    with result.clock.running():
        loaded, ok = outcome.attempt("data.load", lambda: data.load(path))
    if not ok:
        return result
    for name, array in named_arrays(loaded).items():
        outcome.check(checks.check_bitwise_equal, name, saved.digests[name], array)
    for e, targets in enumerate(saved.targets):
        z = loaded.latents[e]
        outcome.check(checks.check_mixed, e, z, loaded.observed[e], loaded.mixing.entries)
        outcome.check(checks.check_constant_columns, e, z, targets)
    inputs[0] = (instance, loaded)
    return result


def timed_passes(run_pass: Callable[[], PassResult], seconds: float, minimum: int = 1,
                 count: Optional[int] = None) -> list[PassResult]:
    """At least `minimum` whole passes, until their timed parts took `seconds`;
    or exactly `count` passes."""
    results: list[PassResult] = []
    measured = 0.0
    while len(results) < (count or minimum) or (count is None and measured < seconds):
        results.append(run_pass())
        measured += results[-1].clock.wall
    return results


def warm_up(path: Path) -> None:
    """Run every operation once on a tiny dataset: lazy imports, BLAS start-up."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dataset, _ = experiments.make_dataset(WARM_UP, 0)
        for method in METHODS.values():
            experiments.evaluate_method(dataset, method, WARM_UP, 0)
        data.save(dataset, path)
        data.load(path)
    path.unlink()


def container_bytes(dataset: EnvDataset, path: Path) -> int:
    data.save(dataset, path)
    try:
        return path.stat().st_size
    finally:
        path.unlink()


def keeping(original: Callable, sink: list) -> Callable:
    """original, with every result also appended to sink for the checks."""

    def kept(*args, **kwargs):
        sink.append(original(*args, **kwargs))
        return sink[-1]

    return kept


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


@contextmanager
def instrumented(tracer: Optional[Tracer]) -> Iterator[None]:
    with ExitStack() as stack:
        for module, attr, name, sample_rss in LAYERS if tracer else ():
            tracer.instrument(stack, module, attr, name, sample_rss)
        yield


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> tuple[dict, Outcome, Optional[Tracer]]:
    """Measure one workload; returns (metrics by name, outcome, tracer or None)."""
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}-{seed}.bin"
    outcome = Outcome()
    fitted: list = []
    with ExitStack() as stack:
        for attr in ("train", "fit_fastica"):
            replace_attr(stack, experiments, attr, lambda original: keeping(original, fitted))
        warm_up(path)
        threads = thread_count()
        if threads != 1:
            raise BenchmarkError(f"{threads} threads after the first BLAS call; the benchmark needs 1")
        fitted.clear()

        tracer = Tracer() if trace else None
        setup_cpu = []
        with instrumented(tracer):
            for _ in range(SET_UPS):
                inputs = None  # frees the last set-up's arrays before the next is made
                clock = Clock()
                with clock.running():
                    inputs = make_inputs(workload, seed)
                setup_cpu.append(clock.cpu)

        if workload == "store-d30":
            (_, dataset), = inputs
            saved = Saved.of(dataset) if dataset is not None else None
            del dataset
            run_pass = lambda: store_pass(inputs, saved, path, outcome)
        else:
            run_pass = lambda: evaluation_pass(METHODS[workload], D10, inputs, outcome, fitted)
        traced: list[PassResult] = []
        after: list[PassResult] = []
        try:
            untraced = timed_passes(run_pass, seconds, MIN_PASSES.get(workload, 1))
            peak = peak_rss_mb()
            if tracer:
                tracer.phase = "pass"
                with instrumented(tracer):
                    traced = timed_passes(run_pass, seconds, count=len(untraced))
                # A run's first pass is colder than later ones (store-d30: 14.7 s
                # CPU, then 12.7 s), so tracing is weighed against a pass after it.
                after = timed_passes(run_pass, seconds, count=1)
        finally:
            path.unlink(missing_ok=True)
    for name, passes in (("untraced", untraced), ("traced", traced), ("untraced", after)):
        for p in passes:
            print(f"{name} pass: {p.clock.cpu:.3f} s CPU, {p.clock.wall:.3f} s wall", file=sys.stderr)
    if workload == "train-d10":
        for p in untraced + traced + after:
            if len(p.scores) == len(D10.seeds):
                outcome.check(checks.check_mcc_floor, p.scores, checks.MCC_FLOOR_D10)

    if tracer:
        return layer_metrics(tracer, untraced, traced, after[0]), outcome, tracer

    first = untraced[0]
    (_, dataset), *_ = inputs
    if workload == "store-d30":
        mcc = inverse_mixing_mcc(dataset, outcome) if dataset is not None else 0.0
        size = first.container_bytes
    else:
        mcc = statistics.fmean(first.scores) if first.scores else 0.0
        size = container_bytes(dataset, path) if dataset is not None else 0
    metrics = {
        "pass_s": statistics.median(p.clock.cpu for p in untraced),
        "setup_s": statistics.median(setup_cpu),
        "peak_rss_mb": peak,
        "mcc": mcc,
        "dataset_mb": size / 1e6,
    }
    return metrics, outcome, None


def inverse_mixing_mcc(dataset: EnvDataset, outcome: Outcome) -> float:
    """MCC of the exact unmixing on the test split: the best the stored data allows."""
    test_z = rows(dataset.latents, dataset.n_train)
    learned = rows(dataset.observed, dataset.n_train) @ np.linalg.inv(dataset.mixing.entries)
    score = experiments.mcc_between(test_z, learned).score
    outcome.check(checks.check_mcc, test_z, learned, score)
    return score


def layer_metrics(tracer: Tracer, untraced: list[PassResult], traced: list[PassResult],
                  after: PassResult) -> dict:
    setup_total, setup_self = tracer.layer_cpu("setup")
    total, own = tracer.layer_cpu("pass")
    n = len(traced)

    def per_pass(name: str) -> float:
        return total.get(name, 0.0) / n

    def rss_rise(name: str) -> float:
        rises = [s.rss_rise_mb for s in tracer.spans if s.name == name and s.phase == "pass"]
        return statistics.fmean(rises) if rises else 0.0

    steps = sum(p.steps for p in traced) / n
    iterations = sum(p.iterations for p in traced) / n
    losses = [loss for p in traced for loss in p.final_losses]
    return {
        "scm.sample_s": setup_total.get("scm.sample", 0.0) / SET_UPS,
        "data.generate_self_s": setup_self.get("data.generate", 0.0) / SET_UPS,
        "data.save_s": per_pass("data.save"),
        "data.load_s": per_pass("data.load"),
        "data.save_peak_mb": rss_rise("data.save"),
        "data.load_peak_mb": rss_rise("data.load"),
        "unmixing.train_s": per_pass("unmixing.train"),
        "unmixing.steps": steps,
        "unmixing.step_ms": 1e3 * per_pass("unmixing.train") / steps if steps else 0.0,
        "unmixing.final_loss": statistics.fmean(losses) if losses else 0.0,
        "ica.fit_s": per_pass("ica.fit_fastica"),
        "ica.iterations": iterations,
        "ica.iter_ms": 1e3 * per_pass("ica.fit_fastica") / iterations if iterations else 0.0,
        "metrics.mcc_s": per_pass("metrics.mcc_between"),
        "experiments.evaluate_self_s": own.get("experiments.evaluate_method", 0.0) / n,
        "pass_wait_s": statistics.median(p.clock.wall - p.clock.cpu for p in untraced),
        "trace.overhead_s": statistics.median(p.clock.cpu for p in traced) - after.clock.cpu,
    }

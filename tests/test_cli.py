import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from varsparse import cli
from varsparse.cli import build_config, build_parser, main
from varsparse.envs import EnvironmentSet, InterventionRegime, leave_one_out_design
from varsparse.experiments import ExperimentConfig, dataset_sha256, make_dataset, read_json, regenerate, run_cell
from varsparse.metrics import mcc_between
import varsparse.ica as ica
import varsparse.unmixing as unmixing
from varsparse.unmixing import UnmixingModel

TINY = ["--d", "3", "--p", "0.5", "--n", "1200", "--seed", "0"]


def test_seed_flag_lists_accept_commas_and_spaces(capsys):
    parse = build_parser().parse_args
    assert build_config(parse(["reproduce", "fig2b", "--seed", "0, 1, 2"])).seeds == (0, 1, 2)
    assert build_config(parse(["reproduce", "fig2b", "--seed", "3 4"])).seeds == (3, 4)
    with pytest.raises(SystemExit) as exc:
        parse(["reproduce", "fig2b", "--seed", "0,x"])
    assert exc.value.code == 1
    assert "error: argument --seed: not a list of integer seeds: '0,x'" in capsys.readouterr().err


def test_every_flag_reaches_the_built_config():
    # d stays at its default 6: the built-in nonlinear mechanisms need it
    args = build_parser().parse_args([
        "generate", "--d", "6", "--p", "0.25", "--n", "1234", "--seed", "7,8",
        "--design", "separating", "--scm", "nonlinear-2", "--out", "results/all",
    ])
    assert {name for name, value in vars(args).items() if value is not None} - {"command", "func"} == {
        "d", "p", "n_per_env", "seeds", "design", "scm", "out_dir",
    }
    cfg = build_config(args)
    assert cfg == ExperimentConfig(
        d=6, p=0.25, n_per_env=1234, seeds=(7, 8), design="separating", scm="nonlinear-2", out_dir="results/all",
    )
    default = ExperimentConfig()
    assert [f.name for f in fields(cfg) if getattr(cfg, f.name) == getattr(default, f.name)] == [
        "d", "epochs", "batch_size",  # the command line trains with the default budget
    ]


def test_readme_quick_start_prints_what_the_readme_quotes(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code, printed = re.search(r"```python\n(.*?)```.*?```text\n(.*?)```", readme, flags=re.S).groups()
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == printed


def _written(directory):
    """The bytes of the manifest and of every per-environment CSV under directory, by name."""
    paths = [directory / "manifest.json", *sorted(directory.glob("env_*.csv"))]
    return {path.name: path.read_bytes() for path in paths}


def test_seed_flag_narrows_to_single_run():
    args = build_parser().parse_args(["reproduce", "fig2b", "--seed", "9"])
    assert build_config(args).seeds == (9,)


def test_generate_writes_dataset_manifest_and_env_files(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["generate", *TINY, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["env_00.csv", "env_01.csv", "env_02.csv", "manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format"] == "varsparse-manifest" and manifest["d"] == 3
    dataset = regenerate(manifest)
    assert manifest["sha256"] == dataset_sha256(dataset)
    for e in range(dataset.n_envs):  # savetxt's %.18e round-trips float64
        table = np.loadtxt(out / f"env_{e:02d}.csv", delimiter=",", skiprows=1)
        assert np.array_equal(table, dataset.observed[e])
    assert "wrote" in capsys.readouterr().out


def test_generate_without_a_seed_flag_makes_seed_0s_dataset(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", *TINY, "--out", str(a)]) == 0
    assert main(["generate", *TINY[:-2], "--out", str(b)]) == 0  # TINY ends with --seed 0
    assert _written(a) == _written(b)


def test_generate_with_no_edges_records_zero_edge_count(tmp_path):
    out = tmp_path / "run"
    assert main(["generate", "--d", "3", "--p", "0", "--n", "100", "--seed", "0", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["n_edges"] == 0


def test_generate_from_manifest_is_bit_exact(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", *TINY, "--out", str(a)]) == 0
    assert main(["generate", "--from-manifest", str(a / "manifest.json"), "--out", str(b)]) == 0
    assert _written(a) == _written(b)


@pytest.mark.parametrize(
    "flags",
    [["--seed", "7"], ["--design", "separating"], ["--d", "5"], ["--scm", "linear"],
     ["--p", "0.9"], ["--n", "999"], ["--d", "5", "--n", "999", "--p", "0.9", "--seed", "7"]],
    ids=["seed", "design", "d", "scm", "p", "n", "several"],
)
def test_generate_from_manifest_rejects_the_flags_the_manifest_fixes(tmp_path, capsys, flags):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", *TINY, "--out", str(a)]) == 0
    capsys.readouterr()
    code = main(["generate", "--from-manifest", str(a / "manifest.json"), *flags, "--out", str(b)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --from-manifest") and all(f in err for f in flags[::2])
    assert not b.exists()


def test_generate_from_a_design_file_records_its_path_and_regenerates(tmp_path):
    design = tmp_path / "regimes.json"
    design.write_text(json.dumps(leave_one_out_design(3, value_seed=7).to_dict()))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", *TINY, "--design", str(design), "--out", str(a)]) == 0
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["design"] == str(design)
    assert manifest["environments"] == json.loads(design.read_text())
    design.unlink()  # the manifest alone regenerates the data
    assert main(["generate", "--from-manifest", str(a / "manifest.json"), "--out", str(b)]) == 0
    assert _written(a) == _written(b)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda m: {**m, "p": "x"},
        lambda m: {**m, "n_per_env": "40"},
        lambda m: [m],
        lambda m: {k: v for k, v in m.items() if k != "derived_seeds"},
        lambda m: {**m, "derived_seeds": {**m["derived_seeds"], "data": True}},
        lambda m: {**m, "p": True},
        lambda m: {**m, "mixing": [[str(x) for x in row] for row in m["mixing"]]},
        lambda m: {**m, "mixing": [[True, *row[1:]] for row in m["mixing"]]},
        lambda m: {**m, "sha256": "0" * 64},
        lambda m: {**m, "sha256": 7},
    ],
    ids=[
        "p-string", "n-string", "json-list", "no-derived-seeds", "seed-bool", "p-bool",
        "mixing-string", "mixing-bool", "sha256-wrong", "sha256-int",
    ],
)
def test_generate_from_malformed_manifest_exits_1_without_traceback(tmp_path, capsys, corrupt):
    a = tmp_path / "a"
    assert main(["generate", *TINY, "--out", str(a)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(json.loads((a / "manifest.json").read_text()))))
    capsys.readouterr()
    assert main(["generate", "--from-manifest", str(bad), "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_generate_from_a_manifest_short_of_a_summary_field_writes_nothing(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", *TINY, "--out", str(a)]) == 0
    manifest = json.loads((a / "manifest.json").read_text())
    del manifest["n_edges"]  # regenerating does not need it, the summary line does
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["generate", "--from-manifest", str(bad), "--out", str(b)]) == 1
    captured = capsys.readouterr()
    assert "malformed manifest: missing field 'n_edges'" in captured.err
    assert "wrote" not in captured.out
    assert not b.exists()


def test_a_programming_error_propagates_instead_of_exiting_1(tmp_path, monkeypatch):
    # every input path turns its own KeyError into ValueError; one that escapes is a bug
    def broken(config, seed):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "make_dataset", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["generate", *TINY, "--out", str(tmp_path / "run")])


def test_check_design_passes_builtin_constructions(capsys):
    assert main(["check-design", "--design", "leave-one-out", "--d", "6"]) == 0
    assert "coverage ok" in capsys.readouterr().out
    assert main(["check-design", "--design", "separating", "--d", "16"]) == 0
    assert "8 environments" in capsys.readouterr().out


def test_check_design_rejects_a_d_flag_that_differs_from_the_design_file(tmp_path, capsys):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(leave_one_out_design(3, value_seed=0).to_dict()))
    assert main(["check-design", "--design", str(path)]) == 0
    assert main(["check-design", "--design", str(path), "--d", "3"]) == 0
    capsys.readouterr()
    assert main(["check-design", "--design", str(path), "--d", "6"]) == 1
    assert "design file is for d=3" in capsys.readouterr().err


def test_check_design_reports_each_failing_coordinate(tmp_path, capsys):
    # single regime on coordinate 0 only: nothing ever intervenes on 1 or 2
    envs = EnvironmentSet(3, (InterventionRegime((0,), (1.0,)),))
    path = tmp_path / "design.json"
    path.write_text(json.dumps(envs.to_dict()))
    assert main(["check-design", "--design", str(path)]) == 1
    out = capsys.readouterr().out
    assert "coverage violated" in out and "coordinate" in out


# every input file the command line reads, as the path it is given under: a
# binary file fails each, and a truncated or too deeply nested document each
# that reads JSON
_READERS = {
    "generate-from-manifest": ["generate", "--from-manifest", "{file}", "--out", "{out}"],
    "train-data": ["train", "--data", "{file}", "--out", "{out}"],
    "evaluate-data": ["evaluate", "--data", "{file}", "--checkpoint", "{out}/absent.json"],
    "check-design": ["check-design", "--design", "{file}"],
    "generate-design": ["generate", "--design", "{file}", "--out", "{out}"],
}
_BINARY = b"\xff" + np.random.default_rng(0).bytes(399)  # 0xff is never UTF-8
_JSON = {
    "truncated": json.dumps(leave_one_out_design(3, value_seed=0).to_dict()).encode()[:40],
    "nested-too-deep": b"[" * 100_000 + b"]" * 100_000,
}
_UNREADABLE = [pytest.param(r, _BINARY, id=f"{r}-binary") for r in _READERS] + [
    pytest.param(r, text, id=f"{r}-{kind}")
    for kind, text in _JSON.items()
    for r in _READERS
]


@pytest.mark.parametrize("reader,content", _UNREADABLE)
def test_an_unreadable_input_file_exits_1_naming_it(tmp_path, capsys, reader, content):
    path, out = tmp_path / "input", tmp_path / "out"
    path.write_bytes(content)
    argv = [arg.format(file=path, out=out) for arg in _READERS[reader]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [path]  # nothing written, under --out or elsewhere


# well-formed JSON whose content its reader rejects, made from a valid
# manifest; evaluate --checkpoint reads the file with the manifest as --data
_BAD_DESIGN = json.dumps({"d": 3, "regimes": [{"targets": [0.5], "values": [1.0]}]})
_MANIFEST_READERS = ("generate-from-manifest", "train-data", "evaluate-data")
_CHECKPOINT_READER = ["evaluate", "--data", "{manifest}", "--checkpoint", "{file}"]
_V1_CHECKPOINT = b'{"config": {"batch_size": 4096, "epochs": 50, "seed": 0}, "d": 2}\n' + np.eye(2).tobytes()
_BAD_DOCUMENTS = [
    *(pytest.param(r, lambda m: _BAD_DESIGN, id=f"{r}-non-integer-target") for r in ("check-design", "generate-design")),
    *(pytest.param(r, lambda m: json.dumps([m]), id=f"{r}-json-list") for r in _MANIFEST_READERS),
    *(
        pytest.param(r, lambda m: json.dumps({k: v for k, v in m.items() if k != "mixing"}), id=f"{r}-missing-field")
        for r in _MANIFEST_READERS
    ),
    pytest.param(
        "generate-from-manifest",
        lambda m: json.dumps({k: v for k, v in m.items() if k != "n_edges"}),  # only the summary reads it
        id="generate-from-manifest-missing-summary-field",
    ),
    pytest.param(
        "train-data",
        lambda m: json.dumps({**m, "mixing": [[10**400, *row[1:]] for row in m["mixing"]]}),
        id="train-data-mixing-entry-too-large-for-a-float",
    ),
    # train's run seed is the manifest's, so it must be there and a nonnegative integer
    pytest.param(
        "train-data", lambda m: json.dumps({k: v for k, v in m.items() if k != "seed"}), id="train-data-missing-seed"
    ),
    *(
        pytest.param("train-data", lambda m, seed=seed: json.dumps({**m, "seed": seed}), id=f"train-data-{kind}-seed")
        for kind, seed in (("string", "1"), ("float", 1.5), ("bool", True), ("negative", -1))
    ),
    pytest.param("evaluate-checkpoint", lambda m: "[]", id="evaluate-checkpoint-json-list"),
    pytest.param("evaluate-checkpoint", lambda m: '{"lhat": [[1.0, 0.0]]}', id="evaluate-checkpoint-non-square"),
    pytest.param("evaluate-checkpoint", lambda m: _V1_CHECKPOINT, id="evaluate-checkpoint-binary-format"),
]


@pytest.fixture(scope="module")
def tiny_manifest():
    return make_dataset(ExperimentConfig(d=3, n_per_env=1200, seeds=(0,)), 0)[1]


@pytest.mark.parametrize("reader,document", _BAD_DOCUMENTS)
def test_a_malformed_input_document_exits_1_naming_it(tmp_path, capsys, tiny_manifest, reader, document):
    path, out, manifest = tmp_path / "input", tmp_path / "out", tmp_path / "manifest.json"
    content = document(tiny_manifest)
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    manifest.write_text(json.dumps(tiny_manifest))
    template = _CHECKPOINT_READER if reader == "evaluate-checkpoint" else _READERS[reader]
    assert main([arg.format(file=path, out=out, manifest=manifest) for arg in template]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ") and "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == [path, manifest]  # nothing written, under --out or elsewhere


# the commands that make one run, each with valid inputs
_ONE_RUN = {
    "generate": ["generate", *TINY[:-2], "--out", "{out}"],
    "check-design": ["check-design", "--design", "leave-one-out", "--d", "3"],
}


@pytest.mark.parametrize("command", _ONE_RUN)
def test_a_one_run_command_given_several_seeds_exits_1_naming_seed(tmp_path, capsys, tiny_manifest, command):
    manifest, out = tmp_path / "manifest.json", tmp_path / "out"
    manifest.write_text(json.dumps(tiny_manifest))
    argv = [arg.format(manifest=manifest, out=out) for arg in _ONE_RUN[command]]
    assert main([*argv, "--seed", "5,6"]) == 1
    assert capsys.readouterr() == ("", f"error: {command} makes one run, so --seed takes one seed, not 2\n")
    assert list(tmp_path.iterdir()) == [manifest]  # nothing written


def test_check_design_missing_file_is_a_validation_error(tmp_path, capsys):
    assert main(["check-design", "--design", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"d": 3, "regimes": [{"targets": [Infinity], "values": [1.0]}]}',
        '{"d": Infinity, "regimes": [{"targets": [0], "values": [1.0]}]}',
        '{"d": 3, "regimes": [{"targets": [0], "values": [NaN]}]}',
        '{"d": 3.9, "regimes": [{"targets": [0.7, true], "values": [1.0, 2.0]}]}',
    ],
)
def test_check_design_rejects_an_infinite_integer(tmp_path, capsys, text):
    path = tmp_path / "design.json"
    path.write_text(text)
    assert main(["check-design", "--design", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: malformed environment document")
    assert "Traceback" not in err


def test_train_writes_checkpoint_and_reports(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["generate", *TINY, "--out", str(out)]) == 0
    assert main(["train", "--data", str(out / "manifest.json"), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir() if not p.name.startswith("env_")) == [
        "checkpoint.json", "manifest.json", "train_report.json",
    ]
    text = capsys.readouterr().out
    assert "test-split mcc" in text
    # the printed loss is the last epoch's mean over its iterates, as the report records it
    report = json.loads((out / "train_report.json").read_text())
    printed = float(re.search(r"last epoch's mean training loss (\S+)", text).group(1))
    assert printed == report["epochs"][-1]["total"]
    counts = f"L-BFGS-B converged {report['converged']} after {report['n_iter']} iterations, {report['n_evals']} evaluations"
    assert counts in text.splitlines()


def test_train_seed_changes_checkpoint(tmp_path, capsys):
    # the manifest's seed names the data and the optimizer together, so train
    # on seed s's manifest scores what the grid's row for seed s scores
    config = ExperimentConfig(d=3, p=0.5, n_per_env=1200)
    checkpoints = []
    for seed in (0, 1):
        run = tmp_path / f"seed{seed}"
        assert main(["generate", *TINY[:-1], str(seed), "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["train", "--data", str(run / "manifest.json"), "--out", str(run)]) == 0
        printed = re.search(r"test-split mcc (\S+)", capsys.readouterr().out).group(1)
        assert printed == repr(run_cell("unit", config, seed, "ours").mcc)
        checkpoints.append((run / "checkpoint.json").read_bytes())
    assert checkpoints[0] != checkpoints[1]


def test_train_without_dataset_is_a_validation_error(capsys):
    assert main(["train"]) == 1
    assert "needs --data" in capsys.readouterr().err
    assert main(["train", "--data", "/no/such/manifest.json"]) == 1


def test_train_numerical_blowup_exits_with_abort_code(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    main(["generate", *TINY, "--out", str(out)])
    monkeypatch.setattr(unmixing, "LAMBDA_DIAG", 1e308)  # a non-finite objective
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--data", str(out / "manifest.json"), "--out", str(out)])
    assert code == 2
    assert "numerical abort" in capsys.readouterr().err


def test_evaluate_scores_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    main(["generate", *TINY, "--out", str(out)])
    main(["train", "--data", str(out / "manifest.json"), "--out", str(out)])
    capsys.readouterr()
    code = main([
        "evaluate", "--data", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "test-split mcc" in text and "matched pairs" in text
    # the printed score is the row MCC of the test split, read off its moments
    dataset = regenerate(json.loads((out / "manifest.json").read_text()))
    z = np.vstack([dataset.test_latents(e) for e in range(dataset.n_envs)])
    x = np.vstack([dataset.test_observed(e) for e in range(dataset.n_envs)])
    rows = mcc_between(z, x @ read_json(out / "checkpoint.json", UnmixingModel.from_dict).lhat).score
    assert abs(float(re.search(r"test-split mcc (\S+)", text).group(1)) - rows) <= 1e-12


def test_evaluate_reports_a_non_object_checkpoint_header(tmp_path, capsys):
    out = tmp_path / "run"
    main(["generate", *TINY, "--out", str(out)])
    bad = tmp_path / "checkpoint.json"
    bad.write_text("[1, 2]")
    capsys.readouterr()
    code = main(["evaluate", "--data", str(out / "manifest.json"), "--checkpoint", str(bad)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}: malformed checkpoint: not a JSON object\n"


def test_evaluate_rejects_a_checkpoint_of_another_dimension(tmp_path, capsys):
    d3, d4 = tmp_path / "d3", tmp_path / "d4"
    main(["generate", *TINY, "--out", str(d3)])
    main(["train", "--data", str(d3 / "manifest.json"), "--out", str(d3)])
    main(["generate", "--d", "4", "--p", "0.5", "--n", "1200", "--seed", "0", "--out", str(d4)])
    capsys.readouterr()
    code = main(["evaluate", "--data", str(d4 / "manifest.json"), "--checkpoint", str(d3 / "checkpoint.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: checkpoint unmixes d=3 but the dataset has d=4\n"


@pytest.mark.parametrize("edited", ["0" * 64, 7], ids=["wrong-hex", "integer"])
def test_an_edited_sha256_exits_1_with_the_digest_error_and_writes_nothing(
    tmp_path, capsys, edited
):
    out = tmp_path / "run"
    main(["generate", *TINY, "--out", str(out)])
    main(["train", "--data", str(out / "manifest.json"), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps({**manifest, "sha256": edited}))
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    fresh = tmp_path / "fresh"
    for argv in (
        ["generate", "--from-manifest", str(bad), "--out", str(fresh)],
        ["train", "--data", str(bad), "--out", str(fresh)],
        ["evaluate", "--data", str(bad), "--checkpoint", str(out / "checkpoint.json")],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: regenerated sha256 {manifest['sha256']} != manifest's {edited!r}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_a_manifest_without_sha256_regenerates_and_trains_the_same(tmp_path, capsys):
    # manifests written before the digest, like make_dataset's own, carry no sha256
    out = tmp_path / "run"
    main(["generate", *TINY, "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    old = tmp_path / "old.json"
    old.write_text(json.dumps({k: v for k, v in manifest.items() if k != "sha256"}))
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for data, dest in ((out / "manifest.json", a), (old, b)):
        assert main(["train", "--data", str(data), "--out", str(dest)]) == 0
    assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()
    assert main(["evaluate", "--data", str(old), "--checkpoint", str(b / "checkpoint.json")]) == 0
    assert main(["generate", "--from-manifest", str(old), "--out", str(c)]) == 0
    assert _written(c) == _written(out)  # the rewritten manifest records the digest


def test_evaluate_requires_both_inputs(capsys):
    assert main(["evaluate"]) == 1
    assert "--checkpoint" in capsys.readouterr().err


def test_reproduce_writes_grid_and_summary(tmp_path, capsys):
    out = tmp_path / "csv"
    code = main([
        "reproduce", "fig2b", "--n", "1200", "--seed", "0", "--out", str(out), "--methods", "fastica",
    ])
    assert code == 0
    rows = (out / "fig2b.csv").read_text().splitlines()
    assert rows[0].startswith("experiment,scm,d,")
    assert len(rows) == 1 + 5  # header + five edge probabilities, one seed, one method
    assert (out / "fig2b_summary.csv").exists()


def test_reproduce_prints_each_fastica_row_that_did_not_converge(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ica, "_MAX_ITER", 1)
    out = tmp_path / "csv"
    code = main([
        "reproduce", "fig2b", "--n", "1200", "--seed", "0", "--out", str(out), "--methods", "fastica",
    ])
    assert code == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "did not converge" in line]
    assert len(lines) == 5
    for line, p in zip(lines, (0.0, 0.25, 0.5, 0.75, 1.0)):
        assert f"p={p} " in line and line.endswith("fastica): stopped at 1 iterations")


def test_reproduce_prints_each_ours_row_that_did_not_converge(tmp_path, capsys):
    # 300 train rows per environment make one batch: a cap of 50 iterations, too few at d=6
    out = tmp_path / "csv"
    assert main(["reproduce", "table1", "--n", "400", "--seed", "0", "--methods", "ours", "--out", str(out)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "did not converge" in line]
    assert lines == [
        f"row did not converge (scm={scm} d=6 p=None n=400 seed=0 ours): stopped at 50 iterations"
        for scm in ("nonlinear-1", "nonlinear-2")
    ]
    header, *rows = [line.split(",") for line in (out / "table1.csv").read_text().splitlines()]
    assert [row[header.index("converged")] + "," + row[header.index("n_iter")] for row in rows] == ["False,50"] * 2


def test_reproduce_runs_every_seed_of_a_seed_list(tmp_path):
    out = tmp_path / "csv"
    assert main(["reproduce", "table1", "--n", "400", "--seed", "0,1", "--methods", "fastica", "--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in (out / "table1.csv").read_text().splitlines()]
    scm, seed = header.index("scm"), header.index("seed")
    assert [(row[scm], row[seed]) for row in rows] == [
        ("nonlinear-1", "0"), ("nonlinear-1", "1"), ("nonlinear-2", "0"), ("nonlinear-2", "1"),
    ]
    header, *rows = [line.split(",") for line in (out / "table1_summary.csv").read_text().splitlines()]
    assert [row[header.index("n_seeds")] for row in rows] == ["2", "2"]


def test_reproduce_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for dest in (a, b):
        assert main(["reproduce", "table1", "--n", "400", "--seed", "0", "--methods", "fastica", "--out", str(dest)]) == 0
    assert (a / "table1.csv").read_bytes() == (b / "table1.csv").read_bytes()
    assert (a / "table1_summary.csv").read_bytes() == (b / "table1_summary.csv").read_bytes()


@pytest.mark.parametrize(
    "which,flags,named",
    [
        ("table1", ["--d", "4", "--scm", "linear", "--n", "400"], "--d --scm"),
        ("fig2a", ["--p", "0.25"], "--p"),
        ("fig2c", ["--n", "400"], "--n"),
    ],
)
def test_reproduce_rejects_a_flag_that_every_cell_of_its_grid_overrides(
    tmp_path, capsys, which, flags, named
):
    out = tmp_path / "csv"
    code = main(["reproduce", which, "--seed", "0",
                 "--methods", "fastica", "--out", str(out), *flags])
    assert code == 1
    assert capsys.readouterr().err == f"error: every cell of {which} sets what {named} would; drop them\n"
    assert not out.exists()


def test_reproduce_rejects_a_repeated_method(tmp_path, capsys):
    out = tmp_path / "csv"
    code = main(["reproduce", "table1", "--methods", "ours,ours", "--out", str(out)])
    assert code == 1
    assert "methods must be distinct" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_rejects_unknown_grid():
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig7"])
    assert exc.value.code == 1


def test_usage_errors_use_validation_exit_code():
    for argv in ([], ["frobnicate"], ["generate", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--data", "d.json", "--checkpoint", "c.json", "--config", "cfg.ini"],
        ["evaluate", "--data", "d.json", "--checkpoint", "c.json", "--d", "99"],
        ["train", "--data", "d.json", "--n", "5000"],
        ["train", "--data", "d.json", "--design", "nope.json"],
        ["train", "--data", "d.json", "--scm", "nonlinear-1"],
        ["train", "--d", "5", "--data", "d.json"],  # --d is no prefix of --data
        ["check-design", "--design", "separating", "--d", "16", "--scm", "nonlinear-1"],
        ["check-design", "--design", "separating", "--n", "2"],
        ["check-design", "--design", "separating", "--out", "run"],
        ["evaluate", "--data", "d.json", "--check", "c.json"],
        # flags are the only settings: no subcommand reads a config file
        ["generate", "--config", "cfg.ini", "--out", "run"],
        ["check-design", "--config", "cfg.ini", "--design", "separating"],
        ["train", "--config", "cfg.ini", "--data", "d.json"],
        ["reproduce", "fig2b", "--config", "cfg.ini", "--out", "run"],
        # the manifest names train's seed
        ["train", "--data", "d.json", "--seed", "1"],
    ],
)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: varsparse") and "error: unrecognized arguments: --" in err
    assert not any(tmp_path.iterdir())


def test_invalid_parameter_is_validation_exit(capsys):
    assert main(["generate", "--d", "1", "--out", "/tmp/never"]) == 1
    assert capsys.readouterr().err == "error: d must be >= 2, got 1\n"  # a flag names no file
    assert main(["generate", "--seed", "-1", "--out", "/tmp/never"]) == 1
    assert "error: seeds must be nonnegative" in capsys.readouterr().err

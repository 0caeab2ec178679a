import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from varsparse.cli import _SECTIONS, build_config, build_parser, load_config_file, main
from varsparse.envs import EnvironmentSet, InterventionRegime, leave_one_out_design
from varsparse.experiments import ExperimentConfig
from varsparse.unmixing import LossWeights

TINY_INI = """\
[experiment]
d = 3
p = 0.5
n_per_env = 1200
seeds = 0
[train]
epochs = 3
batch_size = 200
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(TINY_INI)
    return str(path)


def test_config_file_parses_sections(tiny_config):
    exp, weights, train = load_config_file(tiny_config)
    assert exp == {"d": 3, "p": 0.5, "n_per_env": 1200, "seeds": (0,)}
    assert weights == {} and train == {"epochs": 3, "batch_size": 200}


def test_config_seed_lists_accept_commas_and_spaces(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[experiment]\nseeds = 0, 1, 2\n")
    exp, _, _ = load_config_file(path)
    assert exp["seeds"] == (0, 1, 2)
    path.write_text("[experiment]\nseeds = 3 4\n")
    assert load_config_file(path)[0]["seeds"] == (3, 4)


@pytest.mark.parametrize(
    "text,match",
    [
        ("[experiment]\nwidth = 3\n", "unknown config key"),
        ("[plotting]\ncolor = red\n", "unknown config section"),
        ("[experiment]\nd = three\n", "bad config value"),
        ("not an ini file", "cannot parse config"),
    ],
)
def test_config_file_rejects_malformed_input(tmp_path, text, match):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        load_config_file(path)


def test_config_values_are_literal(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text("[experiment]\nout_dir = runs/100%\n")
    assert load_config_file(path)[0] == {"out_dir": "runs/100%"}
    assert main(["check-design", "--config", str(path), "--design", "leave-one-out"]) == 0
    assert "coverage ok" in capsys.readouterr().out


def test_every_config_key_reaches_the_built_config(tmp_path):
    # d stays at its default 6: the built-in nonlinear mechanisms need it
    path = tmp_path / "all.ini"
    path.write_text(
        "[experiment]\nd = 6\np = 0.25\nn_per_env = 1234\nseeds = 7, 8\n"
        "design = separating\nscm = nonlinear-2\nout_dir = results/all\n"
        "[weights]\nlambda_e = 0.5\nlambda_m = 2.0\nlambda_diag = 3.0\n"
        "lambda_norm = 4.0\nnorm_target = 0.75\n"
        "[train]\nepochs = 3\nbatch_size = 100\nlearning_rate = 0.01\n"
    )
    assert sum(len(section) for section in load_config_file(path)) == 15
    cfg = build_config(build_parser().parse_args(["generate", "--config", str(path)]))
    assert cfg == ExperimentConfig(
        d=6, p=0.25, n_per_env=1234, seeds=(7, 8), design="separating", scm="nonlinear-2",
        out_dir="results/all", weights=LossWeights(0.5, 2.0, 3.0, 4.0, 0.75),
        epochs=3, batch_size=100, learning_rate=0.01,
    )
    default = ExperimentConfig()
    assert [f.name for f in fields(cfg) if getattr(cfg, f.name) == getattr(default, f.name)] == ["d"]
    assert all(getattr(cfg.weights, f.name) != getattr(default.weights, f.name) for f in fields(LossWeights))


def test_readme_config_example_builds_and_names_every_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    assert [set(s) for s in load_config_file(path)] == [set(keys) for keys in _SECTIONS.values()]
    args = build_parser().parse_args(["generate", "--config", str(path)])
    assert build_config(args) == ExperimentConfig(out_dir="results")  # the defaults


def test_flags_override_config_file(tiny_config):
    parser = build_parser()
    args = parser.parse_args(["generate", "--config", tiny_config, "--d", "4", "--p", "0.25"])
    cfg = build_config(args)
    assert cfg.d == 4 and cfg.p == 0.25  # flags win
    assert cfg.n_per_env == 1200  # file value survives where no flag given


def test_seed_flag_narrows_to_single_run(tiny_config):
    parser = build_parser()
    args = parser.parse_args(["generate", "--config", tiny_config, "--seed", "9"])
    assert build_config(args).seeds == (9,)


def test_generate_writes_dataset_manifest_and_env_files(tmp_path, tiny_config, capsys):
    out = tmp_path / "run"
    assert main(["generate", "--config", tiny_config, "--out", str(out)]) == 0
    assert (out / "dataset.bin").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format"] == "varsparse-manifest" and manifest["d"] == 3
    assert sorted(p.name for p in out.glob("env_*.csv")) == ["env_00.csv", "env_01.csv", "env_02.csv"]
    assert "wrote" in capsys.readouterr().out


def test_generate_with_no_edges_records_zero_edge_count(tmp_path):
    out = tmp_path / "run"
    assert main(["generate", "--d", "3", "--p", "0", "--n", "100", "--seed", "0", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["n_edges"] == 0


def test_generate_from_manifest_is_bit_exact(tmp_path, tiny_config):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", tiny_config, "--out", str(a)]) == 0
    assert main(["generate", "--from-manifest", str(a / "manifest.json"), "--out", str(b)]) == 0
    assert (a / "dataset.bin").read_bytes() == (b / "dataset.bin").read_bytes()


def test_generate_from_a_design_file_records_its_path_and_regenerates(tmp_path, tiny_config):
    design = tmp_path / "regimes.json"
    design.write_text(leave_one_out_design(3, value_seed=7).to_json())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", tiny_config, "--design", str(design), "--out", str(a)]) == 0
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["design"] == str(design)
    assert manifest["environments"] == json.loads(design.read_text())
    design.unlink()  # the manifest alone regenerates the data
    assert main(["generate", "--from-manifest", str(a / "manifest.json"), "--out", str(b)]) == 0
    assert (a / "dataset.bin").read_bytes() == (b / "dataset.bin").read_bytes()


def test_check_design_passes_builtin_constructions(capsys):
    assert main(["check-design", "--design", "leave-one-out", "--d", "6"]) == 0
    assert "coverage ok" in capsys.readouterr().out
    assert main(["check-design", "--design", "separating", "--d", "16"]) == 0
    assert "8 environments" in capsys.readouterr().out


def test_check_design_takes_design_and_d_from_the_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text("[experiment]\ndesign = separating\nd = 16\n")
    assert main(["check-design", "--config", str(path)]) == 0
    assert "8 environments" in capsys.readouterr().out


def test_check_design_rejects_a_d_flag_that_differs_from_the_design_file(tmp_path, capsys):
    path = tmp_path / "design.json"
    path.write_text(leave_one_out_design(3, value_seed=0).to_json())
    assert main(["check-design", "--design", str(path)]) == 0
    assert main(["check-design", "--design", str(path), "--d", "3"]) == 0
    capsys.readouterr()
    assert main(["check-design", "--design", str(path), "--d", "6"]) == 1
    assert "design file is for d=3" in capsys.readouterr().err
    config = tmp_path / "cfg.ini"
    config.write_text("[experiment]\nd = 16\n")
    assert main(["check-design", "--config", str(config), "--design", str(path)]) == 1
    assert "design file is for d=3" in capsys.readouterr().err


def test_check_design_reports_each_failing_coordinate(tmp_path, capsys):
    # single regime on coordinate 0 only: nothing ever intervenes on 1 or 2
    envs = EnvironmentSet(3, (InterventionRegime((0,), (1.0,)),))
    path = tmp_path / "design.json"
    path.write_text(envs.to_json())
    assert main(["check-design", "--design", str(path)]) == 1
    out = capsys.readouterr().out
    assert "coverage violated" in out and "coordinate" in out


def test_check_design_missing_file_is_a_validation_error(tmp_path, capsys):
    assert main(["check-design", "--design", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"d": 3, "regimes": [{"targets": [Infinity], "values": [1.0]}]}',
        '{"d": Infinity, "regimes": [{"targets": [0], "values": [1.0]}]}',
    ],
)
def test_check_design_rejects_an_infinite_integer(tmp_path, capsys, text):
    path = tmp_path / "design.json"
    path.write_text(text)
    assert main(["check-design", "--design", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed environment document")
    assert "Traceback" not in err


def test_train_writes_checkpoint_and_reports(tmp_path, tiny_config, capsys):
    out = tmp_path / "run"
    assert main(["generate", "--config", tiny_config, "--out", str(out)]) == 0
    assert main(["train", "--config", tiny_config, "--data", str(out / "dataset.bin"), "--out", str(out)]) == 0
    assert (out / "checkpoint.bin").exists()
    assert (out / "train_report.json").exists()
    assert (out / "train_losses.csv").read_text().startswith("epoch,total,")
    assert "test-split mcc" in capsys.readouterr().out


def test_train_seed_changes_checkpoint(tmp_path, tiny_config):
    out = tmp_path / "run"
    main(["generate", "--config", tiny_config, "--out", str(out)])
    data = str(out / "dataset.bin")
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for dest, seed in ((a, "0"), (b, "1"), (c, "0")):
        assert main(["train", "--config", tiny_config, "--data", data, "--out", str(dest), "--seed", seed]) == 0
    assert (a / "checkpoint.bin").read_bytes() != (b / "checkpoint.bin").read_bytes()
    assert (a / "checkpoint.bin").read_bytes() == (c / "checkpoint.bin").read_bytes()


def test_train_without_dataset_is_a_validation_error(capsys):
    assert main(["train"]) == 1
    assert "needs --data" in capsys.readouterr().err
    assert main(["train", "--data", "/no/such/dataset.bin"]) == 1


def test_train_numerical_blowup_exits_with_abort_code(tmp_path, tiny_config, capsys):
    out = tmp_path / "run"
    main(["generate", "--config", tiny_config, "--out", str(out)])
    cfg = tmp_path / "explode.ini"
    cfg.write_text(TINY_INI + "learning_rate = 1e150\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--config", str(cfg), "--data", str(out / "dataset.bin"), "--out", str(out)])
    assert code == 2
    assert "numerical abort" in capsys.readouterr().err


def test_evaluate_scores_checkpoint(tmp_path, tiny_config, capsys):
    out = tmp_path / "run"
    main(["generate", "--config", tiny_config, "--out", str(out)])
    main(["train", "--config", tiny_config, "--data", str(out / "dataset.bin"), "--out", str(out)])
    capsys.readouterr()
    code = main([
        "evaluate", "--data", str(out / "dataset.bin"), "--checkpoint", str(out / "checkpoint.bin"),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "test-split mcc" in text and "matched pairs" in text


def test_evaluate_reports_a_non_object_checkpoint_header(tmp_path, tiny_config, capsys):
    out = tmp_path / "run"
    main(["generate", "--config", tiny_config, "--out", str(out)])
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"[1, 2]\n" + np.zeros(9).tobytes())
    capsys.readouterr()
    code = main(["evaluate", "--data", str(out / "dataset.bin"), "--checkpoint", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a JSON object" in err


def test_evaluate_requires_both_inputs(capsys):
    assert main(["evaluate"]) == 1
    assert "--checkpoint" in capsys.readouterr().err


def test_reproduce_writes_grid_and_summary(tmp_path, tiny_config, capsys):
    out = tmp_path / "csv"
    code = main([
        "reproduce", "fig2b", "--config", tiny_config, "--out", str(out), "--methods", "fastica",
    ])
    assert code == 0
    rows = (out / "fig2b.csv").read_text().splitlines()
    assert rows[0].startswith("experiment,scm,d,")
    assert len(rows) == 1 + 5  # header + five edge probabilities, one seed, one method
    assert (out / "fig2b_summary.csv").exists()


def test_reproduce_rerun_is_byte_identical(tmp_path, tiny_config):
    a, b = tmp_path / "a", tmp_path / "b"
    for dest in (a, b):
        assert main(["reproduce", "table1", "--config", tiny_config, "--d", "6",
                     "--n", "400", "--methods", "fastica", "--out", str(dest)]) == 0
    assert (a / "table1.csv").read_bytes() == (b / "table1.csv").read_bytes()
    assert (a / "table1_summary.csv").read_bytes() == (b / "table1_summary.csv").read_bytes()


def test_reproduce_rejects_unknown_grid():
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig7"])
    assert exc.value.code == 1


def test_usage_errors_use_validation_exit_code():
    for argv in ([], ["frobnicate"], ["generate", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


def test_invalid_parameter_is_validation_exit(capsys):
    assert main(["generate", "--d", "1", "--out", "/tmp/never"]) == 1
    assert "error:" in capsys.readouterr().err

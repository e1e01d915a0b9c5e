"""End-to-end command-line runs: artifacts, reproducibility, exit codes."""

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import warnings
import weakref
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from alphanet import cli
from alphanet.cli import _config, _parse_grid, _run_config, build_parser, main
from alphanet.config import RunConfig
from alphanet.data import ClassifierBank, load_bank, load_dataset, save_bank, save_dataset
from alphanet.datagen import GenConfig, train_baseline
from alphanet.errors import ConfigError
from alphanet.model import load_model
from alphanet.reports import nn_distance_map


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """datagen -> baseline -> train -> eval, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    data, base, run, evald = (root / n for n in ("data", "base", "run", "eval"))
    assert main([
        "datagen", "--out-dir", str(data), "--n-classes", "12",
        "--feature-dim", "6", "--head-count", "80", "--tail-count", "4",
        "--val-per-class", "8", "--test-per-class", "8", "--seed", "1",
    ]) == 0
    assert main([
        "baseline", "--dataset", str(data / "dataset.json"),
        "--out-dir", str(base), "--epochs", "30",
    ]) == 0
    train_argv = [
        "train", "--dataset", str(data / "dataset.json"),
        "--bank", str(base / "bank.json"), "--out-dir", str(run),
        "--epochs", "6", "--top-k", "2", "--reduced-dim", "4", "--seed", "3",
    ]
    assert main(train_argv) == 0
    assert main([
        "eval", "--dataset", str(data / "dataset.json"),
        "--bank", str(base / "bank.json"),
        "--composed", str(run / "composed.json"), "--out-dir", str(evald),
    ]) == 0
    return {
        "root": root, "data": data, "base": base, "run": run, "eval": evald,
        "train_argv": train_argv,
    }


def test_pipeline_writes_expected_artifacts(pipeline):
    data, base, run, evald = (
        pipeline[k] for k in ("data", "base", "run", "eval")
    )
    for f in ("dataset.json", "dataset_features.alft", "run.json"):
        assert (data / f).is_file()
    for f in ("bank.json", "bank_weights.alft", "bank_biases.alft"):
        assert (base / f).is_file()
    for f in ("model.json", "composed.json", "composed_weights.alft",
              "train_log.jsonl", "run.json"):
        assert (run / f).is_file()
    for f in ("split_report.csv", "classwise.csv", "eval.json"):
        assert (evald / f).is_file()


def test_train_log_is_one_json_object_per_epoch(pipeline):
    lines = (pipeline["run"] / "train_log.jsonl").read_text().splitlines()
    assert len(lines) == 6
    entries = [json.loads(line) for line in lines]
    assert [e["epoch"] for e in entries] == list(range(6))
    assert all(np.isfinite(e["loss"]) for e in entries)


def test_eval_outputs_are_consistent(pipeline):
    evald = pipeline["eval"]
    split_lines = (evald / "split_report.csv").read_text().splitlines()
    assert split_lines[0] == "split,top1,top5,n"
    assert any(line.startswith("few,") for line in split_lines)
    class_lines = (evald / "classwise.csv").read_text().splitlines()
    assert class_lines[0] == "class_id,baseline_top1,composed_top1,delta,nn_distance"
    assert len(class_lines) - 1 == 5  # the 12-class profile has 5 few classes
    summary = json.loads((evald / "eval.json").read_text())
    assert summary["partition"] == "test"
    assert set(summary) == {
        "partition", "baseline", "composed", "spearman_distance_vs_delta",
    }
    assert 0.0 <= summary["composed"]["all"]["top1"] <= 1.0
    payload = json.loads((evald / "run.json").read_text())
    assert payload["config"] == {
        "dataset": str(pipeline["data"] / "dataset.json"),
        "bank": str(pipeline["base"] / "bank.json"),
        "composed": str(pipeline["run"] / "composed.json"),
        "out_dir": str(evald),
        "partition": "test",
        "seed": 0,
    }


def test_classwise_nn_distance_is_the_models_nearest_distance(pipeline):
    bank = load_bank(pipeline["base"] / "bank.json")
    model = load_model(pipeline["run"] / "model.json", bank)
    lines = (pipeline["eval"] / "classwise.csv").read_text().splitlines()[1:]
    column = {int(line.split(",")[0]): line.split(",")[4] for line in lines}
    assert column == {c: f"{d:.6g}" for c, d in nn_distance_map(model).items()}


def _eval_argv(pipeline, out_dir) -> list[str]:
    return [
        "eval", "--dataset", str(pipeline["data"] / "dataset.json"),
        "--bank", str(pipeline["base"] / "bank.json"),
        "--composed", str(pipeline["run"] / "composed.json"), "--out-dir", str(out_dir),
    ]


def test_eval_holds_one_score_matrix_at_a_time(pipeline, tmp_path, monkeypatch):
    """The baseline scores are freed before the composed bank is scored."""
    matrices, earlier_alive = [], []
    scores = ClassifierBank.scores

    def tracked(bank, features):
        earlier_alive.append([m() is not None for m in matrices])
        out = scores(bank, features)
        matrices.append(weakref.ref(out))
        return out

    monkeypatch.setattr(ClassifierBank, "scores", tracked)
    assert main(_eval_argv(pipeline, tmp_path)) == 0
    assert earlier_alive == [[], [False]]


def test_git_describe_runs_once_per_working_directory(pipeline, tmp_path, monkeypatch):
    spawned = []
    run = subprocess.run

    def counted(argv, **kwargs):
        spawned.append(kwargs["cwd"])
        return run(argv, **kwargs)

    monkeypatch.setattr(subprocess, "run", counted)
    cli._git_describe.cache_clear()
    for i, cwd in enumerate((tmp_path, tmp_path, pipeline["root"])):
        monkeypatch.chdir(cwd)
        out = tmp_path / f"out{i}"
        assert main(_eval_argv(pipeline, out)) == 0
        payload = json.loads((out / "run.json").read_text())
        assert payload["git_describe"] == cli._git_describe(str(cwd))
    assert spawned == [str(tmp_path), str(pipeline["root"])]


def test_run_json_echoes_the_merged_config(pipeline):
    payload = json.loads((pipeline["run"] / "run.json").read_text())
    assert payload["command"] == "train"
    assert payload["config"]["top_k"] == 2
    assert payload["config"]["gamma"] == 0.6  # untouched default
    assert payload["config"]["seed"] == 3
    assert payload["wall_time_s"] >= 0.0


def test_training_is_reproducible_across_invocations(pipeline):
    rerun = pipeline["root"] / "rerun"
    argv = list(pipeline["train_argv"])
    argv[argv.index("--out-dir") + 1] = str(rerun)
    assert main(argv) == 0
    for name in ("composed_weights.alft", "composed_biases.alft"):
        assert (rerun / name).read_bytes() == (pipeline["run"] / name).read_bytes()


def test_config_file_merges_under_flags(pipeline):
    root = pipeline["root"]
    cfg_path = root / "cfg.json"
    # A null is a value, which `hidden`, an `int | None`, admits.
    cfg_path.write_text(json.dumps({"gamma": 0.9, "epochs": 1, "hidden": None}))
    out = root / "merged"
    assert main([
        "train", "--config", str(cfg_path),
        "--dataset", str(pipeline["data"] / "dataset.json"),
        "--bank", str(pipeline["base"] / "bank.json"),
        "--out-dir", str(out), "--gamma", "0.3",
        "--top-k", "2", "--reduced-dim", "4",
    ]) == 0
    merged = json.loads((out / "run.json").read_text())["config"]
    assert merged["gamma"] == 0.3  # flag beats file
    assert merged["epochs"] == 1  # file beats default
    assert merged["hidden"] is None


def test_config_file_out_dir_is_honoured(pipeline, tmp_path):
    from_file, from_flag = tmp_path / "from_file", tmp_path / "from_flag"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"out_dir": str(from_file), "epochs": 2}))
    train = [
        "train", "--config", str(cfg_path),
        "--dataset", str(pipeline["data"] / "dataset.json"),
        "--bank", str(pipeline["base"] / "bank.json"), "--top-k", "2", "--reduced-dim", "4",
    ]
    assert main([*train, "--out-dir", str(from_flag)]) == 0  # flag beats file
    assert (from_flag / "composed.json").is_file() and not from_file.exists()
    assert main(train) == 0
    assert (from_file / "composed.json").is_file()
    config = json.loads((from_file / "run.json").read_text())["config"]
    assert config["out_dir"] == str(from_file) and config["epochs"] == 2


def test_sweep_covers_the_whole_grid(pipeline):
    out = pipeline["root"] / "sweep"
    assert main([
        "sweep", "--dataset", str(pipeline["data"] / "dataset.json"),
        "--bank", str(pipeline["base"] / "bank.json"), "--out-dir", str(out),
        "--axis", "gamma", "--grid", "0.1:0.9:0.1",
        "--epochs", "1", "--top-k", "2", "--reduced-dim", "4",
    ]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "param,split,top1,top5"
    values = {line.split(",")[0] for line in lines[1:]}
    assert values == {"0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9"}
    root = ET.fromstring((out / "sweep.svg").read_text())
    assert root.tag.endswith("svg")
    payload = json.loads((out / "run.json").read_text())
    assert payload["config"]["axis"] == "gamma"
    assert payload["config"]["grid"] == "0.1:0.9:0.1"


def test_datagen_thresholds_reach_the_bank_and_the_model(tmp_path):
    data, base, run = (tmp_path / n for n in ("data", "base", "run"))
    assert main([
        "datagen", "--out-dir", str(data), "--few-lt", "40",
        "--val-per-class", "2", "--test-per-class", "2",
    ]) == 0
    assert json.loads((data / "dataset.json").read_text())["few_lt"] == 40
    assert main([
        "baseline", "--dataset", str(data / "dataset.json"),
        "--out-dir", str(base), "--epochs", "2",
    ]) == 0
    assert json.loads((base / "bank.json").read_text())["splits"].count("few") == 17
    assert main([
        "train", "--dataset", str(data / "dataset.json"),
        "--bank", str(base / "bank.json"), "--out-dir", str(run), "--epochs", "1",
    ]) == 0
    assert json.loads((run / "model.json").read_text())["n_few"] == 17
    config = json.loads((run / "run.json").read_text())["config"]
    assert "few_lt" not in config and "many_gt" not in config


def test_datagen_accepts_a_per_class_rho_list(pipeline, tmp_path):
    assert main([
        "datagen", "--out-dir", str(tmp_path), "--n-classes", "12",
        "--feature-dim", "6", "--head-count", "80", "--tail-count", "4",
        "--val-per-class", "4", "--test-per-class", "4", "--seed", "2",
        "--rho", "0.9,0.8,0.7,0.2,0.1",
    ]) == 0
    cfg = json.loads((tmp_path / "run.json").read_text())["config"]
    assert cfg["rho"] == [0.9, 0.8, 0.7, 0.2, 0.1]


# ---------------------------------------------------------------------------
# Flags


def _flag_actions(command: str) -> list[argparse.Action]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        a for a in sub.choices[command]._actions
        if a.option_strings and not isinstance(a, argparse._HelpAction)
    ]


def _long_options(command: str) -> set[str]:
    return {a.option_strings[0] for a in _flag_actions(command)}


def _dashed(cls) -> set[str]:
    return {"--" + f.name.replace("_", "-") for f in fields(cls)}


def test_flags_are_exactly_the_config_fields():
    assert _long_options("datagen") == _dashed(GenConfig) | {"--config", "--out-dir"}
    assert _long_options("train") == _dashed(RunConfig) | {"--config"}
    assert _long_options("sweep") == _dashed(RunConfig) | {
        "--config", "--axis", "--grid", "--partition",
    }


@pytest.mark.parametrize("command", ["datagen", "baseline", "train", "eval", "sweep"])
def test_run_json_records_every_flag_the_command_read(pipeline, tmp_path, command):
    """`run.json`'s `config` holds every flag of the command but `--config`,
    with a config-file value merged in."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 7}))
    pair = ["--dataset", str(pipeline["data"] / "dataset.json"),
            "--bank", str(pipeline["base"] / "bank.json")]
    small = ["--epochs", "1", "--top-k", "2", "--reduced-dim", "4"]
    argv = {
        "datagen": ["--config", str(cfg_path), "--n-classes", "12", "--feature-dim", "6",
                    "--head-count", "80", "--tail-count", "4"],
        "baseline": [*pair[:2], "--epochs", "1", "--seed", "7"],
        "train": ["--config", str(cfg_path), *pair, *small],
        "eval": [*pair, "--composed", str(pipeline["run"] / "composed.json"), "--seed", "7"],
        "sweep": ["--config", str(cfg_path), *pair, *small, "--axis", "gamma", "--grid", "0.5"],
    }[command]
    out = tmp_path / "out"
    assert main([command, *argv, "--out-dir", str(out)]) == 0
    payload = json.loads((out / "run.json").read_text())
    assert payload["command"] == command
    assert set(payload["config"]) == {a.dest for a in _flag_actions(command)} - {"config"}
    assert payload["config"]["seed"] == payload["seed"] == 7


def _argv(command: str, values: dict) -> list[str]:
    argv = [command]
    for name, value in values.items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, bool):
            argv.append(flag if value else "--no-" + flag[2:])
        elif isinstance(value, list):
            argv += [flag, ",".join(map(str, value))]
        else:
            argv += [flag, str(value)]
    return argv


def _assert_typed_non_defaults(cfg, values: dict) -> None:
    defaults = type(cfg)().to_dict()
    assert list(values) == list(defaults)
    assert all(values[name] != defaults[name] for name in values)
    assert cfg.to_dict() == values
    assert {k: type(v) for k, v in cfg.to_dict().items()} == {k: type(v) for k, v in values.items()}


def test_every_flag_reaches_the_merged_config():
    run_values = {
        "dataset": "d.json", "bank": "b.json", "out_dir": "out", "gamma": 0.3,
        "top_k": 3, "reduced_dim": 4, "hidden": 6, "slope": 0.02, "lr0": 0.05,
        "momentum": 0.5, "batch_size": 32, "epochs": 7, "weight_decay": 0.001,
        "seed": 9, "strict_alpha": True, "init_gain": 1.5, "init_margin": 0.1,
    }
    args = build_parser().parse_args(_argv("train", run_values))
    _assert_typed_non_defaults(_run_config(args), run_values)
    gen_values = {
        "n_classes": 12, "feature_dim": 6, "head_count": 80, "tail_count": 4,
        "decay_exponent": 2.0, "explicit_counts": [80, 60, 40, 30, 20, 12, 9, 7, 6, 5, 4, 4],
        "sigma": 0.5, "rho": [0.9, 0.2], "mean_scale": 1.5, "n_groups": 3,
        "group_spread": 0.25, "val_per_class": 4, "test_per_class": 5,
        "many_gt": 60, "few_lt": 10, "seed": 9,
    }
    args = build_parser().parse_args([*_argv("datagen", gen_values), "--out-dir", "out"])
    _assert_typed_non_defaults(_config(args, GenConfig), gen_values)


# ---------------------------------------------------------------------------
# Grid parsing


def test_parse_grid_range_is_endpoint_inclusive():
    values = _parse_grid("0.1:0.9:0.1", float)
    assert len(values) == 9
    assert values[0] == pytest.approx(0.1)
    assert values[-1] == pytest.approx(0.9)


def test_parse_grid_comma_list_and_ints():
    assert _parse_grid("1,3,5", int) == [1, 3, 5]
    assert _parse_grid("0:6:2", int) == [0, 2, 4, 6]
    assert _parse_grid("0.25", float) == [0.25]


def test_parse_grid_rejects_malformed_input():
    for bad in ("0.9:0.1:0.1", "0.1:0.9:0", "0.1:0.9:-0.1", "a:b:c", "", "1:2"):
        with pytest.raises(ConfigError):
            _parse_grid(bad, float)
    # Steps that stop advancing: at lo, at hi, and past hi within the
    # range's 1e-9 slack, where v reaches 2.0 and 1.5e-16 rounds away.
    for stuck in ("0.5:0.6:1e-300", "0:1e17:1", "1.9999999999:1.9999999999:1.5e-16"):
        with pytest.raises(ConfigError, match="too small to advance"):
            _parse_grid(stuck, float)
    with pytest.raises(ConfigError, match="0.5"):
        _parse_grid("0:3:0.5", int)  # would truncate to 0, 0, 1, 1, 2, 2, 3


# ---------------------------------------------------------------------------
# Dependencies


def test_importing_the_cli_loads_no_scipy():
    code = (
        "import sys, alphanet.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Exit codes


def test_exit_1_for_missing_input_path(capsys):
    rc = main([
        "train", "--dataset", "/nonexistent/ds.json",
        "--bank", "/nonexistent/bank.json", "--out-dir", "/tmp/unused",
    ])
    assert rc == 1
    assert "/nonexistent/ds.json" in capsys.readouterr().err


def test_exit_1_for_unknown_config_key(pipeline, tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"gamme": 0.5}))
    rc = main([
        "train", "--config", str(cfg_path),
        "--dataset", str(pipeline["data"] / "dataset.json"),
        "--bank", str(pipeline["base"] / "bank.json"),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert "gamme" in capsys.readouterr().err


def test_exit_1_for_bad_choice_or_missing_flag(pipeline, tmp_path, capsys):
    assert main(["sweep", "--axis", "sideways", "--grid", "1:2:1"]) == 1
    assert main(["baseline", "--out-dir", "/tmp/unused"]) == 1
    assert main(["datagen", "--out-dir", "/tmp/unused", "--n-classes", "1"]) == 1
    capsys.readouterr()
    # flags a command does not read are refused, not recorded and ignored
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"epochs": 1}))
    inputs = [
        "--dataset", str(pipeline["data"] / "dataset.json"),
        "--bank", str(pipeline["base"] / "bank.json"), "--out-dir", str(tmp_path / "out"),
    ]
    commands = {
        "train": ["train", *inputs, "--epochs", "1", "--top-k", "2", "--reduced-dim", "4"],
        "eval": ["eval", *inputs, "--composed", str(pipeline["run"] / "composed.json")],
        "sweep": ["sweep", *inputs, "--axis", "gamma", "--grid", "0.5",
                  "--epochs", "1", "--top-k", "2", "--reduced-dim", "4"],
    }
    baseline = ["baseline", inputs[0], inputs[1], "--out-dir", str(tmp_path / "b")]
    for extra in (
        ["--batch-size", "0"], ["--lr", "0"], ["--epochs", "-1"], ["--momentum", "1.5"]
    ):
        assert main(baseline + extra) == 1, extra
        assert extra[0].lstrip("-").replace("-", "_") in capsys.readouterr().err
    for command, extra in (
        ("train", ["--few-lt", "4"]),
        ("train", ["--many-gt", "60"]),
        ("eval", ["--few-lt", "4"]),
        ("eval", ["--gamma", "0.3"]),
        ("eval", ["--config", str(cfg_path)]),
        ("sweep", ["--few-lt", "4"]),
    ):
        assert main(commands[command] + extra) == 1, (command, extra)
        assert f"unrecognized arguments: {extra[0]}" in capsys.readouterr().err
    assert main(commands["sweep"] + ["--axis", "topk", "--grid", "0:3:0.5"]) == 1
    assert "0:3:0.5" in capsys.readouterr().err


def test_exit_1_for_config_values_of_the_wrong_type(pipeline, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    train = [
        "train", "--config", str(cfg_path),
        "--dataset", str(pipeline["data"] / "dataset.json"),
        "--bank", str(pipeline["base"] / "bank.json"), "--out-dir", str(tmp_path / "out"),
    ]
    for bad in (
        {"epochs": 2.5}, {"gamma": "0.5"}, {"seed": 1.5}, {"strict_alpha": "no"},
        {"strict_alpha": 1}, {"epochs": True}, {"hidden": 4.0},
        # JSON's NaN and Infinity: a float setting must be finite.
        {"lr0": float("nan")}, {"weight_decay": float("inf")},
        # A null is a value, not a setting left out, and these admit none.
        {"gamma": None}, {"epochs": None},
    ):
        cfg_path.write_text(json.dumps(bad))
        assert main(train) == 1, bad
        assert f"error: {next(iter(bad))}" in capsys.readouterr().err
    datagen = ["datagen", "--config", str(cfg_path), "--out-dir", str(tmp_path / "data")]
    for bad in (
        {"feature_dim": "16"}, {"sigma": "0.9"}, {"n_groups": True}, {"n_classes": 50.5},
        {"rho": "abc"}, {"rho": [0.5, "x"]}, {"rho": [True]},
        {"explicit_counts": "x"}, {"explicit_counts": [150.7] + [150] * 49},
        {"sigma": float("nan")}, {"rho": [0.5, float("-inf")]}, {"sigma": None},
    ):
        cfg_path.write_text(json.dumps(bad))
        assert main(datagen) == 1, bad
        assert f"error: {next(iter(bad))}" in capsys.readouterr().err
    # string fields, with no flag to override the file
    for bad in ({"dataset": 5}, {"bank": ["x"]}, {"out_dir": 3}):
        cfg_path.write_text(json.dumps(bad))
        assert main(["train", "--config", str(cfg_path)]) == 1, bad
        assert capsys.readouterr().err.startswith(f"error: {next(iter(bad))}")
    assert not (tmp_path / "out").exists() and not (tmp_path / "data").exists()


def test_exit_1_for_a_config_file_that_is_not_utf8(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(json.dumps({"epochs": 2}).encode("utf-16"))
    assert main(["train", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg_path) in err


#: Train settings the fixture's dataset can train under, so that a refused
#: flag is the only thing wrong with a command.
TRAIN_SMALL = ("--epochs", "1", "--top-k", "2", "--reduced-dim", "4")

#: The `no_few` fixture's dataset and bank, whose split has no few class.
NO_FEW = ("--dataset", "{no_few}/dataset.json", "--bank", "{no_few}/bank.json")


#: The `all_few` fixture's dataset and bank, whose split has no base class.
ALL_FEW = ("--dataset", "{all_few}/dataset.json", "--bank", "{all_few}/bank.json")


@pytest.fixture(scope="module")
def all_few(pipeline):
    """The pipeline's dataset with `few_lt` 1000 and `many_gt` 2000, so that
    every class is few, and a bank trained on it by `train_baseline` (the
    `baseline` command refuses such a split)."""
    root = pipeline["root"] / "all_few"
    shutil.copytree(pipeline["data"], root)
    manifest = root / "dataset.json"
    manifest.write_text(
        json.dumps(json.loads(manifest.read_text()) | {"few_lt": 1000, "many_gt": 2000})
    )
    save_bank(root / "bank.json", train_baseline(load_dataset(manifest), epochs=2))
    return root


@pytest.fixture(scope="module")
def no_few(pipeline):
    """The pipeline's dataset with `few_lt` 1, so that no class is few, and
    a bank trained on it."""
    root = pipeline["root"] / "no_few"
    shutil.copytree(pipeline["data"], root)
    manifest = root / "dataset.json"
    manifest.write_text(json.dumps(json.loads(manifest.read_text()) | {"few_lt": 1}))
    assert main(["baseline", "--dataset", str(manifest), "--out-dir", str(root), "--epochs", "2"]) == 0
    return root


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--axis", "topk", "--grid", "0:3:0.5"],
        ["sweep", "--axis", "topk", "--grid", "0,99", "--epochs", "1"],
        ["sweep", "--axis", "gamma", "--grid", "0.5:nan:0.1", "--epochs", "1"],
        # 0.5 + 1e-300 == 0.5, so the range would never end.
        ["sweep", "--axis", "gamma", "--grid", "0.5:0.6:1e-300", "--epochs", "1"],
        ["train", "--top-k", "99", "--epochs", "1"],
        ["datagen", "--few-lt", "3"],
        ["baseline", "--epochs", "-1"],
        # lr0 1e-300 decays by 0.1 every 20 epochs to 0.0 at epoch 480.
        ["train", "--lr0", "1e-300", "--epochs", "500", "--top-k", "2", "--reduced-dim", "4"],
        # NaN passes every bound check, so a float setting must be finite.
        ["baseline", "--lr", "nan"],
        ["datagen", "--sigma", "nan"],
        ["datagen", "--mean-scale", "inf"],
        ["datagen", "--n-groups", "2", "--group-spread", "nan"],
        ["datagen", "--decay-exponent", "nan"],
        ["train", "--lr0", "nan", *TRAIN_SMALL],
        ["train", "--lr0", "inf", *TRAIN_SMALL],
        ["train", "--weight-decay", "nan", *TRAIN_SMALL],
        ["train", "--weight-decay", "inf", *TRAIN_SMALL],
        ["train", "--init-gain", "nan", *TRAIN_SMALL],
        ["train", "--init-gain", "inf", *TRAIN_SMALL],
        ["train", *NO_FEW, *TRAIN_SMALL],
        ["sweep", *NO_FEW, "--axis", "gamma", "--grid", "0.5", *TRAIN_SMALL],
        # numpy's generator refuses a negative scale or seed with a ValueError.
        ["datagen", "--mean-scale", "-1"],
        ["datagen", "--mean-scale=-0.0"],
        ["datagen", "--seed", "-1"],
        ["baseline", "--seed", "-1"],
        ["train", "--seed", "-1", *TRAIN_SMALL],
        ["baseline", *ALL_FEW[:2]],
        ["eval", *ALL_FEW, "--composed", "{all_few}/bank.json"],
    ],
    ids=["sweep-grid-fraction", "sweep-k-too-large", "sweep-grid-to-nan",
         "sweep-grid-step-too-small", "train-k-too-large",
         "datagen-no-few-class", "baseline-negative-epochs", "train-lr-decays-to-zero",
         "baseline-lr-nan", "datagen-sigma-nan", "datagen-mean-scale-inf",
         "datagen-group-spread-nan", "datagen-decay-exponent-nan", "train-lr0-nan",
         "train-lr0-inf", "train-weight-decay-nan", "train-weight-decay-inf",
         "train-init-gain-nan", "train-init-gain-inf", "train-no-few-class",
         "sweep-no-few-class", "datagen-negative-mean-scale", "datagen-mean-scale-negative-zero",
         "datagen-negative-seed",
         "baseline-negative-seed", "train-negative-seed", "baseline-no-base-class",
         "eval-no-base-class"],
)
def test_rejected_command_creates_no_output_directory(
    pipeline, no_few, all_few, tmp_path, capsys, argv
):
    dataset = ["--dataset", str(pipeline["data"] / "dataset.json")]
    inputs = {
        "datagen": [],
        "baseline": dataset,
        "train": [*dataset, "--bank", str(pipeline["base"] / "bank.json")],
    }
    if "--dataset" in argv:
        argv = [arg.format(no_few=no_few, all_few=all_few) for arg in argv]
    else:
        argv = [*argv, *inputs.get(argv[0], inputs["train"])]
    out = tmp_path / "out"
    rc = main([*argv, "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("error:") == 1 and "Traceback" not in err
    assert not out.exists()


def test_datagen_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    """A size setting numpy cannot allocate for ends in exit 1. The
    allocation is faked: a real oversized request can succeed under memory
    overcommit and then exhaust the machine as it is filled."""

    def refuse(cfg):
        raise MemoryError("Unable to allocate 596. GiB for an array with shape (100000000, 800)")

    monkeypatch.setattr(cli, "generate", refuse)
    out = tmp_path / "out"
    assert main(["datagen", "--out-dir", str(out), "--n-classes", "100000000"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: out of memory: Unable to allocate 596. GiB for an array with shape (100000000, 800)"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "flags", [["--mean-scale", "1e308"], ["--n-groups", "3", "--group-spread", "1e308"]]
)
def test_datagen_overflow_prints_only_the_numeric_error(tmp_path, capsys, flags):
    """Draws that overflow give non-finite features: exit 3 with the
    dataset's NumericError as the only line on stderr, no numpy warning."""
    out = tmp_path / "out"
    assert main(["datagen", "--out-dir", str(out), *flags]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: dataset features contain non-finite entries"
    ]
    assert not out.exists()


#: Largest value drawn for each `datagen` setting that sizes an array, so that
#: no example allocates more than about 6 MB (60 classes of at most 300 + 50
#: + 50 samples at dim 32). Every other setting is drawn unbounded.
DATAGEN_SIZE_BOUNDS = {
    "n_classes": 60, "feature_dim": 32, "head_count": 300, "tail_count": 300,
    "explicit_counts": 300, "n_groups": 60, "val_per_class": 50, "test_per_class": 50,
}

#: Flag values that are no setting at all, or an extreme one.
HOSTILE = ["0", "-0.0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "1.5", "abc", ""]


def _datagen_value(field):
    """Text for the flag of GenConfig `field`: a hostile value, or one of
    its type, bounded where it sizes an array; lists are comma lists."""
    bound = DATAGEN_SIZE_BOUNDS.get(field.name)
    if "int" in field.type:
        number = st.integers(-3, bound) if bound else st.integers(-(10**30), 10**30)
    else:
        number = st.floats(-2.0, 2.0) | st.floats(allow_nan=True, allow_infinity=True)
    text = number.map(str)
    if "list" in field.type:
        text = text | st.lists(number, max_size=8).map(lambda xs: ",".join(map(str, xs)))
    return text | st.sampled_from(HOSTILE)


@st.composite
def _datagen_flags(draw):
    """One to three `--name=value` flags, the other settings at their
    defaults, so that one bad value is not hidden behind another."""
    chosen = draw(st.lists(st.sampled_from(fields(GenConfig)), min_size=1, max_size=3,
                           unique_by=lambda f: f.name))
    return [f"--{f.name.replace('_', '-')}={draw(_datagen_value(f))}" for f in chosen]


class _ExampleTimeout(Exception):
    """An example ran past its deadline (not an OSError, which main would
    report as exit 2)."""


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise `_ExampleTimeout` in the test's thread once `seconds` pass."""

    def expire(signum, frame):
        raise _ExampleTimeout(f"example ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(flags=_datagen_flags())
def test_datagen_exit_code_contract(tmp_path_factory, flags):
    """Any `datagen` settings end in exit 0, 1, 2 or 3, in-process, within a
    deadline. A success writes finite features; a refusal prints exactly one
    `error:` line and leaves no output directory; no run prints a traceback
    or a warning."""
    work = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    out = work / "out"
    err = io.StringIO()
    try:
        with (
            _deadline(20.0),
            warnings.catch_warnings(record=True) as caught,
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(err),
        ):
            warnings.simplefilter("always")
            rc = main(["datagen", "--out-dir", str(out), *flags])
        assert rc in (0, 1, 2, 3)
        assert not caught, [str(w.message) for w in caught]
        if rc == 0:
            assert err.getvalue() == ""
            assert np.isfinite(load_dataset(out / "dataset.json").features).all()
        else:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not out.exists()
    finally:
        shutil.rmtree(work)


def test_exit_2_for_corrupt_tensor_file(pipeline, tmp_path, capsys):
    data_copy = tmp_path / "data"
    shutil.copytree(pipeline["data"], data_copy)
    feat = data_copy / "dataset_features.alft"
    blob = bytearray(feat.read_bytes())
    blob[0] ^= 0xFF
    feat.write_bytes(blob)
    rc = main([
        "eval", "--dataset", str(data_copy / "dataset.json"),
        "--bank", str(pipeline["base"] / "bank.json"),
        "--composed", str(pipeline["run"] / "composed.json"),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(feat) in err and "byte offset 0" in err

    manifest_path = data_copy / "dataset.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["many_gt"], manifest["few_lt"] = 10, 40
    manifest_path.write_text(json.dumps(manifest))
    shutil.copy(pipeline["data"] / "dataset_features.alft", feat)
    rc = main(["baseline", "--dataset", str(manifest_path), "--out-dir", str(tmp_path / "b")])
    assert rc == 2
    assert "inverted" in capsys.readouterr().err


#: Malformed bank and dataset manifests, as (kind, case) -> new manifest bytes.
_BAD_MANIFESTS = {
    (kind, case): edit
    for kind in ("bank", "dataset")
    for case, edit in {
        "list": lambda m: json.dumps([m]).encode(),
        "tensor_files_not_an_object": lambda m: json.dumps(m | {"tensor_files": "x"}).encode(),
        "count_not_a_number": lambda m: json.dumps(m | {"n_classes": "fifty"}).encode(),
        "not_utf8": lambda m: json.dumps(m).encode("utf-16"),
    }.items()
} | {("bank", "splits_not_iterable"): lambda m: json.dumps(m | {"splits": 5}).encode()}


@pytest.mark.parametrize("kind, case", list(_BAD_MANIFESTS))
def test_exit_2_for_a_malformed_manifest(pipeline, tmp_path, capsys, kind, case):
    """`train --bank` and `baseline --dataset` report a malformed manifest as
    an error naming the file, not a traceback."""
    source = pipeline["base"] if kind == "bank" else pipeline["data"]
    shutil.copytree(source, tmp_path / kind)
    path = tmp_path / kind / f"{kind}.json"
    path.write_bytes(_BAD_MANIFESTS[kind, case](json.loads(path.read_text())))
    if kind == "bank":
        dataset = str(pipeline["data"] / "dataset.json")
        argv = ["train", "--dataset", dataset, "--bank", str(path), "--epochs", "1"]
    else:
        argv = ["baseline", "--dataset", str(path), "--epochs", "1"]
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert not out.exists()


def test_exit_2_for_a_bank_from_another_split(pipeline, tmp_path, capsys):
    """The fixture's dataset regenerated with `--few-lt 40` has more few
    classes than the fixture's bank: train, eval and sweep refuse the pair."""
    data = tmp_path / "data"
    assert main([
        "datagen", "--out-dir", str(data), "--n-classes", "12",
        "--feature-dim", "6", "--head-count", "80", "--tail-count", "4",
        "--val-per-class", "8", "--test-per-class", "8", "--seed", "1", "--few-lt", "40",
    ]) == 0
    dataset, bank = str(data / "dataset.json"), str(pipeline["base"] / "bank.json")
    run = ["--dataset", dataset, "--bank", bank, "--out-dir", str(tmp_path / "out")]
    for argv in (
        ["train", *run, "--epochs", "1"],
        ["eval", *run, "--composed", str(pipeline["run"] / "composed.json")],
        ["sweep", *run, "--epochs", "1", "--axis", "gamma", "--grid", "0.5"],
    ):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "split" in err and dataset in err and bank in err
        assert not (tmp_path / "out").exists()


def test_exit_2_for_a_bank_trained_on_other_data_of_the_same_split(pipeline, tmp_path, capsys):
    """The fixture's dataset drawn with another seed has the same train
    counts, so the same split, but another train digest than the one the
    fixture's bank records: train, eval and sweep refuse the pair."""
    data = tmp_path / "data"
    assert main([
        "datagen", "--out-dir", str(data), "--n-classes", "12",
        "--feature-dim", "6", "--head-count", "80", "--tail-count", "4",
        "--val-per-class", "8", "--test-per-class", "8", "--seed", "2",
    ]) == 0
    assert load_dataset(data / "dataset.json").split() == load_bank(
        pipeline["base"] / "bank.json"
    ).split
    dataset, bank = str(data / "dataset.json"), str(pipeline["base"] / "bank.json")
    run = ["--dataset", dataset, "--bank", bank, "--out-dir", str(tmp_path / "out")]
    for argv in (
        ["train", *run, "--epochs", "1", "--top-k", "2", "--reduced-dim", "4"],
        ["eval", *run, "--composed", str(pipeline["run"] / "composed.json")],
        ["sweep", *run, "--epochs", "1", "--top-k", "2", "--reduced-dim", "4",
         "--axis", "gamma", "--grid", "0.5"],
    ):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: bank {bank} was not trained on dataset {dataset}: "
            "the digests of their train partitions differ\n"
        )
        assert not (tmp_path / "out").exists()


def test_train_digest_pairs_a_bank_that_records_none(pipeline, tmp_path, capsys):
    """A bank and a composed bank without `train_digest` still pair, and eval
    refuses a composed bank whose digest is not the dataset's."""
    base, run = tmp_path / "base", tmp_path / "run"
    shutil.copytree(pipeline["base"], base)
    shutil.copytree(pipeline["run"], run)
    dataset = str(pipeline["data"] / "dataset.json")
    for manifest in (base / "bank.json", run / "composed.json"):
        m = json.loads(manifest.read_text())
        assert m.pop("train_digest") == load_dataset(dataset).train_digest()
        manifest.write_text(json.dumps(m))
    pair = ["--dataset", dataset, "--bank", str(base / "bank.json")]
    composed = str(run / "composed.json")
    assert main(["train", *pair, "--out-dir", str(tmp_path / "t"), "--epochs", "1",
                 "--top-k", "2", "--reduced-dim", "4"]) == 0
    assert main(["eval", *pair, "--composed", composed, "--out-dir", str(tmp_path / "e")]) == 0

    m = json.loads((run / "composed.json").read_text())
    (run / "composed.json").write_text(json.dumps(m | {"train_digest": "0" * 64}))
    capsys.readouterr()
    assert main(["eval", *pair, "--composed", composed, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: bank {composed} was not trained on dataset {dataset}: "
        "the digests of their train partitions differ\n"
    )
    assert not (tmp_path / "out").exists()


def test_exit_2_for_eval_against_another_baseline(pipeline, tmp_path, capsys):
    dataset = str(pipeline["data"] / "dataset.json")
    assert main([
        "baseline", "--dataset", dataset, "--out-dir", str(tmp_path / "b"),
        "--epochs", "30", "--seed", "11",
    ]) == 0
    capsys.readouterr()
    rc = main([
        "eval", "--dataset", dataset, "--bank", str(tmp_path / "b" / "bank.json"),
        "--composed", str(pipeline["run"] / "composed.json"),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert "was not built from" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_3_for_a_nan_few_class_validation_score(pipeline, tmp_path, capsys):
    """One batch per epoch and an overflowing step: the update after the last
    batch leaves non-finite parameters, so training finishes the epoch and
    its validation meets NaN in the few-class columns, not in the cached
    base columns."""
    data, base = pipeline["data"], pipeline["base"]
    rc = main([
        "train", "--dataset", str(data / "dataset.json"), "--bank", str(base / "bank.json"),
        "--out-dir", str(tmp_path), "--epochs", "2", "--top-k", "2", "--reduced-dim", "4",
        "--lr0", "1e300", "--batch-size", "1000",
    ])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: validation failed at epoch 0: few-class validation scores are not finite\n"
    )
    assert not tmp_path.joinpath("model.json").exists()


def test_exit_3_for_an_infinite_few_class_validation_score(pipeline, tmp_path, capsys):
    """A validation row whose one nonzero coordinate is the largest float
    overflows a few-class score to +-inf and makes no NaN; validation still
    refuses it and names the epoch. The base-class scores of that row
    overflow too, without a numpy warning: the error line is all that
    reaches stderr."""
    data, base = pipeline["data"], pipeline["base"]
    argv = ["train", "--bank", str(base / "bank.json"), "--epochs", "1", "--top-k", "2",
            "--reduced-dim", "4", "--seed", "3"]
    first = tmp_path / "first"
    assert main([*argv, "--dataset", str(data / "dataset.json"), "--out-dir", str(first)]) == 0
    # One epoch: the composed rows are those the epoch-0 validation scores.
    composed = load_bank(first / "composed.json")
    few_rows = composed.weights[list(composed.split.few_ids)]
    column = int(np.argmax(np.abs(few_rows).max(axis=0)))
    assert np.abs(few_rows[:, column]).max() > 1.0
    ds = load_dataset(data / "dataset.json")
    row = ds.indices("val")[0]
    ds.features[row] = 0.0
    ds.features[row, column] = np.finfo(np.float64).max
    (tmp_path / "huge").mkdir()
    save_dataset(tmp_path / "huge" / "dataset.json", ds)
    capsys.readouterr()
    rc = main([*argv, "--dataset", str(tmp_path / "huge" / "dataset.json"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: validation failed at epoch 0: few-class validation scores are not finite\n"
    )
    assert not (tmp_path / "out").exists()


def test_exit_3_for_diverged_training(pipeline, tmp_path, capsys):
    """Without an errstate here, any numpy warning would fail the test: the
    error line is all that reaches stderr."""
    rc = main([
        "baseline", "--dataset", str(pipeline["data"] / "dataset.json"),
        "--out-dir", str(tmp_path), "--lr", "1e18",
    ])
    assert rc == 3
    assert capsys.readouterr().err == "error: baseline training diverged at epoch 0, batch 1\n"

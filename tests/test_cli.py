"""End-to-end command-line runs: artifacts, reproducibility, exit codes."""

import argparse
import json
import os
import shutil
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from alphanet import cli
from alphanet.cli import _gen_config, _parse_grid, _run_config, build_parser, main
from alphanet.config import RunConfig
from alphanet.data import ClassifierBank, load_bank, load_dataset, save_dataset
from alphanet.datagen import GenConfig
from alphanet.errors import ConfigError


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
    cfg_path.write_text(json.dumps({"gamma": 0.9, "epochs": 1}))
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


def _long_options(command: str) -> set[str]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        a.option_strings[0]
        for a in sub.choices[command]._actions
        if a.option_strings and not isinstance(a, argparse._HelpAction)
    }


def _dashed(cls) -> set[str]:
    return {"--" + f.name.replace("_", "-") for f in fields(cls)}


def test_flags_are_exactly_the_config_fields():
    assert _long_options("datagen") == _dashed(GenConfig) | {"--config", "--out-dir"}
    assert _long_options("train") == _dashed(RunConfig) | {"--config"}
    assert _long_options("sweep") == _dashed(RunConfig) | {
        "--config", "--axis", "--grid", "--partition",
    }


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
    _assert_typed_non_defaults(_gen_config(args), gen_values)


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
    ):
        cfg_path.write_text(json.dumps(bad))
        assert main(train) == 1, bad
        assert f"error: {next(iter(bad))}" in capsys.readouterr().err
    datagen = ["datagen", "--config", str(cfg_path), "--out-dir", str(tmp_path / "data")]
    for bad in (
        {"feature_dim": "16"}, {"sigma": "0.9"}, {"n_groups": True}, {"n_classes": 50.5},
        {"rho": "abc"}, {"rho": [0.5, "x"]}, {"rho": [True]},
        {"explicit_counts": "x"}, {"explicit_counts": [150.7] + [150] * 49},
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


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--axis", "topk", "--grid", "0:3:0.5"],
        ["sweep", "--axis", "topk", "--grid", "0,99", "--epochs", "1"],
        ["train", "--top-k", "99", "--epochs", "1"],
        ["datagen", "--few-lt", "3"],
        ["baseline", "--epochs", "-1"],
    ],
    ids=["sweep-grid-fraction", "sweep-k-too-large", "train-k-too-large",
         "datagen-no-few-class", "baseline-negative-epochs"],
)
def test_rejected_command_creates_no_output_directory(pipeline, tmp_path, capsys, argv):
    dataset = ["--dataset", str(pipeline["data"] / "dataset.json")]
    inputs = {
        "datagen": [],
        "baseline": dataset,
        "train": [*dataset, "--bank", str(pipeline["base"] / "bank.json")],
    }
    out = tmp_path / "out"
    rc = main([*argv, *inputs.get(argv[0], inputs["train"]), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("error:") == 1 and "Traceback" not in err
    assert not out.exists()


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

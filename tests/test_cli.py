"""End-to-end command-line runs: artifacts, reproducibility, exit codes."""

import json
import shutil
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from alphanet.cli import _parse_grid, main
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
# Grid parsing


def test_parse_grid_range_is_endpoint_inclusive():
    values = _parse_grid("0.1:0.9:0.1", float)
    assert len(values) == 9
    assert values[0] == pytest.approx(0.1)
    assert values[-1] == pytest.approx(0.9)


def test_parse_grid_comma_list_and_ints():
    assert _parse_grid("1,3,5", int) == [1, 3, 5]
    assert _parse_grid("0.25", float) == [0.25]


def test_parse_grid_rejects_malformed_input():
    for bad in ("0.9:0.1:0.1", "0.1:0.9:0", "0.1:0.9:-0.1", "a:b:c", "", "1:2"):
        with pytest.raises(ConfigError):
            _parse_grid(bad, float)


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
    assert "byte offset 0" in capsys.readouterr().err

    manifest_path = data_copy / "dataset.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["many_gt"], manifest["few_lt"] = 10, 40
    manifest_path.write_text(json.dumps(manifest))
    shutil.copy(pipeline["data"] / "dataset_features.alft", feat)
    rc = main(["baseline", "--dataset", str(manifest_path), "--out-dir", str(tmp_path / "b")])
    assert rc == 2
    assert "inverted" in capsys.readouterr().err


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


def test_exit_3_for_diverged_training(pipeline, tmp_path, capsys):
    with np.errstate(divide="ignore"):
        rc = main([
            "baseline", "--dataset", str(pipeline["data"] / "dataset.json"),
            "--out-dir", str(tmp_path), "--lr", "1e18",
        ])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err

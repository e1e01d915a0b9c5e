"""Subcommand front-end: datagen -> baseline -> train -> eval -> sweep.

Every command validates its configuration up front, loads and computes, and
only then creates its output directory and writes its outputs atomically,
so a rejected command leaves nothing behind. Each drops a `run.json` with
the effective merged config, the seed, a git-describe string (when
available), and wall time. Exit codes: 1 configuration error, 2
file/format error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

from .config import RunConfig
from .data import (
    _atomic_write_bytes,
    load_bank,
    load_dataset,
    save_bank,
    save_dataset,
)
from .datagen import GenConfig, generate, train_baseline
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    IntegrityError,
    NumericError,
    ShapeError,
    TrainingError,
)
from .model import save_model, write_train_log
from .neighbors import base_distances, class_means
from .reports import (
    REPORT_SPLITS,
    _classwise,
    bank_report,
    gamma_sweep,
    run_training,
    topk_sweep,
    write_classwise_csv,
    write_split_report_csv,
    write_sweep_csv,
    write_sweep_svg,
)


class _Parser(argparse.ArgumentParser):
    """Raise instead of exiting so main() controls the exit code."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _git_describe(cwd: str) -> str | None:
    """`git describe` of the checkout holding `cwd`. It runs once per process
    and directory, so a tree that turns dirty later in the same process keeps
    its first answer."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=cwd,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _write_run_json(out_dir: Path, command: str, config: dict, seed: int, t0: float) -> None:
    payload = {
        "command": command,
        "config": config,
        "seed": seed,
        "git_describe": _git_describe(os.getcwd()),
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    _atomic_write_bytes(out_dir / "run.json", (json.dumps(payload, indent=2) + "\n").encode("utf-8"))


def _out_dir(path: str) -> Path:
    """Create the output directory; called just before a command's first write."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_json_config(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        d = json.loads(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {p} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise ConfigError(f"config file {p} must contain a JSON object")
    return d


def _numbers(text: str, cast):
    try:
        return [cast(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_grid(text: str, cast):
    """Either `lo:hi:step` (inclusive) or a comma-separated list. A range
    value the cast would change, such as 0.5 in an int grid, is refused."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid must be lo:hi:step or a comma list, got {text!r}")
        try:
            lo, hi, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"grid bounds must be numbers, got {text!r}") from None
        if step <= 0 or hi < lo:
            raise ConfigError(f"grid needs step > 0 and hi >= lo, got {text!r}")
        values = []
        v = lo
        while v <= hi + 1e-9:
            value = round(v, 12)
            if cast(value) != value:
                raise ConfigError(f"grid value {value} is not a whole number, got {text!r}")
            values.append(cast(value))
            v += step
        return values
    values = _numbers(text, cast)
    if not values:
        raise ConfigError(f"grid is empty: {text!r}")
    return values


def _require_file(path: str | None, flag: str) -> Path:
    if not path:
        raise ConfigError(f"{flag} is required")
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{flag}: no such file: {p}")
    return p


def _load_pair(dataset: str | None, bank: str | None):
    """Load `--dataset` and `--bank`; the bank must carry the split that the
    dataset's train counts give, the one `baseline` would have stored."""
    ds = load_dataset(_require_file(dataset, "--dataset"))
    classifiers = load_bank(_require_file(bank, "--bank"))
    if ds.split() != classifiers.split:
        raise IntegrityError(
            f"bank {bank} was not trained on the split of dataset {dataset}: "
            "their per-class train counts or split labels differ"
        )
    return ds, classifiers


def _run_config(args) -> RunConfig:
    flag_values = {name: getattr(args, name) for name in RunConfig.field_names()}
    cfg = RunConfig.merged(_load_json_config(args.config), flag_values)
    if not cfg.out_dir:
        raise ConfigError("--out-dir is required (or out_dir in the --config file)")
    return cfg


def _gen_config(args) -> GenConfig:
    """The config file overlaid by the flags given; `rho` and
    `explicit_counts` come as comma lists."""
    values = _load_json_config(args.config)
    for f in fields(GenConfig):
        v = getattr(args, f.name)
        if v is None:
            continue
        if f.name == "rho":
            rhos = _numbers(v, float)
            v = rhos[0] if len(rhos) == 1 else rhos
        elif f.name == "explicit_counts":
            v = _numbers(v, int)
        values[f.name] = v
    return GenConfig.from_dict(values)


_FLAG_TYPES = {"int": int, "float": float}


def _add_config_flags(p: argparse.ArgumentParser, cls) -> None:
    """`--config` plus one `--field-name` flag per field of the dataclass
    `cls`, typed from the field's annotation as `check_field_types` reads
    it: `int`, `float`, `bool` (`--x`/`--no-x`), and a string otherwise (a
    list field takes a comma list). A flag left out is None, so it does not
    override the config file."""
    p.add_argument("--config", help="JSON file with config keys (flags override it)")
    for f in fields(cls):
        kind = f.type.removesuffix(" | None")
        kwargs = (
            {"action": argparse.BooleanOptionalAction}
            if kind == "bool"
            else {"type": _FLAG_TYPES.get(kind)}
        )
        help_text = "comma-separated list" if "list" in kind else None
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, help=help_text, **kwargs)


# ---------------------------------------------------------------------------
# Commands


def cmd_datagen(args) -> None:
    t0 = time.monotonic()
    cfg = _gen_config(args)
    ds, split, _ = generate(cfg)
    out = _out_dir(args.out_dir)
    save_dataset(out / "dataset.json", ds)
    counts = ds.train_counts()
    print(
        f"wrote {out / 'dataset.json'}: {ds.n_samples} samples, "
        f"{ds.n_classes} classes ({split.n_few} few), train counts "
        f"{int(counts.max())}..{int(counts.min())}"
    )
    _write_run_json(out, "datagen", cfg.to_dict(), cfg.seed, t0)


def _top1_line(report) -> str:
    """Top-1 per split, as "few 0.xxx, medium 0.xxx, ..."; absent splits are left out."""
    return ", ".join(
        f"{name} {acc.top1:.3f}"
        for name in REPORT_SPLITS
        if (acc := report.accuracy(name)) is not None
    )


def cmd_baseline(args) -> None:
    t0 = time.monotonic()
    ds = load_dataset(_require_file(args.dataset, "--dataset"))
    bank = train_baseline(
        ds,
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
        batch_size=args.batch_size,
        momentum=args.momentum,
    )
    out = _out_dir(args.out_dir)
    save_bank(out / "bank.json", bank)
    report = bank_report(bank, ds, "val")
    print(f"wrote {out / 'bank.json'}; val top-1: {_top1_line(report)}")
    names = ("dataset", "epochs", "lr", "batch_size", "momentum", "seed")
    config = {name: getattr(args, name) for name in names}
    _write_run_json(out, "baseline", config, args.seed, t0)


def cmd_train(args) -> None:
    t0 = time.monotonic()
    cfg = _run_config(args)
    ds, bank = _load_pair(cfg.dataset, cfg.bank)

    def show(entry: dict) -> None:
        few = entry["val"].get("few")
        few_txt = f" few-val {few['top1']:.4f}" if few else ""
        print(f"epoch {entry['epoch']:3d} loss {entry['loss']:.4f} lr {entry['lr']:g}{few_txt}")

    result, composed = run_training(bank, ds, cfg, on_epoch=show)
    out = _out_dir(cfg.out_dir)
    save_model(out / "model.json", result.model)
    save_bank(out / "composed.json", composed)
    write_train_log(out / "train_log.jsonl", result.log)
    print(
        f"best epoch {result.best_epoch} (few-val top-1 {result.best_few_top1:.4f}); "
        f"wrote {out / 'model.json'}, {out / 'composed.json'}"
    )
    _write_run_json(out, "train", cfg.to_dict(), cfg.seed, t0)


def cmd_eval(args) -> None:
    t0 = time.monotonic()
    ds, bank = _load_pair(args.dataset, args.bank)
    composed = load_bank(_require_file(args.composed, "--composed"))
    base = list(bank.split.base_ids)
    if composed.split != bank.split or any(
        a[base].tobytes() != b[base].tobytes()
        for a, b in ((composed.weights, bank.weights), (composed.biases, bank.biases))
    ):
        raise IntegrityError(
            f"composed bank {args.composed} was not built from {args.bank}: "
            "their splits or base-class rows differ"
        )
    # Each report scores the partition in row blocks and keeps only its top-1
    # predictions, which the classwise table reads.
    baseline = bank_report(bank, ds, args.partition)
    report = bank_report(composed, ds, args.partition)
    labels = ds.labels[ds.indices(args.partition)]
    means = class_means(ds)
    distances = {
        target: base_distances(means, bank.split, target)[0][0]
        for target in bank.split.few_ids
    }
    classwise = _classwise(baseline.predictions, report.predictions, labels, distances)
    out = _out_dir(args.out_dir)
    write_split_report_csv(out / "split_report.csv", report)
    write_classwise_csv(out / "classwise.csv", classwise)
    summary = {
        "partition": args.partition,
        "baseline": baseline.to_dict(),
        "composed": report.to_dict(),
        "spearman_distance_vs_delta": classwise.spearman,
    }
    _atomic_write_bytes(
        out / "eval.json", (json.dumps(summary, indent=2) + "\n").encode("utf-8")
    )
    print(f"composed {args.partition} top-1: {_top1_line(report)}")
    names = ("dataset", "bank", "composed", "out_dir", "partition", "seed")
    config = {name: getattr(args, name) for name in names}
    _write_run_json(out, "eval", config, args.seed, t0)


def cmd_sweep(args) -> None:
    t0 = time.monotonic()
    cfg = _run_config(args)
    values = _parse_grid(args.grid, float if args.axis == "gamma" else int)
    ds, bank = _load_pair(cfg.dataset, cfg.bank)
    if args.axis == "gamma":
        rows = gamma_sweep(bank, ds, cfg, values, partition=args.partition)
        x_label = "gamma"
    else:
        rows = topk_sweep(bank, ds, cfg, values, partition=args.partition)
        x_label = "top K"
    out = _out_dir(cfg.out_dir)
    write_sweep_csv(out / "sweep.csv", rows)
    write_sweep_svg(
        out / "sweep.svg",
        rows,
        title=f"top-1 accuracy vs {x_label}",
        x_label=x_label,
    )
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} cells)")
    _write_run_json(
        out,
        "sweep",
        cfg.to_dict() | {"axis": args.axis, "grid": args.grid, "partition": args.partition},
        cfg.seed,
        t0,
    )


# ---------------------------------------------------------------------------
# Argument wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="alphanet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a synthetic long-tailed feature dataset")
    _add_config_flags(p, GenConfig)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("baseline", help="train the frozen per-class linear baseline bank")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=64)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("train", help="train composition sub-modules against a frozen bank")
    _add_config_flags(p, RunConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a composed bank and report per-split/per-class metrics")
    p.add_argument("--dataset", required=True)
    p.add_argument("--bank", required=True, help="baseline classifier bank manifest path")
    p.add_argument("--composed", required=True, help="composed bank manifest path")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--partition", choices=("train", "val", "test"), default="test")
    p.add_argument("--seed", type=int, default=0, help="recorded in run.json only")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train once per grid value and tabulate accuracy")
    _add_config_flags(p, RunConfig)
    p.add_argument("--axis", choices=("gamma", "topk"), required=True)
    p.add_argument("--grid", required=True, help="lo:hi:step or comma-separated values")
    p.add_argument("--partition", choices=("train", "val", "test"), default="test")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except (ConfigError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, IntegrityError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0

"""Subcommand front-end: datagen -> baseline -> train -> eval -> sweep.

Every command validates its configuration up front, loads and computes, and
only then creates its output directory and writes its outputs atomically,
so a rejected command leaves nothing behind. `main` then writes the
command's `run.json`: every flag it read, with its settings at their merged
values, the seed, a git-describe string (when available), and wall time.
Exit codes: 1 configuration error (settings too large to allocate
included), 2 file/format error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

from .config import RunConfig, merge_config
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
    run_training,
    sweep,
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


def _write_run_json(out_dir: Path, args, cfg, t0: float) -> None:
    """`run.json` of the command `args` ran: every flag it read but `command`,
    `func` and `config`, with the fields of its settings `cfg`, if any, at
    their merged values."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func", "config")}
    if cfg is not None:
        config |= cfg.to_dict()
    payload = {
        "command": args.command,
        "config": config,
        "seed": config["seed"],
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
        # An infinite bound would never end the range, and a NaN would empty it.
        if not (step > 0 and -math.inf < lo <= hi < math.inf):
            raise ConfigError(f"grid needs step > 0 and finite hi >= lo, got {text!r}")
        # A step of at most half the last-place unit of the largest |v| the
        # range reaches (hi + 1e-9) adds nothing to some v: it would never end.
        if step <= math.ulp(max(abs(lo), abs(hi) + 1e-9)) / 2:
            raise ConfigError(f"grid step is too small to advance, got {text!r}")
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


def _check_train_digest(digest: str, dataset: str, bank, path: str) -> None:
    """A bank that records the digest of its train partition pairs only with
    a dataset whose train partition has the same `digest`."""
    if bank.train_digest not in (None, digest):
        raise IntegrityError(
            f"bank {path} was not trained on dataset {dataset}: "
            "the digests of their train partitions differ"
        )


def _load_pair(dataset: str | None, bank: str | None):
    """Load `--dataset` and `--bank`; the bank must carry the split that the
    dataset's train counts give, the one `baseline` would have stored, and
    the dataset's train digest when it records one. The digest is returned
    with the pair."""
    ds = load_dataset(_require_file(dataset, "--dataset"))
    classifiers = load_bank(_require_file(bank, "--bank"))
    if ds.split() != classifiers.split:
        raise IntegrityError(
            f"bank {bank} was not trained on the split of dataset {dataset}: "
            "their per-class train counts or split labels differ"
        )
    digest = ds.train_digest()
    _check_train_digest(digest, dataset, classifiers, bank)
    return ds, classifiers, digest


def _require_base(split) -> None:
    """A split with no base class has nothing to compose from: `baseline`
    refuses it, as `generate` does, and `eval` would find no nearest base
    class for its classwise table."""
    if split.n_base == 0:
        raise ConfigError("no class qualifies as base; adjust counts or thresholds")


def _config(args, cls):
    """The settings dataclass `cls`: its defaults, then the `--config` file,
    then the flags given."""
    flags = {f.name: getattr(args, f.name) for f in fields(cls)}
    return merge_config(cls, _load_json_config(args.config), flags)


def _run_config(args) -> RunConfig:
    cfg = _config(args, RunConfig)
    if not cfg.out_dir:
        raise ConfigError("--out-dir is required (or out_dir in the --config file)")
    return cfg


_FLAG_TYPES = {"int": int, "float": float}


def _flag_type(annotation: str):
    """How a flag parses its text, from its field's annotation as
    `check_field_types` reads it: `int` or `float` one number, `list[int]` a
    comma list, and `float | list[float]` a comma list whose single value
    stands for the scalar. None, for a string, otherwise."""
    kinds = annotation.split(" | ")
    item = next((kind[5:-1] for kind in kinds if kind.startswith("list[")), None)
    if item is None:
        return _FLAG_TYPES.get(kinds[0])

    def parse(text: str):
        values = _numbers(text, _FLAG_TYPES[item])
        return values[0] if len(values) == 1 and item in kinds else values

    return parse


def _add_config_flags(p: argparse.ArgumentParser, cls) -> None:
    """`--config` plus one `--field-name` flag per field of the dataclass
    `cls`, parsed as `_flag_type` says, or `--x`/`--no-x` for a `bool`. A
    flag left out is None, so it does not override the config file."""
    p.add_argument("--config", help="JSON file with config keys (flags override it)")
    for f in fields(cls):
        kwargs = (
            {"action": argparse.BooleanOptionalAction}
            if f.type == "bool"
            else {"type": _flag_type(f.type)}
        )
        help_text = "comma-separated list" if "list" in f.type else None
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, help=help_text, **kwargs)


# ---------------------------------------------------------------------------
# Commands


def cmd_datagen(args) -> tuple[Path, GenConfig]:
    cfg = _config(args, GenConfig)
    ds, split, _ = generate(cfg)
    out = _out_dir(args.out_dir)
    save_dataset(out / "dataset.json", ds)
    counts = ds.train_counts()
    print(
        f"wrote {out / 'dataset.json'}: {ds.n_samples} samples, "
        f"{ds.n_classes} classes ({split.n_few} few), train counts "
        f"{int(counts.max())}..{int(counts.min())}"
    )
    return out, cfg


def _top1_line(report) -> str:
    """Top-1 per split, as "few 0.xxx, medium 0.xxx, ..."; absent splits are left out."""
    return ", ".join(
        f"{name} {acc.top1:.3f}"
        for name in REPORT_SPLITS
        if (acc := report.accuracy(name)) is not None
    )


def cmd_baseline(args) -> tuple[Path, None]:
    ds = load_dataset(_require_file(args.dataset, "--dataset"))
    _require_base(ds.split())
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
    return out, None


def cmd_train(args) -> tuple[Path, RunConfig]:
    cfg = _run_config(args)
    ds, bank, _ = _load_pair(cfg.dataset, cfg.bank)

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
    return out, cfg


def cmd_eval(args) -> tuple[Path, None]:
    ds, bank, digest = _load_pair(args.dataset, args.bank)
    _require_base(bank.split)
    composed = load_bank(_require_file(args.composed, "--composed"))
    base = bank.split.base_index
    if composed.split != bank.split or any(
        a[base].tobytes() != b[base].tobytes()
        for a, b in ((composed.weights, bank.weights), (composed.biases, bank.biases))
    ):
        raise IntegrityError(
            f"composed bank {args.composed} was not built from {args.bank}: "
            "their splits or base-class rows differ"
        )
    _check_train_digest(digest, args.dataset, composed, args.composed)
    # Each report scores the partition in row blocks and keeps only its top-1
    # predictions, which the classwise table reads.
    baseline = bank_report(bank, ds, args.partition)
    report = bank_report(composed, ds, args.partition)
    labels = ds.labels[ds.indices(args.partition)]
    nearest = base_distances(class_means(ds), bank.split)[1][:, 0]
    distances = dict(zip(bank.split.few_ids, nearest.tolist()))
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
    return out, None


#: Each `sweep --axis`: the `RunConfig` field its cells set, the number type
#: of its grid values, and its chart label.
_SWEEP_AXES = {"gamma": ("gamma", float, "gamma"), "topk": ("top_k", int, "top K")}


def cmd_sweep(args) -> tuple[Path, RunConfig]:
    cfg = _run_config(args)
    param, cast, x_label = _SWEEP_AXES[args.axis]
    values = _parse_grid(args.grid, cast)
    ds, bank, _ = _load_pair(cfg.dataset, cfg.bank)
    rows = sweep(bank, ds, cfg, param, values, partition=args.partition)
    out = _out_dir(cfg.out_dir)
    write_sweep_csv(out / "sweep.csv", rows)
    write_sweep_svg(out / "sweep.svg", rows, title=f"top-1 accuracy vs {x_label}", x_label=x_label)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} cells)")
    return out, cfg


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
    p.add_argument("--axis", choices=tuple(_SWEEP_AXES), required=True)
    p.add_argument("--grid", required=True, help="lo:hi:step or comma-separated values")
    p.add_argument("--partition", choices=("train", "val", "test"), default="test")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        t0 = time.monotonic()
        out, cfg = args.func(args)
        _write_run_json(out, args, cfg, t0)
    except (ConfigError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, IntegrityError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1
    return 0

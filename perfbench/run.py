"""Benchmark of the alphanet command line, end to end and layer by layer.

    python3 perfbench/run.py --workload pipeline-default --seed 0 --seconds 12 --trace 0

Each workload is a closed loop: one process runs one CLI command at a time,
serially, by calling the public entry point `alphanet.cli.main(argv)`. The
workload's commands run as one repetition, and repetitions go on until the
commands have run for `--seconds` (at least two, so that reruns are compared
bit for bit). Every repetition's outputs are checked; a command that exits non-zero,
fails a check or writes other bytes than the first repetition counts as a
failed operation.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json.
With `--trace 1` it wraps the public functions of every alphanet module from
the outside (see layertrace.py) and alternates untraced and traced
repetitions; it reports the per-layer metrics and the tracing overhead.

The last line of standard output is the result as one JSON object. A
detailed record (environment, every command time, digests, the full layer
table) goes to perfbench/out/.

The benchmark measures only its own process and the interpreters it starts.
It changes no CPU governor, cache or cgroup setting, and leaves the BLAS
thread count at its default.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SRC_DIR = ROOT / "src"

SETUP_REPEATS = 11
IMPORT_REPEATS = 5
EPOCHS = 100
SWEEP_EPOCHS = 40
SWEEP_GRID = "0.1:0.9:0.1"
SWEEP_CELLS = 9
REPORT_SPLITS = ("few", "medium", "many", "all")


@dataclass(frozen=True)
class Workload:
    datagen_flags: tuple[str, ...]
    commands: tuple[str, ...]
    why: str


# `tail-heavy` raises the decay exponent rather than passing `--few-lt`:
# `datagen --few-lt 40` reports 17 few classes, but `baseline` re-splits at the
# default thresholds and yields 10, and the train/eval/sweep `--few-lt` and
# `--many-gt` flags are never read.
WORKLOADS = {
    "pipeline-default": Workload(
        (),
        ("datagen", "baseline", "train", "eval"),
        "the README walkthrough on the default profile, the acceptance-gate configuration",
    ),
    "tail-heavy": Workload(
        ("--decay-exponent", "2.5", "--test-per-class", "1000"),
        ("train", "eval"),
        "18 few classes and 50,000 test samples: gradient steps dominate train, one big report dominates eval",
    ),
    "sweep-gamma": Workload(
        (),
        ("sweep",),
        "the README gamma sweep, 9 cells sharing neighbor sets, PCA and batch draws",
    ),
}

#: Hot-spot layers compared by inclusive time when checking what a stage stresses.
HOT_SPOTS = (
    "model.loss_and_grads", "numerics.sgd_momentum_step", "model.sample_epoch",
    "model.export_composed", "model.build_model", "reports.split_report",
    "reports.classwise_report", "data.read_tensor", "data.write_tensor",
    "datagen.generate", "datagen.train_baseline", "cli.write_run_json",
)

#: What each workload claims to stress, checked on the traced run.
STRESS = {
    "tail-heavy": (("largest", "cli.train", "model.loss_and_grads"),
                   ("largest", "cli.eval", "reports.split_report")),
    "sweep-gamma": (("calls", "model.build_model", SWEEP_CELLS),),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# Running commands


def command_argv(command: str, seed: int, inputs: Path, out: Path, datagen_flags) -> list[str]:
    """argv for one CLI command; `inputs` holds the datagen/ and baseline/
    directories it reads, `out` is its output directory."""
    s = str(seed)
    dataset = str(inputs / "datagen" / "dataset.json")
    if command == "datagen":
        return ["datagen", "--out-dir", str(out), "--seed", s, *datagen_flags]
    if command == "baseline":
        return ["baseline", "--dataset", dataset, "--out-dir", str(out), "--seed", s]
    run = ["--dataset", dataset, "--bank", str(inputs / "baseline" / "bank.json"),
           "--out-dir", str(out), "--seed", s]
    if command == "train":
        return ["train", *run, "--gamma", "0.6", "--top-k", "5", "--epochs", str(EPOCHS)]
    if command == "eval":
        return ["eval", *run, "--composed", str(out.parent / "train" / "composed.json")]
    if command == "sweep":
        return ["sweep", *run, "--axis", "gamma", "--grid", SWEEP_GRID, "--epochs", str(SWEEP_EPOCHS)]
    raise BenchError(f"unknown command {command}")


def run_cli(main, argv) -> tuple[float, str | None]:
    """Run one command; return its wall time and an error, or None."""
    sink_out, sink_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            code = None
            sink_err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    if code == 0:
        return seconds, None
    return seconds, f"{argv[0]} exited with {code}: {sink_err.getvalue().strip()[-500:]}"


def dir_digests(path: Path) -> dict[str, str]:
    """SHA-256 of every file the command wrote, except run.json (it holds wall time)."""
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(path.iterdir())
        if f.is_file() and f.name != "run.json"
    }


def combined_digest(digests: dict[str, str]) -> str:
    return hashlib.sha256("".join(f"{k}:{v}\n" for k, v in sorted(digests.items())).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Output checks


def check_outputs(command: str, out: Path, inputs: Path) -> list[str]:
    """Problems with one command's outputs (empty when they are correct)."""
    import numpy as np
    from alphanet import load_bank

    problems = []
    if command == "train":
        bank = load_bank(inputs / "baseline" / "bank.json")
        composed = load_bank(out / "composed.json")
        base = list(bank.split.base_ids)
        few = list(bank.split.few_ids)
        if composed.weights[base].tobytes() != bank.weights[base].tobytes() or \
                composed.biases[base].tobytes() != bank.biases[base].tobytes():
            problems.append("composed base-class rows differ from the input bank")
        if not (np.isfinite(composed.weights[few]).all() and np.isfinite(composed.biases[few]).all()):
            problems.append("composed few-class rows are not finite")
        epochs = len((out / "train_log.jsonl").read_text().splitlines())
        if epochs != EPOCHS:
            problems.append(f"train_log.jsonl has {epochs} epochs, expected {EPOCHS}")
    elif command == "eval":
        composed = json.loads((out / "eval.json").read_text())["composed"]
        if any(not 0.0 <= composed[s]["top1"] <= 1.0 for s in ("few", "all")):
            problems.append("eval.json top-1 outside [0, 1]")
    elif command == "sweep":
        rows = sweep_rows(out)
        cells = {r["param"] for r in rows}
        if len(cells) != SWEEP_CELLS or len(rows) != SWEEP_CELLS * len(REPORT_SPLITS):
            problems.append(f"sweep.csv has {len(cells)} cells and {len(rows)} rows, "
                            f"expected {SWEEP_CELLS} x {len(REPORT_SPLITS)}")
        if any(not 0.0 <= float(r["top1"]) <= 1.0 for r in rows):
            problems.append("sweep.csv top-1 outside [0, 1]")
    return problems


def sweep_rows(out: Path) -> list[dict]:
    with open(out / "sweep.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def quality(workload: str, rep: Path) -> dict[str, float]:
    """Composed few- and all-split test top-1 and top-5 (sweep: mean over cells)."""
    keys = [(split, k) for split in ("few", "all") for k in ("top1", "top5")]
    if workload == "sweep-gamma":
        rows = sweep_rows(rep / "sweep")
        return {f"{split}_{k}": statistics.fmean(float(r[k]) for r in rows if r["split"] == split)
                for split, k in keys}
    composed = json.loads((rep / "eval" / "eval.json").read_text())["composed"]
    return {f"{split}_{k}": composed[split][k] for split, k in keys}


# ---------------------------------------------------------------------------
# Ratios read from artifacts


def best_epoch(log: list[dict]) -> int:
    """First epoch with the highest few-split validation top-1."""
    best, best_top1 = -1, float("-inf")
    for entry in log:
        top1 = entry["val"]["few"]["top1"]
        if top1 > best_top1:
            best, best_top1 = entry["epoch"], top1
    return best


def alpha_counts(model) -> dict[str, int]:
    """Coefficients the clamp changes: neighbor coefficients raised to the
    (1-gamma)/K floor and alpha_0 values cut to the gamma cap."""
    from alphanet import clamp_alpha, normalize_alpha, submodule_forward

    counts = {"floor": 0, "floor_of": 0, "cap": 0, "cap_of": 0}
    for sub, ns in zip(model.submodules, model.neighbor_sets):
        norm = normalize_alpha(submodule_forward(sub, ns.flat_input, model.slope), strict=model.strict_alpha)
        caught = clamp_alpha(norm, model.gamma).values != norm.values
        counts["cap"] += int(caught[0])
        counts["cap_of"] += 1
        counts["floor"] += int(caught[1:].sum())
        counts["floor_of"] += caught.size - 1
    return counts


def artifact_ratios(workload: str, rep: Path, inputs: Path, fit_results) -> dict[str, list[int]]:
    """`model.fit.best_epoch_frac` and `model.alpha.{floor,cap}_frac` as
    [count, base]. Train workloads read train_log.jsonl and model.json; the
    sweep writes neither, so its cells' fit results are used."""
    from alphanet import load_bank, load_model

    if workload == "sweep-gamma":
        pairs = [(r.log, r.model) for r in fit_results]
    else:
        lines = (rep / "train" / "train_log.jsonl").read_text().splitlines()
        bank = load_bank(inputs / "baseline" / "bank.json")
        pairs = [([json.loads(line) for line in lines], load_model(rep / "train" / "model.json", bank))]
    if not pairs:
        raise BenchError("no fit results to read ratios from")
    totals = {"epoch": 0, "epoch_of": 0, "floor": 0, "floor_of": 0, "cap": 0, "cap_of": 0}
    for log, model in pairs:
        totals["epoch"] += best_epoch(log) + 1
        totals["epoch_of"] += len(log)
        for key, value in alpha_counts(model).items():
            totals[key] += value
    return {
        "model.fit.best_epoch_frac": [totals["epoch"], totals["epoch_of"]],
        "model.alpha.floor_frac": [totals["floor"], totals["floor_of"]],
        "model.alpha.cap_frac": [totals["cap"], totals["cap_of"]],
    }


# ---------------------------------------------------------------------------
# Environment


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
        "note": "own processes only; no governor, cache or cgroup changes; BLAS threads left at default",
    }


# ---------------------------------------------------------------------------
# The run


class Run:
    def __init__(self, workload: str, seed: int, work: Path):
        from alphanet.cli import main

        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.main = main
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, dict[str, str]] = {}  # command -> digests of its first run
        self.tracer = None  # records spans around the CLI commands only, not the checks
        self.tracing = False

    def _command(self, command: str, inputs: Path, out: Path, label: str) -> float:
        self.attempted += 1
        argv = command_argv(command, self.seed, inputs, out, self.spec.datagen_flags)
        if self.tracing:
            self.tracer.enabled = True
        try:
            seconds, error = run_cli(self.main, argv)
        finally:
            if self.tracing:
                self.tracer.enabled = False
        if error is None:
            try:
                problems = check_outputs(command, out, inputs)
                digests = dir_digests(out)
            except Exception as exc:  # unreadable outputs are a failed check
                problems, digests = [f"checking outputs failed: {exc!r}"], {}
            reference = self.reference.setdefault(command, digests)
            if digests != reference:
                moved = sorted(k for k in reference.keys() | digests.keys() if reference.get(k) != digests.get(k))
                problems.append(f"bytes differ from the first run: {', '.join(moved)}")
            error = "; ".join(problems) or None
        if error is not None:
            self.failures.append(f"{label} {command}: {error}")
        return seconds

    def setup(self, index: int) -> float:
        """Build the workload's dataset and baseline bank; return the time.
        Repetitions read set-up 0; later set-ups are removed once checked."""
        inputs = self.work / f"setup{index}"
        t0 = time.perf_counter()
        for command in ("datagen", "baseline"):
            self._command(command, inputs, inputs / command, f"setup {index}")
        seconds = time.perf_counter() - t0
        if index:
            shutil.rmtree(inputs)
        return seconds

    def rep(self, index: int) -> dict[str, float]:
        """One repetition of the timed commands; per-command wall times."""
        inputs = self.inputs_of(index)
        out = self.work / f"rep{index}"
        return {c: self._command(c, inputs, out / c, f"rep {index}") for c in self.spec.commands}

    def inputs_of(self, index: int) -> Path:
        """Where repetition `index` reads its dataset and bank: its own
        directory when the workload generates them, else the first setup."""
        return self.work / f"rep{index}" if "datagen" in self.spec.commands else self.work / "setup0"

    def repeat(self, seconds: float, after) -> list[dict[str, float]]:
        """Repetitions until the timed commands have run for `seconds`, and
        at least twice so that reruns are compared. `after(elapsed)` runs
        after each, untimed, with the command seconds so far. The directory
        of each but the last is removed after it is checked."""
        times = []
        elapsed = 0.0
        while len(times) < 2 or elapsed < seconds:
            if times:
                shutil.rmtree(self.work / f"rep{len(times) - 1}")
            times.append(self.rep(len(times)))
            elapsed += sum(times[-1].values())
            after(elapsed)
        return times


def import_seconds() -> float:
    """Wall time of `import alphanet.cli` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import alphanet.cli"], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def stage_metrics(workload: Workload, reps: list[dict[str, float]]) -> dict[str, float]:
    """Median over repetitions of each command's time and of their sum."""
    out = {f"{c}_s": statistics.median(r[c] for r in reps) for c in workload.commands}
    out["commands_s"] = statistics.median(sum(r.values()) for r in reps)
    if "datagen" in workload.commands:
        out["pipeline_s"] = out["commands_s"]
    return out


def stress_checks(workload: str, tracer, table: dict) -> list[dict]:
    results = []
    for kind, subject, expected in STRESS.get(workload, ()):
        if kind == "calls":
            calls = table.get(subject, {}).get("calls", 0)
            results.append({"check": f"{subject}.calls == {expected}", "value": calls, "ok": calls == expected})
            continue
        total, inside, own = tracer.time_under(subject)
        shares = {name: inside.get(name, 0.0) / total for name in HOT_SPOTS}
        top = max(shares, key=shares.get)
        own_top = sorted(own, key=own.get, reverse=True)[:4]
        results.append({
            "check": f"largest hot spot under {subject} is {expected}",
            "value": {name: round(share, 4) for name, share in shares.items() if share > 0},
            "self": {name: round(own[name] / total, 4) for name in own_top},
            "ok": top == expected,
        })
    return results


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """Run the workload; return (result line, detailed record)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(workload, seed, work)
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                    "why": run.spec.why, "environment": environment(seed)}

    setups = [run.setup(0)]
    if not trace:
        # The other set-ups and the imports run between the repetitions, in
        # step with the command time, so that all three sample the same
        # stretch of machine load. The last repetition ends past `seconds`,
        # so every sample is taken by then.
        imports = []

        def between_reps(elapsed: float) -> None:
            share = min(1.0, elapsed / seconds)
            while len(setups) < SETUP_REPEATS * share or len(imports) < IMPORT_REPEATS * share:
                if len(setups) < SETUP_REPEATS * share:
                    setups.append(run.setup(len(setups)))
                if len(imports) < IMPORT_REPEATS * share:
                    imports.append(import_seconds())

        reps = run.repeat(seconds, between_reps)
        last = len(reps) - 1
        values = stage_metrics(run.spec, reps) | quality(workload, work / f"rep{last}") | {
            "setup_s": statistics.median(setups),
            "import_s": statistics.median(imports),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record |= {"setup_times": setups, "import_times": imports, "rep_times": reps}
        wanted = spec["end_to_end"]
    else:
        from layertrace import Tracer

        run.tracer = Tracer()
        record["layers_installed"] = run.tracer.install()
        tables, fit_results = [], []

        def after_rep(elapsed: float) -> None:
            """Repetitions alternate untraced and traced, so that both see the
            same stretch of machine load."""
            if run.tracing:
                tables.append(run.tracer.aggregate())
                if len(tables) == 1:
                    fit_results.extend(run.tracer.fit_results)
                    record["stress"] = stress_checks(workload, run.tracer, tables[0])
                    span_file = OUT_DIR / f"spans-{workload}-seed{seed}.csv.gz"
                    record["spans"] = {"file": str(span_file.relative_to(ROOT)),
                                       "count": run.tracer.write_spans(span_file)}
                run.tracer.clear()
            run.tracing = not run.tracing

        reps = run.repeat(seconds, after_rep)
        plain, traced = reps[0::2], reps[1::2]
        last = len(reps) - 1

        table = {}
        for name in {n for t in tables for n in t}:
            rows = [t.get(name, {"calls": 0, "s": 0.0, "ms_p50": 0.0, "bytes": 0}) for t in tables]
            table[name] = {field: statistics.median_low(r[field] for r in rows) for field in ("calls", "bytes")}
            table[name] |= {field: statistics.median(r[field] for r in rows) for field in ("s", "ms_p50")}
        ratios = artifact_ratios(workload, work / f"rep{last}", run.inputs_of(last), fit_results)
        plain_s = statistics.median(sum(r.values()) for r in plain)
        traced_s = statistics.median(sum(r.values()) for r in traced)
        values = {f"{layer}.{field}": v for layer, row in table.items() for field, v in row.items()}
        values |= {name: count / base for name, (count, base) in ratios.items()}
        values["trace.overhead_frac"] = traced_s / plain_s - 1.0
        record |= {"rep_times": plain, "traced_rep_times": traced, "layers": table, "ratios": ratios}
        wanted = spec["per_layer"]

    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name.endswith((".calls", ".bytes")):
            value = 0  # work done by a layer this workload never calls
        else:
            raise BenchError(f"workload {workload} gives no value for {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}

    record |= {"values": values, "digests": run.reference, "failures": run.failures}
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    return result, record


def compare_reference(record: dict) -> str:
    """Whether the output bytes match those recorded for this workload and
    seed at the reference commit; reported, never gated."""
    path = BENCH_DIR / "reference_digests.json"
    if not path.is_file():
        return "no reference recorded"
    ref = json.loads(path.read_text())
    known = ref["workloads"].get(record["workload"], {}).get(str(record["seed"]))
    if known is None:
        return f"no reference for this seed (reference commit {ref['commit']})"
    mine = {c: combined_digest(d) for c, d in record["digests"].items()}
    moved = sorted(c for c in known if known[c] != mine.get(c))
    return f"same bits as {ref['commit']}" if not moved else f"bits moved since {ref['commit']}: {', '.join(moved)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "alphanet" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no alphanet sources under {SRC_DIR} or no BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    os.environ.pop("ALPHANET_THREADS", None)
    # `run.json` records `git describe`; keep git from searching above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["reference"] = compare_reference(record)
    record["result"] = result
    detail = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {record['environment']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in sorted(record["values"].items()):
        if not args.trace and name not in result["metrics"]:
            print(f"  {name} = {value:.6g} {'s' if name.endswith('_s') else 'ratio'}")
    for check in record.get("stress", ()):
        print(f"  stress: {check['check']}: {'PASS' if check['ok'] else 'FAIL'} {check['value']}")
        if "self" in check:
            print(f"    largest self time under it: {check['self']}")
    for name, (count, base) in record.get("ratios", {}).items():
        print(f"  {name} = {count}/{base}")
    print(f"  error_rate = {result['failed']}/{result['attempted']}; {record['reference']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(f"  detail: {detail.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

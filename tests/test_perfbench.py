"""The traced benchmark's contract with the package.

`perfbench/run.py --trace 1` reports a time for every `.s` and `.ms_p50`
layer named in BENCHMARK.json and fails when a workload never calls one. It
also reads the α clamp counts through public names of `alphanet`. This test
runs the benchmark's own commands under its tracer, so that renaming or
removing a traced layer, or a name the benchmark imports, fails here first.

The tracer rebinds module globals for the whole process, so the run happens
in a subprocess. It writes only to a temporary directory; `-B` keeps Python
from writing bytecode next to the benchmark's sources.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json, sys, tempfile
from pathlib import Path

root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
from alphanet.cli import main
from alphanet import clamp_alpha, load_bank, load_model, normalize_alpha, submodule_forward
import run as bench
from layertrace import Tracer

tracer = Tracer()
tracer.install()
spec = json.loads((root / "BENCHMARK.json").read_text())
timed = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
         if m["name"].endswith((".s", ".ms_p50"))}
seed, report = 0, {}
with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)
    for command in ("datagen", "baseline"):
        assert main(bench.command_argv(command, seed, work, work / command, ())) == 0
    # tail-heavy stands for both train+eval workloads. Its stress checks
    # compare times, so only the sweep's call-count check is run.
    for workload, commands in (("tail-heavy", ("train", "eval")), ("sweep-gamma", ("sweep",))):
        tracer.clear()
        tracer.enabled = True
        codes = [main(bench.command_argv(c, seed, work, work / c, ())) for c in commands]
        tracer.enabled = False
        table = tracer.aggregate()
        checks = bench.stress_checks(workload, tracer, table) if workload == "sweep-gamma" else []
        report[workload] = {
            "codes": codes,
            "problems": [p for c in commands for p in bench.check_outputs(c, work / c, work)],
            "missing": sorted(timed - set(table)),
            "failed_checks": [s["check"] for s in checks if not s["ok"]],
            "ratios": bench.artifact_ratios(workload, work, work, list(tracer.fit_results)),
        }
print(json.dumps(report))
"""


def test_traced_benchmark_layers_are_all_called():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    for workload, group in report.items():
        assert group["codes"] == [0] * len(group["codes"]), workload
        assert group["problems"] == [], workload
        assert group["missing"] == [], f"{workload} never calls {group['missing']}"
        assert group["failed_checks"] == [], workload
        for count, base in group["ratios"].values():
            assert 0 <= count <= base and base > 0, workload
    assert sorted(report) == ["sweep-gamma", "tail-heavy"]

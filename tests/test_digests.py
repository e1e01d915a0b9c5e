"""The bits of a small seeded CLI pipeline, against committed digests.

`datagen`, `baseline`, `train`, `eval`, a γ `sweep` and a K `sweep` run
in-process; the SHA-256 of every file they write, `run.json` aside (it holds
wall times and the git state), must match `digests.json`. OpenBLAS picks its
kernels by CPU, so the bits are only comparable under the numpy version and
the OpenBLAS configuration the file was taken under; anywhere else the test
skips and names both environments.

A change that moves bits regenerates the file in the same commit:

    PYTHONPATH=src python tests/test_digests.py --write
"""

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from alphanet.cli import main

DIGESTS = Path(__file__).with_name("digests.json")


def pipeline(root: Path) -> list[list[str]]:
    """The pipeline under `root`, one argv per command."""
    data, base, run = root / "data", root / "base", root / "run"
    pair = ["--dataset", str(data / "dataset.json"), "--bank", str(base / "bank.json")]
    fit = ["--top-k", "2", "--reduced-dim", "4", "--seed", "3"]
    return [
        ["datagen", "--out-dir", str(data), "--n-classes", "20", "--feature-dim", "16",
         "--head-count", "120", "--tail-count", "4", "--val-per-class", "10",
         "--test-per-class", "10", "--seed", "5"],
        ["baseline", "--dataset", str(data / "dataset.json"), "--out-dir", str(base),
         "--epochs", "8"],
        ["train", *pair, "--out-dir", str(run), "--epochs", "6", *fit],
        ["eval", *pair, "--composed", str(run / "composed.json"),
         "--out-dir", str(root / "eval")],
        ["sweep", *pair, "--out-dir", str(root / "gamma"), "--epochs", "3", *fit,
         "--axis", "gamma", "--grid", "0.4,0.8"],
        ["sweep", *pair, "--out-dir", str(root / "topk"), "--epochs", "3", *fit,
         "--axis", "topk", "--grid", "1,3"],
    ]


def openblas_config() -> str | None:
    """The configuration string of the OpenBLAS that numpy loaded, read from
    the library itself: it names the CPU kernels chosen at run time, which
    `np.show_config` (the build target) does not."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({
                line.split()[-1] for line in fh
                if "openblas" in line and line.split()[-1].startswith("/")
            })
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                       "openblas_get_config"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def environment() -> dict:
    return {"numpy": np.__version__, "openblas": openblas_config()}


def pipeline_digests(root: Path) -> dict[str, str]:
    """Run the pipeline under `root` and return {relative path: SHA-256} of
    every file it wrote except `run.json`."""
    for argv in pipeline(root):
        assert main(argv) == 0, argv
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "run.json"
    }


def test_pipeline_outputs_match_the_committed_digests(tmp_path, capsys):
    recorded = json.loads(DIGESTS.read_text())
    here = environment()
    if here != recorded["environment"]:
        pytest.skip(
            f"digests were taken under {recorded['environment']}, this run has {here}: "
            "output bits not compared"
        )
    digests = pipeline_digests(tmp_path)
    capsys.readouterr()
    moved = sorted(
        name for name in recorded["files"].keys() | digests.keys()
        if recorded["files"].get(name) != digests.get(name)
    )
    assert not moved, f"output bits moved in: {', '.join(moved)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        files = pipeline_digests(Path(tmp))
    payload = {"environment": environment(), "files": files}
    DIGESTS.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}: {len(files)} files")

"""Summarize the run records in perfbench/out/ into one trajectory point.

    python3 perfbench/summarize.py [--label NAME] [--out FILE] [--digests FILE]

For every workload and end-to-end metric it prints the median, the first and
third quartiles of the per-seed values (as `statistics.quantiles(n=4)` gives
them) and their spread as a share of the median, next to the metric's bound.
Per-layer metrics from traced runs are summarized by their median. `--out`
writes the summary as JSON; `--digests` writes the combined output digests of
every workload and seed, which later runs compare their bytes against.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from run import BENCH_DIR, ROOT, combined_digest


def quartiles(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="", help="name of the measured tree, such as a commit")
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--digests", help="write the output digests JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = [json.loads(p.read_text()) for p in sorted((BENCH_DIR / "out").glob("*-seed*-trace*.json"))]
    summary = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    digests: dict = {}
    for w in (w["name"] for w in spec["workloads"]):
        runs = [r for r in records if r["workload"] == w]
        plain = [r for r in runs if not r["trace"]]
        traced = [r for r in runs if r["trace"]]
        entry = {
            "seeds": sorted(r["seed"] for r in plain),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "end_to_end": {},
            "per_layer": {},
            "environment": (plain or traced or [{}])[0].get("environment"),
        }
        print(f"{w}: {len(plain)} runs, {len(traced)} traced, failed {entry['failed']}/{entry['attempted']}")
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in plain]
            if not values:
                continue
            stats = quartiles(values) | {"bound": metric["bound"], "unit": metric["unit"]}
            entry["end_to_end"][metric["name"]] = stats
            print(f"  {metric['name']:12s} median {stats['median']:.6g} {metric['unit']:5s} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f} "
                  f"(bound {metric['bound']}, a third {metric['bound'] / 3:.4f})")
        for metric in spec["per_layer"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in traced]
            if values:
                entry["per_layer"][metric["name"]] = {"median": statistics.median(values), "unit": metric["unit"]}
        entry["stress"] = [c for r in traced for c in r.get("stress", ()) if not c["ok"]]
        summary["workloads"][w] = entry
        digests[w] = {str(r["seed"]): {c: combined_digest(d) for c, d in r["digests"].items()} for r in plain}

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    if args.digests:
        Path(args.digests).write_text(json.dumps({"commit": args.label, "workloads": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

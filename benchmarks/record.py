"""Repeat the benchmark over several seeds and summarize, or record a
BENCH trajectory entry.

    python3 benchmarks/record.py --seeds 1-10
    python3 benchmarks/record.py --seeds 1-10 --trace-seeds 1-2 \\
        --append "label" --commit <git sha of the measured src>

Each run is a fresh `benchmarks/run.py` process, as BENCHMARK.json's
command starts it. For every end-to-end metric the summary gives the
median, the quartiles (statistics.quantiles, n=4) and their distance
as a share of the median, next to the metric's bound from
BENCHMARK.json.
--append adds an entry with the environment, the end-to-end medians
and the per-layer medians to benchmarks/BENCH_trajectory.json.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "benchmarks" / "BENCH_trajectory.json"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    full = json.loads((ROOT / "bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"line": result, "record": full}


def counts_by_kind(counts_per_op: dict) -> dict:
    """Call counts per operation kind (the label before '/'): each
    distinct set of counts with the number of operations that made it."""
    kinds: dict[str, list] = {}
    for label, counts in counts_per_op.items():
        variants = kinds.setdefault(label.split("/")[0], [])
        match = next((v for v in variants if v["counts"] == counts), None)
        if match is None:
            variants.append({"counts": counts, "ops": 1})
        else:
            match["ops"] += 1
    return kinds


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--append", metavar="LABEL")
    parser.add_argument("--commit", default="")
    args = parser.parse_args()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = manifest["run_seconds"]
    entry = {"label": args.append, "src_commit": args.commit,
             "date": datetime.date.today().isoformat(), "run_seconds": seconds,
             "seeds": args.seeds, "trace_seeds": args.trace_seeds, "workloads": {}}
    for name in (w["name"] for w in manifest["workloads"]):
        runs = [run_once(name, seed, seconds, 0) for seed in seed_range(args.seeds)]
        entry.setdefault("env", runs[0]["record"]["env"])
        e2e = {}
        print(f"{name}: {len(runs)} runs")
        for metric in manifest["end_to_end"]:
            key = metric["name"]
            summary = summarize([r["line"]["metrics"][key]["value"] for r in runs])
            summary["unit"] = metric["unit"]
            summary["samples_per_run"] = runs[0]["record"]["metrics"][key]["samples"]
            e2e[key] = summary
            flag = "" if summary["spread"] < metric["bound"] / 3 else "  <-- above bound/3"
            print(f"  {key:18s} median {summary['median']:12.6g} {metric['unit']:6s} "
                  f"spread {summary['spread']:.4f} (bound {metric['bound']}){flag}")
        failed = [r["line"]["failed"] for r in runs]
        print(f"  failed per run: {failed}; correct: {[r['line']['correct'] for r in runs]}")
        checks = [r["record"]["check"] for r in runs]
        workload = {"end_to_end": e2e, "check_failed_share": summarize(
            [(c["refused"] + c["wrong"]) / c["attempted"] for c in checks])}
        if args.trace_seeds:
            traced = [run_once(name, seed, seconds, 1) for seed in seed_range(args.trace_seeds)]
            metrics = traced[0]["record"]["metrics"]
            workload["per_layer"] = {
                key: {"median": statistics.median(t["record"]["metrics"][key]["value"]
                                                  for t in traced)}
                for key in metrics}
            workload["counts_by_kind"] = counts_by_kind(traced[0]["record"]["counts_per_op"])
            workload["digests"] = {"seed": runs[0]["record"]["seed"],
                                   "sha256": runs[0]["record"]["digests"]}
        entry["workloads"][name] = workload
    if args.append:
        trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        trajectory.append(entry)
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
        print(f"appended {args.append!r} to {TRAJECTORY.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of eframes, end to end and per layer.

    python3 benchmarks/run.py --workload cli-tall --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src.
An untimed check pass first runs every operation of one cycle of the
workload once, through the oracle (oracle.py), and measures peak
memory. One client in one process then runs a closed loop over the
operations the library did not refuse in the check pass, repeating
whole cycles until --seconds have passed (always at least one cycle),
again checking every output.

--trace 0 reports the end-to-end metrics: ops_per_s, latency_p50_ms,
latency_tail_ms, peak_mem_mb, ok_share and setup_s. --trace 1 runs an
untraced and then a traced pass, each for half of --seconds, and
reports the per-layer metrics of one cycle plus trace.overhead.

A table of the metrics goes to stdout, followed by one JSON line with
keys correct, attempted, failed and metrics. The full results (with
sample counts, environment, output digests, per-operation call counts
and, when traced, the spans) are written under bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
#: One client in one process: one BLAS thread, so timings do not depend
#: on a second core being idle.
BLAS_THREADS = "1"
#: Seconds of the timed pass between two set-up imports. One import
#: took 0.08 to 0.16 s on the same machine, in spells of a few seconds,
#: so imports spread over the pass give a steadier median than a burst.
SETUP_INTERVAL = 1.5
WORKLOADS = ("cli-tall", "paper-example", "lib-session")


def configure_environment() -> None:
    """Pin BLAS threads and put ./src first; call before importing numpy."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "seed": seed,
    }


def import_seconds() -> float:
    """Time for a fresh interpreter to import eframes."""
    code = "import time; t = time.perf_counter(); import eframes; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.strip())


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 10, 1)  # 1-based rank of the sample with ten above it
    return ordered[rank - 1], 100.0 * rank / n


class Tally:
    """Oracle verdicts of the operations run so far."""

    def __init__(self) -> None:
        self.attempted = self.passed = self.refused = self.wrong = 0
        self.findings: dict[str, dict] = {}
        self.digests: dict[str, set[str]] = {}

    def record(self, op, result, error) -> None:
        from oracle import refused, wrong

        self.attempted += 1
        if error is not None:
            finding = refused(f"{type(error).__name__}: {error}")
        else:
            try:
                finding = op.check(result)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                finding = wrong(f"output not in the documented form: {exc!r}")
            if op.digest:
                digest = hashlib.sha256(result.stdout.encode()).hexdigest()
                self.digests.setdefault(op.label, set()).add(digest)
        if finding is None:
            self.passed += 1
            return
        if finding.kind == "wrong":
            self.wrong += 1
        else:
            self.refused += 1
        seen = self.findings.setdefault(
            op.label, {"kind": finding.kind, "reason": finding.reason, "count": 0})
        seen["count"] += 1

    @property
    def failed(self) -> int:
        return self.refused + self.wrong

    def summary(self) -> dict:
        return {"attempted": self.attempted, "passed": self.passed, "refused": self.refused,
                "wrong": self.wrong, "findings": self.findings}


def call(run) -> tuple[object, Exception | None]:
    try:
        return run(), None
    except Exception as exc:  # a valid input must not raise
        return None, exc


class CheckPass(Tally):
    """One untimed cycle of every operation, before any timed pass. Each
    output goes through the oracle, the operations marked `peak` are
    measured for peak memory, and the pass warms up the timed ones.

    The library's answers are deterministic, so an operation it refuses
    here is refused in every cycle; the timed passes leave it out, and
    the refusal is counted once, in ok_share, instead of once per cycle
    in a count that would follow the run's length."""

    def __init__(self, ops, meter) -> None:
        super().__init__()
        self.peaks: list[int] = []
        for op in ops:
            if op.peak:
                peak, result, error = meter.measure(op.run)
                self.peaks.append(peak)
            else:
                result, error = call(op.run)
            self.record(op, result, error)

    def accepted(self, ops) -> list:
        """The operations that did not end in a refusal."""
        return [op for op in ops
                if self.findings.get(op.label, {}).get("kind") != "refused"]


class Pass(Tally):
    """One closed-loop pass over whole cycles of a workload's operations."""

    def __init__(self, ops, budget: float, tracer=None, min_cycles: int = 1,
                 setup: bool = False) -> None:
        """With setup, import eframes in a fresh interpreter every
        SETUP_INTERVAL seconds, between operations; the imports do not
        count against the budget."""
        super().__init__()
        self.latencies: list[float] = []
        self.setup_times: list[float] = []
        self.per_op: dict[str, list[float]] = {}
        self.cycles = 0
        op_id = 0
        start = last_setup = time.perf_counter()
        while self.cycles < min_cycles or time.perf_counter() - start < budget:
            for op in ops:
                if tracer is not None:
                    tracer.begin_op(op_id, op.label)
                t0 = time.perf_counter()
                result, error = call(op.run)
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.end_op(len(getattr(result, "stdout", "")))
                op_id += 1
                self.latencies.append(t1 - t0)
                self.per_op.setdefault(op.label, []).append(t1 - t0)
                self.record(op, result, error)
                if setup and time.perf_counter() - last_setup >= SETUP_INTERVAL:
                    paused = time.perf_counter()
                    self.setup_times.append(import_seconds())
                    last_setup = time.perf_counter()
                    start += last_setup - paused
            self.cycles += 1
        if setup and not self.setup_times:
            self.setup_times.append(import_seconds())
        self.busy = sum(self.latencies)

    def median_latency_ms(self) -> dict[str, float]:
        return {label: 1e3 * statistics.median(times) for label, times in self.per_op.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> dict:
    """Run one workload and return the results record."""
    import tracing
    import workloads

    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(name, seed, workdir, quick)
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "quick": quick, "env": environment(seed),
                  "ops_per_cycle": len(workload.ops)}
        meter = tracing.PeakMeter()
        with meter.installed():
            checked = CheckPass(workload.ops, meter)
        ops = checked.accepted(workload.ops)
        if not ops:
            raise RuntimeError(f"the library refused every operation of {name}")
        record["check"] = checked.summary()
        metrics: dict[str, dict] = {}
        if not trace:
            import_seconds()  # writes the bytecode cache; not counted
            timed = Pass(ops, seconds, min_cycles=workload.min_cycles, setup=True)
            report = timed
            value, pct = tail(timed.latencies)
            n = timed.attempted
            metrics["ops_per_s"] = {"value": timed.passed / timed.busy, "samples": n}
            metrics["latency_p50_ms"] = {
                "value": 1e3 * statistics.median(timed.latencies), "samples": n}
            metrics["latency_tail_ms"] = {"value": 1e3 * value, "samples": n,
                                          "percentile": round(pct, 2)}
            metrics["peak_mem_mb"] = {"value": max(checked.peaks) / 1e6,
                                      "samples": len(checked.peaks)}
            metrics["ok_share"] = {"value": checked.passed / checked.attempted,
                                   "samples": checked.attempted}
            metrics["setup_s"] = {"value": statistics.median(timed.setup_times),
                                  "samples": len(timed.setup_times)}
            record["latency_ms_per_op"] = timed.median_latency_ms()
            record["digests"] = {label: sorted(d) for label, d in timed.digests.items()}
        else:
            plain = Pass(ops, seconds / 2)
            tracer = tracing.Tracer()
            with tracer.installed():
                report = Pass(ops, seconds / 2, tracer)
            per_cycle = tracer.layer_metrics(report.cycles)
            per_cycle["mapping.build_peak_mb"] = max(meter.build_peaks, default=0) / 1e6
            per_cycle["trace.overhead"] = (
                (report.busy / report.cycles) / (plain.busy / plain.cycles))
            for key, value in per_cycle.items():
                metrics[key] = {"value": value, "samples": report.cycles}
            record["errors_per_layer"] = tracer.errors_per_layer(report.cycles)
            record["counts_per_op"] = tracer.op_counts
            record["count_mismatches"] = tracer.count_mismatches
            record["spans"] = len(tracer.spans)
            spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
            with open(spans_path, "w", encoding="utf-8") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")

        record.update({
            "cycles": report.cycles,
            "attempted": report.attempted,
            "failed": report.failed,
            "refused": report.refused,
            "wrong": report.wrong,
            "findings": report.findings,
            "correct": report.wrong == 0 and checked.wrong == 0,
            "metrics": metrics,
        })
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_table(record: dict, units: dict[str, str]) -> None:
    mode = "per layer, one cycle" if record["trace"] else "end to end"
    print(f"{record['workload']} seed={record['seed']} ({mode}): "
          f"{record['attempted']} ops in {record['cycles']} cycle(s), "
          f"{record['failed']} failed ({record['wrong']} wrong)")
    for name, m in record["metrics"].items():
        extra = f" p{m['percentile']}" if "percentile" in m else ""
        print(f"  {name:32s} {m['value']:>16.6g} {units[name]:6s} n={m['samples']}{extra}")
    check = record["check"]
    print(f"  check pass: {check['passed']} of {check['attempted']} ops passed, "
          f"{check['refused']} refused (left out of the timed passes), {check['wrong']} wrong")
    for label, f in list(check["findings"].items())[:10]:
        print(f"  CHECK {label}: {f['kind']}: {f['reason']}")
    for label, f in list(record["findings"].items())[:10]:
        print(f"  FAIL {label}: {f['kind']} x{f['count']}: {f['reason']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eframes" / "__init__.py").is_file():
        print(f"error: no eframes sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    configure_environment()
    import tracing

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    units = tracing.PER_LAYER_METRICS if args.trace else {
        m["name"]: m["unit"] for m in manifest["end_to_end"]}
    print_table(record, units)
    # The result line carries the metrics BENCHMARK.json declares; the
    # table and the results file carry every metric.
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Self-test of the benchmark at the smallest size of each workload.

    python3 benchmarks/selftest.py

Checks that every metric is emitted, that the oracle rejects
deliberately wrong outputs, that two traced runs give identical call
counts per operation, and that machine output is deterministic.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import sys

import run

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'PASS' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def check_oracle_rejects() -> None:
    import shutil
    from dataclasses import replace

    from eframes.hilbert import SpectralBounds

    import workloads
    from workloads import CliOutput, pairs

    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli = {op.label.split("/")[0]: op
               for op in workloads.build("cli-tall", 7, workdir, quick=True).ops}
        session = {op.label.split("/")[0]: op
                   for op in workloads.build("lib-session", 7, workdir, quick=True).ops[:12]}

        op = cli["dual-canonical"]
        out = op.run()
        expect(op.check(out) is None, "oracle accepts the canonical dual from the CLI")
        report = json.loads(out.stdout)
        scaled = 0.9 * workloads.from_pairs(report["dual"])
        finding = op.check(CliOutput(0, json.dumps(dict(report, dual=pairs(scaled)))))
        expect(finding is not None and finding.kind == "wrong",
               "oracle rejects a 0.9-scaled dual certified as exact")

        op = cli["verify-exact"]
        out = op.run()
        expect(op.check(out) is None, "oracle accepts verify on the exact dual")
        finding = op.check(CliOutput(2, out.stdout))
        expect(finding is not None and finding.kind == "refused",
               "oracle counts exit 2 on the exact dual as a failure")

        op = cli["verify-half"]
        out = op.run()
        expect(op.check(out) is None, "oracle accepts exit 2 on the half dual")
        finding = op.check(CliOutput(0, out.stdout))
        expect(finding is not None and finding.kind == "wrong",
               "oracle rejects a dropped exit-2 case (exit 0 on the half dual)")

        op = workloads.build("paper-example", 7, workdir, quick=True).ops[0]
        out = op.run()
        expect(op.check(out) is None, "oracle accepts the worked example")
        report = json.loads(out.stdout)
        bent = dict(report["residuals"], plain_phi=1e-12)  # still below --tol
        finding = op.check(CliOutput(0, json.dumps(dict(report, residuals=bent))))
        expect(finding is not None and finding.kind == "wrong",
               "oracle rejects a worked-example residual of 1e-12 where the sum is exact")

        op = session["canonical_dual"]
        family = op.run()
        expect(op.check(family) is None, "oracle accepts the library canonical dual")
        finding = op.check(0.9 * family)
        expect(finding is not None and finding.kind == "wrong",
               "oracle rejects a 0.9-scaled canonical dual")

        op = session["e_frame_bounds"]
        record = op.run()
        bad = replace(record, bounds=SpectralBounds(record.bounds.lo, 1.01 * record.bounds.hi))
        finding = op.check(bad)
        expect(finding is not None and finding.kind == "wrong",
               "oracle rejects a frame bound off by 1%")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    run.configure_environment()
    import tracing

    per_layer = set(tracing.PER_LAYER_METRICS)
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    end_to_end = {m["name"] for m in manifest["end_to_end"]}
    expect(all(tracing.PER_LAYER_METRICS.get(m["name"]) == m["unit"]
               for m in manifest["per_layer"]),
           "BENCHMARK.json per-layer metrics are all emitted, with their units")

    for name in [w["name"] for w in manifest["workloads"]]:
        plain = run.run_workload(name, 7, 0.5, trace=False, quick=True)
        expect(set(plain["metrics"]) == end_to_end,
               f"{name}: every end-to-end metric emitted")
        expect(plain["correct"], f"{name}: no wrong output")
        expect(plain["failed"] == 0, f"{name}: no failed operation in the timed pass")
        if name != "lib-session":
            expect(all(len(d) == 1 for d in plain["digests"].values())
                   and len(plain["digests"]) == plain["ops_per_cycle"],
                   f"{name}: one output digest per operation")
        traced = [run.run_workload(name, 7, 0.5, trace=True, quick=True) for _ in range(2)]
        expect(set(traced[0]["metrics"]) == per_layer, f"{name}: every per-layer metric emitted")
        expect(traced[0]["counts_per_op"] == traced[1]["counts_per_op"]
               and not traced[0]["count_mismatches"] and not traced[1]["count_mismatches"],
               f"{name}: call counts identical across two traced runs")

    check_oracle_rejects()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

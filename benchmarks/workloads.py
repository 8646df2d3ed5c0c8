"""The benchmark's workloads: inputs made from a seed, and one cycle of
operations, each with the oracle check for its output.

cli-tall       every CLI command through main() on tall families
               (N >> d): N-dependent work (JSON parse, dense N x N
               mapping build, apply and inverse, N x d rendering)
               dominates; d x d work is negligible.
paper-example  `paper-example --dim D` through main(): no config file
               and no factorization, so it isolates mapping and gallery
               and bypasses config, hilbert and controlled.
lib-session    the README quickstart as individual library calls on
               d x d-dominated shapes: validation, re-application of E
               and repeated factorization dominate; no CLI, no JSON.

Every input file is written before timing starts. No input is redrawn
when the library fails on it: the check pass (run.py) counts each
failure once.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import eframes.cli
from eframes import controlled, eframe, mapping, neumann

import oracle
from oracle import Finding, Reference, expect_exit, refused, wrong

@dataclass
class Op:
    """One operation: run() is timed, check(result) is not."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Finding | None]
    digest: bool = False  # record the sha256 of its machine stdout
    peak: bool = False  # measured for peak memory in the check pass


@dataclass
class Workload:
    name: str
    ops: list[Op]  # one cycle, in order
    min_cycles: int = 1


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str


def run_cli(argv: list[str]) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = eframes.cli.main(argv)  # looked up per call, so tracing sees it
    return CliOutput(code, out.getvalue())


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def pairs(arr: np.ndarray) -> list:
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def from_pairs(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def _report(out: CliOutput, expected_code: int) -> tuple[dict | None, Finding | None]:
    finding = expect_exit(out.code, expected_code)
    if finding is not None:
        return None, finding
    try:
        return json.loads(out.stdout), None
    except json.JSONDecodeError as exc:
        return None, wrong(f"machine output is not JSON: {exc}")


# ------------------------------------------------------------------ cli-tall

CLI_DIM = 16
# N = 4097 and 2049 (bidiagonal) and N = 1025 (banded, a dense SVD per
# command) are left out: their memory-bound N x N work (67 MB per matrix
# at N = 2049) spread by 13-30% from run to run and followed the host's
# drift most, and N = 2049 alone took 55% of a cycle. These sizes fit
# four or more cycles into a run.
CLI_SIZES = (
    ("paper_bidiagonal", 1025),
    ("banded", 513),
)
CLI_RHO = 0.9


def banded_diagonals(rng: np.random.Generator, n: int) -> dict[int, np.ndarray]:
    """Five diagonals; |main| = 5 exceeds the four off-diagonal moduli
    (each at most 1), so the mapping is diagonally dominant."""
    diagonals = {}
    for off in (-2, -1, 1, 2):
        re, im = rng.uniform(-1.0, 1.0, size=(2, n - abs(off)))
        diagonals[off] = (re + 1j * im) / math.sqrt(2)
    diagonals[0] = 5.0 * np.exp(2j * np.pi * rng.uniform(size=n))
    return diagonals


def check_cli_dual(ref: Reference, mode: str, canonical: np.ndarray):
    def check(out: CliOutput) -> Finding | None:
        report, finding = _report(out, 0)
        if finding is not None:
            return finding
        family = from_pairs(report["dual"])
        finding = ref.check_dual(family, f"{mode} dual")
        if finding is None and mode == "canonical":
            finding = ref.check_forward(family, canonical, "canonical dual")
        if finding is None and not report["certificates"][0]["verdict"]:
            finding = wrong("exit 0 with a failing certificate")
        return finding

    return check


def check_cli_analyze(ref: Reference):
    def check(out: CliOutput) -> Finding | None:
        report, finding = _report(out, 0)
        if finding is not None:
            return finding
        e, c = report["eframe"], report["controlled"]
        finding = ref.check_bounds(e["lower"], e["upper"], controlled=False) or (
            ref.check_bounds(c["lower"], c["upper"], controlled=True)
        )
        if finding is not None:
            return finding
        if e["verdict"] != "frame" or c["verdict"] != "controlled-frame":
            return refused(f"verdicts {e['verdict']!r}, {c['verdict']!r} on a frame")
        if report["parseval"] != ref.parseval:
            return wrong(f"parseval {report['parseval']}, expected {ref.parseval}")
        ident = report["identities"]
        return ref.check_identity_errors(
            ident["err_sue_use"], ident["err_commute"], ident["err_switched_sum"]
        )

    return check


def check_cli_verify(exact: bool):
    def check(out: CliOutput) -> Finding | None:
        report, finding = _report(out, 0 if exact else 2)
        if finding is not None:
            return finding
        cert = report["certificates"][0]
        if cert["verdict"] != exact:
            return wrong(f"certificate verdict {cert['verdict']} with exit {out.code}")
        if not exact and not abs(cert["max_residual"] - 0.5) <= 1e-6:
            return wrong(f"half dual residual {cert['max_residual']:.6e}, expected 0.5")
        return None

    return check


def check_cli_neumann(out: CliOutput) -> Finding | None:
    report, finding = _report(out, 0)
    if finding is not None:
        return finding
    # phi = rho * canonical gives id - T_u D* = (1 - rho) id exactly.
    if not abs(report["ratio"] - (1.0 - CLI_RHO)) <= 1e-6:
        return wrong(f"contraction ratio {report['ratio']:.9f}, expected {1 - CLI_RHO}")
    if not (report["converged"] and report["certificates"][0]["verdict"]):
        return wrong("exit 0 without convergence and a passing certificate")
    return None


def cli_tall(seed: int, workdir: Path, quick: bool) -> Workload:
    rng = np.random.default_rng([seed, 1])
    sizes = CLI_SIZES
    if quick:
        sizes = tuple(min((s for s in CLI_SIZES if s[0] == k), key=lambda s: s[1])
                      for k in ("paper_bidiagonal", "banded"))
    # Memory grows with N for every command, so peak memory is measured on
    # the commands of the largest configuration only.
    largest = max(n for _, n in sizes)
    groups = []
    for index, (kind, n) in enumerate(sizes):
        psi = complex_gaussian(rng, (n, CLI_DIM))
        if kind == "paper_bidiagonal":
            spec = {"kind": kind}
            apply = oracle.apply_bidiagonal
        else:
            diagonals = banded_diagonals(rng, n)
            spec = {"kind": kind,
                    "diagonals": {str(k): pairs(v) for k, v in diagonals.items()}}
            apply = lambda seq, diagonals=diagonals: oracle.apply_banded(diagonals, seq)
        u = 0.5 * np.eye(CLI_DIM, dtype=np.complex128)
        ref = Reference(apply, psi, u)
        canonical = ref.canonical_dual()
        # Half the verify configs carry the exact canonical dual (exit 0),
        # half carry 0.5 times it (exit 2).
        exact = index % 2 == 0
        base = {"dimension": CLI_DIM, "count": n, "psi": pairs(psi),
                "mapping": spec, "u": {"kind": "scalar", "value": 0.5}}
        path = workdir / f"cli-{kind}-{n}.json"
        path.write_text(json.dumps(base))
        vpath = workdir / f"cli-{kind}-{n}-phi.json"
        vpath.write_text(json.dumps(dict(base, phi=pairs(canonical if exact else 0.5 * canonical))))

        tag = f"{kind}-{n}"
        fmt = ["--format", "machine"]
        group = [
            ("analyze", ["analyze", str(path)], check_cli_analyze(ref)),
            *(
                (f"dual-{mode}", ["dual", str(path), "--mode", mode],
                 check_cli_dual(ref, mode, canonical))
                for mode in ("canonical", "right-inverse", "offset")
            ),
            (f"verify-{'exact' if exact else 'half'}", ["verify", str(vpath)],
             check_cli_verify(exact)),
            ("neumann", ["neumann", str(path), "--rho", str(CLI_RHO)], check_cli_neumann),
        ]
        groups.append([
            Op(f"{name}/{tag}", lambda argv=argv + fmt: run_cli(argv), check,
               digest=True, peak=n == largest)
            for name, argv, check in group
        ])
    # Commands rotate through the sizes, so a slow spell of the machine
    # is shared by all sizes rather than falling on one of them.
    ops = [op for ops_of_command in zip(*groups) for op in ops_of_command]
    # Four cycles (48 samples) or more hold the median and the tail
    # still; with one or two, they moved by 10-15% between runs.
    return Workload("cli-tall", ops, min_cycles=4)


# ------------------------------------------------------------- paper-example

# dim 1024 took 2.8 s per command on a 2-vCPU Xeon, so the twelve
# cycles the tail needs took 40 s a run; at 768 they take about 20 s.
PAPER_DIMS = (256, 512, 768)
#: The worked example's certificate settings, passed explicitly so the
#: oracle knows the trial vectors without reading the CLI's defaults.
PAPER_TOL = 1e-10
PAPER_TRIALS = 100


def check_paper(dim: int, trial_seed: int):
    reference = oracle.paper_residuals(dim, PAPER_TRIALS, trial_seed)

    def check(out: CliOutput) -> Finding | None:
        report, finding = _report(out, 0)
        if finding is not None:
            return finding
        if (report["dim"], report["count"], report["tol"]) != (dim, dim + 1, PAPER_TOL):
            return wrong(f"reported dim/count/tol {report['dim']}/{report['count']}/{report['tol']}")
        expected = {"plain_psi_tilde": "2f", "controlled_psi_tilde": "f",
                    "plain_phi": "f", "controlled_phi": "f/2"}
        if report["expected"] != expected:
            return wrong(f"expected sums {report['expected']}")
        return oracle.check_paper_residuals(report["residuals"], reference)

    return check


def paper_example(seed: int, workdir: Path, quick: bool) -> Workload:
    # The seed draws the seed of the certificate's trial vectors. Memory
    # grows with dim, so peak memory is measured on the largest only.
    trial_seed = int(np.random.default_rng([seed, 2]).integers(2**31))
    dims = PAPER_DIMS[:1] if quick else PAPER_DIMS
    ops = [
        Op(f"paper-example/{dim}",
           lambda argv=["paper-example", "--dim", str(dim), "--tol", str(PAPER_TOL),
                        "--trials", str(PAPER_TRIALS), "--seed", str(trial_seed),
                        "--format", "machine"]: run_cli(argv),
           check_paper(dim, trial_seed), digest=True, peak=dim == dims[-1])
        for dim in dims
    ]
    # Twelve cycles put the ten samples above the tail among the dim-768
    # runs; with fewer, the tail would jump between sizes from run to run.
    return Workload("paper-example", ops, min_cycles=12)


# --------------------------------------------------------------- lib-session

SESSION_DIMS = (32, 64, 128)


def _session(rng, n, d, kind, u_kind, scale):
    """Inputs and oracle of one session: (E, psi, u, ref, canonical, f, gen_seed)."""
    if kind == "dense":
        grid = complex_gaussian(rng, (n, n))
        e = mapping.build_dense(grid)
        apply = lambda seq, grid=grid: grid @ seq
    else:
        e = mapping.build_bidiagonal(n)
        apply = oracle.apply_bidiagonal
    psi = scale * complex_gaussian(rng, (n, d))
    if u_kind == "half":
        u = 0.5 * np.eye(d, dtype=np.complex128)
    else:
        # a I + b S / ||S|| is Hermitian positive and commutes with S.
        images = apply(psi)
        s = images.T @ images.conj()
        s = (s + s.conj().T) / 2.0
        a, b = rng.uniform(0.25, 1.0, size=2)
        u = a * np.eye(d) + b * s / oracle.spectral_norm(s)
    ref = Reference(apply, psi, u)
    f = complex_gaussian(rng, d)
    return e, psi, u, ref, ref.canonical_dual(), f / np.linalg.norm(f), int(rng.integers(2**31))


def session_ops(e, psi, u, ref, can, f, gen_seed, tag, peak) -> list[Op]:
    def check_bounds(controlled_):
        verdict = "controlled-frame" if controlled_ else "frame"

        def check(record):
            return ref.check_bounds(record.bounds.lo, record.bounds.hi, controlled_) or (
                None if record.verdict == verdict
                else refused(f"verdict {record.verdict!r} on a valid family"))
        return check

    def check_parseval(value):
        if value == ref.parseval:
            return None
        return (wrong if value else refused)(f"is_parseval {value}, expected {ref.parseval}")

    def check_identities(report):
        return ref.check_identity_errors(
            report.err_sue_use, report.err_commute, report.err_switched_sum)

    def check_commutation(value):
        return None if value else refused("commutation criterion false for commuting U")

    def check_canonical(family):
        return ref.check_dual(family, "canonical dual") or (
            ref.check_forward(family, can, "canonical dual"))

    def check_certificates(certs):
        failing = [c.orientation for c in certs if not c.verdict]
        return refused(f"exact dual fails {failing} certificate") if failing else None

    def right_inverse():
        v = controlled.random_right_inverse(e, psi, u, gen_seed)
        return controlled.dual_from_right_inverse(e, psi, u, v)

    def offset():
        v = controlled.random_null_map(e, psi, u, gen_seed)
        family = controlled.dual_with_offset(e, psi, u, v)
        return v, family, controlled.extract_null_map(e, psi, family, u)

    def check_offset(result):
        v, family, recovered = result
        return ref.check_dual(family, "offset dual") or (
            ref.check_forward(recovered, v, "recovered null map"))

    def check_corrected(result):
        family, report = result
        if not report.converged:
            return refused("corrected_dual did not converge")
        return ref.check_dual(family, "corrected dual")

    def check_reconstruct(result):
        approx, report = result
        if not report.converged:
            return refused("iterative_reconstruct did not converge")
        return ref.check_reconstruction(approx, f)

    # Neumann inputs: rho * canonical has contraction ratio 1 - rho. Only
    # ratio 0.5 goes through corrected_dual: at ratio 0.9 it alone took
    # about half of a session and would hide the factorization work.
    half, tenth = 0.5 * can, 0.1 * can
    calls = [
        ("e_frame_bounds", lambda: eframe.e_frame_bounds(e, psi), check_bounds(False)),
        ("controlled_bounds", lambda: controlled.controlled_bounds(e, psi, u), check_bounds(True)),
        ("is_parseval", lambda: controlled.is_parseval(e, psi, u), check_parseval),
        ("identity_errors", lambda: controlled.identity_errors(e, psi, u), check_identities),
        ("commutation_criterion", lambda: controlled.commutation_criterion(e, psi, u),
         check_commutation),
        ("canonical_dual", lambda: controlled.canonical_dual(e, psi, u), check_canonical),
        ("verify_dual", lambda: controlled.verify_dual(e, psi, can, u), check_certificates),
        ("right_inverse", right_inverse, lambda fam: ref.check_dual(fam, "right-inverse dual")),
        ("offset", offset, check_offset),
        ("corrected_dual-0.5", lambda: neumann.corrected_dual(e, psi, half, u), check_corrected),
        ("iterative_reconstruct-0.5",
         lambda: neumann.iterative_reconstruct(e, psi, half, u, f), check_reconstruct),
        ("iterative_reconstruct-0.9",
         lambda: neumann.iterative_reconstruct(e, psi, tenth, u, f), check_reconstruct),
    ]
    return [Op(f"{name}/{tag}", run, check, peak=peak) for name, run, check in calls]


def lib_session(seed: int, workdir: Path, quick: bool) -> Workload:
    dims = SESSION_DIMS[:1] if quick else SESSION_DIMS
    shapes = [(n, d) for d in dims for n in (d + 1, 2 * d)]
    ops = []
    for index, ((n, d), kind, u_kind, scale) in enumerate(itertools.product(
            shapes, ("dense", "bidiagonal"), ("half", "commuting"), (1.0, 1e3))):
        rng = np.random.default_rng([seed, 3, index])
        inputs = _session(rng, n, d, kind, u_kind, scale)
        tag = f"{kind}-{n}x{d}-u_{u_kind}-s{scale:g}"
        ops.extend(session_ops(*inputs, tag, peak=(n, d) == shapes[-1]))
    # The ten samples above the tail come from the slowest operations,
    # the offset duals at (256, 128), of which the check pass keeps two
    # to five, depending on the seed. Six cycles give those at least 12
    # samples, so the tail stays among them; with four it fell between
    # them and the next group (60 against 100 ms) from seed to seed.
    return Workload("lib-session", ops, min_cycles=6)


GENERATORS = {"cli-tall": cli_tall, "paper-example": paper_example, "lib-session": lib_session}


def build(name: str, seed: int, workdir: Path, quick: bool = False) -> Workload:
    """Generate the inputs of a workload from its seed."""
    return GENERATORS[name](seed, workdir, quick)

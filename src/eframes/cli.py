"""Command line interface.

Commands: analyze, dual, verify, neumann, paper-example. Exit codes:
0 success, 1 input or validation error, 2 mathematical-verdict
failure. The machine format is deterministic JSON (no timestamps);
elapsed time is shown in the text format only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from . import controlled, eframe, gallery, neumann
from .config import ConfigError, parse_config
from .errors import (
    ConvergenceError,
    DualConditionError,
    NotAFrameError,
)
from .hilbert import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    DEFAULT_TRIALS,
    require_positive,
    trial_sums,
    trial_vectors,
    worst_residual,
)
from .mapping import apply_mapping

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERDICT = 2


def _sequence_pairs(seq) -> list:
    return np.stack([seq.real, seq.imag], -1).tolist()


def _bounds_dict(record) -> dict:
    """Bounds and verdict of an E-frame or controlled E-frame record."""
    bounds = record.bounds
    return {"lower": bounds.lo, "upper": bounds.hi, "verdict": record.verdict}


def _render_text(report: dict, elapsed: float) -> str:
    lines: list[str] = []

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in value:
                emit(f"{prefix}.{key}" if prefix else str(key), value[key])
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            lines.append(f"{prefix}: <{len(value)} rows>")
        else:
            lines.append(f"{prefix}: {value}")

    emit("", report)
    lines.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(lines)


def _render_machine(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def cmd_analyze(cfg, strict: bool) -> tuple[dict, int]:
    record = controlled.ControlledEFrame(cfg.mapping, cfg.psi, cfg.u, cfg.tol)
    report = {
        "command": "analyze",
        "eframe": _bounds_dict(record.plain),
        "controlled": _bounds_dict(record),
        "parseval": record.is_parseval(),
    }
    if record.verdict == controlled.CONTROLLED_FRAME:
        report["identities"] = asdict(record.identity_errors(cfg.trials, cfg.seed))
    failing = (
        record.plain.verdict != eframe.FRAME
        or record.verdict != controlled.CONTROLLED_FRAME
    )
    return report, EXIT_VERDICT if strict and failing else EXIT_OK


def cmd_dual(cfg, mode: str) -> tuple[dict, int]:
    record = controlled.ControlledEFrame(cfg.mapping, cfg.psi, cfg.u, cfg.tol)
    report: dict = {"command": "dual", "mode": mode}
    code = EXIT_OK
    if mode == "canonical":
        family = record.canonical_dual()
    elif mode == "right-inverse":
        family = record.dual_from_right_inverse(record.random_right_inverse(cfg.seed))
    else:  # offset; argparse restricts the choices
        v = record.random_null_map(cfg.seed)
        family = record.dual_with_offset(v)
    images = record.images_of(family)
    certs = record.certify(images, cfg.trials, cfg.seed)
    if mode == "offset":
        recovered = record.null_map(images, certs[0])
        roundtrip = float(np.linalg.norm(recovered - v) / max(np.linalg.norm(v), 1.0))
        report["null_map_roundtrip"] = roundtrip
        if roundtrip > cfg.tol:
            code = EXIT_VERDICT
    report["dual"] = _sequence_pairs(family)
    report["certificates"] = [asdict(cert) for cert in certs]
    if not certs[0].verdict:
        code = EXIT_VERDICT
    return report, code


def cmd_verify(cfg) -> tuple[dict, int]:
    if cfg.phi is None:
        raise ConfigError("verify requires 'phi' in the configuration")
    record = controlled.ControlledEFrame(cfg.mapping, cfg.psi, cfg.u, cfg.tol)
    certs = record.certify(record.images_of(cfg.phi), cfg.trials, cfg.seed)
    report = {"command": "verify", "certificates": [asdict(cert) for cert in certs]}
    return report, EXIT_OK if certs[0].verdict else EXIT_VERDICT


def cmd_neumann(cfg, rho, eps: float, max_terms: int) -> tuple[dict, int]:
    record = controlled.ControlledEFrame(cfg.mapping, cfg.psi, cfg.u, cfg.tol)
    if rho is not None:
        phi = rho * record.canonical_dual()
    elif cfg.phi is not None:
        phi = cfg.phi
    else:
        raise ConfigError("neumann requires --rho or 'phi' in the configuration")
    report: dict = {"command": "neumann", "eps": eps, "max_terms": max_terms}
    if rho is not None:
        report["rho"] = float(rho)
    pair = neumann.ApproximateDual(record, phi)
    report["ratio"] = pair.ratio
    if pair.ratio >= 1.0:
        report["converged"] = False
        return report, EXIT_VERDICT
    corrected, diag = pair.corrected_dual(eps, max_terms)
    cert_tol = max(cfg.tol, 10.0 * eps / max(1.0 - diag.ratio, 1e-12))
    certs = record.certify(record.images_of(corrected), cfg.trials, cfg.seed, cert_tol)
    report.update(
        {
            "terms_used": diag.terms_used,
            "converged": diag.converged,
            "residual_history": list(diag.residual_history),
            "certificates": [asdict(cert) for cert in certs],
        }
    )
    ok = diag.converged and certs[0].verdict
    return report, EXIT_OK if ok else EXIT_VERDICT


def cmd_paper_example(dim: int, tol=DEFAULT_TOL, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED):
    mapping = gallery.example_mapping(dim)
    u = gallery.example_u(dim)
    images_psi = apply_mapping(mapping, gallery.example_psi(dim))
    images_tilde = apply_mapping(mapping, gallery.example_psi_tilde(dim))
    images_phi = apply_mapping(mapping, gallery.example_phi(dim))
    f = trial_vectors(dim, trials, seed)

    def both_residuals(analysis, synthesis, plain_target, controlled_target):
        plain = trial_sums(synthesis.T, analysis, f)  # U @ plain: the controlled sums
        controlled = worst_residual(u @ plain, f, controlled_target)
        return worst_residual(plain, f, plain_target), controlled

    residuals = dict(zip(
        ("plain_psi_tilde", "controlled_psi_tilde", "plain_phi", "controlled_phi"),
        both_residuals(images_psi, images_tilde, 2.0, 1.0)
        + both_residuals(images_phi, images_psi, 1.0, 0.5),
    ))
    report = {
        "command": "paper-example",
        "dim": dim,
        "count": dim + 1,
        "expected": dict(zip(residuals, ("2f", "f", "f", "f/2"))),
        "residuals": residuals,
        "tol": tol,
    }
    ok = all(value <= tol for value in residuals.values())
    return report, EXIT_OK if ok else EXIT_VERDICT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eframes",
        description="Frame analysis over matrix mappings: bounds, duals, "
        "Neumann correction, and a built-in worked example.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol", type=float, default=None, help="override tolerance")
        p.add_argument(
            "--trials", type=int, default=None, help="random trial vectors per check"
        )
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument(
            "--format",
            choices=("text", "machine"),
            default="text",
            help="report format",
        )

    p_analyze = sub.add_parser("analyze", help="frame and controlled-frame bounds")
    p_analyze.add_argument("config")
    p_analyze.add_argument(
        "--strict", action="store_true", help="exit 2 on a failing verdict"
    )
    common(p_analyze)

    p_dual = sub.add_parser("dual", help="produce and certify a dual family")
    p_dual.add_argument("config")
    p_dual.add_argument(
        "--mode",
        choices=("canonical", "right-inverse", "offset"),
        default="canonical",
    )
    common(p_dual)

    p_verify = sub.add_parser("verify", help="certify the configured phi as a dual")
    p_verify.add_argument("config")
    common(p_verify)

    p_neumann = sub.add_parser("neumann", help="series-correct an approximate dual")
    p_neumann.add_argument("config")
    p_neumann.add_argument(
        "--rho", type=float, default=None, help="scale the canonical dual by rho"
    )
    p_neumann.add_argument("--eps", type=float, default=1e-12)
    p_neumann.add_argument("--max-terms", type=int, default=10_000)
    common(p_neumann)

    p_example = sub.add_parser(
        "paper-example", help="reproduce the built-in worked example"
    )
    p_example.add_argument("--dim", type=int, required=True)
    common(p_example)

    return parser


def _overrides(args) -> dict:
    """The --tol, --trials and --seed flags that were given, checked."""
    overrides = {}
    if args.tol is not None:
        overrides["tol"] = require_positive(args.tol, "--tol")
    if args.trials is not None:
        overrides["trials"] = require_positive(args.trials, "--trials", integer=True)
    if args.seed is not None:
        if args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        overrides["seed"] = args.seed
    return overrides


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for verdict failures
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    start = time.perf_counter()
    try:
        if args.command == "paper-example":
            report, code = cmd_paper_example(args.dim, **_overrides(args))
        else:
            cfg = parse_config(args.config, _overrides(args))
            if args.command == "analyze":
                report, code = cmd_analyze(cfg, args.strict)
            elif args.command == "dual":
                report, code = cmd_dual(cfg, args.mode)
            elif args.command == "verify":
                report, code = cmd_verify(cfg)
            else:
                eps = require_positive(args.eps, "--eps")
                terms = require_positive(args.max_terms, "--max-terms", integer=True)
                report, code = cmd_neumann(cfg, args.rho, eps, terms)
    except (NotAFrameError, DualConditionError, ConvergenceError) as exc:
        print(f"verdict failure: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    elapsed = time.perf_counter() - start
    if args.format == "machine":
        print(_render_machine(report))
    else:
        print(_render_text(report, elapsed))
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Command line interface.

Commands: analyze, dual, verify, neumann, paper-example; main names the command
first in each report. Exit codes: 0 success, 1 input or validation error or a closed
stdout, 2 mathematical-verdict failure. The machine format is deterministic JSON,
byte-identical to json.dumps(report, sort_keys=True, separators=(",", ":")) and
rewritten from orjson's text about 64 KiB at a time; elapsed time is text-only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from dataclasses import asdict

import numpy as np
import orjson

from . import controlled, gallery, neumann
from .config import ConfigError, parse_config
from .errors import ConvergenceError, DualConditionError, NotAFrameError
from .hilbert import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    DEFAULT_TRIALS,
    finite,
    frobenius,
    frozen,
    require_positive,
    require_seed,
    require_tol,
    trial_sums,
    trial_vectors,
    worst_residual,
)
from .mapping import apply_mapping

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERDICT = 2

# orjson prints repr's shortest round-trip digits in another layout: 1e16, 1e-7 and
# 0.00001234 for 1e+16, 1e-07 and 1.234e-05. A leading literal keeps re's fast search.
_ORJSON_OPTIONS = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
_NULL_TOKEN = re.compile(rb"null(?<=[:,\[]null)")  # NaN and +-inf; not a key's "null"
_EXPONENT_SIGN = re.compile(rb"e(?<=[0-9]e)(?=[0-9])")
_EXPONENT_PAD = re.compile(rb"e-(?<=[0-9]e-)(?=[0-9](?![0-9]))")
_BELOW_1E_4 = re.compile(rb"0\.0000(?<![0-9]0\.0000)[0-9]+")
_WINDOW = re.compile(rb".{65536}[^,]*,?|.+", re.S)  # about 64 KiB, cut just after a comma


def _sequence_pairs(seq) -> np.ndarray:
    """seq as a C-contiguous (N, d, 2) float64 array of [re, im] pairs."""
    return np.ascontiguousarray(seq, dtype=complex).view(np.float64).reshape(*seq.shape, 2)


def _render_text(report: dict, elapsed: float) -> str:
    lines: list[str] = []

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in value:
                emit(f"{prefix}.{key}" if prefix else str(key), value[key])
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for index, item in enumerate(value):
                emit(f"{prefix}[{index}]", item)
        elif isinstance(value, np.ndarray):
            lines.append(f"{prefix}: <{len(value)} rows>")
        else:
            lines.append(f"{prefix}: {value}")

    emit("", report)
    lines.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(lines)


def _render_machine(report: dict) -> str:
    """orjson's text with its floats put in repr's layout one window at a time, joined once
    its bytes are freed; or the stdlib's for a non-finite float or an int beyond 64 bits."""
    try:
        data = orjson.dumps(report, option=_ORJSON_OPTIONS)
    except orjson.JSONEncodeError:
        data = None
    if data is None or _NULL_TOKEN.search(data):
        return json.dumps(report, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)
    windows = []
    for window in _WINDOW.finditer(data):
        window = _EXPONENT_PAD.sub(b"e-0", _EXPONENT_SIGN.sub(b"e+", window[0]))
        windows.append(_BELOW_1E_4.sub(lambda m: repr(float(m[0])).encode(), window).decode())
    del data  # free orjson's bytes before the join; the loop rebinds each Match away
    return "".join(windows)


def _overrides(args) -> dict:
    """The --tol, --trials and --seed flags that were given, checked."""
    overrides = {}
    if args.tol is not None:
        overrides["tol"] = require_tol(args.tol, "--tol")
    if args.trials is not None:
        overrides["trials"] = require_positive(args.trials, "--trials", integer=True)
    if args.seed is not None:
        overrides["seed"] = require_seed(args.seed, "--seed")
    return overrides


def cmd_analyze(args) -> tuple[dict, int]:
    cfg = parse_config(args.config, _overrides(args))
    record = controlled.controlled_bounds(
        cfg.mapping, cfg.psi, cfg.u, cfg.tol, cfg.trials, cfg.seed)
    report = {key: {"lower": r.bounds.lo, "upper": r.bounds.hi, "verdict": r.verdict}
              for key, r in (("eframe", record.plain), ("controlled", record))}
    report["parseval"] = record.is_parseval()
    if record.verdict == controlled.CONTROLLED_FRAME:
        report["identities"] = asdict(record.identity_errors())
    ok = (record.plain.verdict, record.verdict) == (controlled.FRAME, controlled.CONTROLLED_FRAME)
    return report, EXIT_VERDICT if args.strict and not ok else EXIT_OK


def cmd_dual(args) -> tuple[dict, int]:
    cfg, mode = parse_config(args.config, _overrides(args)), args.mode
    record = controlled.ControlledEFrame(
        cfg.mapping, cfg.psi, cfg.u, cfg.tol, cfg.trials, cfg.seed)
    report: dict = {"mode": mode}
    if mode == "canonical":
        family = record.canonical_dual()
    elif mode == "right-inverse":
        family = record.dual_from_right_inverse(record.random_right_inverse())
    else:  # offset; argparse restricts the choices
        family = record.dual_with_offset(v := record.random_null_map())
    images = record.images_of(family)
    certs = record.certify(images)
    if mode == "offset":
        recovered = record.null_map(images, certs[0])
        roundtrip = frobenius(recovered - v) / frobenius(images)  # at the family's scale
        report["null_map_roundtrip"] = roundtrip
    report["dual"] = _sequence_pairs(family)
    report["certificates"] = [asdict(cert) for cert in certs]
    ok = certs[0].verdict and not report.get("null_map_roundtrip", 0.0) > cfg.tol
    return report, EXIT_OK if ok else EXIT_VERDICT


def cmd_verify(args) -> tuple[dict, int]:
    cfg = parse_config(args.config, _overrides(args))
    if cfg.phi is None:
        raise ConfigError("verify requires 'phi' in the configuration")
    certs = controlled.verify_dual(
        cfg.mapping, cfg.psi, cfg.phi, cfg.u, cfg.trials, cfg.seed, cfg.tol)
    report = {"certificates": [asdict(cert) for cert in certs]}
    return report, EXIT_OK if certs[0].verdict else EXIT_VERDICT


def cmd_neumann(args) -> tuple[dict, int]:
    rho = args.rho  # the flags are checked before the config is read
    if rho is not None and not math.isfinite(rho):
        raise ValueError(f"--rho must be a finite number, got {rho!r}")
    eps = require_positive(args.eps, "--eps")
    max_terms = require_positive(args.max_terms, "--max-terms", integer=True)
    cfg = parse_config(args.config, _overrides(args))
    record = controlled.ControlledEFrame(
        cfg.mapping, cfg.psi, cfg.u, cfg.tol, cfg.trials, cfg.seed)
    report: dict = {"eps": eps, "max_terms": max_terms}
    if rho is not None:  # frozen, so the pair keeps phi without a copy (hilbert.readonly)
        phi = frozen(finite(np.multiply, rho, record.canonical_dual()))
        report["rho"] = float(rho)
    elif cfg.phi is not None:
        phi = cfg.phi
    else:
        raise ConfigError("neumann requires --rho or 'phi' in the configuration")
    pair = neumann.ApproximateDual(record, phi, eps, max_terms)
    report["ratio"] = pair.ratio
    try:
        corrected, diag = pair.corrected_dual()
    except ConvergenceError:  # the ratio is >= 1: the series diverges
        report["converged"] = False
        return report, EXIT_VERDICT
    cert_tol = max(cfg.tol, 10.0 * eps / max(1.0 - diag.ratio, 1e-12))  # inf for a vast eps
    cert_tol = require_tol(cert_tol, "certificate tolerance from --eps")
    certs = record.certify(record.images_of(corrected), cert_tol)
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
    mapping, f = gallery.example_mapping(dim), trial_vectors(dim, trials, seed)

    def images(family):  # real: the mapping keeps a real family's dtype
        return apply_mapping(mapping, family(dim))

    def both_residuals(analysis, synthesis, target):
        plain = worst_residual(trial_sums(synthesis.T, analysis, f), f, target)
        return plain, gallery.CONTROL_SCALE * plain  # exact: see README's paper-example

    images_psi = images(gallery.example_psi)
    residuals = dict(zip(
        ("plain_psi_tilde", "controlled_psi_tilde", "plain_phi", "controlled_phi"),
        both_residuals(images_psi, images(gallery.example_psi_tilde), 2.0)
        + both_residuals(images(gallery.example_phi), images_psi, 1.0),
    ))
    report = {
        "dim": dim,
        "count": dim + 1,
        "expected": dict(zip(residuals, ("2f", "f", "f", "f/2"))),
        "residuals": residuals,
        "tol": tol,
    }
    ok = all(value <= tol for value in residuals.values())
    return report, EXIT_OK if ok else EXIT_VERDICT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser every main() call shares: it is built once per process. Each
    command's parser names the function that runs it, as its run default."""
    parser = argparse.ArgumentParser(
        prog="eframes",
        description="Frame analysis over matrix mappings: bounds, duals, "
        "Neumann correction, and a built-in worked example.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="override tolerance")
    common.add_argument("--trials", type=int, default=None, help="random trial vectors per check")
    common.add_argument("--seed", type=int, default=None, help="random seed")
    common.add_argument(
        "--format", choices=("text", "machine"), default="text", help="report format")
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    configured.add_argument("config")

    def command(name: str, run, summary: str, parents=(configured,)):
        """The subparser of one command, with the function that runs it as its run."""
        p = sub.add_parser(name, parents=parents, help=summary)
        p.set_defaults(run=run)
        return p

    command("analyze", cmd_analyze, "frame and controlled-frame bounds").add_argument(
        "--strict", action="store_true", help="exit 2 on a failing verdict")
    command("dual", cmd_dual, "produce and certify a dual family").add_argument(
        "--mode", choices=("canonical", "right-inverse", "offset"), default="canonical")
    command("verify", cmd_verify, "certify the configured phi as a dual")
    p_neumann = command("neumann", cmd_neumann, "series-correct an approximate dual")
    p_neumann.add_argument(
        "--rho", type=float, default=None, help="scale the canonical dual by rho")
    p_neumann.add_argument("--eps", type=float, default=1e-12)
    p_neumann.add_argument("--max-terms", type=int, default=10_000)
    command(
        "paper-example",
        lambda args: cmd_paper_example(args.dim, **_overrides(args)),
        "reproduce the built-in worked example",
        parents=(common,),
    ).add_argument("--dim", type=int, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for verdict failures
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    start = time.perf_counter()
    try:
        report, code = args.run(args)
        report = {"command": args.command, **report}
    except (NotAFrameError, DualConditionError) as exc:
        print(f"verdict failure: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (ValueError, OSError, MemoryError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    elapsed = time.perf_counter() - start
    text = _render_machine(report) if args.format == "machine" else _render_text(report, elapsed)
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader closed stdout; stop the exit-time flush from failing too
        sys.stdout = None
        return EXIT_INPUT
    return code

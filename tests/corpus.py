"""A differential CLI corpus: small configurations drawn from the fixed seed SEED,
and the argv lists that run every command, dual mode, flag and format on them.

    python tests/corpus.py --base REV [--head REV]

extracts REV's src/ with git archive (no network) into a temporary directory, as
it does --head's when one is given (by default the working tree's src/ is head).
It writes the corpus once, with this checkout's library, then runs every argv
through eframes.cli.main on each tree, one process per tree. It prints each argv
whose exit code, stdout (the text format's elapsed line masked) or stderr differs,
and a summary; it exits 1 if any differs, else 0. The corpus is fixed: every run
builds the same configurations and argv lists.

The corpus covers the worked example with exact, near, far and wrong duals;
Gaussian families over bidiagonal, banded and dense mappings; a Bessel-only
family; scalar, complex-scalar, identity, commuting Hermitian, non-commuting
Hermitian and non-Hermitian U; a family scaled by 2^-30 and by 1e6, and one whose S_E
underflows or overflows; the worked family over a dense E = 2^1023 (I - L) and over a
banded E = 2^-1022 (I - L); a tol at the floor; malformed configurations; a (2049, 16)
family that the reader takes in many slices, in three layouts, with and without its
dual, and with a short row or a three-number pair in its second slice; and every
flag, valid and not.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CONFIGURED = ("analyze", "dual", "verify", "neumann")  # the commands that read a config
COMMANDS = (*CONFIGURED, "paper-example")
MODES = ("canonical", "right-inverse", "offset")
FORMATS = (["--format", "text"], ["--format", "machine"])
#: the exit codes each command can reach; paper-example's sums are exact, so no
#: admitted tol fails them and it never exits 2
REACHABLE = {command: {0, 1, 2} for command in COMMANDS} | {"paper-example": {0, 1}}
SEED = 0  # of every random family in the corpus
_ELAPSED = re.compile(r"^elapsed: [0-9]+\.[0-9]{3}s$", re.M)


def _pairs(a) -> list:
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _problems() -> dict:
    """name -> (psi, mapping config, mapping, u config, u) of each valid problem."""
    from eframes import controlled, gallery, mapping

    rng = np.random.default_rng(SEED)
    half = ({"kind": "scalar", "value": 0.5}, 0.5 * np.eye(3))
    bidiagonal = {"kind": "paper_bidiagonal"}
    worked = gallery.example_psi(3), bidiagonal, gallery.example_mapping(3)
    diagonals = {0: 4.0 + rng.standard_normal(10), 1: 0.5 * _gaussian(rng, 9),
                 -2: 0.5 * _gaussian(rng, 8)}
    banded = ({"kind": "banded", "diagonals": {str(k): _pairs(v) for k, v in diagonals.items()}},
              mapping.build_banded(10, diagonals))
    entries = np.eye(8) + 0.1 * _gaussian(rng, (8, 8))
    dense = {"kind": "dense", "entries": _pairs(entries)}, mapping.build_dense(entries)
    gauss9 = _gaussian(rng, (9, 3))
    rank_one = np.zeros((9, 3), dtype=complex)
    rank_one[:, 0] = gauss9[:, 0]
    tilted = 0.5 * np.eye(3) + 0.3 * np.eye(3, k=1)
    problems = {
        "worked": (*worked, *half),
        "worked-complex-u": (*worked, {"kind": "scalar", "value": [0.5, 0.25]},
                             (0.5 + 0.25j) * np.eye(3)),
        "bidiagonal": (gauss9, bidiagonal, mapping.build_bidiagonal(9), *half),
        "bidiagonal-4": (_gaussian(np.random.default_rng(SEED), (4, 3)), *worked[1:], *half),
        "banded": (_gaussian(rng, (10, 4)), *banded, {"kind": "identity"}, np.eye(4)),
        "dense": (_gaussian(rng, (8, 3)), *dense, *half),
        "bessel-only": (rank_one, bidiagonal, mapping.build_bidiagonal(9), *half),
        "non-hermitian-u": (gauss9, bidiagonal, mapping.build_bidiagonal(9),
                            {"kind": "dense", "entries": _pairs(tilted)}, tilted),
        "scaled-down": (2.0**-30 * gauss9, bidiagonal, mapping.build_bidiagonal(9), *half),
        "scaled-up": (1e6 * gauss9, bidiagonal, mapping.build_bidiagonal(9), *half),
        "underflowing": (1e-162 * worked[0], *worked[1:], *half),  # S_E leaves the doubles
        "overflowing": (1e154 * worked[0], *worked[1:], *half),
    }
    s_e = controlled.ControlledEFrame(mapping.build_bidiagonal(9), gauss9, np.eye(3)).s_e
    commuting = np.eye(3) + s_e / np.linalg.norm(s_e, 2)  # a polynomial in S_E
    h = _gaussian(rng, (3, 3))
    other = np.eye(3) + 0.2 * (h + h.conj().T)  # Hermitian, positive, not commuting
    for name, u in (("hermitian-u", commuting), ("non-commuting-u", other)):
        u = (u + u.conj().T) / 2
        problems[name] = (gauss9, bidiagonal, mapping.build_bidiagonal(9),
                          {"kind": "dense", "entries": _pairs(u)}, u)
    return problems


def _write(directory: Path, name: str, cfg) -> str:
    path = directory / f"{name}.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    return path.name


def build(directory) -> list[list[str]]:
    """Write the corpus's configurations into directory and return its argv lists,
    whose config paths are relative to directory."""
    from eframes import controlled

    directory = Path(directory)
    argvs: list[list[str]] = [[], ["--help"], ["bogus"], ["analyze"], ["analyze", "--help"],
                              ["analyze", "missing.json"]]
    for name, (psi, mcfg, e, ucfg, u) in _problems().items():
        d = psi.shape[1]
        cfg = {"dimension": d, "count": psi.shape[0], "psi": _pairs(psi), "mapping": mcfg,
               "u": ucfg}
        files = [_write(directory, name, cfg)]
        try:
            record = controlled.ControlledEFrame(e, psi, u)
            valid = record.verdict == controlled.CONTROLLED_FRAME
        except ValueError:  # S_E overflows
            valid = False
        if valid:
            can = record.canonical_dual()
            wrong = _gaussian(np.random.default_rng([SEED, d]), psi.shape)
            for label, phi in (("exact", can), ("near", 0.9 * can), ("far", 2.5 * can),
                               ("wrong", wrong)):
                files.append(_write(directory, f"{name}-{label}", {**cfg, "phi": _pairs(phi)}))
        for path in files:
            for fmt in FORMATS:
                argvs += [["analyze", path, *fmt], ["verify", path, *fmt], ["neumann", path, *fmt]]
                argvs += [["dual", path, "--mode", mode, *fmt] for mode in MODES]
            argvs += [["analyze", path, "--strict"], ["neumann", path, "--rho", "0.9"]]
        for tol in ("1e-17", "2e-16", "1e-14", "1e-6"):  # below the floor, near it, above it
            argvs += [["analyze", files[0], "--strict", "--tol", tol]]
            argvs += [["dual", files[0], "--mode", mode, "--tol", tol] for mode in MODES]
    argvs += _flag_argvs(directory)
    argvs += _extreme_argvs(directory)
    argvs += _tall_argvs(directory)
    argvs += [["paper-example", "--dim", dim, *fmt] for dim in ("3", "4", "16") for fmt in FORMATS]
    argvs += [["paper-example", "--dim", "3", *flags] for flags in (
        ["--tol", "1e-6"], ["--tol", "3.56e-15"], ["--tol", "1e-17"], ["--trials", "5"],
        ["--seed", "9"],
        ["--tol", "0"], ["--trials", "0"], ["--seed", "-1"])]
    argvs += [["paper-example", "--dim", dim] for dim in ("1", "0", "x")] + [["paper-example"]]
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]  # each once, in order


def _flag_argvs(directory: Path) -> list[list[str]]:
    """Every flag on the worked example and its near dual, valid and not, and the
    malformed configurations under every configured command."""
    argvs = []
    for path in ("worked.json", "worked-near.json"):
        for flags in (["--tol", "1e-6"], ["--tol", "3.56e-15"], ["--tol", "1e-14"],
                      ["--trials", "3"], ["--seed", "5"], ["--trials", "1", "--seed", "0"],
                      ["--tol", "0"], ["--tol", "1e-17"], ["--tol", "2e-16"], ["--tol", "1"],
                      ["--tol", "1e300"],
                      ["--tol", "nan"], ["--trials", "0"],
                      ["--trials", "2.5"], ["--seed", "-1"], ["--bogus"]):
            argvs += [[command, path, *flags] for command in CONFIGURED]
            argvs.append(["dual", path, "--mode", "offset", *flags])
        argvs += [["neumann", path, *flags] for flags in (
            ["--rho", "0.5"], ["--rho", "2"], ["--rho", "0"], ["--rho", "1e308"],
            ["--rho", "nan"], ["--rho", "inf"], ["--eps", "1e-6"], ["--eps", "0.5"],
            ["--eps", "0"], ["--eps", "1e308"], ["--max-terms", "2"], ["--max-terms", "0"],
            ["--max-terms", "2.5"], ["--rho", "0.9", "--eps", "1e-8", "--max-terms", "100"])]
        argvs += [["dual", path, "--mode", "bogus"],
                  ["analyze", path, "--strict", "--tol", "1e-6"]]
    floor = json.loads((directory / "bidiagonal.json").read_text())
    argvs += [[command, _write(directory, "floor-tol", {**floor, "tol": 2.0**-48})]
              for command in CONFIGURED]
    argvs += [["dual", "floor-tol.json", "--mode", mode] for mode in MODES[1:]]
    worked = json.loads((directory / "worked.json").read_text())
    malformed = {
        "not-json": "{not json",
        "top-list": "[1, 2]",
        "no-psi": {k: v for k, v in worked.items() if k != "psi"},
        "bad-count": {**worked, "count": 5},
        "bad-kind": {**worked, "mapping": {"kind": "nope"}},
        "bad-u": {**worked, "u": {"kind": "dense", "entries": [[[1, 0]]]}},
        "bad-phi": {**worked, "phi": worked["psi"][:2]},
        "unknown-key": {**worked, "extra": 1},
        "tol-0": {**worked, "tol": 0},
        "tol-1": {**worked, "tol": 1},
        "seed-negative": {**worked, "seed": -3},
        "trials-0": {**worked, "trials": 0},
        "string-entry": {**worked, "psi": [[["1", 0]] * 3] * 4},
        "nested": '{"psi": ' + "[" * 100 + "]" * 100 + "}",
    }
    for name, cfg in malformed.items():
        argvs += [[command, _write(directory, name, cfg)] for command in CONFIGURED]
    return argvs


def _extreme_argvs(directory: Path) -> list[list[str]]:
    """analyze --strict and every dual mode on the worked family at the ends of the
    double range: 2^-1023 psi over a dense E = 2^1023 (I - L), and 2^1022 psi over a
    banded E = 2^-1022 (I - L), L the shift down, so that E psi is the worked images."""
    from eframes import gallery

    worked, t = json.loads((directory / "worked.json").read_text()), 2.0**-1022
    extremes = {
        "dense-2^1023": (2.0**-1023, {"kind": "dense", "entries": _pairs(
            2.0**1023 * (np.eye(4) - np.eye(4, k=-1)))}),
        "banded-2^-1022": (2.0**1022, {"kind": "banded", "diagonals": {
            "0": _pairs([t] * 4), "-1": _pairs([-t] * 3)}}),
    }
    argvs = []
    for name, (scale, mcfg) in extremes.items():
        psi = _pairs(scale * gallery.example_psi(3))
        path = _write(directory, name, {**worked, "psi": psi, "mapping": mcfg})
        argvs += [["analyze", path, "--strict"]]
        argvs += [["dual", path, "--mode", mode] for mode in MODES]
    return argvs


def _tall_argvs(directory: Path) -> list[list[str]]:
    """A Gaussian (2049, 16) family over the bidiagonal mapping with U = I/2, which the
    reader takes in about 20 slices, in three layouts, with and without its canonical
    dual; the same config with row 120 (in its second slice in each layout) one pair
    short, or its first pair three numbers long; and a (1025, 16) offset dual at a
    tol below the floor."""
    from eframes import controlled, mapping

    psi = _gaussian(np.random.default_rng(SEED), (2049, 16))
    cfg = {"dimension": 16, "count": 2049, "psi": _pairs(psi),
           "mapping": {"kind": "paper_bidiagonal"}, "u": {"kind": "scalar", "value": 0.5}}
    record = controlled.ControlledEFrame(mapping.build_bidiagonal(2049), psi, 0.5 * np.eye(16))
    layouts = {"default": {}, "indent": {"indent": 1}, "compact": {"separators": (",", ":")}}
    argvs, with_phi = [], {**cfg, "phi": _pairs(record.canonical_dual())}
    for name, layout in layouts.items():
        path = _write(directory, f"tall-{name}", json.dumps(cfg, **layout))
        argvs.append(["analyze", path, "--format", "machine"])
        argvs.append(["verify", _write(directory, f"tall-{name}-phi", json.dumps(with_phi, **layout)),
                      "--format", "machine"])
    short, long = _pairs(psi), _pairs(psi)
    short[120], long[120][0] = short[120][:-1], long[120][0] + [0.0]
    for name, rows in (("tall-short-row", short), ("tall-three-number-pair", long)):
        argvs.append(["analyze", _write(directory, name, {**cfg, "psi": rows})])
    wide = _gaussian(np.random.default_rng(SEED), (1025, 16))
    path = _write(directory, "tall-1025", {**cfg, "count": 1025, "psi": _pairs(wide)})
    return argvs + [["dual", path, "--mode", "offset", "--tol", "1e-15"]]


def run_all(argvs) -> list[list]:
    """[exit code, stdout with elapsed masked, stderr] of each argv through main; an
    exception main lets escape is its code "raised" and its type and text."""
    from eframes.cli import main

    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except Exception as exc:  # a tree's fault is a difference; its traceback's
                # paths would differ between trees, so only its type and text are kept
                code = "raised"
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        results.append([code, _ELAPSED.sub("elapsed: <masked>", out.getvalue()), err.getvalue()])
    return results


def run_tree(src, directory, argvs) -> list[list]:
    """run_all in a fresh process that imports eframes from src, in directory."""
    directory = Path(directory)
    (directory / "argv.json").write_text(json.dumps(argvs))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "COLUMNS": "80"}
    child = [sys.executable, str(Path(__file__).resolve()), "--run", str(Path(src).resolve())]
    subprocess.run(child, cwd=directory, env=env, check=True)
    return json.loads((directory / "results.json").read_text())


def extract(rev: str, into) -> Path:
    """rev's src/ through git archive, extracted under into."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return Path(into) / "src"


def differences(argvs, base, head) -> list[str]:
    """One report per argv whose exit code, stdout or stderr differs."""
    lines = []
    for argv, a, b in zip(argvs, base, head):
        parts = [f"exit {a[0]} -> {b[0]}"] if a[0] != b[0] else []
        for label, x, y in (("stdout", a[1], b[1]), ("stderr", a[2], b[2])):
            if x != y:
                old, new = x.splitlines(keepends=True), y.splitlines(keepends=True)
                size = max(len(old), len(new))  # the shorter side reads '' past its end
                old, new = old + [""] * (size - len(old)), new + [""] * (size - len(new))
                at = next(i for i, pair in enumerate(zip(old, new)) if pair[0] != pair[1])
                parts.append(f"{label} line {at + 1}: {old[at][:120]!r} -> {new[at][:120]!r}")
        if parts:
            lines.append(f"{' '.join(argv)}: " + "; ".join(parts))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="revision to compare with")
    parser.add_argument("--head", help="revision to run instead of the working tree's src/")
    parser.add_argument("--run", help=argparse.SUPPRESS)  # child: src to import eframes from
    args = parser.parse_args(argv)
    if args.run:
        sys.path.insert(0, args.run)
        import eframes

        if not Path(eframes.__file__).resolve().is_relative_to(args.run):
            sys.exit(f"eframes was imported from {eframes.__file__}, not from {args.run}")
        results = run_all(json.loads(Path("argv.json").read_text()))
        Path("results.json").write_text(json.dumps(results))
        return 0
    if not args.base:
        parser.error("--base is required")
    with tempfile.TemporaryDirectory(prefix="eframes-corpus-") as tmp:
        tmp = Path(tmp)
        corpus, trees = tmp / "corpus", {}
        corpus.mkdir()
        argvs = build(corpus)
        for side, rev in (("base", args.base), ("head", args.head)):
            (tmp / side).mkdir()
            src = extract(rev, tmp / side) if rev else ROOT / "src"
            trees[side] = run_tree(src, corpus, argvs)
    found = differences(argvs, trees["base"], trees["head"])
    for line in found:
        print(line)
    codes = [result[0] for result in trees["head"]]
    counts = ", ".join(f"exit {c}: {codes.count(c)}" for c in sorted(set(codes), key=str))
    print(f"{len(argvs)} invocations ({counts}); {len(found)} differ "
          f"between {args.base} and {args.head or 'the working tree'}")
    return 1 if found else 0


if __name__ == "__main__":
    if "--run" not in sys.argv:
        sys.path.insert(0, str(ROOT / "src"))  # the corpus is built with this checkout
    sys.exit(main())

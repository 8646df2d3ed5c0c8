"""Problem configuration: JSON ingestion with [re, im] complex pairs.

Schema (all complex entries are two-element [re, im] arrays):

    dimension  int                  space dimension d
    count      int                  sequence length N
    psi        N x d pairs          the analyzed family
    mapping    {"kind": "dense", "entries": N x N pairs}
               {"kind": "paper_bidiagonal"}
               {"kind": "banded", "diagonals": {offset: pairs}}
    u          {"kind": "identity"}
               {"kind": "scalar", "value": number | pair}
               {"kind": "dense", "entries": d x d pairs}
    phi        optional N x d pairs, candidate dual
    tol, trials, seed   optional numeric overrides
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SingularOperatorError
from .hilbert import DEFAULT_TOL
from .mapping import MatrixMapping, build_banded, build_bidiagonal, build_dense

DEFAULT_TRIALS = 100
DEFAULT_SEED = 42

_TOP_KEYS = {"dimension", "count", "psi", "mapping", "u", "phi", "tol", "trials", "seed"}


class ConfigError(ValueError):
    """Malformed or inconsistent problem configuration."""


@dataclass(frozen=True)
class ProblemConfig:
    dimension: int
    count: int
    psi: np.ndarray
    mapping: MatrixMapping
    u: np.ndarray
    phi: np.ndarray | None
    tol: float
    trials: int
    seed: int


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _complex_entry(x, where: str) -> complex:
    if not (isinstance(x, (list, tuple)) and len(x) == 2 and all(_is_number(t) for t in x)):
        raise ConfigError(f"{where}: complex entries must be [re, im] pairs, got {x!r}")
    return complex(x[0], x[1])


def _complex_matrix(rows, nrows: int, ncols: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != nrows:
        raise ConfigError(f"{where}: expected {nrows} rows")
    out = np.zeros((nrows, ncols), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ncols:
            raise ConfigError(f"{where}: row {i} must have {ncols} entries")
        for j, entry in enumerate(row):
            out[i, j] = _complex_entry(entry, f"{where}[{i}][{j}]")
    return out


def require_positive(raw, name: str, integer: bool = False):
    """raw as a float, or an int when integer is set, if it is a finite number > 0.

    Raises ConfigError for anything else: a bool, a non-number, NaN, an
    infinity, or a value <= 0.
    """
    kinds = int if integer else (int, float)
    if isinstance(raw, bool) or not isinstance(raw, kinds) or not 0 < raw < math.inf:
        kind = "integer" if integer else "number"
        raise ConfigError(f"{name} must be a finite positive {kind}, got {raw!r}")
    return int(raw) if integer else float(raw)


def _build_mapping(spec, count: int, tol: float) -> MatrixMapping:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("'mapping' must be an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "dense":
            entries = _complex_matrix(
                spec.get("entries"), count, count, "mapping.entries"
            )
            return build_dense(entries, tol)
        if kind == "paper_bidiagonal":
            return build_bidiagonal(count)
        if kind == "banded":
            diagonals = spec.get("diagonals")
            if not isinstance(diagonals, dict):
                raise ConfigError("mapping.diagonals must be an object")
            parsed = {}
            for off, vals in diagonals.items():
                try:
                    off_int = int(off)
                except (TypeError, ValueError):
                    raise ConfigError(f"bad diagonal offset {off!r}") from None
                if not isinstance(vals, list):
                    raise ConfigError(f"diagonal {off} must be a list of pairs")
                parsed[off_int] = [
                    _complex_entry(v, f"mapping.diagonals[{off}]") for v in vals
                ]
            return build_banded(count, parsed, tol)
    except DimensionMismatchError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown mapping kind {kind!r}")


def _build_u(spec, dim: int) -> np.ndarray:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("'u' must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "identity":
        return np.eye(dim, dtype=np.complex128)
    if kind == "scalar":
        value = spec.get("value")
        if _is_number(value):
            scale = complex(value)
        else:
            scale = _complex_entry(value, "u.value")
        return scale * np.eye(dim, dtype=np.complex128)
    if kind == "dense":
        return _complex_matrix(spec.get("entries"), dim, dim, "u.entries")
    raise ConfigError(f"unknown control operator kind {kind!r}")


def parse_config(path) -> ProblemConfig:
    """Load and validate a problem configuration file.

    Raises ConfigError on malformed input and SingularOperatorError
    when the declared mapping cannot be inverted.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    for key in ("dimension", "count", "psi", "mapping", "u"):
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")

    dimension = require_positive(raw["dimension"], "'dimension'", integer=True)
    count = require_positive(raw["count"], "'count'", integer=True)
    psi = _complex_matrix(raw["psi"], count, dimension, "psi")

    tol = require_positive(raw.get("tol", DEFAULT_TOL), "'tol'")
    trials = raw.get("trials", DEFAULT_TRIALS)
    trials = require_positive(trials, "'trials'", integer=True)
    seed = raw.get("seed", DEFAULT_SEED)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"'seed' must be an integer, got {seed!r}")

    mapping = _build_mapping(raw["mapping"], count, tol)
    u = _build_u(raw["u"], dimension)
    phi = None
    if raw.get("phi") is not None:
        phi = _complex_matrix(raw["phi"], count, dimension, "phi")

    return ProblemConfig(
        dimension=dimension,
        count=count,
        psi=psi,
        mapping=mapping,
        u=u,
        phi=phi,
        tol=tol,
        trials=trials,
        seed=seed,
    )

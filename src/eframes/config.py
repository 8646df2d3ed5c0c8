"""Problem configuration: JSON ingestion with [re, im] complex pairs.

Schema (each complex entry is an [re, im] pair of JSON numbers: not
booleans, strings or null; an integer beyond double range is an error):

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
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .hilbert import DEFAULT_SEED, DEFAULT_TOL, DEFAULT_TRIALS, require_positive
from .mapping import MatrixMapping, build_banded, build_bidiagonal, build_dense

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


def _complex_array(raw, shape: tuple, where: str) -> np.ndarray:
    """raw, an array of the given shape of [re, im] pairs, as complex128.

    Raises ConfigError for a part that is not an int or a float (a bool,
    string or null, say) and for an integer beyond the range of a double.
    """
    full = (*shape, 2)
    expected = f"expected [re, im] pairs of JSON numbers, shape {full}"
    arr = np.array(raw, dtype=object)
    if arr.shape != full:
        raise ConfigError(f"{where}: {expected}, got shape {arr.shape}")
    if not set(map(type, arr.flat)) <= {int, float}:
        index = next(i for i in np.ndindex(full) if type(arr[i]) not in (int, float))
        at = "".join(f"[{i}]" for i in index[:-1])
        raise ConfigError(f"{where}{at}: {expected}, got {arr[index[:-1]].tolist()!r}")
    try:
        parts = arr.astype(np.float64)
    except OverflowError:
        raise ConfigError(f"{where}: an integer is beyond double range") from None
    return parts.view(np.complex128).reshape(shape)


def _build_mapping(spec, count: int, tol: float) -> MatrixMapping:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("'mapping' must be an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "dense":
            entries = _complex_array(spec.get("entries"), (count, count), "mapping.entries")
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
                    int(off)
                except ValueError:
                    raise ConfigError(f"bad diagonal offset {off!r}") from None
                if not isinstance(vals, list):
                    raise ConfigError(f"diagonal {off} must be a list of pairs")
                where = f"mapping.diagonals[{off}]"
                parsed[off] = _complex_array(vals, (len(vals),), where)
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
        pair = [value, 0] if type(value) in (int, float) else value
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0; spurious overflow
            return _complex_array(pair, (), "u.value") * np.eye(dim, dtype=np.complex128)
    if kind == "dense":
        return _complex_array(spec.get("entries"), (dim, dim), "u.entries")
    raise ConfigError(f"unknown control operator kind {kind!r}")


def parse_config(path, overrides=None) -> ProblemConfig:
    """Load and validate a problem configuration file. overrides, the checked
    --tol, --trials and --seed flags, replace the file's values before anything
    is parsed or built. Raises ConfigError on malformed input and
    SingularOperatorError when the declared mapping cannot be inverted.
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
    raw.update(overrides or {})

    try:
        dimension = require_positive(raw["dimension"], "'dimension'", integer=True)
        count = require_positive(raw["count"], "'count'", integer=True)
        tol = require_positive(raw.get("tol", DEFAULT_TOL), "'tol'")
        trials = raw.get("trials", DEFAULT_TRIALS)
        trials = require_positive(trials, "'trials'", integer=True)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    seed = raw.get("seed", DEFAULT_SEED)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"'seed' must be a non-negative integer, got {seed!r}")
    psi = _complex_array(raw["psi"], (count, dimension), "psi")

    mapping = _build_mapping(raw["mapping"], count, tol)
    u = _build_u(raw["u"], dimension)
    phi = None
    if raw.get("phi") is not None:
        phi = _complex_array(raw["phi"], (count, dimension), "phi")

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

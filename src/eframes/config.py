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
import os
import re
from dataclasses import dataclass

import numpy as np
import orjson

from .errors import DimensionMismatchError
from .hilbert import DEFAULT_SEED, DEFAULT_TOL, DEFAULT_TRIALS
from .hilbert import require_positive, require_seed
from .mapping import MatrixMapping, build_banded, build_bidiagonal, build_dense

_TOP_KEYS = {"dimension", "count", "psi", "mapping", "u", "phi", "tol", "trials", "seed"}
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b'[]{}"\\')))
_DEPTH_STEPS = bytes.maketrans(b'[{]}"', b"\x01\x01\xff\xff\x00")  # read as int8
_FAST_DEPTH = 8  # the schema nests 5 deep; orjson itself recurses without a limit


class ConfigError(ValueError):
    """Malformed or inconsistent problem configuration."""


@dataclass(frozen=True)
class ProblemConfig:
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


def _fast_json(path):
    """The regular file at path as orjson reads it, or None where the stdlib
    reader must decide: a pipe (it reads once), a string escape, nesting beyond
    _FAST_DEPTH and whatever orjson refuses (NaN, 1e400, a BOM, a syntax error).
    """
    if not os.path.isfile(path):
        return None
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    marks = data.translate(None, _NOT_MARKS)  # an escape would hide a string's end
    steps = re.sub(rb'"[^"]*"', b"", marks).translate(_DEPTH_STEPS)
    if b"\\" in marks or np.frombuffer(steps, np.int8).cumsum().max(initial=0) > _FAST_DEPTH:
        return None
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        return None


def parse_config(path, overrides=None) -> ProblemConfig:
    """Load and validate a problem configuration file. overrides, the checked
    --tol, --trials and --seed flags, replace the file's values before anything
    is parsed or built. Raises ConfigError on malformed input and
    SingularOperatorError when the declared mapping cannot be inverted.
    orjson reads the file when it can, but the stdlib reader decides every
    error: orjson reads an integer beyond 64 bits as a float, for one.
    """
    raw = _fast_json(path)
    if raw is not None:
        try:
            return _problem(raw, overrides)
        except ValueError:
            pass
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError("configuration is nested too deeply to parse") from None
    return _problem(raw, overrides)


def _problem(raw, overrides) -> ProblemConfig:
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
        seed = require_seed(raw.get("seed", DEFAULT_SEED), "'seed'")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    psi = _complex_array(raw["psi"], (count, dimension), "psi")

    mapping = _build_mapping(raw["mapping"], count, tol)
    u = _build_u(raw["u"], dimension)
    phi = None
    if raw.get("phi") is not None:
        phi = _complex_array(raw["phi"], (count, dimension), "phi")

    return ProblemConfig(
        psi=psi, mapping=mapping, u=u, phi=phi, tol=tol, trials=trials, seed=seed
    )

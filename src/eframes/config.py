"""Problem configuration: JSON with [re, im] complex pairs, each array read in slices
into a read-only array, which a record keeps without a copy (hilbert.readonly).

Each slice of about 64 KiB of rows must match one exact template, its first element's
brackets and commas repeated; orjson reads its numbers as one flat list. The stdlib
reader reads all else and alone decides every error (orjson reads 2**64 as a float).

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
from .hilbert import frozen, require_positive, require_seed, require_tol
from .mapping import MatrixMapping, build_banded, build_bidiagonal, build_dense

_TOP_KEYS = {"dimension", "count", "psi", "mapping", "u", "phi", "tol", "trials", "seed"}
_ARRAY = re.compile(rb":[ \t\r\n]*(?=\[)")  # a member's colon, before an array value
_ROW_END = re.compile(rb"\][ \t\r\n]*\][ \t\r\n]*,(?=[ \t\r\n]*\[)")  # pair, row, comma, row
_ZEROS = bytes.maketrans(b"0123456789.eE+-", b"0" * 15)  # each number byte to a "0"
_BRACKETS, _SLICE = bytes.maketrans(b"[]", b"  "), 1 << 16  # _SLICE: bytes per orjson call


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
    """raw, [re, im] pairs of the given shape as the stdlib or _read_rows reads them, as
    complex128, read-only down to its owner. ConfigError for a part that is not an int or
    a float (a bool, string or null, say) and for an integer beyond double range."""
    full = (*shape, 2)
    expected = f"expected [re, im] pairs of JSON numbers, shape {full}"
    arr = raw if isinstance(raw, np.ndarray) else np.array(raw, dtype=object)
    if arr.shape != full:
        raise ConfigError(f"{where}: {expected}, got shape {arr.shape}")
    if arr.dtype == object and not set(map(type, arr.flat)) <= {int, float}:
        index = next(i for i in np.ndindex(full) if type(arr[i]) not in (int, float))
        at = "".join(f"[{i}]" for i in index[:-1])
        raise ConfigError(f"{where}{at}: {expected}, got {arr[index[:-1]].tolist()!r}")
    try:
        parts = arr.astype(np.float64, copy=False)
    except OverflowError:
        raise ConfigError(f"{where}: an integer is beyond double range") from None
    return frozen(parts).view(np.complex128).reshape(shape)


def _read_rows(data: bytes, start: int, stop: int) -> np.ndarray:
    """The float64 array in data[start:stop], read _SLICE bytes of whole rows at a time;
    ValueError unless it is not empty and each slice, without whitespace and with each
    number as "0"s, holds no "]0" or "0[" and, once the "0"s go, is count copies of its
    first element's template, comma-joined: b"" for a number, b"[,]" for a pair and
    b"[[,],[,]]" for a row of two; never deeper. orjson reads the numbers flat."""
    blocks, at = [], start + 1
    while at < stop - 1:
        cut = _ROW_END.search(data, at + _SLICE, stop - 1)
        end = cut.end() - 1 if cut else stop - 1  # the comma after a row, or the last "]"
        bare = data[at:end].translate(_ZEROS, b" \t\r\n")
        codes, marks = np.frombuffer(bare, np.uint8), bare.translate(None, b"0")
        depth, shape, item = marks[:2].count(b"["), [], b""  # a deeper element fits no template
        for level in range(1, depth + 1):  # the first element's lists, innermost first
            shape.insert(0, (marks.find(b"]" * level) + 2 * level - depth - 1) // (len(item) + 1))
            item = b"[%b]" % b",".join([item] * shape[0])
        count, zero = (len(marks) + 1) // (len(item) + 1), codes == ord("0")
        if marks != b",".join([item] * count) or (zero[1:] & (codes[:-1] == ord("]"))).any() \
                or (zero[:-1] & (codes[1:] == ord("["))).any():  # as in "[1, ]2" or "2[, 1]"
            raise ValueError("not number text in one template")
        flat = orjson.loads(b"[%b]" % data[at:end].translate(_BRACKETS))
        blocks.append(np.array(flat, np.float64).reshape(count, *shape))
        at = end + 1
    return np.concatenate(blocks)


def _kind(spec, key: str):
    """The 'kind' of spec, if it is an object with one; else ConfigError naming key."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"'{key}' must be an object with a 'kind'")
    return spec["kind"]


def _build_mapping(spec, count: int, tol: float) -> MatrixMapping:
    kind = _kind(spec, "mapping")
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
                if not isinstance(vals, (list, np.ndarray)):
                    raise ConfigError(f"diagonal {off} must be a list of pairs")
                parsed[off] = _complex_array(vals, (len(vals),), f"mapping.diagonals[{off}]")
            return build_banded(count, parsed, tol)
    except DimensionMismatchError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown mapping kind {kind!r}")


def _build_u(spec, dim: int) -> np.ndarray:
    kind = _kind(spec, "u")
    if kind == "identity":
        return frozen(np.eye(dim, dtype=np.complex128))
    if kind == "scalar":
        value = spec.get("value")
        pair = [value, 0] if type(value) in (int, float) else value
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0; spurious overflow
            return frozen(_complex_array(pair, (), "u.value") * np.eye(dim, dtype=np.complex128))
    if kind == "dense":
        return _complex_array(spec.get("entries"), (dim, dim), "u.entries")
    raise ConfigError(f"unknown control operator kind {kind!r}")


def _fast_json(path):
    """The regular file at path as the stdlib reads it, with each member array a
    float64 array, or None where the stdlib reader must decide: a pipe (it reads
    once), a string escape, or anything _read_rows or json.loads refuses. Each
    member array is cut out and read by _read_rows; json.loads reads the few hundred
    bytes left, where the object hook puts the k-th array back for "\\u0000<k>"."""
    if not os.path.isfile(path):
        return None
    arrays, parts, at = [], [], 0
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        if b"\\" in data:  # so no string in the file equals a placeholder
            return None
        for colon in _ARRAY.finditer(data):  # a cut array holds no ":", so none starts in one
            start = colon.end()
            stop = data.rfind(b"]", start, data.find(b'"', start)) + 1  # find's -1: to a last "}"
            parts += data[at:start], b'"\\u0000%d"' % len(arrays)
            arrays.append(_read_rows(data, start, stop))
            at = stop
        parts.append(data[at:])
        return json.loads(b"".join(parts).decode(), object_hook=lambda obj: {
            key: arrays[int(value[1:])] if isinstance(value, str) and value[:1] == "\0" else value
            for key, value in obj.items()})
    except (OSError, ValueError, RecursionError):
        return None


def parse_config(path, overrides=None) -> ProblemConfig:
    """Load and validate a problem configuration file. overrides, the checked
    --tol, --trials and --seed flags, replace the file's values before anything
    is parsed or built. Raises ConfigError on malformed input and
    SingularOperatorError when the declared mapping cannot be inverted.
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
        tol = require_tol(raw.get("tol", DEFAULT_TOL), "'tol'")
        trials = require_positive(raw.get("trials", DEFAULT_TRIALS), "'trials'", integer=True)
        seed = require_seed(raw.get("seed", DEFAULT_SEED), "'seed'")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    psi = _complex_array(raw["psi"], (count, dimension), "psi")

    mapping = _build_mapping(raw["mapping"], count, tol)
    u = _build_u(raw["u"], dimension)
    phi = None if raw.get("phi") is None else _complex_array(raw["phi"], (count, dimension), "phi")
    return ProblemConfig(psi, mapping, u, phi, tol, trials, seed)

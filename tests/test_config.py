"""The configuration reader's contract for [re, im] arrays.

Six fields hold complex data: psi, phi, mapping.entries, each banded
diagonal, u.entries and u.value. Each must be an array of JSON-number
pairs of the declared shape; anything else is a ConfigError (exit 1),
and every accepted value equals complex(re, im) bit for bit. orjson
reads each array of a file first where it can, in slices, and json.loads
the rest; the stdlib reader alone must give the same values, errors and
exit codes.
"""

import contextlib
import io
import json
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import dense_form
from eframes import config, gallery, hilbert
from eframes.cli import main
from eframes.config import ConfigError, parse_config
from eframes.mapping import build_banded, build_dense

from test_cli import pairs, write_config

GOOD = {
    "psi": pairs(gallery.example_psi(3)),
    "phi": pairs(gallery.example_psi_tilde(3)),
    "mapping.entries": pairs(np.eye(4)),
    "mapping.diagonals": [[1, 0]] * 4,
    "u.entries": pairs(0.5 * np.eye(3)),
    "u.value": [0.5, 0],
}


def field_config(field, value) -> dict:
    """Config overrides that put value in field."""
    if field in ("psi", "phi"):
        return {field: value}
    if field == "mapping.entries":
        return {"mapping": {"kind": "dense", "entries": value}}
    if field == "mapping.diagonals":
        return {"mapping": {"kind": "banded", "diagonals": {"0": value}}}
    if field == "u.entries":
        return {"u": {"kind": "dense", "entries": value}}
    return {"u": {"kind": "scalar", "value": value}}


def with_last_entry(good, entry):
    """good with its last [re, im] pair replaced by entry."""
    if not isinstance(good[0], list):
        return entry
    return [*good[:-1], with_last_entry(good[-1], entry)]


BAD_ENTRIES = {
    "true": True,
    "string": "1",
    "null": None,
    "object": {"re": 1, "im": 0},
    "true-part": [True, 0],
    "string-part": [0, "1"],
    "null-part": [None, 0],
    "1-element-pair": [1],
    "3-element-pair": [1, 0, 0],
}


def bad_inputs():
    for field, good in GOOD.items():
        for name, entry in BAD_ENTRIES.items():
            yield pytest.param(field, with_last_entry(good, entry), id=f"{field}-{name}")
        if field == "u.value":
            continue  # a single pair has no rows
        yield pytest.param(field, good[:-1], id=f"{field}-missing-row")
        if isinstance(good[0][0], list):  # ragged rows need a 2-D field
            yield pytest.param(field, [*good[:-1], good[-1][:-1]], id=f"{field}-ragged-row")


@pytest.mark.parametrize("field", list(GOOD))
def test_good_fields_parse(tmp_path, field):
    parse_config(write_config(tmp_path, **field_config(field, GOOD[field])))


@pytest.mark.parametrize("field, value", bad_inputs())
def test_bad_fields_are_config_errors(tmp_path, capsys, field, value):
    path = write_config(tmp_path, **field_config(field, value))
    with pytest.raises(ConfigError):
        parse_config(path)
    assert main(["analyze", path]) == 1


def test_error_names_field_shape_and_index(tmp_path):
    with pytest.raises(ConfigError, match=r"^psi: .*\(4, 3, 2\)"):
        parse_config(write_config(tmp_path, psi=GOOD["psi"][:-1]))
    phi = with_last_entry(GOOD["phi"], [0, True])
    with pytest.raises(ConfigError, match=r"^phi\[3\]\[2\]: .*\(4, 3, 2\)"):
        parse_config(write_config(tmp_path, phi=phi))
    with pytest.raises(ConfigError, match=r"^u\.value: .*\(2,\)"):
        parse_config(write_config(tmp_path, u={"kind": "scalar", "value": "1"}))


@pytest.mark.parametrize("field", list(GOOD))
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_entries_are_rejected_later(tmp_path, capsys, field, value):
    path = write_config(tmp_path, **field_config(field, with_last_entry(GOOD[field], [0, value])))
    if field.startswith("mapping"):  # the mapping is built, and checked, while parsing
        with pytest.raises(ValueError, match="finite"):
            parse_config(path)
    else:
        parse_config(path)  # read as a float, not refused as a non-number
    command = ["verify", path] if field == "phi" else ["analyze", path]
    assert main(command) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["psi", "u.value"])
def test_integer_beyond_double_range_exits_1(tmp_path, capsys, field):
    huge = 10**400
    value = huge if field == "u.value" else with_last_entry(GOOD[field], [huge, 0])
    path = write_config(tmp_path, **field_config(field, value))
    with pytest.raises(ConfigError, match="range"):
        parse_config(path)
    assert main(["analyze", path]) == 1
    assert capsys.readouterr().err.startswith("error: ")


NUMBERS = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**300), 10**300)


def bits(z) -> np.ndarray:
    return np.asarray(z, dtype=np.complex128).view(np.uint64)


def complex_grid(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


@pytest.mark.parametrize("reader", ["fast", "stdlib"])
@pytest.mark.parametrize("field", [*GOOD, "u.identity"])
def test_every_config_array_is_read_only(tmp_path, monkeypatch, reader, field):
    """Either reader returns each array read-only down to the array that owns its
    memory, so hilbert.readonly keeps it as it is: a record shares it, not a copy."""
    if reader == "stdlib":
        monkeypatch.setattr(config, "_fast_json", lambda path: None)
    if field == "u.identity":
        overrides = {"u": {"kind": "identity"}}
    else:
        overrides = field_config(field, GOOD[field])
    cfg = parse_config(write_config(tmp_path, **overrides))
    if field in ("psi", "phi"):
        arr = getattr(cfg, field)
    elif field.startswith("mapping"):
        arr = cfg.mapping.entries if field == "mapping.entries" else cfg.mapping._diagonals[0]
    else:
        arr = cfg.u
    assert not arr.flags.writeable and hilbert.readonly(arr) is arr


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.lists(NUMBERS, min_size=68, max_size=68), scalar=NUMBERS)
@example(data=[0] * 66 + [9.9792015476736e291, 1.7976931348623157e308], scalar=0)
def test_accepted_numbers_are_exact(tmp_path_factory, data, scalar):
    """psi (12 pairs), phi (12), u.entries (9) and u.value (1 pair, 1 number)."""
    grid = [list(p) for p in zip(data[::2], data[1::2])]
    psi = [grid[3 * i : 3 * i + 3] for i in range(4)]
    phi = [grid[12 + 3 * i : 15 + 3 * i] for i in range(4)]
    u = [grid[24 + 3 * i : 27 + 3 * i] for i in range(3)]
    directory = tmp_path_factory.mktemp("exact")
    cfg = parse_config(write_config(directory, psi=psi, phi=phi, u={"kind": "dense", "entries": u}))
    for got, raw in ((cfg.psi, psi), (cfg.phi, phi), (cfg.u, u)):
        assert np.array_equal(bits(got), bits(complex_grid(raw)))
    for value, scale in ((grid[33], complex(*grid[33])), (scalar, complex(scalar))):
        got = parse_config(write_config(directory, u={"kind": "scalar", "value": value})).u
        with np.errstate(over="ignore"):  # numpy warns on some exact products near 1e308
            want = scale * np.eye(3, dtype=np.complex128)
        assert np.array_equal(bits(got), bits(want))


@settings(max_examples=40, deadline=None)
@given(data=st.lists(st.floats(-1, 1) | st.integers(-1, 1), min_size=6, max_size=6))
def test_accepted_mapping_numbers_are_exact(tmp_path_factory, data):
    """The first subdiagonal of a banded and of a dense 4 x 4 mapping."""
    sub = [list(p) for p in zip(data[::2], data[1::2])]
    directory = tmp_path_factory.mktemp("mapping")
    ones = [[1, 0]] * 4
    banded = {"kind": "banded", "diagonals": {"0": ones, "-1": sub}}
    got = parse_config(write_config(directory, mapping=banded)).mapping
    want = build_banded(4, {0: np.ones(4), -1: complex_grid([sub])[0]})
    assert np.array_equal(bits(dense_form(got)), bits(dense_form(want)))
    entries = pairs(np.eye(4))
    entries[1][0], entries[2][1], entries[3][2] = sub
    dense = {"kind": "dense", "entries": entries}
    got = parse_config(write_config(directory, mapping=dense)).mapping
    assert np.array_equal(bits(got.entries), bits(build_dense(complex_grid(entries)).entries))


#: malformed structure -> (the worked configuration made so, its message)
BAD_STRUCTURE = {
    "mapping-without-kind": (lambda c: {**c, "mapping": {}}, "'mapping' must be an object with a 'kind'"),
    "diagonals-not-an-object": (
        lambda c: {**c, "mapping": {"kind": "banded", "diagonals": [[1, 0]]}},
        "mapping.diagonals must be an object"),
    "diagonal-not-a-list": (
        lambda c: {**c, "mapping": {"kind": "banded", "diagonals": {"0": 1}}},
        "diagonal 0 must be a list of pairs"),
    "u-without-kind": (lambda c: {**c, "u": "identity"}, "'u' must be an object with a 'kind'"),
    "root-not-an-object": (lambda c: [c], "configuration root must be an object"),
    "missing-key": (
        lambda c: {k: v for k, v in c.items() if k != "u"}, "missing required key 'u'"),
}


@pytest.mark.parametrize("name", sorted(BAD_STRUCTURE))
def test_malformed_structure_is_a_config_error(tmp_path, capsys, name):
    make, message = BAD_STRUCTURE[name]
    path = write_config(tmp_path)
    with open(path, encoding="utf-8") as handle:
        raw = make(json.load(handle))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(raw, handle)
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert str(info.value) == message
    assert main(["analyze", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_banded_offset_outside_range_exits_1(tmp_path, capsys):
    diagonals = {"0": GOOD["mapping.diagonals"], "5": [[1, 0]]}
    path = write_config(tmp_path, mapping={"kind": "banded", "diagonals": diagonals})
    assert main(["analyze", path]) == 1
    assert "offset 5" in (err := capsys.readouterr().err) and "-3 and 3" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")])
def test_non_finite_scalar_u_exits_1_without_a_warning(tmp_path, capsys, value):
    path = write_config(tmp_path, **field_config("u.value", value))
    assert main(["analyze", path]) == 1
    assert capsys.readouterr().err == "error: entries must be finite\n"


def reader_config() -> str:
    """The worked example at d = 3 with every optional key, as JSON text; the
    psi entry 0.125 marks a place to put another number."""
    psi = pairs(gallery.example_psi(3))
    psi[1][1] = [0.125, 0]
    diagonals = {"0": [[1, 0]] * 4, "-1": [[-1, 0]] * 3}
    return json.dumps({
        "dimension": 3,
        "count": 4,
        "psi": psi,
        "phi": pairs(gallery.example_psi_tilde(3)),
        "mapping": {"kind": "banded", "diagonals": diagonals},
        "u": {"kind": "dense", "entries": pairs(0.5 * np.eye(3))},
        "tol": 1e-10,
        "trials": 7,
        "seed": 42,
    })


def outcome(path) -> tuple:
    """parse_config's values or error on path, bit for bit, and the exit code
    and output of verify; verify is skipped when it would run over 1,000 trials."""
    try:
        cfg = parse_config(path)
        arrays = (cfg.psi, cfg.phi, dense_form(cfg.mapping), cfg.u)
        parsed = (cfg.tol, cfg.trials, cfg.seed,
                  *(None if a is None else bits(a).tobytes() for a in arrays))
    except Exception as exc:  # the two readers must raise alike
        parsed = (type(exc), str(exc))
    if len(parsed) > 2 and parsed[1] > 1000:
        return parsed, None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["verify", path, "--format", "machine"])
        except Exception as exc:
            code = type(exc), str(exc)
    return parsed, code, out.getvalue(), err.getvalue()


def assert_readers_agree(path) -> tuple:
    """What orjson-first reading gives on path, once checked against the
    stdlib reader alone."""
    fast = outcome(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config, "_fast_json", lambda path: None)
        assert outcome(path) == fast
    return fast


READER_CASES = {
    "nan": ("0.125", "NaN", "finite"),
    "infinity": ("0.125", "-Infinity", "finite"),
    "1e400": ("0.125", "1e400", "finite"),
    "integer-beyond-64-bits": ("0.125", "18446744073709551617", None),
    "integer-beyond-double": ("0.125", "1" + "0" * 400, "range"),
    "seed-2**64": ('"seed": 42', '"seed": 18446744073709551616', None),
    "seed-below-int64": ('"seed": 42', '"seed": -9223372036854775809', "'seed'"),
    "24-digit-tol": ('"tol": 1e-10', '"tol": 123456789012345678901234', "below 1"),
    "20-digit-trials": ('"trials": 7', '"trials": 99999999999999999999', None),
    "20-digit-trials-negative": ('"trials": 7', '"trials": -99999999999999999999', "'trials'"),
    "escaped-quote-in-key": ('"phi"', '"p\\"hi"', "unknown configuration keys"),
    "escaped-offset": ('"-1"', '"\\u002d1"', None),
    "lone-surrogate": ('"banded"', '"\\ud800"', "unknown mapping kind"),
    "nested-9-deep": ("[0.125, 0]", "[[[[[[0.125, 0]]]]]]", "shape"),
}
FALLS_BACK = {  # where the stdlib reader takes over: _fast_json, or a check of its values
    "nan": "scan", "infinity": "scan", "1e400": "scan", "integer-beyond-double": "scan",
    "seed-below-int64": "check", "24-digit-tol": "check", "20-digit-trials-negative": "check",
    "escaped-quote-in-key": "scan", "escaped-offset": "scan", "lone-surrogate": "scan",
    "nested-9-deep": "scan",
}


def case_config(name) -> str:
    old, new, _ = READER_CASES[name]
    assert old in reader_config()
    return reader_config().replace(old, new, 1)


@pytest.mark.parametrize("name", READER_CASES)
def test_readers_agree_on_numbers_escapes_and_nesting(tmp_path, name):
    path = tmp_path / "config.json"
    path.write_text(case_config(name))
    parsed, *run = assert_readers_agree(str(path))
    error = READER_CASES[name][2]
    if error is None:
        assert len(parsed) > 2
    else:
        assert error in (parsed[1] if len(parsed) == 2 else run[2])


def test_readers_agree_on_crlf_bom_and_bad_utf8(tmp_path):
    text = json.dumps(json.loads(reader_config()), indent=1).replace('"seed": 42', '"seed": 42,')
    cases = {
        "lf": (text.encode(), "Expecting property name"),
        "crlf": (text.replace("\n", "\r\n").encode(), "Expecting property name"),
        "bom": (b"\xef\xbb\xbf" + text.encode(), "BOM"),
        "xff": (text.replace('"banded"', '"band\xff"').encode("latin-1"), "utf-8"),
    }
    errors = {}
    for name, (data, error) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        parsed, *_ = assert_readers_agree(str(path))
        assert error in parsed[1]
        errors[name] = parsed[1]
    assert errors["crlf"] == errors["lf"]  # placed by text-mode lines and columns


def fast_stage(path) -> str:
    """Where orjson-first reading of path hands over to the stdlib reader: 'scan' when
    _fast_json gives None, 'check' when the values it gives fail a check, else 'fast'."""
    raw = config._fast_json(path)
    if raw is None:
        return "scan"
    try:
        config._problem(raw, None)
    except ValueError:
        return "check"
    return "fast"


def arrays_cut(raw, want) -> int:
    """How many float64 arrays raw, as _fast_json reads a file, holds where want, as
    json.loads reads it, holds a list, each one equal to the list bit for bit; every
    other value must equal want's."""
    if isinstance(raw, np.ndarray):
        assert raw.dtype == np.float64
        assert raw.tobytes() == np.array(want, np.float64).tobytes() and raw.shape == np.shape(want)
        return 1
    if isinstance(raw, dict):
        assert raw.keys() == want.keys()
        return sum(arrays_cut(raw[key], want[key]) for key in raw)
    assert not isinstance(raw, list) and type(raw) is type(want) and raw == want
    return 0


def test_orjson_reads_plain_configs_only(tmp_path):
    """Each member array (psi, phi, two diagonals and u.entries) comes back as a
    float64 array, each other value as json.loads reads it; each FALLS_BACK case
    leaves at its stage."""
    path = tmp_path / "config.json"
    path.write_text(reader_config())
    assert arrays_cut(config._fast_json(str(path)), json.loads(reader_config())) == 5
    for name in READER_CASES:
        path.write_text(case_config(name))
        assert fast_stage(str(path)) == FALLS_BACK.get(name, "fast"), name


def tall_config(count, dim=3, **layout) -> str:
    """Gaussian (count, dim) psi and phi on the bidiagonal mapping, as json.dumps
    writes them with the layout keywords."""
    rng = np.random.default_rng(count)
    psi, phi = (rng.standard_normal((count, dim, 2)).tolist() for _ in "ab")
    return json.dumps({
        "dimension": dim, "count": count, "psi": psi, "phi": phi, "trials": 3,
        "mapping": {"kind": "paper_bidiagonal"}, "u": {"kind": "scalar", "value": 0.5},
    }, **layout)


def edited(old, new) -> str:
    assert old in reader_config()
    return reader_config().replace(old, new)


def nested(key, keep) -> str:
    """The reader config with key's array copied into mapping; keep=False drops the
    top-level one, so that only the nested one is left."""
    spec = json.loads(reader_config())
    spec["mapping"][key] = spec[key] if keep else spec.pop(key)
    return json.dumps(spec)


def changed(**keys) -> str:
    """The reader config with keys set, u and mapping last, as json.dumps writes it compactly."""
    spec = json.loads(reader_config())
    mapping, u = spec.pop("mapping"), spec.pop("u")
    return json.dumps({**spec, "mapping": mapping, "u": u, **keys}, separators=(",", ":"))


def mapping_config(count, kind) -> str:
    """Gaussian (count, 3) psi on a Gaussian dense or tridiagonal mapping, diagonally
    dominant, as json.dumps writes them."""
    rng = np.random.default_rng(count)
    psi = rng.standard_normal((count, 3, 2)).tolist()
    if kind == "dense":
        mapping = {"entries": pairs(np.eye(count) + rng.standard_normal((count, count)) / count)}
    else:
        bands = {k: rng.standard_normal(count - abs(k)) + 4 * (k == 0) for k in (-1, 0, 1)}
        mapping = {"diagonals": {str(k): pairs([band])[0] for k, band in bands.items()}}
    return json.dumps({
        "dimension": 3, "count": count, "psi": psi,
        "mapping": {"kind": kind, **mapping}, "u": {"kind": "identity"},
    })


def psi_edited(edit, text=None) -> str:
    """text (the reader config by default) with edit applied to its psi rows."""
    spec = json.loads(text or reader_config())
    edit(spec["psi"])
    return json.dumps(spec)


def short_row(rows):
    rows[1500] = rows[1500][:-1]  # in a later slice of tall_config(2049, 16)


def deeper_row(rows):
    rows[1] = [rows[1]]


TWICE = '"psi": %s, "psi"' % json.dumps([[[9.0, 0.0]] * 3] * 4)  # the last one counts
CUT_CASES = {  # name: (config text, stage)
    "indent-1": (lambda: json.dumps(json.loads(reader_config()), indent=1), "fast"),
    "spaced-row-brackets": (lambda: edited("]], [[", "] ]\t,\r\n [ ["), "fast"),
    "rows-across-slices": (lambda: tall_config(2049), "fast"),
    "stray-number-after-pair": (lambda: edited("[0.125, 0]", "[0.125, 0]5"), "scan"),
    "empty-slot": (lambda: edited("[0.125, 0]", "[, 0]"), "scan"),
    "ragged-row": (lambda: edited("[0.125, 0], ", ""), "scan"),
    "depth-2-psi-at-d-2": (lambda: json.dumps({
        "dimension": 2, "count": 3, "psi": [[1, 0], [0, 1], [1, 1]],
        "mapping": {"kind": "paper_bidiagonal"}, "u": {"kind": "identity"},
    }), "check"),
    "psi-nested-in-mapping": (lambda: nested("psi", keep=True), "fast"),
    "phi-only-nested-in-mapping": (lambda: nested("phi", keep=False), "fast"),
    "psi-twice": (lambda: edited('"psi"', TWICE), "fast"),
    "entries-beyond-64-bits": (
        lambda: edited("[2.0, 0.0]", "[18446744073709551617, -18446744073709551617]"), "fast"
    ),
    "trailing-comma-after-last-row": (lambda: edited(']]], "phi"', ']],], "phi"'), "scan"),
    "dense-entries-across-slices": (lambda: mapping_config(65, "dense"), "fast"),
    "diagonal-twice": (lambda: edited('"-1": ', '"-1": [[7, 0]], "-1": '), "fast"),
    "u-value-pair": (lambda: changed(u={"kind": "scalar", "value": [0.5, 0.25]}), "fast"),
    "member-array-in-a-string": (lambda: edited('"banded"', '"banded", "note": "a:[1, 0]"'), "scan"),
    "unknown-key-with-an-array": (lambda: changed(extra=[[1, 0]]), "check"),
    "last-member-closes-into-brace": (changed, "fast"),
    "entries-4-deep": (lambda: edited("[0.5, 0.0]", "[[0.5, 0.0]]"), "scan"),
    "diagonal-200-deep": (lambda: edited('"-1": ', '"-2": %s1, 0%s, "-1": ' % ("[" * 200, "]" * 200)), "scan"),
    "three-number-pair": (lambda: edited("[0.125, 0]", "[0.125, 0, 0]"), "scan"),
    "one-number-pair": (lambda: edited("[0.125, 0]", "[0.125]"), "scan"),
    "short-row-in-a-later-slice": (lambda: psi_edited(short_row, tall_config(2049, 16)), "scan"),
    "row-one-level-deeper": (lambda: psi_edited(deeper_row), "scan"),
    "space-inside-a-number": (lambda: edited("0.125", "0.1 25"), "scan"),
    "number-after-its-pair": (lambda: edited("[0.125, 0]", "[0.125, ]0"), "scan"),
    "number-before-its-pair": (lambda: edited("[0.125, 0]", "0[, 0.125]"), "scan"),
    "number-after-its-row": (lambda: re.sub(r"([-0-9.e]+)\]\], ", r"]]\1, ", reader_config(), 1), "scan"),
}


@pytest.mark.parametrize("slice_bytes", [config._SLICE, 1])
@pytest.mark.parametrize("name", CUT_CASES)
def test_readers_agree_on_cut_out_arrays(tmp_path, monkeypatch, name, slice_bytes):
    """Each layout, and each fault a slice of rows can hold, gives the stdlib
    reader's values, error and verify run, bit for bit; with 1-byte slices, each
    row is a slice of its own."""
    monkeypatch.setattr(config, "_SLICE", slice_bytes)
    text, stage = CUT_CASES[name]
    path = tmp_path / "config.json"
    path.write_text(text())
    assert fast_stage(str(path)) == stage
    parsed, *_ = assert_readers_agree(str(path))
    assert stage == "scan" or (len(parsed) > 2) == (stage == "fast"), parsed


def spy_on_orjson(monkeypatch) -> list:
    """The (text, list) of each orjson.loads call from here on; each text must hold
    one "[" and one "]", around it, and each list only numbers."""
    calls, loads = [], config.orjson.loads

    def spy(text):
        flat = loads(text)
        assert text.count(b"[") == text.count(b"]") == 1 and text[0] == ord("[") and text[-1] == ord("]")
        assert isinstance(flat, list) and all(type(x) in (int, float) for x in flat)
        calls.append((text, flat))
        return flat

    monkeypatch.setattr(config.orjson, "loads", spy)
    return calls


@pytest.mark.parametrize("layout", [{}, {"indent": 1}, {"separators": (",", ":")}],
                         ids=["default", "indent-1", "compact"])
def test_orjson_reads_each_slice_as_one_flat_list(tmp_path, monkeypatch, layout):
    """A (2049, 16) psi and phi: one call per slice, each of whole rows (32 numbers),
    every slice but an array's last over _SLICE bytes; with 1-byte slices, one
    call per row. The values are the stdlib reader's, bit for bit."""
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(json.loads(tall_config(2049, 16)), **layout))
    want = json.loads(path.read_text())
    for slice_bytes in (config._SLICE, 1):
        monkeypatch.setattr(config, "_SLICE", slice_bytes)
        calls = spy_on_orjson(monkeypatch)
        raw = config._fast_json(str(path))
        monkeypatch.undo()
        assert arrays_cut(raw, want) == 2
        sizes = [len(flat) for _, flat in calls]
        assert all(size % 32 == 0 for size in sizes) and sum(sizes) == 2 * 2049 * 32
        psi_calls = next(i for i in range(len(sizes) + 1) if sum(sizes[:i]) == 2049 * 32)
        for array in (calls[:psi_calls], calls[psi_calls:]):
            assert all(len(text) - 2 > slice_bytes for text, _ in array[:-1])
        if slice_bytes == 1:
            assert sizes == [32] * 4098


def regular_arrays():
    """A depth 1-3 array of finite numbers, each axis 1 to 6 long, as nested lists."""
    return st.lists(st.integers(1, 6), min_size=1, max_size=3).flatmap(lambda shape: st.lists(
        NUMBERS, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)),
    ).map(lambda values: np.array(values, dtype=object).reshape(shape).tolist()))


LAYOUTS = st.fixed_dictionaries({}, optional={
    "indent": st.sampled_from([0, 1, 2, "\t", " \r\n"]),
    "separators": st.sampled_from([(",", ":"), (", ", ": "), (" ,\n", ":"), ("\t,\t", ":")]),
})


@settings(max_examples=150, deadline=None)
@given(array=regular_arrays(), layout=LAYOUTS, slice_bytes=st.sampled_from([1, 64, 1 << 16]))
def test_read_rows_is_the_stdlib_array_bit_for_bit(array, layout, slice_bytes):
    """Any regular array of depth 1 to 3, in any json.dumps layout, at any slice size."""
    text = json.dumps({"a": array}, **layout).encode()
    start = text.index(b"[")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config, "_SLICE", slice_bytes)
        got = config._read_rows(text, start, text.rindex(b"]") + 1)
    want = np.array(json.loads(text)["a"], np.float64)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_parse_config_holds_one_slice_of_python_numbers(tmp_path):
    """A (4097, 16) psi and phi, 5.75 MB of text: the file and the two arrays, one of
    them twice while its blocks are joined, about 8.9 MB at the peak, where every pair
    as Python objects took 23.6 MB."""
    path = tmp_path / "tall.json"
    path.write_text(tall_config(4097, 16))
    tracemalloc.start()
    try:
        cfg = parse_config(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.phi.shape == (4097, 16)
    assert peak <= 13e6, peak


@pytest.fixture(scope="module")
def tall_16385(tmp_path_factory):
    """A (16385, 16) psi and phi config, 22.7 MB of text, written once per module."""
    path = tmp_path_factory.mktemp("tall") / "tall-16385.json"
    path.write_text(tall_config(16385, 16))
    return path


def test_parse_config_peak_is_bounded_by_the_file_and_its_arrays(tall_16385):
    """At (16385, 16) the parse peaks at about 35.4 MB: the file's bytes, one slice of
    Python numbers, and each array twice while its blocks are joined. It must stay at
    or under 1.3 times the file size plus twice the arrays, 46.4 MB; orjson's
    whole-document pass took it to 47.7 MB."""
    tracemalloc.start()
    try:
        cfg = parse_config(str(tall_16385))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.psi.shape == cfg.phi.shape == (16385, 16)
    bound = 1.3 * tall_16385.stat().st_size + 2 * (cfg.psi.nbytes + cfg.phi.nbytes)
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("count, kind, bound", [(257, "dense", 6e6), (16385, "banded", 11e6)],
                         ids=["dense-257", "banded-16385"])
def test_parse_config_reads_mappings_in_slices(tmp_path, count, kind, bound):
    """A dense N = 257 config (2.0 MB of text) peaked at 14.2 MB and a banded
    N = 16385 one (3.5 MB) at 14.3 MB while orjson read each mapping whole, as
    Python objects; read in slices of rows, they peak at about 4.2 and 8.2 MB."""
    path = tmp_path / "mapping.json"
    path.write_text(mapping_config(count, kind))
    parse_config(str(path))  # the first banded build imports from scipy
    tracemalloc.start()
    try:
        parse_config(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


def test_a_pipe_is_read_once_by_the_stdlib_reader():
    read, write = os.pipe()
    with os.fdopen(write, "w") as handle:
        handle.write(reader_config().replace('"seed": 42', '"seed": 42,'))
    try:
        with pytest.raises(ConfigError, match="Expecting property name"):
            parse_config(f"/dev/fd/{read}")
    finally:
        os.close(read)


def refusing_open(refuses):
    """An open for config that fails, as an unreadable file does, in each mode
    that refuses(mode) picks."""
    def fake_open(path, mode="r", **kwargs):
        if refuses(mode):
            raise PermissionError(13, "Permission denied", str(path))
        return open(path, mode, **kwargs)
    return fake_open


def test_a_file_unreadable_as_bytes_goes_to_the_stdlib_reader(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(reader_config())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config, "_fast_json", lambda path: None)
        stdlib = outcome(str(path))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config, "open", refusing_open(lambda mode: "b" in mode), raising=False)
        assert config._fast_json(str(path)) is None
        assert outcome(str(path)) == stdlib
    assert len(stdlib[0]) > 2  # values, not an error


def test_an_unreadable_file_is_a_config_error(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(reader_config())
    monkeypatch.setattr(config, "open", refusing_open(lambda mode: True), raising=False)
    with pytest.raises(ConfigError, match=r"^cannot read configuration: .*Permission denied"):
        parse_config(str(path))


MUTATION_BYTES = st.sampled_from(list(b'[]{}",:.-+0123456789eE \\\r\nNaIfinty\xff'))


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 2), MUTATION_BYTES), min_size=1, max_size=4,
))
def test_readers_agree_on_mutated_configs(tmp_path_factory, edits):
    """Each edit replaces, inserts or deletes one byte."""
    data = bytearray(reader_config().encode())
    for at, op, byte in edits:
        at %= len(data)
        if op == 0:
            data[at] = byte
        elif op == 1:
            data.insert(at, byte)
        else:
            del data[at]
    path = tmp_path_factory.mktemp("mutated") / "config.json"
    path.write_bytes(bytes(data))
    assert_readers_agree(str(path))


def test_deep_nesting_never_reaches_orjson(tmp_path):
    """orjson recurses without a depth limit: this nesting, in phi, u.entries or a
    diagonal, overflows a 1 MiB thread stack and kills the process unless the
    template, never more than 3 deep, sends the file to the stdlib reader, whose
    recursion limit turns it into a ConfigError."""
    depth = 50_000
    paths = []
    for key in ('"phi": ', '"entries": ', '"-1": '):
        paths.append(tmp_path / f"deep-{len(paths)}.json")
        paths[-1].write_text(reader_config().replace(key, key + "[" * depth + "]" * depth + ", \"p\": ", 1))
    errors = []

    def target():
        for path in paths:
            try:
                parse_config(str(path))
            except ConfigError as exc:
                errors.append(str(exc))

    previous = threading.stack_size(1 << 20)
    try:
        thread = threading.Thread(target=target)
        thread.start()
    finally:
        threading.stack_size(previous)
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert errors == ["configuration is nested too deeply to parse"] * 3

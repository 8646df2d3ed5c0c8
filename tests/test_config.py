"""The configuration reader's contract for [re, im] arrays.

Six fields hold complex data: psi, phi, mapping.entries, each banded
diagonal, u.entries and u.value. Each must be an array of JSON-number
pairs of the declared shape; anything else is a ConfigError (exit 1),
and every accepted value equals complex(re, im) bit for bit. orjson
reads a file first where it can; the stdlib reader alone must give the
same values, errors and exit codes.
"""

import contextlib
import io
import json
import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import dense_form
from eframes import config, gallery
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
        parsed = (cfg.tol, cfg.trials, cfg.seed, *(bits(a).tobytes() for a in arrays))
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
    "24-digit-tol": ('"tol": 1e-10', '"tol": 123456789012345678901234', "singular"),
    "20-digit-trials": ('"trials": 7', '"trials": 99999999999999999999', None),
    "20-digit-trials-negative": ('"trials": 7', '"trials": -99999999999999999999', "'trials'"),
    "escaped-quote-in-key": ('"phi"', '"p\\"hi"', "unknown configuration keys"),
    "escaped-offset": ('"-1"', '"\\u002d1"', None),
    "lone-surrogate": ('"banded"', '"\\ud800"', "unknown mapping kind"),
    "nested-9-deep": ("[0.125, 0]", "[[[[[[0.125, 0]]]]]]", "shape"),
}
FALLS_BACK = ("nan", "infinity", "1e400", "integer-beyond-double", "escaped-quote-in-key",
              "escaped-offset", "lone-surrogate", "nested-9-deep")


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


def test_orjson_reads_plain_configs_only(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(reader_config())
    assert config._fast_json(str(path)) == json.loads(reader_config())
    for name in READER_CASES:
        path.write_text(case_config(name))
        assert (config._fast_json(str(path)) is None) == (name in FALLS_BACK), name


def test_a_pipe_is_read_once_by_the_stdlib_reader():
    read, write = os.pipe()
    with os.fdopen(write, "w") as handle:
        handle.write(reader_config().replace('"seed": 42', '"seed": 42,'))
    try:
        with pytest.raises(ConfigError, match="Expecting property name"):
            parse_config(f"/dev/fd/{read}")
    finally:
        os.close(read)


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
    """orjson recurses without a depth limit: this nesting overflows a 1 MiB
    thread stack and kills the process unless the depth scan sends the file to
    the stdlib reader, whose recursion limit turns it into a ConfigError."""
    depth = 50_000
    path = tmp_path / "deep.json"
    path.write_text(reader_config().replace('"phi": ', '"phi": ' + "[" * depth + "]" * depth + ", \"p\": ", 1))
    errors = []

    def target():
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
    assert errors == ["configuration is nested too deeply to parse"]

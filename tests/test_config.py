"""The configuration reader's contract for [re, im] arrays.

Six fields hold complex data: psi, phi, mapping.entries, each banded
diagonal, u.entries and u.value. Each must be an array of JSON-number
pairs of the declared shape; anything else is a ConfigError (exit 1),
and every accepted value equals complex(re, im) bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eframes import gallery
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
        assert np.array_equal(bits(got), bits(scale * np.eye(3, dtype=np.complex128)))


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
    assert np.array_equal(bits(got.entries), bits(want.entries))
    entries = pairs(np.eye(4))
    entries[1][0], entries[2][1], entries[3][2] = sub
    dense = {"kind": "dense", "entries": entries}
    got = parse_config(write_config(directory, mapping=dense)).mapping
    assert np.array_equal(bits(got.entries), bits(build_dense(complex_grid(entries)).entries))


def test_banded_offset_outside_range_exits_1(tmp_path, capsys):
    diagonals = {"0": GOOD["mapping.diagonals"], "5": [[1, 0]]}
    path = write_config(tmp_path, mapping={"kind": "banded", "diagonals": diagonals})
    assert main(["analyze", path]) == 1
    assert "offset 5" in (err := capsys.readouterr().err) and "-3 and 3" in err

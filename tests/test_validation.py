"""Input errors, on the d = 3 worked example.

Every array entering the library goes through hilbert.validated: a
mis-shaped one raises DimensionMismatchError whose message starts with
the argument's name, and a non-finite entry raises ValueError("entries
must be finite"). Every tol, eps and max_terms goes through
hilbert.require_positive: NaN, an infinity, 0 or a negative value
raises ValueError naming it, before any verdict is reached. So does every
trials count, which must also be an integer.
"""

import re

import numpy as np
import pytest

from conftest import dense_form
from eframes import controlled, eframe, gallery, hilbert, mapping, neumann
from eframes.cli import main
from eframes.config import ConfigError, parse_config
from eframes.errors import DimensionMismatchError
from test_cli import write_config

E = gallery.example_mapping(3)
E3 = mapping.identity_mapping(3)
PSI = gallery.example_psi(3)
U = gallery.example_u(3)
RECORD = controlled.ControlledEFrame(E, PSI, U)
PHI = RECORD.canonical_dual()
F = np.ones(3, dtype=complex)
CERT = RECORD.certify(RECORD.images_of(PHI))[0]

#: good arguments; a key "name:variant" is reported as name
GOOD = {
    "psi": PSI,
    "phi": PHI,
    "u": U,
    "f": F,
    "seq": PSI,
    "u:vector": F,
    "v:vector": F,
    "a:square": np.eye(3, dtype=complex),
    "a:free": np.ones((3, 4), dtype=complex),
    "m": np.ones((3, 4), dtype=complex),
    "entries": dense_form(E),
    "diagonals": np.ones(3, dtype=complex),
    "v:right": RECORD.random_right_inverse(1),
    "v:null": RECORD.random_null_map(1),
    "v:riesz": 2.0 * np.eye(3, dtype=complex),
    "basis": np.eye(3, dtype=complex),
    "images_phi": RECORD.images_of(PHI),
}

#: keys whose shape is free as long as the number of axes is right
FREE = {"u:vector", "a:free", "m"}


def images(psi):
    return eframe.e_frame_bounds(E, psi).images


def f_vector(f):
    return hilbert.validated(f, "f", (3,))


def inner(u, v):
    u = hilbert.validated(u, "u", (None,))
    return np.vdot(hilbert.validated(v, "v", u.shape), u)


def reconstruct(psi, phi, f):
    record = controlled.ControlledEFrame(E, psi, np.eye(3))
    return record.t_u @ (record.images_of(phi).conj() @ f_vector(f))


#: public function or record method -> (call on the arguments x, keys it takes).
#: A row named after a function the library no longer has calls its
#: replacement from CHANGES.md, with raw arrays through hilbert.validated.
CALLS = {
    "hilbert.adjoint": (lambda x: hilbert.validated(x["a:free"], "a").conj().T, ["a:free"]),
    "hilbert.operator_norm": (lambda x: hilbert.operator_norm(x["m"]), ["m"]),
    "hilbert.pseudoinverse": (
        lambda x: np.linalg.pinv(hilbert.validated(x["m"], "m"), rcond=0.0), ["m"]),
    "hilbert.hermitian_bounds": (
        lambda x: hilbert.hermitian_bounds(x["a:square"]), ["a:square"]),
    "hilbert.invert_operator": (
        lambda x: hilbert.invert_operator(x["a:square"]), ["a:square"]),
    "hilbert.is_positive_definite": (
        lambda x: hilbert.hermitian_bounds(x["a:square"]).positive(hilbert.DEFAULT_TOL),
        ["a:square"]),
    "hilbert.inner": (
        lambda x: inner(x["u:vector"], x["v:vector"]), ["u:vector", "v:vector"]),
    "apply_mapping": (lambda x: mapping.apply_mapping(E, x["seq"]), ["seq"]),
    "apply_inverse_mapping": (lambda x: mapping.apply_inverse_mapping(E, x["seq"]), ["seq"]),
    "MatrixMapping.apply": (lambda x: E.apply(x["seq"]), ["seq"]),
    "MatrixMapping.apply_inverse": (lambda x: E.apply_inverse(x["seq"]), ["seq"]),
    "build_dense": (lambda x: mapping.build_dense(x["entries"]), ["entries"]),
    "build_banded": (lambda x: mapping.build_banded(3, {0: x["diagonals"]}), ["diagonals"]),
    "e_synthesis": (lambda x: images(x["psi"]).T, ["psi"]),
    "e_analysis": (lambda x: images(x["psi"]).conj() @ f_vector(x["f"]), ["psi", "f"]),
    "e_frame_operator": (lambda x: eframe.e_frame_bounds(E, x["psi"]).frame_op, ["psi"]),
    "e_frame_bounds": (lambda x: eframe.e_frame_bounds(E, x["psi"]), ["psi"]),
    "e_canonical_dual": (lambda x: eframe.e_canonical_dual(E, x["psi"]), ["psi"]),
    "e_reconstruct": (
        lambda x: reconstruct(x["psi"], x["phi"], x["f"]), ["psi", "phi", "f"]),
    "e_riesz_family": (
        lambda x: eframe.e_riesz_family(x["v:riesz"], E3, x["basis"]), ["v:riesz", "basis"]),
    "ControlledEFrame": (lambda x: controlled.ControlledEFrame(E, x["psi"], x["u"]), ["psi", "u"]),
    "controlled_synthesis": (
        lambda x: controlled.ControlledEFrame(E, x["psi"], x["u"]).t_u, ["psi", "u"]),
    "controlled_frame_operator": (
        lambda x: controlled.ControlledEFrame(E, x["psi"], x["u"]).s_ue, ["psi", "u"]),
    "controlled_bounds": (
        lambda x: controlled.controlled_bounds(E, x["psi"], x["u"]), ["psi", "u"]),
    "identity_errors": (lambda x: controlled.identity_errors(E, x["psi"], x["u"]), ["psi", "u"]),
    "commutation_criterion": (
        lambda x: controlled.commutation_criterion(E, x["psi"], x["u"]), ["psi", "u"]),
    "is_parseval": (lambda x: controlled.is_parseval(E, x["psi"], x["u"]), ["psi", "u"]),
    "canonical_reconstruct": (
        lambda x: controlled.ControlledEFrame(E, x["psi"], x["u"]).canonical_reconstruct(
            x["f"]),
        ["psi", "u", "f"]),
    "canonical_dual": (lambda x: controlled.canonical_dual(E, x["psi"], x["u"]), ["psi", "u"]),
    "verify_dual": (
        lambda x: controlled.verify_dual(E, x["psi"], x["phi"], x["u"]), ["psi", "phi", "u"]),
    "dual_from_right_inverse": (
        lambda x: controlled.dual_from_right_inverse(E, x["psi"], x["u"], x["v:right"]),
        ["psi", "u", "v:right"]),
    "dual_with_offset": (
        lambda x: controlled.dual_with_offset(E, x["psi"], x["u"], x["v:null"]),
        ["psi", "u", "v:null"]),
    "random_null_map": (lambda x: controlled.random_null_map(E, x["psi"], x["u"]), ["psi", "u"]),
    "random_right_inverse": (
        lambda x: controlled.random_right_inverse(E, x["psi"], x["u"]), ["psi", "u"]),
    "extract_null_map": (
        lambda x: controlled.extract_null_map(E, x["psi"], x["phi"], x["u"]), ["psi", "phi", "u"]),
    "riesz_equivalence": (
        lambda x: controlled.riesz_equivalence(x["v:riesz"], x["basis"], E3, x["u"]),
        ["v:riesz", "basis", "u"]),
    "ControlledEFrame.canonical_reconstruct": (
        lambda x: RECORD.canonical_reconstruct(x["f"]), ["f"]),
    "ControlledEFrame.images_of": (lambda x: RECORD.images_of(x["phi"]), ["phi"]),
    "ControlledEFrame.certify": (lambda x: RECORD.certify(x["images_phi"]), ["images_phi"]),
    "ControlledEFrame.null_map": (
        lambda x: RECORD.null_map(x["images_phi"], CERT), ["images_phi"]),
    "ControlledEFrame.dual_from_right_inverse": (
        lambda x: RECORD.dual_from_right_inverse(x["v:right"]), ["v:right"]),
    "ControlledEFrame.dual_with_offset": (
        lambda x: RECORD.dual_with_offset(x["v:null"]), ["v:null"]),
    "ApproximateDual": (lambda x: neumann.ApproximateDual(RECORD, x["phi"]), ["phi"]),
    "ApproximateDual.iterative_reconstruct": (
        lambda x: neumann.ApproximateDual(RECORD, PHI).iterative_reconstruct(x["f"]), ["f"]),
    "contraction_ratio": (
        lambda x: neumann.contraction_ratio(E, x["psi"], x["phi"], x["u"]), ["psi", "phi", "u"]),
    "corrected_dual": (
        lambda x: neumann.corrected_dual(E, x["psi"], x["phi"], x["u"]), ["psi", "phi", "u"]),
    "iterative_reconstruct": (
        lambda x: neumann.iterative_reconstruct(E, x["psi"], x["phi"], x["u"], x["f"]),
        ["psi", "phi", "u", "f"]),
}

ARRAY_CASES = [(label, key) for label, (_, keys) in CALLS.items() for key in keys]


def call_with(label, key, value):
    return CALLS[label][0]({**GOOD, key: value})


@pytest.mark.parametrize("label", sorted(CALLS))
def test_good_arguments_pass(label):
    CALLS[label][0](GOOD)


@pytest.mark.parametrize("label, key", ARRAY_CASES)
def test_mis_shaped_array_names_the_argument(label, key):
    name = key.split(":")[0]
    good = GOOD[key]
    bad_shapes = [good[..., None], good.reshape(-1)[:0]]
    if key not in FREE:
        bad_shapes.append(good[:-1])
    for bad in bad_shapes:
        with pytest.raises(DimensionMismatchError, match=rf"^{name}(\[0\])?: expected "):
            call_with(label, key, bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("label, key", ARRAY_CASES)
def test_non_finite_entry_is_an_input_error(label, key, value):
    bad = np.array(GOOD[key], dtype=complex)
    bad.flat[-1] = value
    with pytest.raises(ValueError) as info:
        call_with(label, key, bad)
    assert type(info.value) is ValueError and str(info.value) == "entries must be finite"


#: public entry point -> call with the given tolerance; as in CALLS, a row
#: named after a removed function calls its replacement
TOL_CALLS = {
    "hilbert.hermitian_bounds": lambda tol: hilbert.hermitian_bounds(np.eye(3), tol),
    "hilbert.invert_operator": lambda tol: hilbert.invert_operator(np.eye(3), tol),
    "hilbert.pseudoinverse": lambda tol: controlled.ControlledEFrame(E, PSI, U, tol).t_u_pinv,
    "hilbert.is_positive_definite": (
        lambda tol: hilbert.hermitian_bounds(np.eye(3), tol).positive(tol)),
    "build_dense": lambda tol: mapping.build_dense(np.eye(3), tol),
    "build_banded": lambda tol: mapping.build_banded(3, {0: np.ones(3)}, tol),
    "e_frame_bounds": lambda tol: eframe.e_frame_bounds(E, PSI, tol),
    "e_canonical_dual": lambda tol: eframe.e_canonical_dual(E, PSI, tol),
    "e_riesz_family": lambda tol: eframe.e_riesz_family(np.eye(3), E3, np.eye(3), tol),
    "ControlledEFrame": lambda tol: controlled.ControlledEFrame(E, PSI, U, tol),
    "ControlledEFrame.certify": lambda tol: RECORD.certify(RECORD.images, tol=tol),
    "controlled_bounds": lambda tol: controlled.controlled_bounds(E, PSI, U, tol),
    "identity_errors": lambda tol: controlled.identity_errors(E, PSI, U, tol=tol),
    "commutation_criterion": lambda tol: controlled.commutation_criterion(E, PSI, U, tol),
    "is_parseval": lambda tol: controlled.is_parseval(E, PSI, U, tol),
    "canonical_reconstruct": (
        lambda tol: controlled.ControlledEFrame(E, PSI, U, tol).canonical_reconstruct(F)),
    "canonical_dual": lambda tol: controlled.canonical_dual(E, PSI, U, tol),
    "verify_dual": lambda tol: controlled.verify_dual(E, PSI, PHI, U, tol=tol),
    "dual_from_right_inverse": lambda tol: controlled.dual_from_right_inverse(
        E, PSI, U, GOOD["v:right"], tol),
    "dual_with_offset": lambda tol: controlled.dual_with_offset(E, PSI, U, GOOD["v:null"], tol),
    "random_null_map": lambda tol: controlled.random_null_map(E, PSI, U, tol=tol),
    "random_right_inverse": lambda tol: controlled.random_right_inverse(E, PSI, U, tol=tol),
    "extract_null_map": lambda tol: controlled.extract_null_map(E, PSI, PHI, U, tol=tol),
    "riesz_equivalence": lambda tol: controlled.riesz_equivalence(
        np.eye(3), np.eye(3), E3, U, tol),
}

#: entry point -> call with the given eps and max_terms
STOP_CALLS = {
    "corrected_dual": lambda **kw: neumann.corrected_dual(E, PSI, 0.9 * PHI, U, **kw),
    "iterative_reconstruct": lambda **kw: neumann.iterative_reconstruct(
        E, PSI, 0.9 * PHI, U, F, **kw),
    "ApproximateDual.corrected_dual": lambda **kw: neumann.ApproximateDual(
        RECORD, 0.9 * PHI).corrected_dual(**kw),
    "ApproximateDual.iterative_reconstruct": lambda **kw: neumann.ApproximateDual(
        RECORD, 0.9 * PHI).iterative_reconstruct(F, **kw),
}

#: 10**400 is finite and positive as an integer but beyond double range
BAD_NUMBERS = [float("nan"), float("inf"), 0, -1, pytest.param(10**400, id="10**400")]


@pytest.mark.parametrize("label", sorted(TOL_CALLS))
def test_good_tol_passes(label):
    TOL_CALLS[label](1e-10)


@pytest.mark.parametrize("value", BAD_NUMBERS)
@pytest.mark.parametrize("label", sorted(TOL_CALLS))
def test_bad_tol_is_an_input_error(label, value):
    with pytest.raises(ValueError, match=r"^tol must be a finite positive number, got "):
        TOL_CALLS[label](value)


@pytest.mark.parametrize("value", BAD_NUMBERS)
@pytest.mark.parametrize("label", sorted(STOP_CALLS))
def test_bad_eps_and_max_terms_are_input_errors(label, value):
    assert STOP_CALLS[label](eps=1e-10, max_terms=100)[1].converged
    with pytest.raises(ValueError, match=r"^eps must be a finite positive number, got "):
        STOP_CALLS[label](eps=value)
    with pytest.raises(ValueError, match=r"^max_terms must be a finite positive integer"):
        STOP_CALLS[label](max_terms=value)


#: entry point -> call with the given trials
TRIALS_CALLS = {
    "ControlledEFrame.certify": lambda trials: RECORD.certify(RECORD.images, trials),
    "ControlledEFrame.identity_errors": lambda trials: RECORD.identity_errors(trials),
    "identity_errors": lambda trials: controlled.identity_errors(E, PSI, U, trials),
    "verify_dual": lambda trials: controlled.verify_dual(E, PSI, PHI, U, trials),
    "extract_null_map": lambda trials: controlled.extract_null_map(E, PSI, PHI, U, trials),
}


@pytest.mark.parametrize("value", [-1, 0, 2.5, True, float("nan")])
@pytest.mark.parametrize("label", sorted(TRIALS_CALLS))
def test_bad_trials_is_an_input_error(label, value):
    TRIALS_CALLS[label](np.int64(3))
    with pytest.raises(ValueError, match=r"^trials must be a finite positive integer, got "):
        TRIALS_CALLS[label](value)


def test_numpy_scalars_are_numbers():
    assert controlled.ControlledEFrame(E, PSI, U, np.float32(1e-6)).tol == pytest.approx(1e-6)
    _, report = neumann.corrected_dual(E, PSI, 0.9 * PHI, U, np.float64(1e-12), np.int64(100))
    assert report.converged


def test_negative_definite_operator_is_no_frame_at_any_tol():
    """lo > tol * hi held for S = -S_E / 2 (spectrum [-1, -1/2]) at tol = 3."""
    record = controlled.ControlledEFrame(E, PSI, -U, tol=3.0)
    assert record.verdict == controlled.INVALID


def test_config_and_cli_keep_their_messages(tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"^'tol' must be a finite positive number, got 0$"):
        parse_config(write_config(tmp_path, tol=0))
    assert main(["paper-example", "--dim", "3", "--tol", "nan"]) == 1
    assert capsys.readouterr().err == "error: --tol must be a finite positive number, got nan\n"


@pytest.mark.parametrize("n", [0, -1])
def test_banded_size_is_checked_before_its_diagonals(n):
    message = rf"^mapping size must be a finite positive integer, got {n}$"
    with pytest.raises(ValueError, match=message):
        mapping.build_banded(n, {0: []})


SIZE_BUILDERS = {
    "identity": mapping.identity_mapping,
    "bidiagonal": mapping.build_bidiagonal,
    "banded": lambda n: mapping.build_banded(n, {0: np.ones(4)}),
}


@pytest.mark.parametrize("n", [2.5, float("nan"), True, "3", 3.0])
@pytest.mark.parametrize("kind", sorted(SIZE_BUILDERS))
def test_mapping_size_must_be_a_positive_integer(kind, n):
    with pytest.raises(ValueError, match=r"^mapping size must be a finite positive integer"):
        SIZE_BUILDERS[kind](n)


@pytest.mark.parametrize("kind", sorted(SIZE_BUILDERS))
def test_numpy_integer_mapping_size_is_accepted(kind):
    e = SIZE_BUILDERS[kind](np.int64(4))
    assert e.n == 4 and type(e.n) is int
    assert e.apply(np.ones((4, 2))).shape == (4, 2)


@pytest.mark.parametrize("keys", [("0", "00"), (0, "0"), (-1, "-01")])
def test_banded_offset_given_twice_is_an_input_error(keys):
    off = int(keys[0])
    diagonals = {key: np.full(4 - abs(off), 2.0) for key in keys}
    with pytest.raises(DimensionMismatchError, match=rf"^diagonal offset {off} is given twice$"):
        mapping.build_banded(4, diagonals)


def test_config_offset_given_twice_exits_1(tmp_path, capsys):
    diagonals = {"0": [[1, 0]] * 4, "00": [[1, 0]] * 4}
    path = write_config(tmp_path, mapping={"kind": "banded", "diagonals": diagonals})
    with pytest.raises(ConfigError, match=r"^diagonal offset 0 is given twice$"):
        parse_config(path)
    assert main(["analyze", path]) == 1
    assert capsys.readouterr().err == "error: diagonal offset 0 is given twice\n"


@pytest.mark.parametrize("command", ["analyze", "dual", "verify", "neumann", "paper-example"])
def test_negative_seed_flag_names_the_flag(tmp_path, capsys, command):
    target = ["--dim", "3"] if command == "paper-example" else [write_config(tmp_path)]
    assert main([command, *target, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"


def test_negative_config_seed_names_the_key(tmp_path, capsys):
    path = write_config(tmp_path, seed=-3)
    with pytest.raises(ConfigError, match=r"^'seed' must be a non-negative integer, got -3$"):
        parse_config(path)
    assert main(["analyze", path]) == 1
    assert capsys.readouterr().err == "error: 'seed' must be a non-negative integer, got -3\n"


@pytest.mark.parametrize("key", [1.9, True, None, "x", "1.0"])
def test_banded_offset_must_be_an_integer(key):
    diagonals = {0: np.ones(3), key: np.ones(2)}
    with pytest.raises(DimensionMismatchError, match=rf"^bad diagonal offset {re.escape(repr(key))}$"):
        mapping.build_banded(3, diagonals)


def test_banded_offsets_are_integers_or_integer_strings():
    diagonals = {0: np.ones(3), np.int64(1): np.full(2, 2.0), "-1": np.full(2, 3.0)}
    want = np.eye(3) + np.diag([2.0, 2.0], 1) + np.diag([3.0, 3.0], -1)
    assert np.array_equal(dense_form(mapping.build_banded(3, diagonals)), want)


def test_config_offset_that_is_not_an_integer_exits_1(tmp_path, capsys):
    diagonals = {"0": [[1, 0]] * 4, "x": [[1, 0]] * 3}
    path = write_config(tmp_path, mapping={"kind": "banded", "diagonals": diagonals})
    with pytest.raises(ConfigError, match=r"^bad diagonal offset 'x'$"):
        parse_config(path)
    assert main(["analyze", path]) == 1
    assert capsys.readouterr().err == "error: bad diagonal offset 'x'\n"


def test_paper_example_dim_below_2_keeps_its_message(capsys):
    assert main(["paper-example", "--dim", "1"]) == 1
    want = "error: worked example needs dimension >= 2 (at least e1 and e2)\n"
    assert capsys.readouterr().err == want


#: library call -> the call with a given seed
SEEDED = {
    "hilbert.trial_vectors": lambda seed: hilbert.trial_vectors(3, 5, seed),
    "random_null_map": lambda seed: controlled.random_null_map(E, PSI, U, seed=seed),
    "random_right_inverse": lambda seed: controlled.random_right_inverse(E, PSI, U, seed=seed),
    "ControlledEFrame.certify": lambda seed: RECORD.certify(RECORD.images_of(PHI), seed=seed),
    "identity_errors": lambda seed: controlled.identity_errors(E, PSI, U, seed=seed),
    "verify_dual": lambda seed: controlled.verify_dual(E, PSI, PHI, U, seed=seed),
    "extract_null_map": lambda seed: controlled.extract_null_map(E, PSI, PHI, U, seed=seed),
}


@pytest.mark.parametrize("seed", [-1, 2.5, True])
@pytest.mark.parametrize("name", sorted(SEEDED))
def test_library_seed_must_be_a_non_negative_integer(name, seed):
    message = rf"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        SEEDED[name](seed)


def test_library_seed_is_checked_before_the_frame_verdict():
    record = controlled.ControlledEFrame(E, np.zeros_like(PSI), U)
    for call in (record.random_null_map, lambda seed: record.identity_errors(seed=seed)):
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer"):
            call(-1)


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_numpy_integer_library_seed_is_accepted(name):
    np.testing.assert_equal(SEEDED[name](np.int64(7)), SEEDED[name](7))

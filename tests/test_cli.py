import json
import tracemalloc

import numpy as np
import pytest

from eframes import gallery
from eframes.cli import cmd_paper_example, main
from eframes.config import ConfigError, parse_config
from eframes.errors import SingularOperatorError


def pairs(seq):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(seq)]


def write_config(tmp_path, name="config.json", **overrides):
    d = 3
    cfg = {
        "dimension": d,
        "count": d + 1,
        "psi": pairs(gallery.example_psi(d)),
        "mapping": {"kind": "paper_bidiagonal"},
        "u": {"kind": "scalar", "value": 0.5},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def machine(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "machine")
    return code, json.loads(out)


def test_parse_config_worked(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    assert cfg.dimension == 3 and cfg.count == 4
    assert np.allclose(cfg.mapping.inverse, np.tril(np.ones((4, 4))))
    assert np.allclose(cfg.u, 0.5 * np.eye(3))
    assert cfg.tol == 1e-10 and cfg.trials == 100 and cfg.seed == 42


def test_parse_config_dense_and_banded(tmp_path):
    entries = pairs(np.eye(4))
    cfg = parse_config(write_config(tmp_path, mapping={"kind": "dense", "entries": entries}))
    assert np.allclose(cfg.mapping.entries, np.eye(4))
    diagonals = {"0": [[1, 0]] * 4, "-1": [[-1, 0]] * 3}
    cfg2 = parse_config(
        write_config(tmp_path, mapping={"kind": "banded", "diagonals": diagonals})
    )
    assert np.allclose(cfg2.mapping.entries, np.eye(4) - np.eye(4, k=-1))


def test_parse_config_rejects_non_square_mapping(tmp_path):
    entries = pairs(np.ones((4, 3)))
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, mapping={"kind": "dense", "entries": entries}))


def test_parse_config_rejects_bad_shapes(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, psi=pairs(np.eye(3))))
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, u={"kind": "unknown"}))
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, extra_key=1))


def test_analyze_worked(tmp_path, capsys):
    code, report = machine(capsys, "analyze", write_config(tmp_path))
    assert code == 0
    assert report["eframe"]["lower"] == pytest.approx(1.0)
    assert report["eframe"]["upper"] == pytest.approx(2.0)
    assert report["controlled"]["lower"] == pytest.approx(0.5)
    assert report["controlled"]["upper"] == pytest.approx(1.0)
    assert report["eframe"]["verdict"] == "frame"
    assert report["controlled"]["verdict"] == "controlled-frame"
    assert report["parseval"] is False
    assert report["identities"]["err_switched_sum"] <= 1e-12


def test_analyze_orthonormal_parseval(tmp_path, capsys):
    path = write_config(
        tmp_path,
        dimension=3,
        count=3,
        psi=pairs(np.eye(3)),
        mapping={"kind": "dense", "entries": pairs(np.eye(3))},
        u={"kind": "identity"},
    )
    code, report = machine(capsys, "analyze", path)
    assert code == 0
    assert report["eframe"]["lower"] == pytest.approx(1.0)
    assert report["controlled"]["upper"] == pytest.approx(1.0)
    assert report["parseval"] is True


def test_analyze_strict_exits_2_on_bessel_only(tmp_path, capsys):
    psi = np.zeros((4, 3), dtype=complex)
    psi[:, 0] = [1, 2, 1, 1]
    path = write_config(tmp_path, psi=pairs(psi))
    code, _ = run(capsys, "analyze", path)
    assert code == 0
    code_strict, _ = run(capsys, "analyze", path, "--strict")
    assert code_strict == 2


def test_dual_canonical_is_psi_tilde(tmp_path, capsys):
    code, report = machine(capsys, "dual", write_config(tmp_path), "--mode", "canonical")
    assert code == 0
    dual = np.array([[complex(re, im) for re, im in row] for row in report["dual"]])
    assert np.allclose(dual, gallery.example_psi_tilde(3), atol=1e-12)
    definitional = report["certificates"][0]
    assert definitional["orientation"] == "definitional"
    assert definitional["verdict"] is True
    assert definitional["max_residual"] <= 1e-12


def test_dual_offset_roundtrip(tmp_path, capsys):
    code, report = machine(
        capsys, "dual", write_config(tmp_path), "--mode", "offset", "--seed", "7"
    )
    assert code == 0
    assert report["null_map_roundtrip"] <= 1e-9
    assert report["certificates"][0]["verdict"] is True


def test_dual_right_inverse(tmp_path, capsys):
    code, report = machine(
        capsys, "dual", write_config(tmp_path), "--mode", "right-inverse", "--seed", "3"
    )
    assert code == 0
    assert report["certificates"][0]["verdict"] is True


def test_verify_phi_fails_at_half(tmp_path, capsys):
    path = write_config(tmp_path, phi=pairs(gallery.example_phi(3)))
    code, report = machine(capsys, "verify", path)
    assert code == 2
    definitional = report["certificates"][0]
    assert definitional["verdict"] is False
    assert definitional["max_residual"] == pytest.approx(0.5, abs=1e-12)


def test_verify_psi_tilde_passes(tmp_path, capsys):
    path = write_config(tmp_path, phi=pairs(gallery.example_psi_tilde(3)))
    code, report = machine(capsys, "verify", path)
    assert code == 0
    assert report["certificates"][0]["verdict"] is True


def test_verify_without_phi_is_input_error(tmp_path, capsys):
    code = main(["verify", write_config(tmp_path)])
    assert code == 1


def test_neumann_rho_09(tmp_path, capsys):
    code, report = machine(capsys, "neumann", write_config(tmp_path), "--rho", "0.9")
    assert code == 0
    assert report["ratio"] == pytest.approx(0.1, abs=1e-9)
    assert report["terms_used"] <= 13
    assert report["converged"] is True
    history = report["residual_history"]
    assert all(b <= 0.11 * a for a, b in zip(history, history[1:]))


def test_neumann_rho_1_single_term(tmp_path, capsys):
    code, report = machine(capsys, "neumann", write_config(tmp_path), "--rho", "1.0")
    assert code == 0
    assert report["ratio"] == pytest.approx(0.0, abs=1e-12)
    assert report["terms_used"] == 1


def test_neumann_rho_2_exits_2(tmp_path, capsys):
    code, report = machine(capsys, "neumann", write_config(tmp_path), "--rho", "2.0")
    assert code == 2
    assert report["ratio"] == pytest.approx(1.0, abs=1e-12)
    assert report["converged"] is False


def test_paper_example_dims(capsys):
    for dim in (3, 8):
        code, report = machine(capsys, "paper-example", "--dim", str(dim))
        assert code == 0
        assert set(report["residuals"]) == {
            "plain_psi_tilde",
            "controlled_psi_tilde",
            "plain_phi",
            "controlled_phi",
        }
        assert all(v <= 1e-12 for v in report["residuals"].values())


def test_paper_example_peak_memory():
    """The basis sums come from the d x d mixed operators: about 33 MB at
    d = 512, where a chain through N x (trials + d) coefficient blocks
    peaks at about 47 MB."""
    tracemalloc.start()
    try:
        report, code = cmd_paper_example(512, 1e-10, 100, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 42e6


def test_paper_example_dim_1_is_input_error(capsys):
    assert main(["paper-example", "--dim", "1"]) == 1


def test_malformed_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["analyze", str(missing)]) == 1


def test_singular_mapping_exits_1(tmp_path, capsys):
    entries = pairs(np.zeros((4, 4)))
    path = write_config(tmp_path, mapping={"kind": "dense", "entries": entries})
    assert main(["analyze", path]) == 1


@pytest.mark.parametrize(
    "main_diagonal",
    [[[1, 0], [0, 0], [1, 0], [1, 0]], [[1, 0], [1e-14, 0], [1, 0], [1, 0]]],
    ids=["singular", "near-singular"],
)
def test_singular_banded_mapping_exits_1(tmp_path, capsys, main_diagonal):
    diagonals = {"0": main_diagonal, "1": [[0.5, 0]] * 3}
    path = write_config(tmp_path, mapping={"kind": "banded", "diagonals": diagonals})
    assert main(["analyze", path]) == 1
    assert "singular" in capsys.readouterr().err


def test_non_finite_banded_diagonal_exits_1(tmp_path, capsys):
    diagonals = {"0": [[1, 0], [float("nan"), 0], [1, 0], [1, 0]]}
    path = write_config(tmp_path, mapping={"kind": "banded", "diagonals": diagonals})
    assert main(["analyze", path]) == 1
    assert "finite" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert main(["no-such-command"]) == 1


def test_machine_reports_are_deterministic(tmp_path, capsys):
    path = write_config(tmp_path)
    argv = ["dual", path, "--mode", "offset", "--seed", "11", "--format", "machine"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    main(["paper-example", "--dim", "3", "--format", "machine"])
    third = capsys.readouterr().out
    main(["paper-example", "--dim", "3", "--format", "machine"])
    fourth = capsys.readouterr().out
    assert third == fourth


def test_flag_overrides_take_precedence(tmp_path, capsys):
    path = write_config(tmp_path, tol=1e-3, trials=7, seed=1)
    cfg = parse_config(path)
    assert cfg.tol == 1e-3 and cfg.trials == 7 and cfg.seed == 1
    code, report = machine(
        capsys, "verify",
        write_config(tmp_path, name="v.json", phi=pairs(gallery.example_psi_tilde(3)), trials=7),
        "--trials", "5",
    )
    assert code == 0
    assert report["certificates"][0]["trials"] == 5 + 3  # trials plus basis vectors
    # --tol reaches the mapping: 1-norm reciprocal condition 1e-6, singular at 1e-3 only
    entries = pairs(np.diag([1.0, 1.0, 1.0, 1e-6]))
    dense = {"kind": "dense", "entries": entries}
    loose = write_config(tmp_path, name="loose.json", mapping=dense, tol=1e-3)
    tight = write_config(tmp_path, name="tight.json", mapping=dense, tol=1e-10)
    with pytest.raises(SingularOperatorError):
        parse_config(tight, {"tol": 1e-3})
    assert parse_config(loose, {"tol": 1e-10}).tol == 1e-10
    assert main(["analyze", tight, "--tol", "1e-3"]) == 1
    assert "singular" in capsys.readouterr().err
    assert main(["analyze", loose, "--tol", "1e-10"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--strict", "--tol", "nan"),
        ("analyze", "--tol", "inf"),
        ("neumann", "--rho", "0.9", "--eps", "inf"),
        ("neumann", "--rho", "0.9", "--eps", "-1"),
        ("neumann", "--rho", "0.9", "--max-terms", "0"),
    ],
)
def test_non_finite_or_non_positive_flags_exit_1(tmp_path, capsys, argv):
    command, *flags = argv
    assert main([command, write_config(tmp_path), *flags]) == 1


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_paper_example_non_finite_tol_exits_1(capsys, tol):
    assert main(["paper-example", "--dim", "3", "--tol", tol]) == 1


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_config_non_finite_tol_exits_1(tmp_path, capsys, tol):
    path = write_config(tmp_path, tol=tol)
    with pytest.raises(ConfigError):
        parse_config(path)
    assert main(["analyze", path, "--strict"]) == 1

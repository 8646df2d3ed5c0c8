import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import dense_form, dense_inverse
from eframes import controlled, gallery
from eframes.cli import build_parser, cmd_paper_example, main
from eframes.config import ConfigError, parse_config
from eframes.errors import SingularOperatorError
from eframes.hilbert import trial_sums, trial_vectors, worst_residual
from eframes.mapping import apply_mapping


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


def not_json(constant):
    raise ValueError(f"machine output is not RFC 8259 JSON: it holds {constant}")


def machine(capsys, *argv):
    """Exit code and report, parsed strictly: NaN, Infinity or -Infinity fails."""
    code, out = run(capsys, *argv, "--format", "machine")
    return code, json.loads(out, parse_constant=not_json)


def test_parse_config_worked(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    assert cfg.psi.shape == (4, 3)
    assert np.allclose(dense_inverse(cfg.mapping), np.tril(np.ones((4, 4))))
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
    assert np.allclose(dense_form(cfg2.mapping), np.eye(4) - np.eye(4, k=-1))


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


@pytest.mark.parametrize("d", [3, 16])
def test_dual_on_a_square_family_exits_0_in_every_mode(tmp_path, capsys, d):
    """For N = d the kernel of T_u is {0}: the null map is exactly 0, so the
    offset dual is the canonical dual (the map was rounding noise, and the
    null condition failed with exit 2)."""
    psi = np.random.default_rng(d).standard_normal((d, d, 2)).view(complex)[..., 0]
    path = write_config(tmp_path, dimension=d, count=d, psi=pairs(psi))
    reports = {}
    for mode in ("canonical", "right-inverse", "offset"):
        code, reports[mode] = machine(capsys, "dual", path, "--mode", mode)
        assert code == 0
        assert reports[mode]["certificates"][0]["verdict"] is True
    assert reports["offset"]["dual"] == reports["canonical"]["dual"]
    assert reports["offset"]["null_map_roundtrip"] <= 1e-10


@pytest.mark.parametrize("scale", [1e-150, 1e-16, 1e-8, 1.0, 1e150])
def test_dual_offset_roundtrip_does_not_depend_on_scale(tmp_path, capsys, scale):
    """The recovered null map is formed at the family's scale, about 1 / scale,
    so the round trip is measured against ||E phi||_F, not against ||V||."""
    path = write_config(tmp_path, psi=pairs(scale * gallery.example_psi(3)))
    code, report = machine(capsys, "dual", path, "--mode", "offset")
    assert code == 0
    assert report["null_map_roundtrip"] <= 1e-10


@pytest.mark.parametrize("argv", [
    ["analyze"], ["dual", "--mode", "canonical"], ["dual", "--mode", "right-inverse"],
    ["dual", "--mode", "offset"], ["neumann", "--rho", "0.9"],
])
def test_overflowing_frame_operator_is_one_input_error(tmp_path, capsys, argv):
    """At psi times 1e154, S_E overflows: every command exits 1 with the
    validator's message and no warning (pytest turns a warning into an error)."""
    path = write_config(tmp_path, psi=pairs(1e154 * gallery.example_psi(3)))
    assert main([argv[0], path, *argv[1:]]) == 1
    assert capsys.readouterr().err == "error: entries must be finite\n"


B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
OVERFLOWING_IMAGES = {  # psi and E, each finite, whose images E psi pass 1e308
    "dense": (1e200 * B, {"kind": "dense", "entries": pairs(1e200 * np.eye(3))}),
    "banded": (1e200 * B, {"kind": "banded", "diagonals": {"0": [[1e200, 0]] * 3}}),
    "bidiagonal": ([[1.7e308, 0], [-1.7e308, 1], [1, 1]], {"kind": "paper_bidiagonal"}),
}


@pytest.mark.parametrize("kind", OVERFLOWING_IMAGES)
@pytest.mark.parametrize("argv", [["analyze"], ["dual"], ["neumann", "--rho", "0.5"]])
def test_overflow_while_applying_e_is_one_input_error(tmp_path, capsys, kind, argv):
    """Every kind of mapping forms E psi under the overflow rule: exit 1 with
    the validator's message and no numpy warning."""
    psi, e = OVERFLOWING_IMAGES[kind]
    path = write_config(
        tmp_path, dimension=2, count=3, psi=pairs(psi), mapping=e, u={"kind": "identity"}
    )
    assert main([argv[0], path, *argv[1:], "--format", "machine"]) == 1
    assert capsys.readouterr() == ("", "error: entries must be finite\n")


@pytest.mark.parametrize("command", ["verify", "neumann"])
def test_overflowing_certificate_sums_are_one_input_error(tmp_path, capsys, command):
    """psi = 1e150 B, U = 1e50 and phi = 1e200 B: T_u and E phi are finite, but
    both certificates' sums and the Neumann deviation id - T_u D* pass 1e308.
    verify and neumann exit 1; verify prints no NaN residual."""
    path = write_config(
        tmp_path, dimension=2, count=3, psi=pairs(1e150 * B), phi=pairs(1e200 * B),
        mapping={"kind": "dense", "entries": pairs(np.eye(3))},
        u={"kind": "scalar", "value": 1e50},
    )
    assert main([command, path, "--format", "machine"]) == 1
    assert capsys.readouterr() == ("", "error: entries must be finite\n")


@pytest.mark.parametrize("rho", ["nan", "inf", "-inf"])
def test_non_finite_rho_exits_1_naming_the_flag(tmp_path, capsys, rho):
    assert main(["neumann", write_config(tmp_path), f"--rho={rho}"]) == 1
    assert capsys.readouterr() == ("", f"error: --rho must be a finite number, got {rho}\n")


@pytest.mark.parametrize("rho", ["1e308", "-1e308"])
def test_rho_whose_product_overflows_is_one_input_error(tmp_path, capsys, rho):
    assert main(["neumann", write_config(tmp_path), f"--rho={rho}"]) == 1
    assert capsys.readouterr() == ("", "error: entries must be finite\n")


@pytest.mark.parametrize("rho, ratio", [("0", 1.0), ("-1", 2.0)])
def test_zero_or_negative_rho_is_accepted(tmp_path, capsys, rho, ratio):
    code, report = machine(capsys, "neumann", write_config(tmp_path), f"--rho={rho}")
    assert code == 2
    assert report["ratio"] == pytest.approx(ratio) and report["converged"] is False


def test_dual_text_format_counts_the_rows(tmp_path, capsys):
    code, out = run(capsys, "dual", write_config(tmp_path))
    assert code == 0
    assert "dual: <4 rows>" in out.splitlines()


def test_verdict_failure_exits_2_in_process(tmp_path, capsys):
    path = write_config(tmp_path, psi=pairs(np.zeros((4, 3))))
    assert main(["dual", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "verdict failure: family is not a controlled frame: operator not Hermitian positive\n"
    )


def test_dual_right_inverse(tmp_path, capsys):
    code, report = machine(
        capsys, "dual", write_config(tmp_path), "--mode", "right-inverse", "--seed", "3"
    )
    assert code == 0
    assert report["certificates"][0]["verdict"] is True


@pytest.mark.parametrize("tol, k", [(1e-10, 21), (1e-6, 13), (1e-4, 9)])
def test_dual_on_a_parseval_frame_with_a_small_t_u(tmp_path, capsys, tol, k):
    """S = id exactly, while the smallest singular value of T_u, 10^(-k/2), is
    below tol: no tol cuts it, so every mode exits 0."""
    path = write_config(
        tmp_path, dimension=2, count=3, tol=tol,
        psi=pairs([[1.0, 0.0], [0.0, 10.0 ** (k / 2)], [0.0, 0.0]]),
        mapping={"kind": "dense", "entries": pairs(np.eye(3))},
        u={"kind": "dense", "entries": pairs(np.diag([1.0, 10.0 ** -k]))},
    )
    for mode in ("canonical", "right-inverse", "offset"):
        code, report = machine(capsys, "dual", path, "--mode", mode)
        assert code == 0
        assert report["certificates"][0]["verdict"] is True


@pytest.mark.parametrize("mode", ["canonical", "right-inverse"])
def test_dual_failing_certificate_exits_2_with_its_report(tmp_path, capsys, monkeypatch, mode):
    certify = controlled.ControlledEFrame.certify

    def failing(self, *args, **kwargs):
        definitional, switched = certify(self, *args, **kwargs)
        return dataclasses.replace(definitional, verdict=False), switched

    monkeypatch.setattr(controlled.ControlledEFrame, "certify", failing)
    code, report = machine(capsys, "dual", write_config(tmp_path), "--mode", mode)
    assert code == 2
    assert report["mode"] == mode and len(report["dual"]) == 4
    assert report["certificates"][0]["verdict"] is False


def test_dual_offset_roundtrip_beyond_tol_exits_2_with_its_report(
    tmp_path, capsys, monkeypatch
):
    null_map = controlled.ControlledEFrame.null_map
    monkeypatch.setattr(
        controlled.ControlledEFrame, "null_map",
        lambda self, images, cert: (1 + 1e-6) * null_map(self, images, cert),
    )
    code, report = machine(capsys, "dual", write_config(tmp_path), "--mode", "offset")
    assert code == 2
    assert report["null_map_roundtrip"] > 1e-10 and len(report["dual"]) == 4
    assert report["certificates"][0]["verdict"] is True


def test_verify_far_past_1e154_reports_a_finite_residual(tmp_path, capsys):
    """psi and psi_tilde both times 1e150 sum to 1e300 f, so phi is no dual
    (exit 2); the residual's column norms are scale-safe: no warning, no inf."""
    path = write_config(
        tmp_path, psi=pairs(1e150 * gallery.example_psi(3)),
        phi=pairs(1e150 * gallery.example_psi_tilde(3)),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(capsys, "verify", path, "--format", "machine")
    assert code == 2 and caught == []
    assert "Infinity" not in out
    definitional = json.loads(out)["certificates"][0]
    assert definitional["max_residual"] == pytest.approx(1e300, rel=1e-12)


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


def test_neumann_reads_phi_from_the_config(tmp_path, capsys):
    path = write_config(tmp_path, phi=pairs(0.9 * gallery.example_psi_tilde(3)))
    code, report = machine(capsys, "neumann", path)
    assert code == 0
    assert "rho" not in report
    assert report["ratio"] == pytest.approx(0.1, abs=1e-9)
    assert report["converged"] is True


def test_neumann_without_rho_or_phi_is_input_error(tmp_path, capsys):
    assert main(["neumann", write_config(tmp_path)]) == 1
    want = "error: neumann requires --rho or 'phi' in the configuration\n"
    assert capsys.readouterr().err == want


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
    """The basis sums come from the d x d mixed operators, each pair's sums are
    formed once (the controlled residual is CONTROL_SCALE times the plain one),
    and only psi's images outlive a pair: about 20 MB at d = 512. A second,
    scaled block per pair with all three families' images alive peaks at
    about 29 MB, a dense U and its product at about 33 MB, and a chain through
    N x (trials + d) coefficient blocks at about 47 MB."""
    tracemalloc.start()
    try:
        report, code = cmd_paper_example(512, 1e-10, 100, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 22e6


@pytest.mark.parametrize("trials", [1, 7, 100])
@pytest.mark.parametrize("dim", [2, 3, 17, 64])
def test_paper_example_residuals_equal_the_dense_u_reference(dim, trials):
    """The scalar CONTROL_SCALE gives the same bits as the public dense U."""
    e, u = gallery.example_mapping(dim), gallery.example_u(dim)
    psi, tilde, phi = (
        apply_mapping(e, family(dim))
        for family in (gallery.example_psi, gallery.example_psi_tilde, gallery.example_phi)
    )
    f = trial_vectors(dim, trials, 5)
    want = []
    for analysis, synthesis, plain_target, controlled_target in (
        (psi, tilde, 2.0, 1.0), (phi, psi, 1.0, 0.5)
    ):
        plain = trial_sums(synthesis.T, analysis, f)
        controlled = u @ plain
        want += [worst_residual(plain, f, plain_target),
                 worst_residual(controlled, f, controlled_target)]
    report, code = cmd_paper_example(dim, 1e-10, trials, 5)
    assert list(report["residuals"].values()) == want
    assert code == 0


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


def test_one_parser_serves_every_call(tmp_path, capsys):
    """A usage error, --help or a flag leaves the shared parser as it was."""
    assert build_parser() is build_parser()
    argv = ["analyze", write_config(tmp_path), "--format", "machine"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(["analyze", "--no-such-flag", argv[1]]) == 1
    assert main(["analyze", "--help"]) == 0
    assert main([*argv, "--seed", "3", "--trials", "5"]) == 0
    assert capsys.readouterr().out != first
    assert main(argv) == 0
    assert capsys.readouterr().out == first


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


def test_config_tol_beyond_double_range_exits_1(tmp_path, capsys):
    """orjson refuses the 401-digit integer and the stdlib reader returns it."""
    assert main(["analyze", write_config(tmp_path, tol=10**400)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: 'tol' must be a finite positive number, got 1000"
    )


@pytest.mark.parametrize("scale", [1e-155, 1e-160])
def test_tiny_worked_example_gets_no_false_verdict(tmp_path, capsys, scale):
    """S_E has entries near 1e-320 at scale 1e-160. The rules see its subnormal
    parts (hilbert.frobenius), so the verdicts are those at scale 1; S^{-1}
    overflows, and the duals built on it are an input error."""
    _, unscaled = machine(capsys, "analyze", write_config(tmp_path, "one.json"))
    path = write_config(tmp_path, psi=pairs(scale * gallery.example_psi(3)))
    code, report = machine(capsys, "analyze", path, "--strict")
    assert code == 0
    for key in ("eframe", "controlled"):
        assert report[key]["verdict"] == unscaled[key]["verdict"]
    assert report["parseval"] == unscaled["parseval"]
    assert main(["dual", path, "--mode", "right-inverse", "--format", "machine"]) == 0
    capsys.readouterr()
    for mode in ("canonical", "offset"):
        assert main(["dual", path, "--mode", mode]) == 1
        assert capsys.readouterr().err == "error: entries must be finite\n"


def test_deeply_nested_config_exits_1(tmp_path, capsys):
    """Nesting this deep skips orjson, and json.load raises RecursionError;
    a nesting of 500-900 is parsed and then fails the shape check."""
    depth = 200_000
    path = tmp_path / "deep.json"
    path.write_text('{"dimension": ' + "[" * depth + "]" * depth + "}")
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == "error: configuration is nested too deeply to parse\n"


@pytest.mark.parametrize("j", [530, -530])
def test_neumann_on_a_rescaled_pair_passes(tmp_path, capsys, j):
    """psi times 2**j and phi = can / 2**j / 2: the series takes its norms from
    hilbert.frobenius, so it runs the 39 terms of the unscaled pair and both
    certificates pass, with no numpy warning."""
    worked = (gallery.example_mapping(3), gallery.example_psi(3), gallery.example_u(3))
    can = controlled.canonical_dual(*worked)
    path = write_config(
        tmp_path, psi=pairs(2.0**j * worked[1]), phi=pairs(0.5 * can / 2.0**j)
    )
    code = main(["neumann", path, "--format", "machine"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["terms_used"] == 39 and report["converged"] is True
    assert [cert["verdict"] for cert in report["certificates"]] == [True, True]


def test_trials_beyond_memory_exit_1(tmp_path, capsys):
    """numpy refuses a (3, 10**15) array at once and allocates nothing."""
    huge = 10**15
    for argv in (
        ["analyze", write_config(tmp_path), "--trials", str(huge)],
        ["analyze", write_config(tmp_path, "huge.json", trials=huge)],
        ["paper-example", "--dim", "3", "--trials", str(huge)],
    ):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

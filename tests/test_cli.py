import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import dense_form, dense_inverse
from eframes import cli, controlled, gallery, hilbert
from eframes.cli import build_parser, cmd_paper_example, main
from eframes.config import ConfigError, parse_config
from eframes.errors import SingularOperatorError
from eframes.hilbert import trial_vectors, worst_residual
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


def stdlib(report) -> str:
    """The machine format's reference: the stdlib's canonical JSON."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)


def machine(capsys, *argv):
    """Exit code and report, parsed strictly: NaN, Infinity or -Infinity fails.
    Floats round-trip exactly, so the output must be the report's stdlib bytes."""
    code, out = run(capsys, *argv, "--format", "machine")
    report = json.loads(out, parse_constant=not_json)
    assert out == stdlib(report) + "\n"
    return code, report


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


def test_verify_text_format_shows_each_certificate(tmp_path, capsys):
    path = write_config(tmp_path, phi=pairs(gallery.example_psi_tilde(3)))
    code, out = run(capsys, "verify", path)
    assert code == 0
    lines = out.splitlines()
    for index, orientation in enumerate(("definitional", "switched")):
        assert f"certificates[{index}].orientation: {orientation}" in lines
        assert f"certificates[{index}].verdict: True" in lines
        assert any(line.startswith(f"certificates[{index}].max_residual: ") for line in lines)
    assert not any("rows>" in line for line in lines)


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


def test_neumann_certificate_tolerance_past_the_double_range_names_eps(tmp_path, capsys):
    """The corrected dual is certified at 10 eps / (1 - ratio), which overflows at
    --eps 1e308: an input error that names --eps, not a tol that was never given."""
    path = write_config(tmp_path, phi=pairs(gallery.example_psi_tilde(3)))
    assert main(["neumann", path, "--rho", "0.9", "--eps", "1e308"]) == 1
    want = "error: certificate tolerance from --eps must be a finite positive number, got inf\n"
    assert capsys.readouterr() == ("", want)


def test_neumann_without_rho_or_phi_is_input_error(tmp_path, capsys):
    assert main(["neumann", write_config(tmp_path)]) == 1
    want = "error: neumann requires --rho or 'phi' in the configuration\n"
    assert capsys.readouterr().err == want


def test_neumann_rho_2_exits_2(tmp_path, capsys):
    code, report = machine(capsys, "neumann", write_config(tmp_path), "--rho", "2.0")
    assert code == 2
    assert report["ratio"] == pytest.approx(1.0, abs=1e-12)
    assert report["converged"] is False


def test_neumann_rho_2_text_report(tmp_path, capsys):
    """The diverging report stops at the ratio: no term count, history or certificate."""
    code, out = run(capsys, "neumann", write_config(tmp_path), "--rho", "2.0")
    assert code == 2
    *lines, elapsed = out.splitlines()
    assert elapsed.startswith("elapsed: ")
    assert [line.partition(": ")[0] for line in lines] == [
        "command", "eps", "max_terms", "rho", "ratio", "converged"
    ]
    assert lines[:4] == ["command: neumann", "eps: 1e-12", "max_terms: 10000", "rho: 2.0"]
    assert lines[-1] == "converged: False"


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
    """The families are float64 and the mapping keeps their dtype, so each family's
    images come out real from the apply; the sums are (M f, M) with M a real d x d
    array, and each pair's sums are formed once (the controlled residual is
    CONTROL_SCALE times the plain one): about 10.0 MB at d = 512 and 21.4 MB at d = 768.
    Applying the mapping to complex families and keeping real copies of the images
    peaked at 11.6 and 25.4 MB; with complex images and a (d, trials + d) complex block
    they were 19.3 and 41.5 MB; a second, scaled block per pair with all three families'
    images alive peaked at about 29 MB at d = 512, a dense U and its product at about
    33 MB, and a chain through N x (trials + d) coefficient blocks at about 47 MB."""
    for dim, bound in ((512, 13e6), (768, 22e6)):
        tracemalloc.start()
        try:
            report, code = cmd_paper_example(dim, 1e-10, 100, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= bound, (dim, peak)


@pytest.mark.parametrize("trials", [1, 7, 100])
@pytest.mark.parametrize("dim", [2, 3, 17, 64])
def test_paper_example_residuals_equal_the_dense_u_reference(dim, trials):
    """The scalar CONTROL_SCALE and the real route of trial_sums give the same bits
    as the public dense U applied to sums formed as explicit complex products from
    the mixed operator."""
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
        mixed = synthesis.T @ analysis.conj()
        plain = (mixed @ f, mixed)
        controlled = (u @ plain[0], u @ plain[1])
        want += [worst_residual(plain, f, plain_target),
                 worst_residual(controlled, f, controlled_target)]
    report, code = cmd_paper_example(dim, 1e-10, trials, 5)
    assert list(report["residuals"].values()) == want
    assert code == 0


def complex_trial_sums(synthesis, analysis, f):
    """hilbert.trial_sums with complex GEMMs only, whatever the maps hold."""
    mixed = synthesis @ analysis.conj()
    return mixed @ f, mixed


@pytest.mark.parametrize("dim", [3, 16])
def test_real_configs_keep_their_certificates(tmp_path, capsys, monkeypatch, dim):
    """The worked-example config (gallery families, U = I/2) holds real values, but a
    config's arrays are always complex128, so every sum takes the complex route of
    trial_sums (read from the maps' dtype); every command's report, certificates to the
    bit, is the one complex-only sums give."""
    path = write_config(
        tmp_path, dimension=dim, count=dim + 1, psi=pairs(gallery.example_psi(dim)),
        phi=pairs(gallery.example_psi_tilde(dim)), trials=7,
    )
    argvs = [["analyze", path], ["verify", path]]
    argvs += [["dual", path, "--mode", mode] for mode in ("canonical", "right-inverse", "offset")]
    complex_routes, trial_sums = [], hilbert.trial_sums

    def spy(synthesis, analysis, f):
        complex_routes.append(np.result_type(synthesis, analysis) == np.complex128)
        return trial_sums(synthesis, analysis, f)

    monkeypatch.setattr(hilbert, "trial_sums", spy)
    want = [machine(capsys, *argv) for argv in argvs]
    monkeypatch.setattr(hilbert, "trial_sums", complex_trial_sums)
    assert [machine(capsys, *argv) for argv in argvs] == want
    assert [code for code, _ in want] == [0] * len(argvs)
    assert all("certificates" in report for _, report in want[1:])
    assert len(complex_routes) >= 4 and all(complex_routes), complex_routes


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


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--eps", "0", "--eps must be a finite positive number, got 0.0"),
        ("--max-terms", "0", "--max-terms must be a finite positive integer, got 0"),
        ("--rho", "nan", "--rho must be a finite number, got nan"),
    ],
)
def test_neumann_flags_are_checked_before_the_config_is_read(tmp_path, capsys, flag, value, message):
    """A bad flag is named even when the configuration cannot be read, so a
    dense config never pays its inverse before the flag is refused."""
    assert main(["neumann", str(tmp_path / "missing.json"), flag, value]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


def gaussian_config(tmp_path, n, d, seed):
    """A complex Gaussian family over paper_bidiagonal with U = I/2."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return write_config(tmp_path, f"g{n}x{d}s{seed}.json", dimension=d, count=n, psi=pairs(psi))


@pytest.mark.parametrize(
    "family, argv, tol",
    [
        ("worked", ["dual", "--mode", "offset"], "1e-17"),
        ("worked", ["dual", "--mode", "offset"], "2e-16"),
        ("worked", ["dual", "--mode", "right-inverse"], "1e-17"),
        ((4, 3, 0), ["dual"], "2e-16"),
        ((4, 3, 0), ["analyze", "--strict"], "1e-17"),
        ((1025, 16, 0), ["dual", "--mode", "offset"], "1e-15"),
        (None, ["paper-example", "--dim", "3"], "1e-17"),
        (None, ["paper-example", "--dim", "3"], "1e-300"),
    ],
)
def test_tol_below_the_floor_exits_1_and_writes_no_report(tmp_path, capsys, family, argv, tol):
    """A --tol that rounding alone fails is an input error, not a verdict: each
    of these exited 2 before the floor (the last with a report of residuals)."""
    if family is not None:
        path = write_config(tmp_path) if family == "worked" else gaussian_config(tmp_path, *family)
        argv = [argv[0], path, *argv[1:]]
    assert main([*argv, "--tol", tol, "--format", "machine"]) == 1
    assert capsys.readouterr() == ("", f"error: --tol must be at least 2^-48 = 3.553e-15, got {tol}\n")


def test_every_family_exits_0_at_the_floor(tmp_path, capsys):
    """At --tol 2^-48 itself, analyze --strict and every dual mode exit 0 on the
    worked example and on Gaussian families at (4, 3), (40, 8) and (1025, 16),
    and paper-example does at dims 3, 16 and 64."""
    floor = repr(2.0**-48)
    paths = [write_config(tmp_path)] + [
        gaussian_config(tmp_path, n, d, seed)
        for (n, d), seeds in (((4, 3), range(10)), ((40, 8), range(4)), ((1025, 16), range(4)))
        for seed in seeds
    ]
    argvs = [["paper-example", "--dim", str(dim)] for dim in (3, 16, 64)]
    for path in paths:
        argvs += [["analyze", path, "--strict"]]
        argvs += [["dual", path, "--mode", mode] for mode in ("canonical", "right-inverse", "offset")]
    for argv in argvs:
        assert (main([*argv, "--tol", floor]), capsys.readouterr().err) == (0, ""), argv


def test_config_tol_floor(tmp_path, capsys):
    """The config key 'tol' is held to the same floor as the flag."""
    below = float(np.nextafter(2.0**-48, 0.0))
    with pytest.raises(ConfigError) as info:
        parse_config(write_config(tmp_path, tol=below))
    assert str(info.value) == f"'tol' must be at least 2^-48 = 3.553e-15, got {below!r}"
    path = write_config(tmp_path, tol=2.0**-48)
    assert parse_config(path).tol == 2.0**-48
    assert main(["analyze", path, "--strict"]) == 0
    assert main(["paper-example", "--dim", "3", "--tol", repr(below)]) == 1
    assert capsys.readouterr().err.endswith(f"--tol must be at least 2^-48 = 3.553e-15, got {below!r}\n")


@pytest.mark.parametrize(
    "argv, tol",
    [
        (["dual", None], "1"),
        (["analyze", None, "--strict"], "1"),
        (["analyze", None], "1e300"),
        (["analyze", "dense"], "1"),
        (["paper-example", "--dim", "3"], "1"),
    ],
)
def test_tol_of_1_or_more_exits_1_and_writes_no_report(tmp_path, capsys, argv, tol):
    """At --tol 1 or more no positivity or singularity test can pass, so tol alone
    would decide: on the worked example these exited 2 with "not a controlled
    frame" or a bessel-only verdict, or 0, and the dense E = I - L was "singular"."""
    dense = {"kind": "dense", "entries": pairs(np.eye(4) - np.eye(4, k=-1))}
    configs = {None: write_config(tmp_path), "dense": write_config(tmp_path, mapping=dense)}
    argv = [configs.get(arg) if arg in configs else arg for arg in argv]
    assert main([*argv, "--tol", tol, "--format", "machine"]) == 1
    assert capsys.readouterr() == ("", f"error: --tol must be below 1, got {float(tol)!r}\n")


def test_config_tol_of_1_exits_1(tmp_path, capsys):
    assert main(["analyze", write_config(tmp_path, tol=1)]) == 1
    assert capsys.readouterr() == ("", "error: 'tol' must be below 1, got 1\n")


def test_neumann_certificate_tolerance_of_1_or_more_exits_1(tmp_path, capsys):
    """--eps 0.5 at ratio 0.1 widens the certificate's tol to 10 eps / (1 - ratio),
    about 5.6, at which a family 1% off the dual passed: an input error."""
    assert main(["neumann", write_config(tmp_path), "--rho", "0.9", "--eps", "0.5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: certificate tolerance from --eps must be below 1, got ")


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


def test_mapping_at_the_top_of_the_double_range_gives_the_worked_report(tmp_path, capsys):
    """E = 2^1023 (I - L), whose 1-norm 2^1024 overflows, on the worked psi times
    2^-1023: E psi is the worked images exactly, and so is the report."""
    e = 2.0**1023 * (np.eye(4) - np.eye(4, k=-1))
    path = write_config(tmp_path, "big.json", mapping={"kind": "dense", "entries": pairs(e)},
                        psi=pairs(2.0**-1023 * gallery.example_psi(3)))
    argv = ["analyze", "--strict", "--format", "machine"]
    assert main([*argv, path]) == 0
    big = capsys.readouterr()
    assert big.err == "" and run(capsys, *argv, write_config(tmp_path)) == (0, big.out)
    report = json.loads(big.out)
    assert [report["eframe"]["lower"], report["eframe"]["upper"]] == [1.0, 2.0]
    assert [report["controlled"]["lower"], report["controlled"]["upper"]] == [0.5, 1.0]
    assert set(report["identities"].values()) == {0.0}


def test_deeply_nested_config_exits_1(tmp_path, capsys):
    """Nesting this deep fits no slice template, so orjson never reads it, and
    json.load raises RecursionError; a nesting of 500-900 is parsed and then
    fails the shape check."""
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


def test_dense_and_bidiagonal_commands_leave_scipy_unloaded(tmp_path):
    """scipy serves banded mappings only: every other command, over the
    bidiagonal and a dense mapping, runs without importing it."""
    bidiagonal = np.eye(4) - np.eye(4, k=-1)
    mappings = {"bidiagonal": {"kind": "paper_bidiagonal"},
                "dense": {"kind": "dense", "entries": pairs(bidiagonal)}}
    phi = pairs(gallery.example_psi_tilde(3))
    argvs = [["paper-example", "--dim", "8"]]
    for name, spec in mappings.items():
        path = write_config(tmp_path, f"{name}.json", mapping=spec, phi=phi)
        argvs += [["analyze", path], ["verify", path], ["neumann", path, "--rho", "0.9"]]
        argvs += [["dual", path, "--mode", mode] for mode in ("canonical", "right-inverse", "offset")]
    script = (
        "import contextlib, io, json, sys\n"
        "from eframes.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))"
    )
    src = str(Path(controlled.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    codes, scipy_modules = json.loads(result.stdout)
    assert codes == [0] * 13
    assert scipy_modules == []


def assert_written_as_stdlib(values):
    """values as a list, as a float64 array and each under its own key."""
    values = list(values)
    for report in ({"x": values}, {"x": np.array(values)},
                   {str(index): x for index, x in enumerate(values)}):
        assert cli._render_machine(report) == stdlib(report)


def test_machine_writer_matches_the_stdlib_on_every_decimal_exponent():
    """orjson writes 1e16, 1e-7 and 0.00001234 where repr writes 1e+16, 1e-07
    and 1.234e-05; the writer rewrites each layout on every exponent."""
    values = []
    for exponent in range(-324, 309):
        for mantissa in ("1", "2.5", "9.876543210123457"):
            x = float(f"{mantissa}e{exponent}")
            values += [x, -x]
    assert_written_as_stdlib(values)
    assert_written_as_stdlib(np.float64(x) for x in values)


def near(boundary):
    return st.floats(boundary / 2, boundary * 2).flatmap(lambda x: st.sampled_from([x, -x]))


@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          near(1e-5), near(1e-4), near(1e16)), min_size=1))
@example([5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 0.0, -0.0])
@example([np.nextafter(b, toward) for b in (1e-5, 1e-4, 1e16) for toward in (0, np.inf)])
@example([1.7976931348623157e308, -1.7976931348623157e308, 1e15, 1e-6, 10.000012])
def test_machine_writer_matches_the_stdlib_on_any_finite_float(values):
    assert_written_as_stdlib(values)


def test_machine_writer_falls_back_to_the_stdlib_where_orjson_differs():
    """orjson writes NaN and +-inf as null and refuses an int beyond 64 bits;
    the stdlib writes NaN, Infinity and -Infinity, and the int."""
    report = {"a": [1.0, float("nan")], "b": np.array([np.inf, -np.inf]), "c": 2**64}
    assert cli._render_machine(report) == stdlib(report)
    assert '"a":[1.0,NaN],"b":[Infinity,-Infinity],"c":18446744073709551616' in stdlib(report)
    report = {"null": None, "null_map": "null", "x": [None, 1e-5]}
    assert cli._render_machine(report) == stdlib(report)


def test_machine_writer_keeps_a_key_named_null_on_orjson(monkeypatch):
    """A null token, not the substring in a key such as null_map_roundtrip,
    sends a report to the stdlib writer."""
    report = {"null_map_roundtrip": 1.5e-16, "dual": np.array([[1e-5, -0.0]])}
    expected = stdlib(report)
    monkeypatch.setattr(cli, "json", None)
    assert cli._render_machine(report) == expected


def test_machine_writer_takes_a_fortran_ordered_family():
    """The banded right-inverse dual comes out of the solve in Fortran order,
    which orjson refuses: the pairs are made C-contiguous first."""
    family = np.asfortranarray(np.random.default_rng(0).standard_normal((5, 3, 2)).view(complex)[..., 0])
    assert not family.flags.c_contiguous
    report = {"dual": cli._sequence_pairs(family)}
    assert cli._render_machine(report) == stdlib({"dual": pairs(family)})


def strings(value):
    """Every key and string value in a report."""
    if isinstance(value, dict):
        yield from value
        value = list(value.values())
    if isinstance(value, str):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from strings(item)


def test_every_machine_report_is_written_as_the_stdlib_writes_it(tmp_path, capsys, monkeypatch):
    """Each command's report, as main() hands it to the writer, over the
    bidiagonal and a banded mapping (whose right-inverse dual is in Fortran
    order); neumann echoes an int beyond 64 bits, which orjson refuses. Every
    key and string is printable ASCII: orjson writes other text as UTF-8,
    and DEL bare, where json.dumps writes escapes."""
    reports = []
    render = cli._render_machine
    monkeypatch.setattr(cli, "_render_machine", lambda report: reports.append(report) or render(report))
    phi = pairs(0.5 * gallery.example_psi_tilde(3))
    diagonals = {"0": [[4, 0]] * 4, "-1": [[1, 0.5]] * 3, "2": [[0.25, -1]] * 2}
    argvs = [["paper-example", "--dim", "8"]]
    for name, spec in (("bidiagonal", {"kind": "paper_bidiagonal"}),
                       ("banded", {"kind": "banded", "diagonals": diagonals})):
        path = write_config(tmp_path, f"{name}.json", mapping=spec, phi=phi)
        argvs += [["analyze", path], ["verify", path], ["neumann", path, "--rho", "0.9"],
                  ["neumann", path, "--rho", "2"], ["neumann", path, "--max-terms", str(10**20)]]
        argvs += [["dual", path, "--mode", mode] for mode in ("canonical", "right-inverse", "offset")]
    for argv in argvs:
        code, report = machine(capsys, *argv)
        assert code in (0, 2)
    assert len(reports) == len(argvs)
    for report in reports:
        assert render(report) == stdlib(report)
        assert all(text.isascii() and text.isprintable() for text in strings(report))
    assert [report["max_terms"] for report in reports if report.get("max_terms", 0) > 2**64] == [10**20] * 2


def command_peak(argv):
    """Exit code and tracemalloc peak of main(argv), with stdout kept in memory. An
    untraced first call keeps the one-off state of a process's first command (about
    1 MB) out."""
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return code, peak


def tall_config(tmp_path, n, mapping=None):
    """A Gaussian (n, 16) psi under the bidiagonal mapping, or the given one."""
    psi = np.random.default_rng(0).standard_normal((n, 16, 2))
    return write_config(tmp_path, f"tall-{n}.json", dimension=16, count=n, psi=psi.tolist(),
                        mapping=mapping or {"kind": "paper_bidiagonal"})


def test_machine_dual_peak_memory(tmp_path):
    """The dual goes to orjson as a float64 view of the family, with no list of
    Python floats, and the writer holds under three copies of its text. At (1025,
    16) the canonical dual peaks at about 2.3 MB, right-inverse at 2.2 MB and offset
    at 2.4 MB; a record that copied the config's psi read 2.4 and 2.9 MB for the
    last two. A writer that rewrote orjson's whole text at once held four copies
    and raised the canonical dual, whose entries reach the [1e-5, 1e-4) band, to
    3.7 MB; through tolist() and json.dumps it was 6.1-6.3 MB."""
    path = tall_config(tmp_path, 1025)
    for mode in ("canonical", "right-inverse", "offset"):
        code, peak = command_peak(["dual", path, "--mode", mode, "--format", "machine"])
        assert code == 0
        assert peak <= 3.2e6, (mode, peak)


def test_every_tall_command_peak_memory(tmp_path):
    """At (1025, 16) no configured command peaks above 2.6 MB: the record keeps the
    config's read-only psi and phi, and neumann's frozen rho * canonical dual, without
    a copy, and null_map subtracts in place. They read about 1.30 (analyze), 2.33 /
    2.16 / 2.43 (canonical, right-inverse, offset), 2.35 (verify, set by the config
    parse), 2.43 (neumann --rho) and 2.42 MB (neumann on phi). Copying them into the
    record took offset to 2.92, neumann --rho to 2.96 and neumann on phi to 2.94 MB."""
    path = tall_config(tmp_path, 1025)
    cfg = parse_config(path)
    dual = controlled.ControlledEFrame(cfg.mapping, cfg.psi, cfg.u).canonical_dual()
    raw = json.loads(Path(path).read_text())
    with_phi = write_config(tmp_path, "tall-phi.json", **raw, phi=pairs(dual))
    argvs = [["analyze", path], ["verify", with_phi], ["neumann", path, "--rho", "0.9"],
             ["neumann", with_phi]]
    argvs += [["dual", path, "--mode", mode] for mode in ("canonical", "right-inverse", "offset")]
    for argv in argvs:
        code, peak = command_peak([*argv, "--format", "machine"])
        assert code == 0, argv
        assert peak <= 2.6e6, (argv, peak)


def test_canonical_dual_peak_grows_like_its_output(tmp_path):
    """The canonical dual's entries scale like 1/N, so at N = 4097 many land in
    the [1e-5, 1e-4) band, where orjson's text is rewritten number by number. A 4x
    larger N may raise the peak at most 4.5x: it reads about 3.8x; a writer that
    rewrote the whole text at once read 7.2x."""
    argv = ["dual", "--format", "machine"]
    small = command_peak([*argv, tall_config(tmp_path, 1025)])
    large = command_peak([*argv, tall_config(tmp_path, 4097)])
    assert small[0] == large[0] == 0
    assert large[1] <= 4.5 * small[1], (small, large)


def test_banded_canonical_dual_peak_memory(tmp_path):
    """A banded mapping's canonical dual puts most of its entries in the [1e-5,
    1e-4) band; it peaks at about 2.7 MB at (1025, 16), where a writer that
    rewrote the whole text at once held 8.7 MB."""
    rng = np.random.default_rng(1)
    diagonals = {str(k): (rng.standard_normal((1025 - abs(k), 2)) + [4 * (k == 0), 0]).tolist()
                 for k in (-2, -1, 0, 1, 2)}
    path = tall_config(tmp_path, 1025, {"kind": "banded", "diagonals": diagonals})
    code, peak = command_peak(["dual", path, "--format", "machine"])
    assert code == 0
    assert peak <= 3.5e6, peak


def test_machine_writer_holds_under_three_copies_of_its_text_at_any_scale():
    """A (4097, 16) dual peaks at about 2.6 times its text's length, at scale 1
    and at scale 3e-5, where most entries are in the [1e-5, 1e-4) band: orjson's
    bytes are freed before the windows are joined, and one window of the band's
    rewrite is held at a time. The scale-3e-5 peak stays within 1.2x of the
    scale-1 one (about 1.13x). Rewriting the whole text at once read 3.5 and 10.3
    times the length, and 3.4x between the scales; joining with orjson's bytes
    still held read 3.6 times the length."""
    family = np.random.default_rng(0).standard_normal((4097, 16, 2))
    peaks = []
    for scale in (1.0, 3e-5):
        report = {"dual": scale * family}
        cli._render_machine(report)
        tracemalloc.start()
        try:
            text = cli._render_machine(report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text), (scale, peak, len(text))
        peaks.append(peak)
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_machine_writer_matches_the_stdlib_across_a_window_seam():
    """The writer rewrites orjson's text in windows of 64 KiB, each extended to
    just after the next comma. Band numbers, exponents and negative numbers are
    written as the stdlib writes them wherever the first cut falls among them,
    and so are texts one byte under, at and over one window."""
    window = 65536
    specials = [1.234e-05, -1e-07, 1e16, -9.87e-05, -2.5, 3e-05, -1e-300]
    text = orjson.dumps(specials)[1:-1]  # as it sits between the fillers
    filler = [0.5] * ((window - 100) // 4)  # "0.5," is 4 bytes
    start = len(orjson.dumps({"pad": "", "x": filler})) - 1  # the specials' offset at pad ""
    for offset in range(-8, len(text) + 8):  # where the window's last byte falls in text
        report = {"pad": "a" * (window - 1 - offset - start), "x": filler + specials + filler}
        assert orjson.dumps(report)[window - 1 - offset:].startswith(text)
        assert cli._render_machine(report) == stdlib(report), offset
    values = filler + specials
    base = len(orjson.dumps({"pad": "", "x": values}))
    for size in (window - 1, window, window + 1):
        report = {"pad": "a" * (size - base), "x": values}
        assert len(orjson.dumps(report)) == size
        assert cli._render_machine(report) == stdlib(report), size


def test_a_closed_stdout_exits_1_with_nothing_on_stderr(tmp_path):
    """A reader that stops early, as `eframes dual tall.json --format machine |
    head -c 1` does, closes the pipe while the report is written; a reader gone
    before the command starts meets a short report, which waits in stdout's
    buffer, only at the flush. Either way the command exits 1 and writes no
    traceback, neither from its print nor from the interpreter's exit."""
    src = str(Path(controlled.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout into a pipe is block-buffered, as from a shell
    command = [sys.executable, "-m", "eframes"]
    argv = [*command, "dual", tall_config(tmp_path, 1025), "--format", "machine"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(1) == b"{"  # the report is far larger than a pipe's buffer
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""
    read, write = os.pipe()
    os.close(read)
    try:
        for fmt in ("text", "machine"):
            done = subprocess.run([*command, "paper-example", "--dim", "3", "--format", fmt],
                                  stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
            assert (done.returncode, done.stderr) == (1, b""), fmt
    finally:
        os.close(write)

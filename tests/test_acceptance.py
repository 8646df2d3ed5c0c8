"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerance and runtime budget and prints
one PASS line on success (pytest -s shows them; a failed assert means
the criterion failed).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from conftest import random_complex, random_conditioned_matrix
import eframes
from eframes import controlled, eframe, gallery, hilbert, mapping, neumann


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS  {detail}")


def _commuting_instance(rng, d, n):
    e = mapping.build_dense(random_conditioned_matrix(rng, n))
    psi = random_complex(rng, (n, d))
    s_e = eframe.e_frame_bounds(e, psi).frame_op
    _, q = np.linalg.eigh(s_e)
    u = q @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ q.conj().T
    return e, psi, u


def test_criterion_1_worked_example_sums():
    start = time.perf_counter()
    worst = 0.0
    for dim in (3, 8):
        e = gallery.example_mapping(dim)
        psi = gallery.example_psi(dim)
        tilde = gallery.example_psi_tilde(dim)
        phi = gallery.example_phi(dim)
        u = gallery.example_u(dim)
        images_psi = mapping.apply_mapping(e, psi)
        images_tilde = mapping.apply_mapping(e, tilde)
        images_phi = mapping.apply_mapping(e, phi)
        f = np.concatenate(
            [hilbert.trial_vectors(dim, 100, seed=42), np.eye(dim, dtype=np.complex128)],
            axis=1,
        )
        sums_and_targets = [
            (images_tilde.T @ (images_psi.conj() @ f), 2.0 * f),
            ((u @ images_tilde.T) @ (images_psi.conj() @ f), f),
            (images_psi.T @ (images_phi.conj() @ f), f),
            ((u @ images_psi.T) @ (images_phi.conj() @ f), 0.5 * f),
        ]
        for value, target in sums_and_targets:
            residual = float(np.max(np.linalg.norm(value - target, axis=0)))
            worst = max(worst, residual)
            assert residual <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("1", f"four sums at d in {{3, 8}}, worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_canonical_dual_matches_psi_tilde(worked):
    dual = controlled.canonical_dual(worked.mapping, worked.psi, worked.u)
    deviation = float(np.max(np.abs(dual - worked.psi_tilde)))
    assert deviation <= 1e-12
    _report("2", f"canonical controlled dual, elementwise deviation {deviation:.2e}")


def test_criterion_3_bounds(worked):
    record = eframe.e_frame_bounds(worked.mapping, worked.psi)
    crecord = controlled.controlled_bounds(worked.mapping, worked.psi, worked.u)
    assert abs(record.bounds.lo - 1.0) <= 1e-10
    assert abs(record.bounds.hi - 2.0) <= 1e-10
    assert abs(crecord.bounds.lo - 0.5) <= 1e-10
    assert abs(crecord.bounds.hi - 1.0) <= 1e-10
    _report(
        "3",
        f"bounds ({record.bounds.lo:.12f}, {record.bounds.hi:.12f}) and "
        f"({crecord.bounds.lo:.12f}, {crecord.bounds.hi:.12f})",
    )


def test_criterion_4_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = [0.0, 0.0, 0.0]
    done = 0
    while done < 50:
        d = int(rng.integers(2, 7))
        n = int(rng.integers(d, 11))
        e, psi, u = _commuting_instance(rng, d, n)
        record = controlled.controlled_bounds(e, psi, u)
        if record.verdict != controlled.CONTROLLED_FRAME:
            continue  # rank-deficient draw; redraw
        done += 1
        report = controlled.identity_errors(e, psi, u, trials=100, seed=done)
        assert report.err_sue_use <= 1e-12
        assert report.err_commute <= 1e-9
        assert report.err_switched_sum <= 1e-9
        worst[0] = max(worst[0], report.err_sue_use)
        worst[1] = max(worst[1], report.err_commute)
        worst[2] = max(worst[2], report.err_switched_sum)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        "4",
        f"50 instances, worst errors {worst[0]:.2e} / {worst[1]:.2e} / "
        f"{worst[2]:.2e}, {elapsed:.2f}s",
    )


def test_criterion_5_dual_family_roundtrips(worked):
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_residual = 0.0
    worst_recovery = 0.0
    for trial in range(100):
        if trial % 2 == 0:
            e, psi, u = worked.mapping, worked.psi, worked.u
        else:
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d + 1, d + 5))
            e, psi, u = _commuting_instance(rng, d, n)
            if controlled.controlled_bounds(e, psi, u).verdict != controlled.CONTROLLED_FRAME:
                e, psi, u = worked.mapping, worked.psi, worked.u
        v = controlled.random_null_map(e, psi, u, seed=trial)
        dual = controlled.dual_with_offset(e, psi, u, v)
        cert, _ = controlled.verify_dual(e, psi, dual, u, trials=50, seed=trial, tol=1e-9)
        assert cert.verdict, f"offset dual {trial} residual {cert.max_residual:.2e}"
        worst_residual = max(worst_residual, cert.max_residual)
        recovered = controlled.extract_null_map(e, psi, dual, u, trials=50, seed=trial)
        recovery = float(np.linalg.norm(recovered - v) / max(np.linalg.norm(v), 1.0))
        assert recovery <= 1e-8
        worst_recovery = max(worst_recovery, recovery)
    for trial in range(50):
        if trial % 2 == 0:
            e, psi, u = worked.mapping, worked.psi, worked.u
        else:
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d + 1, d + 5))
            e, psi, u = _commuting_instance(rng, d, n)
            if controlled.controlled_bounds(e, psi, u).verdict != controlled.CONTROLLED_FRAME:
                e, psi, u = worked.mapping, worked.psi, worked.u
        v = controlled.random_right_inverse(e, psi, u, seed=trial)
        dual = controlled.dual_from_right_inverse(e, psi, u, v)
        cert, _ = controlled.verify_dual(e, psi, dual, u, trials=50, seed=trial, tol=1e-9)
        assert cert.verdict, f"right-inverse dual {trial} residual {cert.max_residual:.2e}"
        worst_residual = max(worst_residual, cert.max_residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    _report(
        "5",
        f"100 offset + 50 right-inverse duals, worst residual {worst_residual:.2e}, "
        f"worst recovery {worst_recovery:.2e}, {elapsed:.2f}s",
    )


def test_criterion_6_neumann_convergence(worked):
    start = time.perf_counter()
    eps = 1e-12
    summary = []
    for rho in (0.5, 0.9, 0.99):
        phi = rho * worked.psi_tilde
        ratio = neumann.contraction_ratio(worked.mapping, worked.psi, phi, worked.u)
        assert abs(ratio - (1.0 - rho)) <= 1e-9
        corrected, report = neumann.corrected_dual(
            worked.mapping, worked.psi, phi, worked.u, eps=eps
        )
        cert, _ = controlled.verify_dual(
            worked.mapping, worked.psi, corrected, worked.u, tol=1e-10
        )
        assert cert.verdict and cert.max_residual <= 1e-10
        history = np.array(report.residual_history)
        decay = history[1:] / history[:-1]
        assert np.all(np.abs(decay - (1.0 - rho)) <= 1e-6)
        target_terms = int(np.ceil(np.log(eps) / np.log(1.0 - rho)))
        assert abs(report.terms_used - target_terms) <= 1
        summary.append(f"rho={rho}: ratio {ratio:.3g}, terms {report.terms_used}")
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("6", "; ".join(summary) + f", {elapsed:.2f}s")


def test_criterion_7_oracle_equivalence(worked):
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 6))
        e = mapping.build_dense(random_conditioned_matrix(rng, n))
        psi = random_complex(rng, (n, d))
        images = mapping.apply_mapping(e, psi)
        explicit = np.zeros((d, d), dtype=complex)
        for img in images:
            explicit += np.outer(img, img.conj())
        product = eframe.e_frame_bounds(e, psi).frame_op  # T T*
        err = float(
            np.linalg.norm(explicit - product) / max(np.linalg.norm(product), 1e-30)
        )
        assert err <= 1e-12
        worst = max(worst, err)
    parseval_psi = gallery.example_parseval_psi(3)
    assert controlled.is_parseval(worked.mapping, parseval_psi, worked.u)
    assert not controlled.is_parseval(worked.mapping, worked.psi, worked.u)
    _report("7", f"100 random instances, worst relative error {worst:.2e}")


def test_criterion_8_riesz_equivalence():
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(25):
        d = int(rng.integers(2, 6))
        v = random_conditioned_matrix(rng, d)
        e = mapping.build_dense(random_conditioned_matrix(rng, d))
        u = np.eye(d, dtype=complex) * rng.uniform(0.5, 1.5)
        report = controlled.riesz_equivalence(v, np.eye(d, dtype=complex), e, u, tol=1e-8)
        scale = max(abs(report.riesz_bounds.hi), abs(report.direct_bounds.hi), 1.0)
        assert report.max_deviation <= 1e-8 * scale
        worst = max(worst, report.max_deviation / scale)
    _report("8", f"25 seeded operators, worst relative deviation {worst:.2e}")


def test_criterion_9_cli_contract(tmp_path):
    start = time.perf_counter()
    # the subprocess imports the same eframes as the tests, installed or not
    src = str(Path(eframes.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "eframes", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )

    result = cli("paper-example", "--dim", "3", "--format", "machine")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert set(payload["residuals"]) == {
        "plain_psi_tilde",
        "controlled_psi_tilde",
        "plain_phi",
        "controlled_phi",
    }
    assert all(value <= 1e-12 for value in payload["residuals"].values())

    bad = tmp_path / "bad.json"
    bad.write_text("{not valid json")
    assert cli("analyze", str(bad)).returncode == 1

    d = 3
    config = {
        "dimension": d,
        "count": d + 1,
        "psi": [[[z.real, z.imag] for z in row] for row in gallery.example_psi(d)],
        "mapping": {"kind": "paper_bidiagonal"},
        "u": {"kind": "scalar", "value": 0.5},
    }
    good = tmp_path / "good.json"
    good.write_text(json.dumps(config))
    assert cli("neumann", str(good), "--rho", "2.0").returncode == 2

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("9", f"exit codes 0/1/2 verified via subprocess, {elapsed:.2f}s")

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_complex, random_unit_vector
from eframes import controlled, hilbert, mapping, neumann
from eframes.errors import ConvergenceError


def test_contraction_ratio_scaled_duals(worked):
    args = (worked.mapping, worked.psi)
    assert neumann.contraction_ratio(*args, 0.9 * worked.psi_tilde, worked.u) == pytest.approx(0.1, abs=1e-12)
    assert neumann.contraction_ratio(*args, worked.psi_tilde, worked.u) == pytest.approx(0.0, abs=1e-12)
    assert neumann.contraction_ratio(*args, 0.5 * worked.psi_tilde, worked.u) == pytest.approx(0.5, abs=1e-12)


def test_corrected_dual_geometric_series(worked):
    phi = 0.9 * worked.psi_tilde
    corrected, report = neumann.corrected_dual(
        worked.mapping, worked.psi, phi, worked.u, eps=1e-12
    )
    assert_allclose(corrected, worked.psi_tilde, atol=1e-12)
    assert report.terms_used <= 13
    assert report.converged
    assert report.ratio == pytest.approx(0.1, abs=1e-12)


def test_corrected_dual_exact_input_single_term(worked):
    corrected, report = neumann.corrected_dual(
        worked.mapping, worked.psi, worked.psi_tilde, worked.u
    )
    assert_allclose(corrected, worked.psi_tilde, atol=1e-14)
    assert report.terms_used == 1


def test_corrected_dual_half_scale_decay(worked):
    phi = 0.5 * worked.psi_tilde
    corrected, report = neumann.corrected_dual(
        worked.mapping, worked.psi, phi, worked.u, eps=1e-10
    )
    assert report.terms_used <= 35
    assert_allclose(corrected, worked.psi_tilde, atol=1e-9)
    history = np.array(report.residual_history)
    ratios = history[1:] / history[:-1]
    assert np.all(np.abs(ratios - 0.5) <= 1e-6)


def test_corrected_dual_rejects_divergent(worked):
    with pytest.raises(ConvergenceError):
        neumann.corrected_dual(
            worked.mapping, worked.psi, 2.0 * worked.psi_tilde, worked.u
        )


def test_corrected_dual_exhaustion_reports_not_converged(worked):
    phi = 0.5 * worked.psi_tilde
    _, report = neumann.corrected_dual(
        worked.mapping, worked.psi, phi, worked.u, eps=1e-12, max_terms=3
    )
    assert not report.converged
    assert report.terms_used == 3


def test_corrected_dual_monotone_term_bound(worked):
    phi = 0.9 * worked.psi_tilde
    _, report = neumann.corrected_dual(worked.mapping, worked.psi, phi, worked.u)
    history = report.residual_history
    for before, after in zip(history, history[1:]):
        assert after <= report.ratio * before + 1e-12


def test_corrected_dual_matches_dense_inverse_oracle():
    # oracle: apply the dense inverse of D T_u* to each member directly
    rng = np.random.default_rng(50)
    from conftest import random_conditioned_matrix

    count = 0
    while count < 50:
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d, d + 4))
        e = mapping.build_dense(random_conditioned_matrix(rng, n))
        psi = random_complex(rng, (n, d))
        record = controlled.controlled_bounds(e, psi, np.eye(d))
        if record.verdict != controlled.CONTROLLED_FRAME:
            continue
        exact = controlled.canonical_dual(e, psi, np.eye(d))
        perturbation = random_complex(rng, (n, d))
        phi = exact + 0.05 * perturbation / np.linalg.norm(perturbation)
        ratio = neumann.contraction_ratio(e, psi, phi, np.eye(d))
        if ratio > 0.9:
            continue
        count += 1
        eps = 1e-12
        corrected, report = neumann.corrected_dual(e, psi, phi, np.eye(d), eps=eps)
        images_psi = mapping.apply_mapping(e, psi)
        images_phi = mapping.apply_mapping(e, phi)
        op = images_phi.T @ images_psi.conj()  # D T_u* with U = id
        oracle = phi @ hilbert.invert_operator(op).T
        assert np.linalg.norm(corrected - oracle) <= 10 * eps * max(
            np.linalg.norm(oracle), 1.0
        )


def test_iterative_reconstruct_scaled_dual(worked):
    f = np.array([1.0, 2.0, 3.0], dtype=complex)
    got, report = neumann.iterative_reconstruct(
        worked.mapping, worked.psi, 0.9 * worked.psi_tilde, worked.u, f, eps=1e-10
    )
    assert_allclose(got, f, atol=1e-9)
    history = np.array(report.residual_history)
    ratios = history[1:] / history[:-1]
    assert np.all(np.abs(ratios - 0.1) <= 1e-6)
    assert report.converged


def test_iterative_reconstruct_exact_dual_one_term(worked):
    rng = np.random.default_rng(51)
    f = random_unit_vector(3, rng)
    got, report = neumann.iterative_reconstruct(
        worked.mapping, worked.psi, worked.psi_tilde, worked.u, f
    )
    assert report.terms_used == 1
    assert report.residual_history[0] <= 1e-12
    assert np.linalg.norm(got - f) <= 1e-12


def test_iterative_reconstruct_tiny_ratio(worked):
    f = np.array([1.0, -1.0, 0.5], dtype=complex)
    got, report = neumann.iterative_reconstruct(
        worked.mapping, worked.psi, 0.99 * worked.psi_tilde, worked.u, f, eps=1e-12
    )
    assert report.ratio == pytest.approx(0.01, abs=1e-12)
    assert report.terms_used == 6
    assert np.linalg.norm(got - f) <= 1e-12 * np.linalg.norm(f)


def test_iterative_reconstruct_rejects_divergent(worked):
    f = np.ones(3, dtype=complex)
    with pytest.raises(ConvergenceError):
        neumann.iterative_reconstruct(
            worked.mapping, worked.psi, 2.0 * worked.psi_tilde, worked.u, f
        )


def test_reports_are_consistent_with_verify(worked):
    phi = 0.9 * worked.psi_tilde
    corrected, report = neumann.corrected_dual(
        worked.mapping, worked.psi, phi, worked.u, eps=1e-12
    )
    cert_def, _ = controlled.verify_dual(
        worked.mapping, worked.psi, corrected, worked.u
    )
    assert cert_def.max_residual <= 1e-12 / (1.0 - report.ratio)
    assert cert_def.verdict


def scaled_runs(worked, run, powers):
    """run(c) at c = 1 and at each 2**j: the series' norms are hilbert.frobenius,
    so an exact power-of-two scaling changes no stop decision and no bit."""
    can = controlled.canonical_dual(worked.mapping, worked.psi, worked.u)
    return run(can, 1.0), [(2.0**j, run(can, 2.0**j)) for j in powers]


def test_iterative_reconstruct_is_scale_equivariant(worked):
    """A plain numpy norm overflows at 2**530 and underflows at 2**-530; taken
    on the series, it stopped it after 1 or 10 terms where it needs 34."""
    f = np.array([1.0, 2.0, 3.0], dtype=complex)

    def run(can, c):
        return neumann.iterative_reconstruct(
            worked.mapping, worked.psi, 0.5 * can, worked.u, c * f
        )

    (approx, report), scaled = scaled_runs(worked, run, (530, -530, 1000, -1000))
    assert report.terms_used == 34 and report.converged
    for c, (approx_c, report_c) in scaled:
        assert report_c.terms_used == 34 and report_c.converged
        assert report_c.residual_history == tuple(c * h for h in report.residual_history)
        assert np.array_equal(approx_c, c * approx)


def test_corrected_dual_is_scale_equivariant(worked):
    """psi times c and phi over c: the term norms scale by 1 / c. Plain numpy
    norms stopped the series after 38, 8 and 1 of its 39 terms."""

    def run(can, c):
        return neumann.corrected_dual(worked.mapping, c * worked.psi, 0.5 * can / c, worked.u)

    (corrected, report), scaled = scaled_runs(worked, run, (500, 530, -530))
    assert report.terms_used == 39 and report.converged
    for c, (corrected_c, report_c) in scaled:
        assert report_c.terms_used == 39 and report_c.converged
        assert report_c.residual_history == tuple(h / c for h in report.residual_history)
        assert np.array_equal(c * corrected_c, corrected)


def test_overflowing_deviation_is_an_input_error():
    """psi = 1e150 B, U = 1e50 and phi = 1e200 B: T_u and E phi are finite, but
    T_u D* in id - T_u D* passes 1e308."""
    b = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], dtype=complex)
    e = mapping.build_dense(np.eye(3))
    frame = controlled.ControlledEFrame(e, 1e150 * b, 1e50 * np.eye(2))
    with pytest.raises(ValueError, match="^entries must be finite$"):
        neumann.ApproximateDual(frame, 1e200 * b).deviation


def test_a_pair_checks_its_settings_at_construction(worked):
    """eps and max_terms are fields, checked once when the pair is built, with the
    messages of hilbert.require_positive; numpy scalars are stored as Python numbers."""
    record = controlled.ControlledEFrame(worked.mapping, worked.psi, worked.u)
    phi = 0.9 * worked.psi_tilde
    with pytest.raises(ValueError, match=r"^eps must be a finite positive number, got 0$"):
        neumann.ApproximateDual(record, phi, eps=0)
    with pytest.raises(ValueError, match=r"^max_terms must be a finite positive integer, got 2.5$"):
        neumann.ApproximateDual(record, phi, max_terms=2.5)
    pair = neumann.ApproximateDual(record, phi, np.float64(1e-9), np.int64(50))
    assert (pair.eps, pair.max_terms) == (1e-9, 50)
    assert type(pair.eps) is float and type(pair.max_terms) is int


def test_a_divergent_pair_is_built_and_its_first_series_raises(worked):
    """The ratio test runs with each series, not at construction, so a pair with
    ratio >= 1 is built and reports its ratio before ConvergenceError."""
    record = controlled.ControlledEFrame(worked.mapping, worked.psi, worked.u)
    pair = neumann.ApproximateDual(record, 2.5 * worked.psi_tilde)
    assert pair.ratio == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(ConvergenceError, match=r"^contraction ratio 1\.5 >= 1"):
        pair.corrected_dual()
    with pytest.raises(ConvergenceError, match=r"^contraction ratio 1\.5 >= 1"):
        pair.iterative_reconstruct(np.ones(3, dtype=complex))


def test_pair_defaults_and_the_module_functions_defaults(worked):
    """A pair's eps is 1e-12 for both series; neumann.iterative_reconstruct keeps
    its 1e-10 and passes it to the pair, and corrected_dual its 1e-12."""
    e, psi, u, phi = worked.mapping, worked.psi, worked.u, 0.9 * worked.psi_tilde
    record = controlled.ControlledEFrame(e, psi, u)
    f = np.array([1.0, 2.0j, -1.0])
    pair = neumann.ApproximateDual(record, phi)
    assert (pair.eps, pair.max_terms) == (1e-12, 10_000)
    got, report = neumann.iterative_reconstruct(e, psi, phi, u, f)
    loose = neumann.ApproximateDual(record, phi, eps=1e-10)
    want, want_report = loose.iterative_reconstruct(f)
    assert np.array_equal(got, want) and report == want_report
    assert pair.iterative_reconstruct(f)[1].terms_used > report.terms_used
    corrected, report = neumann.corrected_dual(e, psi, phi, u)
    want, want_report = pair.corrected_dual()
    assert np.array_equal(corrected, want) and report == want_report

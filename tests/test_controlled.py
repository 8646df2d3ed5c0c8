import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import inner, random_complex, random_conditioned_matrix, random_unit_vector
from eframes import controlled, eframe, gallery, hilbert, mapping, neumann
from eframes.config import parse_config
from test_cli import pairs, write_config
from test_hilbert import CALLER_HELD, caller_held
from test_mapping import build_kind
from eframes.errors import (
    DualConditionError,
    NotAFrameError,
    NotHermitianError,
)

ROTATION = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)


def random_commuting_instance(rng, d, n):
    """Frame plus a Hermitian positive U commuting with its frame operator."""
    e = mapping.build_dense(random_conditioned_matrix(rng, n))
    psi = random_complex(rng, (n, d))
    s_e = eframe.e_frame_bounds(e, psi).frame_op
    _, q = np.linalg.eigh(s_e)
    u = q @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ q.conj().T
    return e, psi, u


def explicit_controlled_sum(images, u, f):
    """Oracle: sum_n <f, img_n> U img_n accumulated term by term."""
    out = np.zeros_like(f)
    for img in images:
        out = out + inner(f, img) * (u @ img)
    return out


def test_frame_operator_worked(worked):
    s = controlled.ControlledEFrame(worked.mapping, worked.psi, worked.u).s_ue
    assert_allclose(s, np.diag([1.0, 0.5, 0.5]), atol=1e-14)


def test_frame_operator_identity_control_reduces(worked):
    s = controlled.ControlledEFrame(worked.mapping, worked.psi, np.eye(3)).s_ue
    assert_allclose(s, eframe.e_frame_bounds(worked.mapping, worked.psi).frame_op, atol=0)


def test_frame_operator_diagonal_product(worked):
    u = np.diag([1.0, 2.0, 2.0]).astype(complex)
    s = controlled.ControlledEFrame(worked.mapping, worked.psi, u).s_ue
    assert_allclose(s, np.diag([2.0, 2.0, 2.0]), atol=1e-14)


def test_frame_operator_matches_explicit_sum(worked):
    rng = np.random.default_rng(31)
    s = controlled.ControlledEFrame(worked.mapping, worked.psi, worked.u).s_ue
    images = mapping.apply_mapping(worked.mapping, worked.psi)
    for _ in range(10):
        f = random_unit_vector(3, rng)
        assert np.linalg.norm(s @ f - explicit_controlled_sum(images, worked.u, f)) <= 1e-13


def test_synthesis_worked(worked):
    t = controlled.ControlledEFrame(worked.mapping, worked.psi, worked.u).t_u
    expected = 0.5 * np.array(
        [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert_allclose(t, expected, atol=0)
    assert_allclose(
        controlled.ControlledEFrame(worked.mapping, worked.psi, np.eye(3)).t_u,
        eframe.e_frame_bounds(worked.mapping, worked.psi).images.T,
        atol=0,
    )


def test_synthesis_factorization(worked):
    record = controlled.ControlledEFrame(worked.mapping, worked.psi, worked.u)
    t = eframe.e_frame_bounds(worked.mapping, worked.psi).images.T
    assert_allclose(record.t_u @ t.conj().T, record.s_ue, atol=1e-14)


def test_bounds_worked(worked):
    record = controlled.controlled_bounds(worked.mapping, worked.psi, worked.u)
    assert record.verdict == controlled.CONTROLLED_FRAME
    assert (record.bounds.lo, record.bounds.hi) == pytest.approx((0.5, 1.0))
    assert np.linalg.norm(record.s_ue - record.u @ record.s_e) <= 1e-12


def test_bounds_identity_orthonormal():
    e = mapping.identity_mapping(3)
    record = controlled.controlled_bounds(e, np.eye(3, dtype=complex), np.eye(3))
    assert record.verdict == controlled.CONTROLLED_FRAME
    assert (record.bounds.lo, record.bounds.hi) == pytest.approx((1.0, 1.0))


def test_bounds_rotation_invalid(worked):
    # U S_E is not Hermitian when U does not commute with diag(2, 1, 1)
    record = controlled.controlled_bounds(worked.mapping, worked.psi, ROTATION)
    assert record.verdict == controlled.INVALID


def test_identity_errors_worked(worked):
    report = controlled.identity_errors(worked.mapping, worked.psi, worked.u)
    assert report.err_sue_use <= 1e-12
    assert report.err_commute <= 1e-12
    assert report.err_switched_sum <= 1e-12


def test_identity_errors_diagonal_control(worked):
    u = np.diag([1.0, 2.0, 2.0]).astype(complex)
    report = controlled.identity_errors(worked.mapping, worked.psi, u)
    assert report.err_sue_use <= 1e-12
    assert report.err_commute <= 1e-12
    assert report.err_switched_sum <= 1e-12


def test_identity_errors_sue_use_always_tiny():
    # the product identity is algebraic, no frame condition needed
    rng = np.random.default_rng(32)
    for _ in range(20):
        e, psi, u = random_commuting_instance(rng, 3, 5)
        report = controlled.identity_errors(e, psi, u)
        assert report.err_sue_use <= 1e-12


def test_identity_errors_requires_valid_frame(worked):
    with pytest.raises(NotAFrameError):
        controlled.identity_errors(worked.mapping, worked.psi, ROTATION)


def test_commutation_criterion_worked(worked):
    assert controlled.commutation_criterion(worked.mapping, worked.psi, worked.u)


def test_commutation_criterion_indefinite_control(worked):
    u = np.diag([1.0, -1.0, 1.0]).astype(complex)
    assert not controlled.commutation_criterion(worked.mapping, worked.psi, u)


def test_commutation_criterion_noncommuting():
    # Hermitian positive U that does not commute with a non-diagonal frame operator
    rng = np.random.default_rng(33)
    e = mapping.build_dense(random_conditioned_matrix(rng, 5))
    psi = random_complex(rng, (5, 3))
    u = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    s_e = eframe.e_frame_bounds(e, psi).frame_op
    commutator = np.linalg.norm(u @ s_e - s_e @ u)
    assert commutator > 1e-6  # sanity: the instance really does not commute
    assert not controlled.commutation_criterion(e, psi, u)


def test_commutation_criterion_is_false_on_a_family_that_is_no_frame(worked):
    """U = I/2 is positive and commutes with S_E, but no member reaches e3."""
    psi = worked.psi.copy()
    psi[:, 2] = 0.0
    record = controlled.ControlledEFrame(worked.mapping, psi, worked.u)
    assert record.plain.verdict == controlled.BESSEL_ONLY
    assert record.commutation_criterion() is False


@pytest.mark.parametrize("u_kind", ["half", "commuting"])
@pytest.mark.parametrize("kind", ["identity", "bidiagonal", "banded", "dense"])
def test_record_plain_half_is_e_frame_bounds_bit_for_bit(kind, u_kind):
    """e_frame_bounds is the record's E-frame half at U = id, and that half
    does not read U."""
    rng = np.random.default_rng(35)
    e, _ = build_kind(kind, 9, {-1, 2}, rng)
    psi = random_complex(rng, (9, 4))
    want = eframe.e_frame_bounds(e, psi)
    u = 0.5 * np.eye(4)
    if u_kind == "commuting":
        _, q = np.linalg.eigh(want.frame_op)
        u = q @ np.diag(rng.uniform(0.5, 2.0, size=4)) @ q.conj().T
    got = controlled.ControlledEFrame(e, psi, u).plain
    for name in ("images", "frame_op"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert (got.bounds, got.verdict) == (want.bounds, want.verdict)


@pytest.mark.parametrize("kind", ["identity", "bidiagonal", "banded", "dense"])
def test_e_canonical_dual_is_psi_times_the_inverse_of_s_e_bit_for_bit(kind):
    """e_canonical_dual is the record's canonical dual at U = id, whose S^{-1}
    inverts I S_E = S_E; a family that is no frame still raises NotAFrameError."""
    rng = np.random.default_rng(36)
    e, _ = build_kind(kind, 9, {-1, 2}, rng)
    psi = random_complex(rng, (9, 4))
    want = psi @ np.linalg.inv(eframe.e_frame_bounds(e, psi).frame_op).conj()
    got = eframe.e_canonical_dual(e, psi)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    psi[:, 2] = 0.0
    assert eframe.e_frame_bounds(e, psi).verdict == controlled.BESSEL_ONLY
    with pytest.raises(NotAFrameError):
        eframe.e_canonical_dual(e, psi)


def test_commutation_criterion_rejects_non_hermitian(worked):
    with pytest.raises(NotHermitianError):
        controlled.commutation_criterion(worked.mapping, worked.psi, ROTATION)


def test_commutation_criterion_matches_bounds_verdict():
    rng = np.random.default_rng(34)
    for _ in range(25):
        e, psi, u = random_commuting_instance(rng, 3, 6)
        predicate = controlled.commutation_criterion(e, psi, u)
        verdict = controlled.controlled_bounds(e, psi, u).verdict
        assert predicate == (verdict == controlled.CONTROLLED_FRAME)


def test_is_parseval(worked):
    e = worked.mapping
    from eframes import gallery

    parseval_psi = gallery.example_parseval_psi(3)
    assert controlled.is_parseval(e, parseval_psi, worked.u)
    assert not controlled.is_parseval(e, worked.psi, worked.u)
    eye = mapping.identity_mapping(3)
    assert controlled.is_parseval(eye, np.eye(3, dtype=complex), np.eye(3))


def test_canonical_reconstruct(worked):
    record = controlled.ControlledEFrame(worked.mapping, worked.psi, worked.u)
    f = np.array([1.0, 2.0, 3.0], dtype=complex)
    assert_allclose(record.canonical_reconstruct(f), f, atol=1e-12)
    zero = np.zeros(3, dtype=complex)
    assert_allclose(record.canonical_reconstruct(zero), zero, atol=0)


def test_canonical_reconstruct_parseval_without_inversion(worked):
    from eframes import gallery

    psi = gallery.example_parseval_psi(3)
    images = mapping.apply_mapping(worked.mapping, psi)
    rng = np.random.default_rng(35)
    f = random_unit_vector(3, rng)
    plain_sum = explicit_controlled_sum(images, worked.u, f)
    assert np.linalg.norm(plain_sum - f) <= 1e-12
    got = controlled.ControlledEFrame(worked.mapping, psi, worked.u).canonical_reconstruct(f)
    assert np.linalg.norm(got - f) <= 1e-12


def test_canonical_dual_is_psi_tilde(worked):
    dual = controlled.canonical_dual(worked.mapping, worked.psi, worked.u)
    assert_allclose(dual, worked.psi_tilde, atol=1e-13)


def test_canonical_dual_parseval_is_itself(worked):
    from eframes import gallery

    psi = gallery.example_parseval_psi(3)
    dual = controlled.canonical_dual(worked.mapping, psi, worked.u)
    assert_allclose(dual, psi, atol=1e-13)


def test_canonical_dual_identity_control_reduces(worked):
    dual = controlled.canonical_dual(worked.mapping, worked.psi, np.eye(3))
    assert_allclose(
        dual, eframe.e_canonical_dual(worked.mapping, worked.psi), atol=1e-13
    )


def test_verify_dual_worked(worked):
    cert_def, cert_sw = controlled.verify_dual(
        worked.mapping, worked.psi, worked.psi_tilde, worked.u
    )
    assert cert_def.verdict and cert_def.max_residual <= 1e-12
    assert cert_sw.verdict and cert_sw.max_residual <= 1e-12


def test_verify_dual_phi_family_fails_at_half(worked):
    cert_def, cert_sw = controlled.verify_dual(
        worked.mapping, worked.psi, worked.phi, worked.u
    )
    assert not cert_def.verdict
    # the sum collapses to f/2, so every unit trial leaves residual 1/2
    assert cert_def.max_residual == pytest.approx(0.5, abs=1e-12)
    assert not cert_sw.verdict


def test_verify_dual_canonical_passes_both(worked):
    dual = controlled.canonical_dual(worked.mapping, worked.psi, worked.u)
    cert_def, cert_sw = controlled.verify_dual(worked.mapping, worked.psi, dual, worked.u)
    assert cert_def.verdict and cert_sw.verdict


def test_dual_from_right_inverse_synthesis_of_tilde(worked):
    v = eframe.e_frame_bounds(worked.mapping, worked.psi_tilde).images.T
    dual = controlled.dual_from_right_inverse(worked.mapping, worked.psi, worked.u, v)
    assert_allclose(dual, worked.psi_tilde, atol=1e-13)


def test_dual_from_right_inverse_pinv_gives_canonical(worked):
    v = controlled.ControlledEFrame(worked.mapping, worked.psi, worked.u).t_u_pinv.conj().T
    dual = controlled.dual_from_right_inverse(worked.mapping, worked.psi, worked.u, v)
    canonical = controlled.canonical_dual(worked.mapping, worked.psi, worked.u)
    assert_allclose(dual, canonical, atol=1e-12)


def test_dual_from_right_inverse_reports_deviation(worked):
    v = 0.9 * eframe.e_frame_bounds(worked.mapping, worked.psi_tilde).images.T
    with pytest.raises(DualConditionError) as excinfo:
        controlled.dual_from_right_inverse(worked.mapping, worked.psi, worked.u, v)
    assert excinfo.value.deviation == pytest.approx(0.1, abs=1e-12)


def test_dual_with_offset_zero_map_is_canonical(worked):
    v = np.zeros((4, 3), dtype=complex)
    dual = controlled.dual_with_offset(worked.mapping, worked.psi, worked.u, v)
    assert_allclose(dual, worked.psi_tilde, atol=1e-13)


def test_dual_with_offset_explicit_null_map(worked):
    # V f = <f, e1> (delta_1 - delta_2), which lands in the kernel of T_u
    v = np.zeros((4, 3), dtype=complex)
    v[0, 0] = 1.0
    v[1, 0] = -1.0
    dual = controlled.dual_with_offset(worked.mapping, worked.psi, worked.u, v)
    offset = np.zeros((4, 3), dtype=complex)
    offset[:, 0] = [1.0, 0.0, 0.0, 0.0]
    assert_allclose(dual, worked.psi_tilde + offset, atol=1e-13)
    expected = np.array(
        [[2, 0, 0], [2, 0, 0], [2, 2, 0], [2, 2, 2]], dtype=complex
    )
    assert_allclose(dual, expected, atol=1e-13)
    cert_def, _ = controlled.verify_dual(worked.mapping, worked.psi, dual, worked.u)
    assert cert_def.verdict and cert_def.max_residual <= 1e-12


def test_dual_with_offset_rejects_non_null_map(worked):
    v = np.zeros((4, 3), dtype=complex)
    v[0, 0] = 1.0  # T_u maps delta_1 to e1/2, so this is not a null map
    with pytest.raises(DualConditionError):
        controlled.dual_with_offset(worked.mapping, worked.psi, worked.u, v)


def test_dual_with_offset_accepts_a_null_map_with_subnormal_products():
    """||T_u V||_F lies near 1e-313: frobenius scales the real and imaginary
    parts of a subnormal array apart, where a complex division overflows."""
    rng = np.random.default_rng(0)
    psi = random_complex(rng, (40, 8))
    record = controlled.ControlledEFrame(
        mapping.build_bidiagonal(40), psi, 0.5 * np.eye(8), seed=0)
    v = 1e-300 * record.random_null_map()
    assert_allclose(record.dual_with_offset(v), record.canonical_dual(), rtol=0, atol=1e-290)


def test_random_null_map_kernel_structure(worked):
    # kernel of the worked synthesis map is spanned by delta_1 - delta_2
    for seed in (1, 2):
        v = controlled.random_null_map(worked.mapping, worked.psi, worked.u, seed)
        t_u = controlled.ControlledEFrame(worked.mapping, worked.psi, worked.u).t_u
        assert np.linalg.norm(t_u @ v) <= 1e-10
        for col in v.T:
            assert abs(col[0] + col[1]) <= 1e-10
            assert np.linalg.norm(col[2:]) <= 1e-10
    v1 = controlled.random_null_map(worked.mapping, worked.psi, worked.u, 1)
    v2 = controlled.random_null_map(worked.mapping, worked.psi, worked.u, 2)
    assert np.linalg.norm(v1 - v2) > 1e-3


def test_random_null_map_trivial_kernel():
    e = mapping.identity_mapping(3)
    v = controlled.random_null_map(e, np.eye(3, dtype=complex), np.eye(3), seed=5)
    assert np.linalg.norm(v) <= 1e-10


def test_random_null_map_duals_pass(worked):
    for seed in range(5):
        v = controlled.random_null_map(worked.mapping, worked.psi, worked.u, seed)
        dual = controlled.dual_with_offset(worked.mapping, worked.psi, worked.u, v)
        cert_def, _ = controlled.verify_dual(worked.mapping, worked.psi, dual, worked.u)
        assert cert_def.verdict and cert_def.max_residual <= 1e-9


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
def test_one_seed_drives_a_records_generators_and_certificates(seed):
    """A record's seed is the one seed of its draws: its null map and right inverse
    are the one-shot generators' at that seed, and its certificates and identity
    errors are verify_dual's and the trial vectors' at that seed, bit for bit."""
    psi = random_complex(np.random.default_rng(65), (65, 8))
    e, u = mapping.build_bidiagonal(65), 0.5 * np.eye(8)
    record = controlled.ControlledEFrame(e, psi, u, trials=7, seed=seed)
    assert np.array_equal(record.random_null_map(), controlled.random_null_map(e, psi, u, seed))
    assert np.array_equal(
        record.random_right_inverse(), controlled.random_right_inverse(e, psi, u, seed))
    phi = record.dual_with_offset(record.random_null_map())
    certs = controlled.verify_dual(e, psi, phi, u, trials=7, seed=seed)
    assert record.certify(record.images_of(phi)) == certs
    f = hilbert.trial_vectors(8, 7, seed)
    lhs = hilbert.trial_sums(record.t_u, record.images, f)
    rhs = hilbert.trial_sums(record.images.T, record.t_u.T, f)
    switched = (lhs[0] - rhs[0], lhs[1] - rhs[1])
    assert record.identity_errors().err_switched_sum == hilbert.worst_residual(switched, f, 0.0)


def test_record_and_one_shot_generators_keep_their_own_default_seeds(worked):
    """A record's generators draw from its seed, whose default is DEFAULT_SEED (42),
    the seed of its checks; the one-shot generators keep their default of 0."""
    args = (worked.mapping, worked.psi, worked.u)
    record = controlled.ControlledEFrame(*args)
    assert record.seed == hilbert.DEFAULT_SEED == 42
    assert np.array_equal(record.random_null_map(), controlled.random_null_map(*args, 42))
    zero = controlled.ControlledEFrame(*args, seed=0)
    assert np.array_equal(controlled.random_null_map(*args), zero.random_null_map())
    assert np.array_equal(controlled.random_right_inverse(*args), zero.random_right_inverse())


def test_a_record_checks_its_trials_and_seed_at_construction(worked):
    """trials and seed are fields, checked once when the record is built with the
    messages of hilbert.require_positive and require_seed; numpy integers are
    stored as Python ints."""
    args = (worked.mapping, worked.psi, worked.u)
    with pytest.raises(ValueError, match=r"^trials must be a finite positive integer, got 0$"):
        controlled.ControlledEFrame(*args, trials=0)
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        controlled.ControlledEFrame(*args, seed=-1)
    record = controlled.ControlledEFrame(*args, trials=np.int64(5), seed=np.int64(3))
    assert (record.trials, record.seed) == (5, 3)
    assert type(record.trials) is int and type(record.seed) is int


def test_extract_null_map_canonical_is_zero(worked):
    v = controlled.extract_null_map(
        worked.mapping, worked.psi, worked.psi_tilde, worked.u
    )
    assert np.linalg.norm(v) <= 1e-12


def test_extract_null_map_recovers_explicit(worked):
    v = np.zeros((4, 3), dtype=complex)
    v[0, 0] = 1.0
    v[1, 0] = -1.0
    dual = controlled.dual_with_offset(worked.mapping, worked.psi, worked.u, v)
    recovered = controlled.extract_null_map(worked.mapping, worked.psi, dual, worked.u)
    assert_allclose(recovered, v, atol=1e-12)


def test_extract_null_map_rejects_non_dual(worked):
    with pytest.raises(DualConditionError):
        controlled.extract_null_map(worked.mapping, worked.psi, worked.phi, worked.u)


def test_generate_extract_roundtrip_random():
    rng = np.random.default_rng(36)
    for trial in range(50):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d + 1, d + 4))
        e, psi, u = random_commuting_instance(rng, d, n)
        v = controlled.random_null_map(e, psi, u, seed=trial)
        dual = controlled.dual_with_offset(e, psi, u, v)
        recovered = controlled.extract_null_map(e, psi, dual, u)
        assert np.linalg.norm(recovered - v) <= 1e-9 * max(np.linalg.norm(v), 1.0)


@pytest.mark.parametrize("family", ["worked", "gaussian"])
def test_null_map_is_bit_exact(worked, family):
    """null_map subtracts into the buffer of T_psi* S^{-1}: its bits are those of
    images_phi* - T_psi* S^{-1}, and dual_with_offset of it gives the family back."""
    if family == "worked":
        e, psi, u = worked.mapping, worked.psi, worked.u
    else:
        psi = random_complex(np.random.default_rng(65), (65, 8))
        e, u = mapping.build_bidiagonal(65), 0.5 * np.eye(8)
    record = controlled.ControlledEFrame(e, psi, u)
    dual = record.dual_with_offset(replace(record, seed=3).random_null_map())
    images = record.images_of(dual)
    recovered = record.null_map(images, record.certify(images)[0])
    assert np.array_equal(recovered, images.conj() - record.images.conj() @ record.s_inv)
    again = record.dual_with_offset(recovered)
    assert np.linalg.norm(again - dual) <= 1e-9 * max(np.linalg.norm(dual), 1.0)


@pytest.mark.parametrize("kind", CALLER_HELD)
def test_record_copies_a_psi_someone_can_write(worked, kind):
    """A psi someone can still write, or one not complex128, enters the record as a
    copy: a write through the caller's reference after construction changes neither
    psi, the images nor the verdict and bounds computed afterwards."""
    arr, write = caller_held(kind, worked.psi)
    reference = controlled.ControlledEFrame(worked.mapping, np.array(arr, complex), worked.u)
    record = controlled.ControlledEFrame(worked.mapping, arr, worked.u)
    write()
    assert np.array_equal(record.psi, reference.psi)
    assert np.array_equal(record.images, reference.images)
    assert (record.verdict, record.bounds) == (reference.verdict, reference.bounds)
    assert not record.psi.flags.writeable and not record.images.flags.writeable


def test_record_shares_the_read_only_arrays_of_a_config(tmp_path):
    """parse_config's arrays are read-only down to the array that owns their memory,
    so the record and the approximate dual keep them without a copy, and nobody can
    make psi or phi writeable again."""
    cfg = parse_config(write_config(tmp_path, phi=pairs(0.5 * gallery.example_psi_tilde(3))))
    record = controlled.ControlledEFrame(cfg.mapping, cfg.psi, cfg.u, cfg.tol)
    assert record.psi is cfg.psi and record.u is cfg.u
    assert neumann.ApproximateDual(record, cfg.phi).phi is cfg.phi
    for arr in (cfg.psi, cfg.phi):
        with pytest.raises(ValueError):
            arr.setflags(write=True)


def test_right_inverse_family_duals_pass(worked):
    for seed in range(5):
        v = controlled.random_right_inverse(worked.mapping, worked.psi, worked.u, seed)
        dual = controlled.dual_from_right_inverse(worked.mapping, worked.psi, worked.u, v)
        cert_def, _ = controlled.verify_dual(worked.mapping, worked.psi, dual, worked.u)
        assert cert_def.verdict and cert_def.max_residual <= 1e-9


def test_riesz_equivalence_scaled_identity(worked):
    e3 = mapping.build_bidiagonal(3)
    report = eframe.riesz_equivalence(
        2.0 * np.eye(3, dtype=complex), np.eye(3, dtype=complex), e3, 0.5 * np.eye(3)
    )
    assert report.agree
    assert (report.riesz_bounds.lo, report.riesz_bounds.hi) == pytest.approx((2.0, 2.0))
    assert (report.direct_bounds.lo, report.direct_bounds.hi) == pytest.approx((2.0, 2.0))


def test_riesz_equivalence_trivial():
    e = mapping.identity_mapping(3)
    report = eframe.riesz_equivalence(
        np.eye(3, dtype=complex), np.eye(3, dtype=complex), e, np.eye(3)
    )
    assert report.agree
    assert (report.direct_bounds.lo, report.direct_bounds.hi) == pytest.approx((1.0, 1.0))


def test_riesz_equivalence_random_triangular():
    rng = np.random.default_rng(37)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        v = np.triu(random_complex(rng, (d, d)))
        v += np.diag(1.0 + np.abs(np.diag(v)))  # keep it comfortably invertible
        e = mapping.build_dense(random_conditioned_matrix(rng, d))
        report = eframe.riesz_equivalence(
            v, np.eye(d, dtype=complex), e, np.eye(d)
        )
        assert report.agree
        assert report.max_deviation <= 1e-9 * max(abs(report.riesz_bounds.hi), 1.0)


def test_algebraic_product_identity_random():
    rng = np.random.default_rng(38)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 5))
        e = mapping.build_dense(random_conditioned_matrix(rng, n))
        psi = random_complex(rng, (n, d))
        u = random_complex(rng, (d, d))
        record = controlled.ControlledEFrame(e, psi, u)
        s_ue, t_u = record.s_ue, record.t_u
        plain = eframe.e_frame_bounds(e, psi)
        s_e, t = plain.frame_op, plain.images.T
        scale = max(np.linalg.norm(s_ue), 1e-30)
        assert np.linalg.norm(s_ue - u @ s_e) <= 1e-12 * scale
        assert np.linalg.norm(s_ue - t_u @ t.conj().T) <= 1e-12 * scale


def test_structural_identities_random_commuting():
    rng = np.random.default_rng(39)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(d, d + 4))
        e, psi, u = random_commuting_instance(rng, d, n)
        record = controlled.controlled_bounds(e, psi, u)
        if record.verdict != controlled.CONTROLLED_FRAME:
            continue
        report = controlled.identity_errors(e, psi, u)
        assert report.err_commute <= 1e-9
        assert report.err_switched_sum <= 1e-9


def test_controlled_frame_inequality_conjugate_pairing():
    rng = np.random.default_rng(40)
    for _ in range(10):
        d, n = 3, 6
        e, psi, u = random_commuting_instance(rng, d, n)
        record = controlled.controlled_bounds(e, psi, u)
        images = record.images
        for _ in range(10):
            f = random_unit_vector(d, rng)
            terms = (images.conj() @ f).conj() * ((images @ u.T).conj() @ f)
            total = complex(np.sum(terms))
            assert record.bounds.lo - 1e-8 <= total.real <= record.bounds.hi + 1e-8
            assert abs(total.imag) <= 1e-9


def test_parseval_soundness(worked):
    from eframes import gallery

    psi = gallery.example_parseval_psi(3)
    assert controlled.is_parseval(worked.mapping, psi, worked.u)
    cert_def, _ = controlled.verify_dual(worked.mapping, psi, psi, worked.u)
    assert cert_def.verdict


def synthesis_record(t):
    """Record whose T_u is t: identity mapping, psi = t^T and U = id."""
    d, n = t.shape
    return controlled.ControlledEFrame(mapping.identity_mapping(n), t.T, np.eye(d))


def test_t_u_pinv_surjective_normal_equations_oracle():
    t = np.array(
        [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.5]],
        dtype=complex,
    )
    p = synthesis_record(t).t_u_pinv
    oracle = t.conj().T @ np.linalg.inv(t @ t.conj().T)
    assert_allclose(p, oracle, atol=1e-12)
    assert_allclose(t @ p, np.eye(3), atol=1e-12)


def test_t_u_pinv_of_the_identity_and_none_of_an_invalid_family():
    """The verdict decides T_u's rank: a zero family, or S = diag(1, 1e-16),
    which is not positive to tol, has no pseudoinverse to offer."""
    eye = np.eye(3, dtype=complex)
    assert_allclose(synthesis_record(eye).t_u_pinv, eye, atol=1e-14)
    for t in (np.zeros((2, 5)), np.array([[1.0, 0.0, 0.0], [0.0, 1e-8, 0.0]])):
        record = synthesis_record(t.astype(complex))
        assert record.verdict == controlled.INVALID
        with pytest.raises(NotAFrameError):
            record.t_u_pinv


def test_t_u_pinv_moore_penrose_identities():
    rng = np.random.default_rng(13)
    for _ in range(50):
        rows = int(rng.integers(2, 6))
        cols = int(rng.integers(rows, 9))
        m = random_complex(rng, (rows, cols))
        p = synthesis_record(m).t_u_pinv
        scale = 1e-9 * np.linalg.norm(m)
        assert np.linalg.norm(m @ p @ m - m) <= scale
        assert np.linalg.norm(p @ m @ p - p) <= scale


def parseval_with_small_t_u(k):
    """S = U S_E = id exactly, while T_u = diag(1, 10^(-k/2)) on two of three
    coefficients: the smallest singular value of T_u is far below tol."""
    psi = np.array([[1.0, 0.0], [0.0, 10.0 ** (k / 2)], [0.0, 0.0]], dtype=complex)
    return psi, np.diag([1.0, 10.0 ** -k]).astype(complex)


@pytest.mark.parametrize("tol, k", [(1e-10, 21), (1e-6, 13), (1e-4, 9)])
def test_a_valid_record_inverts_every_singular_value_of_t_u(tol, k):
    """The verdict alone decides T_u's rank: no tol cuts a singular value, so
    the right-inverse generator works on this controlled Parseval frame."""
    psi, u = parseval_with_small_t_u(k)
    record = controlled.ControlledEFrame(mapping.identity_mapping(3), psi, u, tol)
    assert record.is_parseval() and record.verdict == controlled.CONTROLLED_FRAME
    assert np.linalg.norm(record.t_u_pinv, 2) == pytest.approx(10.0 ** (k / 2))
    for seed in range(5):
        dual = record.dual_from_right_inverse(replace(record, seed=seed).random_right_inverse())
        definitional, _ = record.certify(record.images_of(dual))
        assert definitional.verdict


def test_t_u_overflow_is_an_input_error():
    """U times an image past the double range: T_u is checked like S_E and S."""
    psi = np.array([[1e200, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
    u = np.diag([1e200, 1.0]).astype(complex)
    record = controlled.ControlledEFrame(mapping.identity_mapping(3), psi, u)
    with pytest.raises(ValueError, match="^entries must be finite$"):
        record.t_u


def test_overflowing_certificate_sums_are_an_input_error():
    """psi = 1e150 B, U = 1e50 and phi = 1e200 B: T_u, E phi and U (E phi)^T are
    finite, but the sums of both orientations pass 1e308. The residual was NaN."""
    b = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], dtype=complex)
    e, u = mapping.build_dense(np.eye(3)), 1e50 * np.eye(2)
    with pytest.raises(ValueError, match="^entries must be finite$"):
        controlled.verify_dual(e, 1e150 * b, 1e200 * b, u)


@pytest.mark.parametrize("trials", [1, 7, 100])
@pytest.mark.parametrize("d, n", [(4, 5), (16, 33), (32, 64)])
def test_certify_counts_the_basis_and_matches_the_chain(d, n, trials):
    """Each certificate covers the trial vectors plus the standard basis, and
    its residual is that of the product chain through [f | I]."""
    rng = np.random.default_rng(d + n)
    e, psi, u = random_commuting_instance(rng, d, n)
    record = controlled.ControlledEFrame(e, psi, u, trials=trials, seed=5)
    f = np.concatenate([hilbert.trial_vectors(d, trials, 5), np.eye(d)], axis=1)
    for phi in (record.canonical_dual(), 0.5 * record.canonical_dual()):
        images_phi = record.images_of(phi)
        chains = (
            record.t_u @ (images_phi.conj() @ f),
            (u @ images_phi.T) @ (record.images.conj() @ f),
        )
        for cert, chain in zip(record.certify(images_phi), chains):
            assert cert.trials == trials + d
            old = np.max(np.linalg.norm(chain - f, axis=0))
            assert abs(cert.max_residual - old) <= 16 * np.finfo(float).eps


def test_extract_null_map_passes_tol_to_its_record(worked):
    """S_ue is Hermitian only to about 1e-6: a valid controlled frame at
    tol = 1e-3, so the null map of its canonical dual is extracted, and it
    vanishes up to that Hermitian deviation."""
    u = worked.u.copy()
    u[0, 1] = 1e-6
    record = controlled.ControlledEFrame(worked.mapping, worked.psi, u, tol=1e-3)
    assert record.verdict == controlled.CONTROLLED_FRAME
    assert controlled.ControlledEFrame(worked.mapping, worked.psi, u).verdict == (
        controlled.INVALID
    )
    images = record.images_of(record.canonical_dual())
    v = record.null_map(images, record.certify(images)[0])
    assert np.linalg.norm(v) <= 1e-5


def test_riesz_equivalence_passes_tol_to_the_family():
    """A basis orthonormal only to about 1e-8 is accepted at tol = 1e-6."""
    basis = np.eye(3, dtype=complex)
    basis[0, 1] = 1e-8
    e = mapping.build_bidiagonal(3)
    v = 2.0 * np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match="orthonormal"):
        eframe.riesz_equivalence(v, basis, e, np.eye(3))
    assert eframe.riesz_equivalence(v, basis, e, np.eye(3), tol=1e-6).agree


def test_square_gaussian_problem_accepts_its_own_duals():
    """At (N, d) = (257, 256) with dense Gaussian E and psi and U = I/2, the
    exact canonical dual leaves a residual near 8e-10 and the generated
    right inverse ||T V* - id|| near 1e-9, both above tol = 1e-10; both
    pass, since the rule is relative to the norms of their factors."""
    rng = np.random.default_rng(1)
    n, d = 257, 256
    e = mapping.build_dense(random_complex(rng, (n, n)))
    record = controlled.ControlledEFrame(e, random_complex(rng, (n, d)), 0.5 * np.eye(d))
    certs = record.certify(record.images_of(record.canonical_dual()))
    assert all(cert.verdict for cert in certs)
    assert max(cert.max_residual for cert in certs) > 1e-10
    family = record.dual_from_right_inverse(replace(record, seed=1).random_right_inverse())
    assert all(cert.verdict for cert in record.certify(record.images_of(family)))


def test_scaled_sequence_keeps_its_generated_duals():
    """psi scaled by 1000 over E = I + 0.1 G, (N, d) = (128, 32): the null
    part of a generated map is O(1) while T_u is O(1000), so both
    generated duals leave residuals near 5e-9, small against their factors."""
    rng = np.random.default_rng(0)
    n, d = 128, 32
    e = mapping.build_dense(np.eye(n) + 0.1 * random_complex(rng, (n, n)))
    psi = random_complex(rng, (n, d))
    for scale in (1.0, 1e3):
        record = controlled.ControlledEFrame(e, scale * psi, 0.5 * np.eye(d))
        seeded = replace(record, seed=1)
        for family in (
            record.dual_from_right_inverse(seeded.random_right_inverse()),
            record.dual_with_offset(seeded.random_null_map()),
        ):
            assert all(c.verdict for c in record.certify(record.images_of(family)))


@pytest.mark.parametrize("generator", ["random_null_map", "random_right_inverse"])
def test_generators_peak_memory_is_linear_in_n_d(generator):
    """Neither generator forms the N x N projector id - pinv(T_u) T_u."""
    n, d = 4097, 16
    rng = np.random.default_rng(7)
    e = mapping.build_bidiagonal(n)
    record = controlled.ControlledEFrame(
        e, random_complex(rng, (n, d)), 0.5 * np.eye(d), seed=3)
    assert record.verdict == controlled.CONTROLLED_FRAME
    tracemalloc.start()
    try:
        getattr(record, generator)()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * d * 16  # eight complex (N, d) arrays; N x N is 4097 / 8 times that


def make_problem(seed, n, d, cond, u_kind, bidiagonal=False):
    """(E, psi, U) with U = I/2 or a Hermitian positive U commuting with S_E.

    E is the paper's bidiagonal mapping when asked for; otherwise it is
    dense with cond(E) up to cond for N <= 96, and beyond that the banded
    D (I + 0.5 Z), Z the down shift and D diagonal with cond(D) = cond,
    so cond(E) lies within a factor 3 of cond.
    """
    rng = np.random.default_rng(seed)
    if bidiagonal:
        e = mapping.build_bidiagonal(n)
    elif n <= 96:
        e = mapping.build_dense(random_conditioned_matrix(rng, n, cond))
    else:
        diag = np.exp(np.log(cond) * rng.permutation(np.linspace(-0.5, 0.5, n)))
        e = mapping.build_banded(n, {0: diag, -1: 0.5 * diag[1:]})
    psi = random_complex(rng, (n, d))
    if u_kind == "half":
        return e, psi, 0.5 * np.eye(d, dtype=complex)
    s_e = eframe.e_frame_bounds(e, psi).frame_op
    s_e = (s_e + s_e.conj().T) / 2.0
    a, b = rng.uniform(0.25, 1.0, size=2)
    return e, psi, a * np.eye(d) + b * s_e / np.linalg.norm(s_e, 2)


def dual_verdicts(e, psi, u, families, right_inverses, null_maps):
    """Pass/fail of certify (both orientations) on each family, of the two
    dual generators on each candidate map, and of extract_null_map."""
    record = controlled.ControlledEFrame(e, psi, u)

    def accepts(call, arg):
        try:
            call(arg)
        except DualConditionError:
            return False
        return True

    verdicts = [c.verdict for phi in families for c in record.certify(record.images_of(phi))]
    verdicts += [accepts(record.dual_from_right_inverse, v) for v in right_inverses]
    verdicts += [accepts(record.dual_with_offset, v) for v in null_maps]
    verdicts += [
        accepts(lambda phi: controlled.extract_null_map(e, psi, phi, u), phi)
        for phi in families
    ]
    return verdicts


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 16),
    extra=st.integers(1, 48),
    mapping_kind=st.sampled_from(["dense", "bidiagonal"]),
    u_kind=st.sampled_from(["half", "commuting"]),
    log_c=st.floats(-3.0, 3.0),
)
def test_dual_verdicts_invariant_under_scaling_and_unitary_basis_change(
    seed, d, extra, mapping_kind, u_kind, log_c
):
    """psi -> c psi W^T, U -> W U W*; duals and right inverses scale by 1/c
    (phi -> phi W^T / c, V -> W V / c), null maps become V W* / c."""
    n = d + extra
    e, psi, u = make_problem(seed, n, d, 1e3, u_kind, mapping_kind == "bidiagonal")
    record = controlled.ControlledEFrame(e, psi, u, seed=seed)
    assume(record.verdict == controlled.CONTROLLED_FRAME)
    rng = np.random.default_rng([seed, 1])
    null = record.random_null_map()
    right = record.random_right_inverse()
    can = record.canonical_dual()
    families = (can, 0.5 * can, record.dual_with_offset(null))
    rights = (right, 0.9 * right)
    nulls = (null, random_complex(rng, (n, d)))
    before = dual_verdicts(e, psi, u, families, rights, nulls)
    assert before == [
        True, True, False, False, True, True,  # certify: each family, both orientations
        True, False,  # dual_from_right_inverse: right, 0.9 right
        True, False,  # dual_with_offset: null map, random map
        True, False, True,  # extract_null_map: each family
    ]

    c = 10.0**log_c
    w, _ = np.linalg.qr(random_complex(rng, (d, d)))
    after = dual_verdicts(
        e, c * psi @ w.T, w @ u @ w.conj().T,
        [phi @ w.T / c for phi in families],
        [w @ v / c for v in rights],
        [v @ w.conj().T / c for v in nulls],
    )
    assert after == before


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 32),
    n=st.integers(2, 1024),
    u_kind=st.sampled_from(["half", "commuting"]),
    log_cond=st.floats(0.0, 6.0),
    log_c=st.floats(-3.0, 3.0),
)
@example(seed=1, d=16, n=16, u_kind="half", log_cond=0.0, log_c=0.0)
@example(seed=2, d=4, n=4, u_kind="commuting", log_cond=2.0, log_c=-2.0)
def test_generated_duals_pass_their_own_certificate(seed, d, n, u_kind, log_cond, log_c):
    """Canonical, right-inverse and offset duals of a valid controlled
    frame all pass certify, for N from d (a square family) up to 1024,
    cond(E) up to about 1e6 and psi scaled by c in [1e-3, 1e3]."""
    e, psi, u = make_problem(seed, n, d, 10.0**log_cond, u_kind)
    record = controlled.ControlledEFrame(e, 10.0**log_c * psi, u)
    assume(record.verdict == controlled.CONTROLLED_FRAME)
    seeded = replace(record, seed=seed)
    families = (
        record.canonical_dual(),
        record.dual_from_right_inverse(seeded.random_right_inverse()),
        record.dual_with_offset(seeded.random_null_map()),
    )
    for phi in families:
        assert all(cert.verdict for cert in record.certify(record.images_of(phi)))


@pytest.mark.parametrize("n", [4, 16, 64])
def test_square_family_null_map_is_exactly_zero(n):
    """For N = d, T_u is invertible and its kernel is {0}: the null map of every
    seed is 0, so the offset dual is the canonical dual (the projection left
    rounding noise, which the null condition rejected for every seed)."""
    for seed in range(5):
        e, psi, u = make_problem(seed, n, n, 1.0, "half")
        record = controlled.ControlledEFrame(e, psi, u, seed=seed)
        null = record.random_null_map()
        assert null.shape == (n, n) and not null.any()
        assert np.array_equal(record.dual_with_offset(null), record.canonical_dual())


def test_canonical_dual_is_exact_when_s_is_hermitian_only_to_tol(worked):
    """The canonical dual is {S^{-*} psi_k}: with S Hermitian only to about
    1e-6, T_u D* = S S^{-1} still holds, so the definitional residual and
    the null map extracted from that dual vanish (with {S^{-1} psi_k} they
    were 2.0e-6 and 3.5e-6)."""
    u = worked.u.copy()
    u[0, 1] = 1e-6
    record = controlled.ControlledEFrame(worked.mapping, worked.psi, u, tol=1e-3)
    images = record.images_of(record.canonical_dual())
    cert, _ = record.certify(images)
    assert cert.max_residual <= 1e-12
    assert np.linalg.norm(record.null_map(images, cert)) <= 1e-12


# psi is scaled by c in the tests below. The norms in the tolerance rules
# overflowed above about 1e154 and underflowed below 1e-154, which flipped
# these verdicts.
@pytest.mark.parametrize("c", [1.0, 1e60, 1e-80, 1e80, 1e150, 1e-100])
def test_non_hermitian_operator_is_invalid_at_every_scale(worked, c):
    u = worked.u.copy()
    u[0, 1] = 0.3
    record = controlled.ControlledEFrame(worked.mapping, c * worked.psi, u)
    assert record.verdict == controlled.INVALID


@pytest.mark.parametrize("c", [1.0, 1e80, 1e-100])
def test_noncommuting_control_fails_the_criterion_at_every_scale(worked, c):
    u = np.diag([0.5, 1.0, 2.0]).astype(complex)
    u[0, 1] = u[1, 0] = 0.2
    record = controlled.ControlledEFrame(worked.mapping, c * worked.psi, u)
    assert record.commutation_criterion() is False


@pytest.mark.parametrize("c", [1.0, 1e150, 1e160])
def test_non_dual_fails_its_certificate_at_every_scale(worked, c):
    """psi -> c psi, phi -> phi / c, with phi the canonical dual with one
    member scaled by 1.5."""
    phi = controlled.canonical_dual(worked.mapping, worked.psi, worked.u)
    phi[1] *= 1.5
    record = controlled.ControlledEFrame(worked.mapping, c * worked.psi, worked.u)
    definitional, _ = record.certify(record.images_of(phi / c))
    assert definitional.verdict is False


@pytest.mark.parametrize("c", [1e80, 1e-100])
def test_identity_errors_do_not_depend_on_scale(worked, c):
    def errors(scale):
        return controlled.identity_errors(worked.mapping, scale * worked.psi, worked.u)

    assert errors(c) == errors(1.0)

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import inner, random_complex, random_conditioned_matrix, random_unit_vector
from eframes import controlled, eframe, hilbert, mapping
from eframes.errors import (
    DimensionMismatchError,
    NotAFrameError,
    NotHermitianError,
    SingularOperatorError,
)


def explicit_frame_operator(images):
    """Oracle: sum of outer products of the images, one term at a time."""
    d = images.shape[1]
    s = np.zeros((d, d), dtype=complex)
    for img in images:
        s += np.outer(img, img.conj())
    return s


def explicit_reconstruct(images_psi, images_phi, f):
    """Oracle: direct summation using the scalar inner product."""
    out = np.zeros_like(f)
    for img_psi, img_phi in zip(images_psi, images_phi):
        out = out + inner(f, img_phi) * img_psi
    return out


def reconstruct(e, psi, phi, f):
    """sum_n <f, (E phi)_n> (E psi)_n from the images e_frame_bounds returns."""
    images_phi = eframe.e_frame_bounds(e, phi).images
    return eframe.e_frame_bounds(e, psi).images.T @ (images_phi.conj() @ f)


def test_e_synthesis_worked_matrix(worked):
    t = eframe.e_frame_bounds(worked.mapping, worked.psi).images.T
    expected = np.array(
        [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert_allclose(t, expected, atol=0)


def test_e_synthesis_identity_and_zero():
    e = mapping.identity_mapping(3)
    basis = np.eye(3, dtype=complex)
    assert_allclose(eframe.e_frame_bounds(e, basis).images.T, np.eye(3), atol=0)
    zero = np.zeros((3, 3), dtype=complex)
    assert_allclose(eframe.e_frame_bounds(e, zero).images.T, zero, atol=0)


def test_e_analysis_worked(worked):
    f = np.array([1.5 - 1.0j, 2.0j, -3.0], dtype=complex)
    analysis = eframe.e_frame_bounds(worked.mapping, worked.psi).images.conj()
    coeffs = analysis @ f  # {<f, (E psi)_n>}_n
    assert_allclose(coeffs, np.array([f[0], f[0], f[1], f[2]]), atol=1e-14)
    assert_allclose(analysis @ np.zeros(3), np.zeros(4), atol=0)
    e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert_allclose(analysis @ e2, np.array([0, 0, 1, 0]), atol=0)


def test_e_frame_operator_explicit_sum_oracle(worked):
    s = eframe.e_frame_bounds(worked.mapping, worked.psi).frame_op
    images = mapping.apply_mapping(worked.mapping, worked.psi)
    assert_allclose(s, explicit_frame_operator(images), atol=1e-14)
    assert_allclose(s, np.diag([2.0, 1.0, 1.0]), atol=1e-14)

    s_tilde = eframe.e_frame_bounds(worked.mapping, worked.psi_tilde).frame_op
    assert_allclose(s_tilde, np.diag([2.0, 4.0, 4.0]), atol=1e-14)


def test_e_frame_operator_orthonormal_identity():
    e = mapping.identity_mapping(4)
    assert_allclose(
        eframe.e_frame_bounds(e, np.eye(4, dtype=complex)).frame_op, np.eye(4), atol=0
    )


def test_e_frame_bounds_worked(worked):
    record = eframe.e_frame_bounds(worked.mapping, worked.psi)
    assert record.verdict == controlled.FRAME
    assert (record.bounds.lo, record.bounds.hi) == pytest.approx((1.0, 2.0))


def test_e_frame_bounds_parseval_tight():
    e = mapping.identity_mapping(3)
    record = eframe.e_frame_bounds(e, np.eye(3, dtype=complex))
    assert record.verdict == controlled.FRAME
    assert (record.bounds.lo, record.bounds.hi) == pytest.approx((1.0, 1.0))


def test_e_frame_bounds_rank_deficient_is_bessel_only():
    e = mapping.identity_mapping(4)
    psi = np.zeros((4, 3), dtype=complex)
    psi[:, 0] = [1.0, 2.0, -1.0, 0.5]  # all multiples of e1
    record = eframe.e_frame_bounds(e, psi)
    assert record.verdict == controlled.BESSEL_ONLY
    assert record.bounds.lo == pytest.approx(0.0, abs=1e-12)


def test_zero_members_contribute_nothing():
    e = mapping.identity_mapping(5)
    psi = np.zeros((5, 3), dtype=complex)
    psi[0, 0] = psi[1, 0] = 1.0
    psi[2, 1] = 1.0
    psi[3, 2] = 1.0  # member 5 stays zero
    record = eframe.e_frame_bounds(e, psi)
    assert record.verdict == controlled.FRAME
    assert (record.bounds.lo, record.bounds.hi) == pytest.approx((1.0, 2.0))


def test_e_frame_bounds_fewer_members_than_dimensions():
    e = mapping.identity_mapping(2)
    psi = random_complex(np.random.default_rng(0), (2, 5))
    record = eframe.e_frame_bounds(e, psi)
    assert record.verdict == controlled.BESSEL_ONLY


def test_e_canonical_dual_worked(worked):
    dual = eframe.e_canonical_dual(worked.mapping, worked.psi)
    expected = np.array(
        [
            [0.5, 0, 0],
            [1.0, 0, 0],
            [1.0, 1.0, 0],
            [1.0, 1.0, 1.0],
        ],
        dtype=complex,
    )
    assert_allclose(dual, expected, atol=1e-14)


def test_e_canonical_dual_parseval_is_itself():
    e = mapping.identity_mapping(3)
    basis = np.eye(3, dtype=complex)
    assert_allclose(eframe.e_canonical_dual(e, basis), basis, atol=1e-14)


def test_e_canonical_dual_psi_tilde_diagonal_oracle(worked):
    dual = eframe.e_canonical_dual(worked.mapping, worked.psi_tilde)
    s_inv = np.diag([0.5, 0.25, 0.25]).astype(complex)
    assert_allclose(dual, worked.psi_tilde @ s_inv.T, atol=1e-14)


def test_e_canonical_dual_requires_frame():
    e = mapping.identity_mapping(3)
    psi = np.zeros((3, 3), dtype=complex)
    psi[:, 0] = 1.0
    with pytest.raises(NotAFrameError):
        eframe.e_canonical_dual(e, psi)


@pytest.mark.parametrize("kind", ["identity", "bidiagonal"])
def test_e_canonical_dual_is_the_controlled_one_with_identity_control(kind):
    # I @ S_E is exact, so both duals invert the same S: S^{-*}, not inv(S).T
    n, d = 40, 8
    e = mapping.identity_mapping(n) if kind == "identity" else mapping.build_bidiagonal(n)
    rng = np.random.default_rng(27)
    for _ in range(20):
        psi = random_complex(rng, (n, d))
        psi[:, 0] *= 1e-3
        plain = eframe.e_canonical_dual(e, psi)
        assert np.array_equal(plain, controlled.canonical_dual(e, psi, np.eye(d)))


def test_e_reconstruct_worked_sums(worked):
    rng = np.random.default_rng(21)
    for _ in range(20):
        f = random_unit_vector(3, rng)
        doubled = reconstruct(worked.mapping, worked.psi, worked.psi_tilde, f)
        assert np.linalg.norm(doubled - 2 * f) <= 1e-12
        plain = reconstruct(worked.mapping, worked.psi, worked.phi, f)
        assert np.linalg.norm(plain - f) <= 1e-12


def test_e_reconstruct_canonical_dual_oracle(worked):
    rng = np.random.default_rng(22)
    dual = eframe.e_canonical_dual(worked.mapping, worked.psi)
    images_psi = mapping.apply_mapping(worked.mapping, worked.psi)
    images_dual = mapping.apply_mapping(worked.mapping, dual)
    for _ in range(10):
        f = random_unit_vector(3, rng)
        got = reconstruct(worked.mapping, worked.psi, dual, f)
        assert np.linalg.norm(got - f) <= 1e-12
        assert np.linalg.norm(got - explicit_reconstruct(images_psi, images_dual, f)) <= 1e-13


def test_e_riesz_family_scaled_running_sums():
    e = mapping.build_bidiagonal(3)
    basis = np.eye(3, dtype=complex)
    family = eframe.e_riesz_family(2.0 * np.eye(3, dtype=complex), e, basis)
    expected = 2.0 * np.cumsum(basis, axis=0)
    assert_allclose(family, expected, atol=1e-14)
    images = mapping.apply_mapping(e, family)
    assert_allclose(images, 2.0 * basis, atol=1e-14)


def test_e_riesz_family_identity_returns_basis():
    e = mapping.identity_mapping(3)
    basis = np.eye(3, dtype=complex)
    assert_allclose(eframe.e_riesz_family(np.eye(3), e, basis), basis, atol=0)


def test_e_riesz_family_rejects_bad_inputs():
    e = mapping.identity_mapping(3)
    basis = np.eye(3, dtype=complex)
    with pytest.raises(SingularOperatorError):
        eframe.e_riesz_family(np.zeros((3, 3)), e, basis)
    with pytest.raises(ValueError):
        eframe.e_riesz_family(np.eye(3), e, 2.0 * basis)
    with pytest.raises(DimensionMismatchError):
        eframe.e_riesz_family(np.eye(3), mapping.identity_mapping(4), np.eye(4, 3))


def test_factorization_against_explicit_sum_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, min(n, 5) + 1))
        e = mapping.build_dense(random_conditioned_matrix(rng, n))
        psi = random_complex(rng, (n, d))
        s = eframe.e_frame_bounds(e, psi).frame_op
        images = mapping.apply_mapping(e, psi)
        oracle = explicit_frame_operator(images)
        assert np.linalg.norm(s - oracle) <= 1e-12 * max(np.linalg.norm(s), 1.0)
        f = random_unit_vector(d, rng)
        direct = explicit_reconstruct(images, images, f)
        assert np.linalg.norm(s @ f - direct) <= 1e-12 * max(np.linalg.norm(direct), 1.0)


def test_frame_inequality_random():
    rng = np.random.default_rng(24)
    e = mapping.build_dense(random_conditioned_matrix(rng, 6))
    psi = random_complex(rng, (6, 4))
    record = eframe.e_frame_bounds(e, psi)
    images = record.images
    for _ in range(100):
        f = random_unit_vector(4, rng)
        total = float(np.sum(np.abs(images.conj() @ f) ** 2))
        assert record.bounds.lo - 1e-8 <= total <= record.bounds.hi + 1e-8


def test_canonical_dual_reconstructs_both_orientations():
    rng = np.random.default_rng(25)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        d = int(rng.integers(2, n + 1))
        e = mapping.build_dense(random_conditioned_matrix(rng, n))
        psi = random_complex(rng, (n, d))
        dual = eframe.e_canonical_dual(e, psi)
        f = random_unit_vector(d, rng)
        got = reconstruct(e, psi, dual, f)
        assert np.linalg.norm(got - f) <= 1e-10
        twin = reconstruct(e, dual, psi, f)
        assert np.linalg.norm(twin - f) <= 1e-10


def test_riesz_family_bounds_are_squared_singular_values():
    rng = np.random.default_rng(26)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        v = random_conditioned_matrix(rng, d)
        e = mapping.build_dense(random_conditioned_matrix(rng, d))
        family = eframe.e_riesz_family(v, e, np.eye(d, dtype=complex))
        record = eframe.e_frame_bounds(e, family)
        s = np.linalg.svd(v, compute_uv=False)
        assert record.bounds.hi == pytest.approx(s[0] ** 2, rel=1e-8)
        assert record.bounds.lo == pytest.approx(s[-1] ** 2, rel=1e-8)


def test_overflowing_frame_operator_is_an_input_error_without_a_warning(worked):
    """S_E of psi times 1e154 overflows; pytest turns a warning into an error."""
    with pytest.raises(ValueError, match=r"^entries must be finite$"):
        eframe.e_frame_bounds(worked.mapping, 1e154 * worked.psi)


def test_frame_record_hermitian_test_uses_record_tol():
    """A skew part of relative size about 6e-9 fails the default tolerance
    and passes tol = 1e-6, put into the record's S_E before .plain reads it."""
    e = mapping.identity_mapping(2)
    psi = np.eye(2, dtype=complex)
    frame_op = np.array([[2.0, 1e-8], [0.0, 1.0]], dtype=complex)

    def plain(tol):
        record = controlled.ControlledEFrame(e, psi, np.eye(2), tol)
        vars(record)["s_e"] = frame_op
        return record.plain

    with pytest.raises(NotHermitianError):
        plain(hilbert.DEFAULT_TOL)
    record = plain(1e-6)
    assert record.verdict == controlled.FRAME

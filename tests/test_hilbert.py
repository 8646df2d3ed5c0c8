import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from conftest import random_unit_vector
from eframes import hilbert
from eframes.errors import (
    DimensionMismatchError,
    NotHermitianError,
    SingularOperatorError,
)

DIM = 4
finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
cvector = st.builds(
    lambda re, im: re + 1j * im,
    arrays(np.float64, (DIM,), elements=finite),
    arrays(np.float64, (DIM,), elements=finite),
)
cscalar = st.builds(complex, finite, finite)


def test_inner_orthonormal_basis():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    assert hilbert.inner(e1, e1) == 1.0
    assert hilbert.inner(e1, e2) == 0.0


def test_inner_hand_expansion():
    # (1+i) * conj(i) = 1 - i
    u = np.array([1.0 + 1.0j, 0.0])
    v = np.array([1.0j, 0.0])
    assert hilbert.inner(u, v) == pytest.approx(1.0 - 1.0j)


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        hilbert.inner(np.ones(2), np.ones(3))


@settings(max_examples=200, deadline=None)
@given(u=cvector, v=cvector)
def test_inner_hermitian_symmetry(u, v):
    lhs = hilbert.inner(u, v)
    rhs = np.conj(hilbert.inner(v, u))
    assert abs(lhs - rhs) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(u=cvector, v=cvector, w=cvector, a=cscalar, b=cscalar)
def test_inner_sesquilinear(u, v, w, a, b):
    lhs = hilbert.inner(a * u + b * v, w)
    rhs = a * hilbert.inner(u, w) + b * hilbert.inner(v, w)
    assert abs(lhs - rhs) <= 1e-9
    lhs2 = hilbert.inner(w, a * u + b * v)
    rhs2 = np.conj(a) * hilbert.inner(w, u) + np.conj(b) * hilbert.inner(w, v)
    assert abs(lhs2 - rhs2) <= 1e-9


def test_adjoint_identity_and_diagonal():
    eye = np.eye(3, dtype=complex)
    assert np.array_equal(hilbert.adjoint(eye), eye)
    diag = np.diag([1.0j, 2.0])
    assert np.array_equal(hilbert.adjoint(diag), np.diag([-1.0j, 2.0]))


def test_adjoint_nilpotent():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert np.array_equal(hilbert.adjoint(a), a.T)


def test_adjoint_involution_exact():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.array_equal(hilbert.adjoint(hilbert.adjoint(a)), a)


def test_adjoint_defining_identity():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for _ in range(20):
        u = random_unit_vector(4, rng)
        v = random_unit_vector(4, rng)
        lhs = hilbert.inner(a @ u, v)
        rhs = hilbert.inner(u, hilbert.adjoint(a) @ v)
        assert abs(lhs - rhs) <= 1e-12


def test_hermitian_bounds_explicit_diagonal():
    # oracle: eigendecomposition of the explicit diagonal
    diag = np.diag([2.0, 1.0, 1.0]).astype(complex)
    expected = np.linalg.eigvalsh(diag)
    bounds = hilbert.hermitian_bounds(diag)
    assert bounds.lo == pytest.approx(expected[0], rel=1e-8)
    assert bounds.hi == pytest.approx(expected[-1], rel=1e-8)
    assert (bounds.lo, bounds.hi) == pytest.approx((1.0, 2.0))


def test_hermitian_bounds_identity_and_symmetric():
    eye = np.eye(5, dtype=complex)
    assert hilbert.hermitian_bounds(eye) == hilbert.SpectralBounds(1.0, 1.0)
    a = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    bounds = hilbert.hermitian_bounds(a)
    assert (bounds.lo, bounds.hi) == pytest.approx((1.0, 3.0))


def test_hermitian_bounds_rejects_skew():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotHermitianError):
        hilbert.hermitian_bounds(a)


def test_hermitian_bounds_sandwich():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = (a + a.conj().T) / 2
    bounds = hilbert.hermitian_bounds(a)
    for _ in range(100):
        f = random_unit_vector(6, rng)
        quotient = hilbert.inner(a @ f, f).real
        assert bounds.lo - 1e-8 <= quotient <= bounds.hi + 1e-8


def test_invert_diagonal_and_identity():
    assert_allclose(
        hilbert.invert_operator(np.diag([2.0, 1.0, 1.0]).astype(complex)),
        np.diag([0.5, 1.0, 1.0]),
        atol=1e-14,
    )
    eye = np.eye(4, dtype=complex)
    assert_allclose(hilbert.invert_operator(eye), eye, atol=1e-14)


def _forward_substitution(lower, rhs):
    # oracle for lower-triangular systems
    n = lower.shape[0]
    x = np.zeros(n, dtype=complex)
    for i in range(n):
        x[i] = (rhs[i] - lower[i, :i] @ x[:i]) / lower[i, i]
    return x


def test_invert_bidiagonal_forward_substitution_oracle():
    e = np.eye(4, dtype=complex) - np.eye(4, k=-1, dtype=complex)
    inv = hilbert.invert_operator(e)
    oracle = np.column_stack(
        [_forward_substitution(e, col) for col in np.eye(4, dtype=complex)]
    )
    assert_allclose(inv, oracle, atol=1e-14)
    assert_allclose(inv, np.tril(np.ones((4, 4))), atol=1e-14)


def test_invert_rejects_singular():
    with pytest.raises(SingularOperatorError):
        hilbert.invert_operator(np.diag([1.0, 0.0]).astype(complex))


def test_invert_roundtrip_random():
    from conftest import random_conditioned_matrix

    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        a = random_conditioned_matrix(rng, d)
        err = np.linalg.norm(a @ hilbert.invert_operator(a) - np.eye(d))
        assert err <= 1e-10 * d


def test_pseudoinverse_surjective_normal_equations_oracle():
    t = np.array(
        [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.5]],
        dtype=complex,
    )
    p = hilbert.pseudoinverse(t)
    oracle = t.conj().T @ np.linalg.inv(t @ t.conj().T)
    assert_allclose(p, oracle, atol=1e-12)
    assert_allclose(t @ p, np.eye(3), atol=1e-12)


def test_pseudoinverse_identity_and_zero():
    eye = np.eye(3, dtype=complex)
    assert_allclose(hilbert.pseudoinverse(eye), eye, atol=1e-14)
    zero = np.zeros((2, 5), dtype=complex)
    assert_allclose(hilbert.pseudoinverse(zero), zero.T, atol=1e-14)


def test_pseudoinverse_moore_penrose_identities():
    rng = np.random.default_rng(13)
    for _ in range(50):
        rows = int(rng.integers(2, 6))
        cols = int(rng.integers(2, 8))
        m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        p = hilbert.pseudoinverse(m)
        scale = 1e-9 * np.linalg.norm(m)
        assert np.linalg.norm(m @ p @ m - m) <= scale
        assert np.linalg.norm(p @ m @ p - p) <= scale


def test_operator_norm_cases():
    assert hilbert.operator_norm(np.eye(5, dtype=complex)) == pytest.approx(1.0)
    assert hilbert.operator_norm(0.1 * np.eye(5, dtype=complex)) == pytest.approx(0.1)
    single = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    assert hilbert.operator_norm(single) == pytest.approx(2.0, rel=1e-8)


def test_is_positive_definite():
    assert hilbert.is_positive_definite(np.diag([1.0, 0.5, 0.5]).astype(complex))
    assert not hilbert.is_positive_definite(np.diag([1.0, 0.0, 1.0]).astype(complex))
    assert not hilbert.is_positive_definite(
        np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    )


def test_finite_validation():
    assert hilbert.validated([1, 2j], shape=(None,)).dtype == np.complex128
    assert hilbert.validated(np.ones((2, 3))).shape == (2, 3)
    for bad, kwargs in [
        ([], {"shape": (None,)}),
        (np.ones((2, 2)), {"shape": (None,)}),
        (np.ones(3), {}),
        (np.ones((0, 3)), {}),
        (np.ones((3, 2)), {"square": True}),
    ]:
        with pytest.raises(DimensionMismatchError):
            hilbert.validated(bad, **kwargs)
    with pytest.raises(ValueError):
        hilbert.validated([np.nan, 1.0], shape=(None,))
    with pytest.raises(ValueError):
        hilbert.validated([[np.inf, 0.0], [0.0, 1.0]], square=True)



def old_trial_matrix(dim, trials, seed):
    """The trial vectors followed by the standard basis, built in one array."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((dim, trials)) + 1j * rng.standard_normal((dim, trials))
    f /= np.linalg.norm(f, axis=0)
    return np.concatenate([f, np.eye(dim, dtype=np.complex128)], axis=1)


dims = st.integers(1, 40)
trial_counts = st.integers(0, 40)
scales = st.floats(1e-3, 1e3)
seeds = st.integers(0, 2**32 - 1)


def gaussian(rng, shape, scale):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@settings(max_examples=150, deadline=None)
@given(d=dims, trials=trial_counts, seed=seeds)
def test_trial_vectors_are_the_old_trial_columns(d, trials, seed):
    f = hilbert.trial_vectors(d, trials, seed)
    assert f.shape == (d, trials)
    assert np.array_equal(f, old_trial_matrix(d, trials, seed)[:, :trials])


@settings(max_examples=150, deadline=None)
@given(d=dims, n=st.integers(1, 80), trials=trial_counts, scale=scales, seed=seeds)
def test_trial_sums_match_the_chain_through_the_basis(d, n, trials, scale, seed):
    rng = np.random.default_rng(seed)
    synthesis = gaussian(rng, (d, n), scale)
    analysis = gaussian(rng, (n, d), scale)
    f = hilbert.trial_vectors(d, trials, seed)
    block = hilbert.trial_sums(synthesis, analysis, f)
    chain = synthesis @ (analysis.conj() @ np.hstack([f, np.eye(d)]))
    assert block.shape == chain.shape == (d, trials + d)
    assert np.linalg.norm(block - chain) <= 1e-13 * np.linalg.norm(chain)


@settings(max_examples=150, deadline=None)
@given(
    d=dims, trials=trial_counts, scale=scales, seed=seeds, target=st.floats(-2.0, 2.0)
)
def test_worst_residual_is_the_largest_column_norm(d, trials, scale, seed, target):
    rng = np.random.default_rng(seed)
    f = hilbert.trial_vectors(d, trials, seed)
    block = gaussian(rng, (d, trials + d), scale)
    target *= scale
    explicit = np.max(np.linalg.norm(block - target * np.hstack([f, np.eye(d)]), axis=0))
    worst = hilbert.worst_residual(block, f, target)
    assert abs(worst - explicit) <= 16 * np.finfo(float).eps * scale

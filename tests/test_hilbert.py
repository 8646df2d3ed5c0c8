import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from conftest import inner, random_unit_vector
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


# The inner-product tests pin the convention of the module docstring in the
# oracle (conftest.inner) that the tests' explicit sums use.
def test_inner_orthonormal_basis():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    assert inner(e1, e1) == 1.0
    assert inner(e1, e2) == 0.0


def test_inner_hand_expansion():
    # (1+i) * conj(i) = 1 - i
    u = np.array([1.0 + 1.0j, 0.0])
    v = np.array([1.0j, 0.0])
    assert inner(u, v) == pytest.approx(1.0 - 1.0j)


def test_inner_dimension_mismatch():
    # a vector argument of the wrong size, as the library checks f against d
    with pytest.raises(DimensionMismatchError):
        hilbert.validated(np.ones(3), "f", (2,))


@settings(max_examples=200, deadline=None)
@given(u=cvector, v=cvector)
def test_inner_hermitian_symmetry(u, v):
    lhs = inner(u, v)
    rhs = np.conj(inner(v, u))
    assert abs(lhs - rhs) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(u=cvector, v=cvector, w=cvector, a=cscalar, b=cscalar)
def test_inner_sesquilinear(u, v, w, a, b):
    lhs = inner(a * u + b * v, w)
    rhs = a * inner(u, w) + b * inner(v, w)
    assert abs(lhs - rhs) <= 1e-9
    lhs2 = inner(w, a * u + b * v)
    rhs2 = np.conj(a) * inner(w, u) + np.conj(b) * inner(w, v)
    assert abs(lhs2 - rhs2) <= 1e-9


def test_adjoint_defining_identity():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for _ in range(20):
        u = random_unit_vector(4, rng)
        v = random_unit_vector(4, rng)
        lhs = inner(a @ u, v)
        rhs = inner(u, a.conj().T @ v)
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


@pytest.mark.parametrize("k", [-1068, -1040, -900, -700, -340, 0, 340, 700, 1000])
def test_frobenius_scales_exactly_by_powers_of_two(k):
    """np.linalg.norm returns 0 at k = -700 and inf at k = 700. Below k = -1022
    the largest entry is subnormal; integers under 64 times 2**k stay exact there."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal((16, 33)) + 1j * rng.standard_normal((16, 33))
    if k > -1022:
        assert hilbert.frobenius(a * 2.0**k) == np.linalg.norm(a) * 2.0**k
    whole = np.round(8 * a)
    assert np.abs(whole).max() < 64
    for b in (whole, whole.real):
        assert hilbert.frobenius(b * 2.0**k) == np.linalg.norm(b) * 2.0**k
    assert hilbert.frobenius(np.zeros((3, 3))) == 0.0


@pytest.mark.parametrize("k", [-700, -340, 0, 340, 700])
def test_worst_residual_scales_exactly_by_powers_of_two(k):
    """Column norms as frobenius takes them: no inf and no overflow warning at
    k = 700, no 0 at k = -700."""
    rng = np.random.default_rng(12)
    block = rng.standard_normal((16, 33)) + 1j * rng.standard_normal((16, 33))
    scaled = block * 2.0**k
    sums = (scaled[:, :17], scaled[:, 17:])
    worst = hilbert.worst_residual(sums, hilbert.trial_vectors(16, 17, 0), 0.0)
    assert worst == np.max(np.linalg.norm(block, axis=0)) * 2.0**k


def test_frobenius_of_one_subnormal_complex_entry():
    assert hilbert.frobenius(np.array([[1e-309 + 0j]])) == 1e-309


def test_a_norm_past_the_double_range_is_an_input_error():
    """Every entry is finite but the norm is not: the overflow rule's ValueError,
    with no numpy warning, for frobenius and worst_residual's column norms alike."""
    big = np.full((2, 3), 1.5e308 + 0j)
    for a in (big, np.array([1.5e308 + 1.5e308j])):  # the second's modulus overflows
        with pytest.raises(ValueError, match="^entries must be finite$"):
            hilbert.frobenius(a)
    with pytest.raises(ValueError, match="^entries must be finite$"):
        hilbert.worst_residual((big[:, :1], big[:, 1:]), hilbert.trial_vectors(2, 1, 0), 0.0)


def test_hermitian_bounds_sandwich():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = (a + a.conj().T) / 2
    bounds = hilbert.hermitian_bounds(a)
    for _ in range(100):
        f = random_unit_vector(6, rng)
        quotient = inner(a @ f, f).real
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


def test_operator_norm_cases():
    assert hilbert.operator_norm(np.eye(5, dtype=complex)) == pytest.approx(1.0)
    assert hilbert.operator_norm(0.1 * np.eye(5, dtype=complex)) == pytest.approx(0.1)
    single = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    assert hilbert.operator_norm(single) == pytest.approx(2.0, rel=1e-8)


def test_is_positive_definite():
    # the controlled verdict's rule: Hermitian to tol and SpectralBounds.positive
    def positive_definite(a, tol=hilbert.DEFAULT_TOL):
        bounds = hilbert.hermitian_spectrum(a, tol)
        return bounds.hermitian and bounds.positive(tol)

    assert positive_definite(np.diag([1.0, 0.5, 0.5]).astype(complex))
    assert not positive_definite(np.diag([1.0, 0.0, 1.0]).astype(complex))
    assert not positive_definite(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_finite_forms_under_the_overflow_rule():
    """hilbert.finite returns what it formed, at any shape, when every entry is
    finite; an inf it formed, or NaN from inf - inf, is ValueError with no
    numpy warning."""
    ones = np.ones((2, 3), dtype=complex)
    assert hilbert.finite(np.multiply, 2.0, ones).shape == (2, 3)
    assert hilbert.finite(float, 2.5) == 2.5
    for form, args in [
        (np.multiply, (1e200, 1e200 * ones)),
        (np.matmul, (1e200 * ones.T, 1e200 * ones)),
        (np.subtract, (np.array([np.inf]), np.array([np.inf]))),
    ]:
        with pytest.raises(ValueError, match="^entries must be finite$"):
            hilbert.finite(form, *args)


def test_validated_keeps_float64_and_casts_every_other_input_to_complex128():
    """The dtype rule: a float64 array is returned as itself, holding no more than its
    isfinite mask (an eighth of its size); int, bool, float32, complex64 and lists, of
    complex numbers or of floats, become complex128. A float64 input meets the shape
    errors and the finite error of its complex128 cast, word for word."""
    a = np.random.default_rng(3).standard_normal((500, 400))
    tracemalloc.start()
    try:
        out = hilbert.validated(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out is a
    assert peak <= a.nbytes / 4, peak  # a complex128 copy is twice a's size
    for x in (np.arange(6).reshape(2, 3), np.ones((2, 3), bool), np.ones((2, 3), np.float32),
              np.ones((2, 3), np.complex64) * (1 + 2j), [[1, 2j, 3.5 - 1j]], [[1.0, 2.5]]):
        out = hilbert.validated(x)
        assert out.dtype == np.complex128
        assert np.array_equal(out, np.asarray(x, np.complex128))
    for bad, kwargs in [
        (np.ones(3), {}), (np.ones((0, 3)), {}), (np.ones((3, 2)), {"square": True}),
        (np.ones((2, 2)), {"shape": (None,)}), (np.ones((2, 3)), {"shape": (3, None)}),
    ]:
        messages = []
        for x in (bad, bad.astype(np.complex128)):
            with pytest.raises(DimensionMismatchError) as err:
                hilbert.validated(x, "psi", **kwargs)
            messages.append(str(err.value))
        assert messages[0] == messages[1], messages
    for bad in (np.array([[np.nan, 1.0]]), np.array([[1.0, -np.inf]])):
        with pytest.raises(ValueError, match="^entries must be finite$"):
            hilbert.validated(bad)


def test_finite_tests_a_real_array_as_it_is():
    """hilbert.finite tests a float64 array it formed without a copy: on a real
    (128, 128) m it holds the isfinite mask alone, about 17.8 KB, where a complex128
    copy and its mask took 280 KB."""
    m = np.random.default_rng(6).standard_normal((128, 128))
    tracemalloc.start()
    try:
        out = hilbert.finite(lambda: (m, m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out[0] is m and out[1] is m
    assert peak <= 32_000, peak


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


#: how a map is held: complex, float64, or complex128 with exactly zero imaginary parts
map_kinds = st.sampled_from(["complex", "real", "zero-imaginary"])


@settings(max_examples=300, deadline=None)
@given(
    d=dims, n=st.integers(1, 80), trials=trial_counts, scale=scales, seed=seeds,
    kinds=st.tuples(map_kinds, map_kinds), transposed=st.booleans(), strided=st.booleans(),
)
@example(d=1, n=22, trials=0, scale=1.0, seed=25008, kinds=("real", "real"),
         transposed=False, strided=False)
def test_trial_sums_match_the_chain_through_the_basis(
    d, n, trials, scale, seed, kinds, transposed, strided
):
    """Both routes, the real one taken when both maps are float64 (a complex128 map
    with zero imaginary parts takes the complex one), on a Fortran-order synthesis (as images.T is) and a strided f. The
    error is bounded at the normwise scale of the product, ||S||_F ||A||_F
    ||[f | I]||_F, as hilbert.backward_ok bounds it: the chain itself can cancel
    (the example's is 7.1e-4 against a scale of 18)."""
    rng = np.random.default_rng(seed)

    def draw(shape, kind):
        m = gaussian(rng, shape, scale)
        return {"complex": m, "real": m.real, "zero-imaginary": m.real + 0j}[kind]

    synthesis = draw((n, d), kinds[0]).T if transposed else draw((d, n), kinds[0])
    analysis = draw((n, d), kinds[1])
    f = hilbert.trial_vectors(d, trials, seed)
    if strided:
        f = np.hstack([f, f])[:, ::2]
    block = np.hstack(hilbert.trial_sums(synthesis, analysis, f))
    basis = np.hstack([f, np.eye(d)])
    chain = synthesis @ (analysis.conj() @ basis)
    assert block.dtype == np.complex128
    assert block.shape == chain.shape == (d, trials + d)
    bound = np.linalg.norm(synthesis) * np.linalg.norm(analysis) * np.linalg.norm(basis)
    assert np.linalg.norm(block - chain) <= 1e-13 * bound


def test_real_trial_sums_peak_no_higher_than_complex():
    """Two float64 maps take the real route with no copy of either, and the sums are
    formed with no block, so at paper-example's largest shape, (769, 768) images, the
    real route's peak, about 5.9 MB, stays at or under the complex route's, about
    18.9 MB. Forming a block while real copies of complex maps were alive took it
    above, and raised paper-example's peak by 3.5 MB."""
    images = np.random.default_rng(0).standard_normal((769, 768))
    f = hilbert.trial_vectors(768, 100, 1)
    peaks = []
    for analysis in (images, images + 1e-3j):
        tracemalloc.start()
        try:
            hilbert.trial_sums(analysis.T, analysis, f)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks


def test_complex_trial_sums_peak():
    """At (769, 768) images the complex route holds the conjugate of the analysis map
    and the mixed operator, with no block of trials + d columns: about 18.9 MB, where
    joining [M f | M] took it to 21.3 MB."""
    images = np.random.default_rng(0).standard_normal((769, 768)) + 1e-3j
    f = hilbert.trial_vectors(768, 100, 1)
    tracemalloc.start()
    try:
        hilbert.trial_sums(images.T, images, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 22e6, peak


@pytest.mark.parametrize("real_side", ["synthesis", "analysis"])
def test_mixed_trial_sums_copy_neither_map(real_side):
    """A complex128 map with all imaginary parts 0, as a config holds one, and a map
    with a nonzero imaginary part take the complex route on the maps as given: the route
    is read from the product's dtype, and a float64 copy of the first would be cast back
    to complex by the product, 1.5 times its size more (0.39 MB at (1025, 16))."""
    rng = np.random.default_rng(5)
    images = rng.standard_normal((1025, 16)) + 1j * rng.standard_normal((1025, 16))
    real_valued = rng.standard_normal((1025, 16)) + 0j
    f = hilbert.trial_vectors(16, 100, 1)
    peaks = []
    for other in (real_valued, real_valued + 1e-3j):  # mixed, then both complex
        pair = (other.T, images) if real_side == "synthesis" else (images.T, other)
        tracemalloc.start()
        try:
            sums = hilbert.trial_sums(*pair, f)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert sums[1].dtype == np.complex128
    assert peaks[0] <= peaks[1] + 10_000, peaks


def test_tall_trial_sums_hold_no_block_of_n_rows():
    """At (N, d, trials) = (4097, 16, 100) the sums come from the d x d mixed operator:
    the conjugate, 1.05 MB, is the largest array, where an N x trials block took the
    peak to 7.63 MB."""
    images = np.random.default_rng(0).standard_normal((4097, 16)) + 1e-3j
    f = hilbert.trial_vectors(16, 100, 1)
    tracemalloc.start()
    try:
        hilbert.trial_sums(images.T, images, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6, peak


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
    worst = hilbert.worst_residual((block[:, :trials], block[:, trials:]), f, target)
    assert abs(worst - explicit) <= 16 * np.finfo(float).eps * scale


def block_worst_residual(block, f, target):
    """worst_residual as it took the (d, trials + d) block [M f | M]: one set of column
    norms, rescaled by the block's power of two when its largest is outside (1e-100, inf)."""
    trials = f.shape[1]
    block[:, :trials] -= target * f
    block[:, trials:][np.diag_indices(f.shape[0])] -= target
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(block, axis=0)
    if not (1e-100 < np.max(norm) < np.inf or not block.any()):
        scale = hilbert.power_of_two(block)
        norm = np.linalg.norm(block / scale, axis=0) * scale
    return float(np.max(norm))


@settings(max_examples=300, deadline=None)
@given(
    d=dims, n=st.integers(1, 80), trials=st.integers(1, 40), seed=seeds,
    kinds=st.tuples(map_kinds, map_kinds), target=st.floats(-2.0, 2.0),
    scale=st.sampled_from([2.0**-600, 1.0, 2.0**600]),
    trial_scale=st.sampled_from([1.0, 2.0**-400]),
)
@example(d=9, n=12, trials=1, seed=0, kinds=("real", "real"), target=2.0, scale=1.0,
         trial_scale=1.0)  # a lone trial column, which numpy's norm sums pairwise
@example(d=5, n=7, trials=3, seed=1, kinds=("complex", "real"), target=0.0, scale=1.0,
         trial_scale=2.0**-400)  # the trial part alone below 1e-100
@example(d=5, n=7, trials=3, seed=2, kinds=("zero-imaginary", "complex"), target=0.0,
         scale=2.0**600, trial_scale=2.0**-400)  # the basis part alone past the range
def test_pair_worst_residual_is_the_blocks_bit_for_bit(
    d, n, trials, seed, kinds, target, scale, trial_scale
):
    """The pair form gives the bits of the block form it replaced, on the sums of
    complex, real and zero-imaginary maps at scales 2^-600, 1 and 2^600, with the trial
    part alone scaled down by 2^-400 too: each part is rescaled on its own, and a
    part's largest column norm below 1e-100 or past the range decides nothing for the
    other."""
    rng = np.random.default_rng(seed)

    def draw(shape, kind):
        m = gaussian(rng, shape, 1.0)
        return {"complex": m, "real": m.real, "zero-imaginary": m.real + 0j}[kind]

    f = hilbert.trial_vectors(d, trials, seed)
    sums = hilbert.trial_sums(scale * draw((d, n), kinds[0]), draw((n, d), kinds[1]), f)
    sums[0][:] *= trial_scale
    block = np.hstack(sums)
    assert hilbert.worst_residual(sums, f, target) == block_worst_residual(block, f, target)


CALLER_HELD = ("writeable", "read-only view", "writeable view", "bytearray", "read-only float64")


def caller_held(kind, values):
    """values as a caller may hold them, and a function that writes 99 at their first
    entry through what the caller still holds. Each is an array someone can write, or
    one not complex128, so hilbert.readonly must copy it: a writeable array, a
    read-only view of one, a writeable view of an array made read-only after it, a
    read-only array over a bytearray, or a read-only float64 array (its owner, which
    may be made writeable again)."""
    if kind == "bytearray":  # read-only down to an ndarray that does not own its memory
        buf = bytearray(np.asarray(values, np.complex128).tobytes())  # values may be real
        arr = hilbert.frozen(np.frombuffer(buf, np.complex128)).reshape(values.shape)
        writable = np.frombuffer(buf, np.complex128)
    else:
        writable = values.real.copy() if kind == "read-only float64" else values.copy()
        arr = writable[:] if kind.endswith("view") else writable
    if kind == "writeable view":
        writable.setflags(write=False)  # the owner, after its view was taken
    elif kind != "writeable":
        arr.setflags(write=False)

    def write():
        writable.setflags(write=True)
        writable.flat[0] = 99

    return arr, write


def test_readonly_keeps_an_array_nobody_can_write():
    """A complex128 array read-only down to the ndarray that owns its memory, as
    config reads it (a view of frozen float64 parts) or as frozen leaves it, enters a
    record as itself."""
    parts = hilbert.frozen(np.arange(12.0).reshape(6, 2).copy())  # reshape alone is a view
    for arr in (parts.view(np.complex128).reshape(3, 2), hilbert.frozen(np.ones((3, 2), complex))):
        assert hilbert.readonly(arr) is arr


@pytest.mark.parametrize("kind", CALLER_HELD)
def test_readonly_copies_an_array_someone_can_write(kind):
    """Anything else is copied, and never frozen in place: a write through the
    caller's reference afterwards does not reach the copy."""
    values = (np.arange(6.0) + 1j * np.arange(6.0, 12.0)).reshape(3, 2)
    arr, write = caller_held(kind, values)
    writeable = arr.flags.writeable
    kept = hilbert.readonly(arr)
    assert kept is not arr and not np.shares_memory(kept, arr)
    assert kept.dtype == np.complex128 and not kept.flags.writeable
    assert arr.flags.writeable == writeable
    expected = np.array(arr, dtype=np.complex128)
    write()
    assert arr.flat[0] == 99  # the write reached the caller's array
    assert np.array_equal(kept, expected)

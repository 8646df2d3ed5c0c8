import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_complex, random_conditioned_matrix
from eframes import mapping
from eframes.errors import DimensionMismatchError, SingularOperatorError

BIDIAG_4 = np.array(
    [
        [1, 0, 0, 0],
        [-1, 1, 0, 0],
        [0, -1, 1, 0],
        [0, 0, -1, 1],
    ],
    dtype=complex,
)


def basis(*indices, dim=3):
    """Sum of standard basis vectors with multiplicity, e.g. basis(0, 0, 1)."""
    v = np.zeros(dim, dtype=complex)
    for i in indices:
        v[i] += 1.0
    return v


def test_build_dense_identity():
    e = mapping.build_dense(np.eye(3))
    assert_allclose(e.entries, np.eye(3), atol=0)
    assert_allclose(e.inverse, np.eye(3), atol=0)
    assert e.n == 3


def test_build_dense_bidiagonal_inverse_is_running_sum():
    e = mapping.build_dense(BIDIAG_4)
    # oracle: forward substitution column by column
    oracle = np.zeros((4, 4), dtype=complex)
    for j, col in enumerate(np.eye(4, dtype=complex)):
        x = np.zeros(4, dtype=complex)
        for i in range(4):
            x[i] = col[i] - BIDIAG_4[i, :i] @ x[:i]
        oracle[:, j] = x
    assert_allclose(e.inverse, oracle, atol=1e-14)
    assert_allclose(e.inverse, np.tril(np.ones((4, 4))), atol=1e-14)


def test_build_dense_rejects_zero_row():
    grid = np.eye(3, dtype=complex)
    grid[1] = 0.0
    with pytest.raises(SingularOperatorError):
        mapping.build_dense(grid)


def test_build_dense_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        mapping.build_dense(np.ones((3, 2)))


def test_build_bidiagonal_matrix_form():
    e = mapping.build_bidiagonal(4)
    assert_allclose(e.entries, BIDIAG_4, atol=0)
    assert_allclose(mapping.build_bidiagonal(1).entries, [[1.0]], atol=0)


def test_build_bidiagonal_inverse_cumsum_oracle():
    e = mapping.build_bidiagonal(4)
    rng = np.random.default_rng(3)
    seq = random_complex(rng, (4, 3))
    assert_allclose(e.inverse @ seq, np.cumsum(seq, axis=0), atol=1e-14)


def test_build_bidiagonal_rejects_nonpositive():
    with pytest.raises(ValueError):
        mapping.build_bidiagonal(0)


def test_build_banded_matches_dense():
    diagonals = {0: [1.0, 1.0, 1.0, 1.0], -1: [-1.0, -1.0, -1.0]}
    e = mapping.build_banded(4, diagonals)
    assert_allclose(e.entries, BIDIAG_4, atol=0)


def test_apply_mapping_worked_images():
    e = mapping.build_bidiagonal(4)
    psi = np.array(
        [basis(0), 2 * basis(0), 2 * basis(0) + basis(1), 2 * basis(0) + basis(1) + basis(2)]
    )
    images = mapping.apply_mapping(e, psi)
    assert_allclose(images, np.array([basis(0), basis(0), basis(1), basis(2)]), atol=0)

    tilde = np.array(
        [basis(0), 2 * basis(0), 2 * (basis(0) + basis(1)), 2 * (basis(0) + basis(1) + basis(2))]
    )
    images_tilde = mapping.apply_mapping(e, tilde)
    assert_allclose(
        images_tilde, np.array([basis(0), basis(0), 2 * basis(1), 2 * basis(2)]), atol=0
    )


def test_apply_mapping_identity():
    e = mapping.identity_mapping(3)
    rng = np.random.default_rng(4)
    seq = random_complex(rng, (3, 5))
    assert_allclose(mapping.apply_mapping(e, seq), seq, atol=0)


def test_apply_mapping_size_mismatch():
    e = mapping.build_bidiagonal(4)
    with pytest.raises(DimensionMismatchError):
        mapping.apply_mapping(e, np.ones((3, 2)))


def test_apply_inverse_mapping_cumsum_oracle():
    e = mapping.build_bidiagonal(4)
    seq = np.array([basis(0), basis(0), basis(1), basis(2)])
    expected = np.cumsum(seq, axis=0)
    assert_allclose(mapping.apply_inverse_mapping(e, seq), expected, atol=1e-14)
    # cancellation case reused by the offset-dual construction
    cancel = np.array([basis(0), -basis(0), 0 * basis(0), 0 * basis(0)])
    assert_allclose(
        mapping.apply_inverse_mapping(e, cancel), np.cumsum(cancel, axis=0), atol=1e-14
    )
    assert_allclose(
        mapping.apply_inverse_mapping(e, cancel)[1:], np.zeros((3, 3)), atol=1e-14
    )


def test_roundtrip_random():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        e = mapping.build_dense(random_conditioned_matrix(rng, n))
        seq = random_complex(rng, (n, d))
        back = mapping.apply_inverse_mapping(e, mapping.apply_mapping(e, seq))
        assert np.linalg.norm(back - seq) <= 1e-10 * np.linalg.norm(seq)


def test_linearity():
    rng = np.random.default_rng(9)
    e = mapping.build_dense(random_conditioned_matrix(rng, 5))
    a, b = 1.3 - 0.2j, -0.7 + 2.1j
    x = random_complex(rng, (5, 3))
    y = random_complex(rng, (5, 3))
    lhs = mapping.apply_mapping(e, a * x + b * y)
    rhs = a * mapping.apply_mapping(e, x) + b * mapping.apply_mapping(e, y)
    assert_allclose(lhs, rhs, atol=1e-12)


def test_scalar_entries_commute_with_operators():
    # E has scalar entries, so it commutes with any operator applied entrywise
    rng = np.random.default_rng(10)
    e = mapping.build_dense(random_conditioned_matrix(rng, 6))
    w = random_complex(rng, (4, 4))
    seq = random_complex(rng, (6, 4))
    lhs = mapping.apply_mapping(e, seq @ w.T)
    rhs = mapping.apply_mapping(e, seq) @ w.T
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(lhs), 1.0)


def test_mapping_is_immutable():
    e = mapping.build_bidiagonal(3)
    with pytest.raises(ValueError):
        e.entries[0, 0] = 5.0


# ------------------------------------------------------------ operator kinds

KINDS = ("identity", "bidiagonal", "banded", "dense")


def banded_diagonals(rng, n, offsets):
    """Off-diagonals of modulus at most 1 around a main diagonal of modulus
    len(offsets) + 2, so the mapping is diagonally dominant."""
    diagonals = {
        off: rng.uniform(size=n - abs(off)) * np.exp(2j * np.pi * rng.uniform(size=n - abs(off)))
        for off in offsets
        if off != 0 and abs(off) < n
    }
    diagonals[0] = (len(offsets) + 2) * np.exp(2j * np.pi * rng.uniform(size=n))
    return diagonals


def build_kind(kind, n, offsets, rng):
    """A mapping of the kind and its matrix assembled independently."""
    if kind == "identity":
        return mapping.identity_mapping(n), np.eye(n)
    if kind == "bidiagonal":
        return mapping.build_bidiagonal(n), np.eye(n) - np.eye(n, k=-1)
    if kind == "banded":
        diagonals = banded_diagonals(rng, n, offsets)
        grid = sum(np.diag(vals, off) for off, vals in diagonals.items())
        return mapping.build_banded(n, diagonals), grid
    grid = random_conditioned_matrix(rng, n)
    return mapping.build_dense(grid), grid


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(1, 40),
    d=st.integers(1, 4),
    offsets=st.sets(st.integers(-6, 6), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_operator_kinds_match_dense_forms(kind, n, d, offsets, seed):
    rng = np.random.default_rng(seed)
    e, grid = build_kind(kind, n, offsets, rng)
    assert e.n == n
    assert_allclose(e.entries, grid, atol=0)
    seq = random_complex(rng, (n, d))
    scale = np.linalg.norm(seq)
    for apply, dense in (
        (mapping.apply_mapping, e.entries),
        (mapping.apply_inverse_mapping, e.inverse),
    ):
        assert np.linalg.norm(apply(e, seq) - dense @ seq) <= (
            1e-13 * np.linalg.norm(dense) * scale
        )
    roundtrip_tol = 1e-10 if kind == "dense" else 1e-12
    forward_back = mapping.apply_inverse_mapping(e, mapping.apply_mapping(e, seq))
    back_forward = mapping.apply_mapping(e, mapping.apply_inverse_mapping(e, seq))
    assert np.linalg.norm(forward_back - seq) <= roundtrip_tol * scale
    assert np.linalg.norm(back_forward - seq) <= roundtrip_tol * scale
    assert_allclose(grid @ e.inverse, np.eye(n), atol=roundtrip_tol * n)


@pytest.mark.parametrize("kind", KINDS)
def test_apply_returns_new_array_and_keeps_input(kind):
    rng = np.random.default_rng(11)
    e, _ = build_kind(kind, 6, {-1, 2}, rng)
    seq = random_complex(rng, (6, 2))
    before = seq.copy()
    for apply in (mapping.apply_mapping, mapping.apply_inverse_mapping):
        out = apply(e, seq)
        out[...] = 0.0
        assert_allclose(seq, before, atol=0)
    with pytest.raises(ValueError):
        e.inverse[0, 0] = 5.0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 40),
    offsets=st.sets(st.integers(-6, 6), max_size=4),
    row=st.integers(0, 39),
    shrink=st.sampled_from([0.0, 1e-14]),
    seed=st.integers(0, 2**32 - 1),
)
def test_banded_singular_or_near_singular_is_rejected(n, offsets, row, shrink, seed):
    """Row r of the banded mapping scaled by 0 (singular) or 1e-14."""
    rng = np.random.default_rng(seed)
    diagonals = banded_diagonals(rng, n, offsets)
    r = row % n
    for off, vals in diagonals.items():
        k = r if off >= 0 else r + off  # A[r, r + off] is vals[k]
        if 0 <= k < vals.shape[0]:
            vals[k] *= shrink
    with pytest.raises(SingularOperatorError):
        mapping.build_banded(n, diagonals)


def test_banded_empty_is_singular():
    with pytest.raises(SingularOperatorError):
        mapping.build_banded(3, {})


def test_banded_condition_test_is_scale_invariant():
    diagonals = {0: [1.0, 1.0, 1.0], 1: [0.5, 0.5]}
    for scale in (1e-150, 1.0, 1e150):
        scaled = {off: scale * np.asarray(vals) for off, vals in diagonals.items()}
        e = mapping.build_banded(3, scaled)
        assert_allclose(e.entries / scale, np.eye(3) + 0.5 * np.eye(3, k=1), rtol=1e-15)


def test_dense_condition_test_is_scale_invariant():
    grid = np.eye(3) + 0.5 * np.eye(3, k=1)
    for scale in (1e-150, 1.0, 1e150):
        e = mapping.build_dense(scale * grid)
        assert_allclose(e.inverse * scale, np.linalg.inv(grid), rtol=1e-15)


@pytest.mark.parametrize("row", [0, 3, 7])
def test_dense_near_singular_row_is_rejected(row):
    grid = random_conditioned_matrix(np.random.default_rng(row), 8)
    mapping.build_dense(grid)
    grid[row] *= 1e-14
    with pytest.raises(SingularOperatorError, match="1-norm reciprocal condition"):
        mapping.build_dense(grid)


@pytest.mark.parametrize("grid", [[[1.0, 2.0], [2.0, 4.0]], np.zeros((3, 3))])
def test_dense_exact_zero_pivot_is_rejected(grid):
    with pytest.raises(SingularOperatorError, match=r"= 0\.000e\+00\)$"):
        mapping.build_dense(grid)


def test_dense_extreme_condition_is_rejected_without_a_warning():
    """||E||_1 ||E^{-1}||_1 = 1e600 overflows; its reciprocal must not."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularOperatorError):
            mapping.build_dense(np.diag([1e300, 1e-300]))


@pytest.mark.parametrize("n", [5, 30, 120])
def test_dense_and_banded_agree_on_a_tridiagonal(n):
    """The 1-norm reciprocal condition of tridiag(-1, 2, -1) is about 2 / n^2:
    both kinds accept at a tol far below it and reject at one far above."""
    diagonals = {-1: -np.ones(n - 1), 0: 2.0 * np.ones(n), 1: -np.ones(n - 1)}
    grid = mapping.build_banded(n, diagonals).entries
    rcond = 1.0 / (np.linalg.norm(grid, 1) * np.linalg.norm(np.linalg.inv(grid), 1))
    for tol, accepted in ((rcond / 100, True), (min(100 * rcond, 0.5), False)):
        for build in (lambda: mapping.build_dense(grid, tol),
                      lambda: mapping.build_banded(n, diagonals, tol)):
            if accepted:
                build()
            else:
                with pytest.raises(SingularOperatorError):
                    build()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_banded_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        mapping.build_banded(3, {0: [1.0, bad, 1.0]})
    with pytest.raises(ValueError, match="finite"):
        mapping.build_banded(3, {0: [1.0, 1.0, 1.0], -1: [bad, 0.0]})


def test_banded_rejects_bad_diagonal_length():
    with pytest.raises(DimensionMismatchError):
        mapping.build_banded(3, {0: [1.0, 1.0]})
    with pytest.raises(DimensionMismatchError):
        mapping.build_banded(3, {3: []})


def test_import_leaves_scipy_unloaded():
    src = str(Path(mapping.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, eframes; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_bidiagonal_memory_is_linear_in_n():
    n, d = 200_000, 4  # an N x N complex array would take 640 GB
    seq = np.ones((n, d), dtype=np.complex128)
    tracemalloc.start()
    try:
        e = mapping.build_bidiagonal(n)
        images = mapping.apply_mapping(e, seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * seq.nbytes
    assert_allclose(images[0], seq[0], atol=0)
    assert not images[1:].any()

"""Invertible matrix mappings acting entrywise on vector sequences.

A sequence {psi_k} of N members of C^d is stored as an (N, d) array
whose k-th row is psi_k. A mapping E acts by
(E psi)_n = sum_k E[n, k] psi_k, which is the matrix product
E @ psi. Mappings cache their inverse at build time; a mapping that
cannot be inverted is a build error. Intended envelope is dense
N <= 256.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .hilbert import DEFAULT_TOL, readonly, require_nonsingular, validated


@dataclass(frozen=True)
class MatrixMapping:
    """Invertible N x N matrix with its inverse cached at build time."""

    entries: np.ndarray
    inverse: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def build_dense(entries, tol: float = DEFAULT_TOL) -> MatrixMapping:
    """Validate a square grid, invert it, and wrap both.

    Raises SingularOperatorError when sigma_min <= tol * sigma_max.
    """
    arr = validated(entries, square=True)
    require_nonsingular(arr, tol)
    return MatrixMapping(readonly(arr), readonly(np.linalg.inv(arr)))


def build_bidiagonal(n: int) -> MatrixMapping:
    """First-difference mapping: 1 on the diagonal, -1 on the subdiagonal.

    Its inverse is the running-sum matrix (lower triangular all ones).
    """
    if n < 1:
        raise ValueError("mapping size must be at least 1")
    e = np.eye(n, dtype=np.complex128) - np.eye(n, k=-1, dtype=np.complex128)
    inv = np.tril(np.ones((n, n), dtype=np.complex128))
    return MatrixMapping(readonly(e), readonly(inv))


def build_banded(n: int, diagonals, tol: float = DEFAULT_TOL) -> MatrixMapping:
    """Assemble a mapping from {offset: values}; offset 0 is the main diagonal."""
    if n < 1:
        raise ValueError("mapping size must be at least 1")
    grid = np.zeros((n, n), dtype=np.complex128)
    for off, vals in diagonals.items():
        off = int(off)
        vals = np.asarray(vals, dtype=np.complex128)
        if abs(off) >= n or vals.shape != (n - abs(off),):
            raise DimensionMismatchError(
                f"diagonal at offset {off} must have length {n - abs(off)}"
            )
        grid += np.diag(vals, off)
    return build_dense(grid, tol)


def identity_mapping(n: int) -> MatrixMapping:
    if n < 1:
        raise ValueError("mapping size must be at least 1")
    eye = np.eye(n, dtype=np.complex128)
    return MatrixMapping(readonly(eye), readonly(eye))


def apply_mapping(e: MatrixMapping, seq) -> np.ndarray:
    """(E psi)_n = sum_k E[n, k] psi_k for every n."""
    seq = validated(seq)
    if e.n != seq.shape[0]:
        raise DimensionMismatchError(
            f"mapping size {e.n} does not match sequence count {seq.shape[0]}"
        )
    return e.entries @ seq


def apply_inverse_mapping(e: MatrixMapping, seq) -> np.ndarray:
    """Sequence psi with apply_mapping(e, psi) = seq."""
    seq = validated(seq)
    if e.n != seq.shape[0]:
        raise DimensionMismatchError(
            f"mapping size {e.n} does not match sequence count {seq.shape[0]}"
        )
    return e.inverse @ seq

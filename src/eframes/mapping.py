"""Invertible matrix mappings acting entrywise on vector sequences.

A sequence {psi_k} of N members of C^d is stored as an (N, d) array
whose k-th row is psi_k. A mapping E acts by
(E psi)_n = sum_k E[n, k] psi_k, the matrix product E @ psi.

A mapping is an operator with a size n, apply and apply_inverse. Each
kind applies E and E^{-1} in its own way, and only the dense kind holds
N x N arrays:

    identity     a copy                               O(N d)
    bidiagonal   first difference and running sum     O(N d)
    banded       shifted diagonal products, and the
                 banded LU factors made at build      O(N d (kl + ku + 1))
    dense        E @ seq and E^{-1} @ seq             O(N^2 d)

A mapping that cannot be inverted is a build error. The dense forms
`entries` and `inverse` are computed on first read and cached, for
tests and callers that want the matrices; the library never reads them.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, SingularOperatorError
from .hilbert import DEFAULT_TOL, frozen, readonly, require_nonsingular, validated


class MatrixMapping:
    """Invertible N x N matrix E, applied to (N, d) sequences.

    Subclasses implement _apply and _apply_inverse on validated
    sequences and return a new array.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("mapping size must be at least 1")
        self.n = n

    def _checked(self, seq) -> np.ndarray:
        seq = validated(seq)
        if self.n != seq.shape[0]:
            raise DimensionMismatchError(
                f"mapping size {self.n} does not match sequence count {seq.shape[0]}"
            )
        return seq

    def apply(self, seq) -> np.ndarray:
        """(E seq)_n = sum_k E[n, k] seq_k for every n."""
        return self._apply(self._checked(seq))

    def apply_inverse(self, seq) -> np.ndarray:
        """Sequence psi with apply(psi) = seq."""
        return self._apply_inverse(self._checked(seq))

    @cached_property
    def entries(self) -> np.ndarray:
        """E as a read-only dense N x N array."""
        return frozen(self._apply(np.eye(self.n, dtype=np.complex128)))

    @cached_property
    def inverse(self) -> np.ndarray:
        """E^{-1} as a read-only dense N x N array."""
        return frozen(self._apply_inverse(np.eye(self.n, dtype=np.complex128)))


class _Identity(MatrixMapping):
    def _apply(self, seq):
        return seq.copy()

    _apply_inverse = _apply


class _Bidiagonal(MatrixMapping):
    """1 on the diagonal, -1 on the subdiagonal; unit lower triangular,
    so it is invertible at every size and its inverse is the running sum."""

    def _apply(self, seq):
        out = np.empty_like(seq)
        out[0] = seq[0]
        np.subtract(seq[1:], seq[:-1], out=out[1:])
        return out

    def _apply_inverse(self, seq):
        return np.cumsum(seq, axis=0)


class _Banded(MatrixMapping):
    """Diagonals {offset: values} with their banded LU factors (LAPACK
    gbtrf storage: kl + ku + 1 band rows under kl rows of fill-in)."""

    def __init__(self, n, diagonals, kl, ku, lu, piv):
        super().__init__(n)
        self._diagonals = diagonals
        self._kl, self._ku, self._lu, self._piv = kl, ku, lu, piv

    def _apply(self, seq):
        out = np.zeros_like(seq)
        for off, vals in self._diagonals.items():
            if off >= 0:
                out[: self.n - off] += vals[:, None] * seq[off:]
            else:
                out[-off:] += vals[:, None] * seq[: self.n + off]
        return out

    def _apply_inverse(self, seq):
        from scipy.linalg.lapack import zgbtrs

        return zgbtrs(self._lu, self._kl, self._ku, seq, self._piv)[0]


class _Dense(MatrixMapping):
    def __init__(self, entries, inverse):
        super().__init__(entries.shape[0])
        self.entries = entries
        self.inverse = inverse

    def _apply(self, seq):
        return self.entries @ seq

    def _apply_inverse(self, seq):
        return self.inverse @ seq


def build_dense(entries, tol: float = DEFAULT_TOL) -> MatrixMapping:
    """Validate a square grid, invert it, and keep both.

    Raises SingularOperatorError when sigma_min <= tol * sigma_max.
    """
    arr = validated(entries, square=True)
    require_nonsingular(arr, tol)
    return _Dense(readonly(arr), readonly(np.linalg.inv(arr)))


def build_bidiagonal(n: int) -> MatrixMapping:
    """First-difference mapping: 1 on the diagonal, -1 on the subdiagonal.

    Its inverse is the running sum (lower triangular all ones).
    """
    return _Bidiagonal(n)


def build_banded(n: int, diagonals, tol: float = DEFAULT_TOL) -> MatrixMapping:
    """Mapping from {offset: values}; offset 0 is the main diagonal.

    The banded LU factors are computed here and reused by every inverse
    apply. Raises SingularOperatorError when LAPACK's estimate of the
    reciprocal 1-norm condition number is at most tol (scale invariant),
    and ValueError for a non-finite value.
    """
    if n < 1:
        raise ValueError("mapping size must be at least 1")
    merged: dict[int, np.ndarray] = {}
    for off, vals in diagonals.items():
        off = int(off)
        vals = np.asarray(vals, dtype=np.complex128)
        if abs(off) >= n:
            raise DimensionMismatchError(
                f"diagonal offset {off} must lie between {1 - n} and {n - 1}"
            )
        if vals.shape != (n - abs(off),):
            raise DimensionMismatchError(
                f"diagonal at offset {off} must have length {n - abs(off)}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("entries must be finite")
        merged[off] = merged[off] + vals if off in merged else vals
    kl = max([-off for off in merged] + [0])
    ku = max([off for off in merged] + [0])
    # A[i, j] sits at band[kl + ku + i - j, j]; the top kl rows take the fill-in
    band = np.zeros((2 * kl + ku + 1, n), dtype=np.complex128)
    for off, vals in merged.items():
        start = max(off, 0)
        band[kl + ku - off, start : start + vals.shape[0]] = vals
    anorm = float(np.abs(band[kl:]).sum(axis=0).max())

    from scipy.linalg.lapack import zgbcon, zgbtrf

    lu, piv, info = zgbtrf(band, kl, ku)
    # info > 0 is an exact zero pivot
    rcond = zgbcon(kl, ku, lu, piv, anorm)[0] if info == 0 else 0.0
    if not rcond > tol:
        raise SingularOperatorError(
            f"matrix is singular to tolerance (1-norm reciprocal condition "
            f"estimate = {rcond:.3e})"
        )
    diagonals = {off: readonly(merged[off]) for off in sorted(merged)}
    return _Banded(n, diagonals, kl, ku, frozen(lu), piv)


def identity_mapping(n: int) -> MatrixMapping:
    return _Identity(n)


def apply_mapping(e: MatrixMapping, seq) -> np.ndarray:
    """(E psi)_n = sum_k E[n, k] psi_k for every n."""
    return e.apply(seq)


def apply_inverse_mapping(e: MatrixMapping, seq) -> np.ndarray:
    """Sequence psi with apply_mapping(e, psi) = seq."""
    return e.apply_inverse(seq)

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

A mapping that cannot be inverted is a build error, as are a bad size or tol
(hilbert.require_positive), a non-finite entry, and a banded offset that is
not an integer (a bool, a float, or a string int() cannot read) or repeated.
Dense and banded are singular by hilbert.require_nonsingular on the 1-norm
reciprocal condition: exact from the one dense inverse, estimated for banded.
apply and apply_inverse take an (n, d) sequence and raise
DimensionMismatchError naming `seq` for any other shape; every kind forms its
result under hilbert.finite, the overflow rule, so an image past the double
range raises ValueError("entries must be finite") and numpy warns of nothing. A mapping is an
operator only: the dense kind alone has `entries` and `inverse`, the two
arrays it applies, and the dense form of any kind is apply(np.eye(n)).
"""

from __future__ import annotations

import numbers

import numpy as np

from . import hilbert
from .errors import DimensionMismatchError
from .hilbert import DEFAULT_TOL


class MatrixMapping:
    """Invertible N x N matrix E, applied to (N, d) sequences.

    Subclasses implement _apply and _apply_inverse on validated
    (n, d) sequences and return a new array.
    """

    def __init__(self, n: int):
        self.n = hilbert.require_positive(n, "mapping size", integer=True)

    def apply(self, seq) -> np.ndarray:
        """(E seq)_n = sum_k E[n, k] seq_k for every n."""
        return hilbert.finite(self._apply, hilbert.validated(seq, "seq", (self.n, None)))

    def apply_inverse(self, seq) -> np.ndarray:
        """Sequence psi with apply(psi) = seq."""
        return hilbert.finite(
            self._apply_inverse, hilbert.validated(seq, "seq", (self.n, None)))


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

    def __init__(self, n, diagonals, tol):
        super().__init__(n)
        diags: dict[int, np.ndarray] = {}
        for key, vals in diagonals.items():
            try:  # an integer that is not a bool, or a string int() reads
                if isinstance(key, bool) or not isinstance(key, (str, numbers.Integral)):
                    raise ValueError
                off = int(key)
            except ValueError:
                raise DimensionMismatchError(f"bad diagonal offset {key!r}") from None
            if off in diags:
                raise DimensionMismatchError(f"diagonal offset {off} is given twice")
            if abs(off) >= n:
                raise DimensionMismatchError(
                    f"diagonal offset {off} must lie between {1 - n} and {n - 1}"
                )
            diags[off] = hilbert.validated(vals, f"diagonals[{off}]", (n - abs(off),))
        kl = max([-off for off in diags] + [0])
        ku = max([off for off in diags] + [0])
        # A[i, j] sits at band[kl + ku + i - j, j]; the top kl rows take the fill-in
        band = np.zeros((2 * kl + ku + 1, n), dtype=np.complex128)
        for off, vals in diags.items():
            start = max(off, 0)
            band[kl + ku - off, start : start + vals.shape[0]] = vals
        anorm = float(np.abs(band[kl:]).sum(axis=0).max())

        from scipy.linalg.lapack import zgbcon, zgbtrf

        lu, piv, info = zgbtrf(band, kl, ku)
        # info > 0 is an exact zero pivot
        rcond = zgbcon(kl, ku, lu, piv, anorm)[0] if info == 0 else 0.0
        hilbert.require_nonsingular(rcond, tol, "1-norm reciprocal condition estimate")
        self._diagonals = {off: hilbert.readonly(diags[off]) for off in sorted(diags)}
        self._kl, self._ku, self._lu, self._piv = kl, ku, hilbert.frozen(lu), piv

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
    """Validate a square grid, invert it once (hilbert.invert_operator, which
    raises SingularOperatorError) and keep both."""
    arr = hilbert.validated(entries, "entries", square=True)
    inverse = hilbert.invert_operator(arr, tol)
    return _Dense(hilbert.readonly(arr), hilbert.frozen(inverse))


def build_bidiagonal(n: int) -> MatrixMapping:
    """First-difference mapping: 1 on the diagonal, -1 on the subdiagonal.

    Its inverse is the running sum (lower triangular all ones).
    """
    return _Bidiagonal(n)


def build_banded(n: int, diagonals, tol: float = DEFAULT_TOL) -> MatrixMapping:
    """Mapping from {offset: values}; offset 0 is the main diagonal.

    The banded LU factors are computed once, at build, and reused by
    every inverse apply. LAPACK's estimate of their 1-norm reciprocal condition
    goes to hilbert.require_nonsingular, which raises SingularOperatorError.
    """
    return _Banded(n, diagonals, hilbert.require_positive(tol, "tol"))


def identity_mapping(n: int) -> MatrixMapping:
    return _Identity(n)


def apply_mapping(e: MatrixMapping, seq) -> np.ndarray:
    """(E psi)_n = sum_k E[n, k] psi_k for every n."""
    return e.apply(seq)


def apply_inverse_mapping(e: MatrixMapping, seq) -> np.ndarray:
    """Sequence psi with apply_mapping(e, psi) = seq."""
    return e.apply_inverse(seq)

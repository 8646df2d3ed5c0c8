"""Dense complex linear algebra kernel used by every frame module.

Conventions: vectors are 1-d complex128 arrays; operators on the
d-dimensional space are (d, d) arrays; rectangular (d, N) and (N, d)
arrays are synthesis and analysis maps between coefficient space C^N
and the vector space. The inner product is linear in its first
argument and conjugate-linear in the second. All functions but
worst_residual are pure and never mutate their arguments, so values
can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, SingularOperatorError

#: default tolerance for identity-style checks (desk scale, d <= 64)
DEFAULT_TOL = 1e-10


def validated(x, ndim: int = 2, square: bool = False) -> np.ndarray:
    """Coerce to a finite, nonempty complex array with ndim axes.

    ndim=1 is a vector, ndim=2 a linear map or (N, d) sequence, and
    square=True a square operator. Raises DimensionMismatchError for
    any other shape and ValueError for a non-finite entry.
    """
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != ndim or arr.size == 0 or (square and arr.shape[0] != arr.shape[1]):
        kind = "square operator" if square else f"nonempty {ndim}-d array"
        raise DimensionMismatchError(f"expected a {kind}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite")
    return arr


def readonly(arr: np.ndarray) -> np.ndarray:
    """Copy and freeze an array for storage in an immutable record."""
    return frozen(np.array(arr, dtype=np.complex128, copy=True))


def frozen(arr: np.ndarray) -> np.ndarray:
    """Freeze a freshly computed array in place, without a copy."""
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpectralBounds:
    """Extreme eigenvalues (lo, hi) of a Hermitian operator."""

    lo: float
    hi: float

    def positive(self, tol: float) -> bool:
        """True iff lo > tol * max(|lo|, |hi|): positive, away from zero."""
        return bool(self.lo > tol * max(abs(self.lo), abs(self.hi)))


def inner(u, v) -> complex:
    """<u, v>: linear in u, conjugate-linear in v."""
    u = validated(u, ndim=1)
    v = validated(v, ndim=1)
    if u.shape != v.shape:
        raise DimensionMismatchError(
            f"inner product needs equal dimensions, got {u.shape[0]} and {v.shape[0]}"
        )
    return complex(np.vdot(v, u))


def adjoint(a) -> np.ndarray:
    """Conjugate transpose of a (possibly rectangular) linear map."""
    return validated(a).conj().T


def hermitian_spectrum(a: np.ndarray, tol: float) -> tuple[bool, SpectralBounds]:
    """Whether a is Hermitian to tol, and the spectrum of its Hermitian part.

    a is Hermitian when the Frobenius norm of a - a* is at most tol
    times that of a. The bounds are the extreme eigenvalues of
    (a + a*) / 2 either way.
    """
    hermitian = bool(np.linalg.norm(a - a.conj().T) <= tol * np.linalg.norm(a))
    w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    return hermitian, SpectralBounds(float(w[0]), float(w[-1]))


def hermitian_bounds(a, tol: float = DEFAULT_TOL) -> SpectralBounds:
    """Smallest and largest eigenvalue of a Hermitian operator.

    Raises NotHermitianError when the skew part exceeds tol times the
    Frobenius norm of the operator.
    """
    hermitian, bounds = hermitian_spectrum(validated(a, square=True), tol)
    if not hermitian:
        raise NotHermitianError(f"operator is not Hermitian to tolerance {tol:g}")
    return bounds


def require_nonsingular(a: np.ndarray, tol: float) -> None:
    """Raise SingularOperatorError when sigma_min <= tol * sigma_max.

    The test is scale invariant.
    """
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= tol * s[0]:
        raise SingularOperatorError(
            f"matrix is singular to tolerance (sigma_min/sigma_max = "
            f"{s[-1] / s[0] if s[0] else 0.0:.3e})"
        )


def invert_operator(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Dense inverse; rejects operators singular to tolerance."""
    a = validated(a, square=True)
    require_nonsingular(a, tol)
    return np.linalg.inv(a)


def pseudoinverse(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse, singular values below tol*sigma_max dropped."""
    return np.linalg.pinv(validated(m), rcond=tol)


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(validated(m), 2))


def is_positive_definite(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff Hermitian to tol with spectrum bounded away from zero."""
    hermitian, bounds = hermitian_spectrum(validated(a, square=True), tol)
    return hermitian and bounds.positive(tol)


def trial_vectors(dim: int, trials: int, seed: int) -> np.ndarray:
    """Seeded random unit vectors of C^dim, as the columns of a (dim, trials) array."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((dim, trials)) + 1j * rng.standard_normal((dim, trials))
    return f / np.linalg.norm(f, axis=0)


def trial_sums(synthesis, analysis, f) -> np.ndarray:
    """[synthesis analysis* f | synthesis analysis*]: the sums of the trial vectors,
    then those of the basis, read from the d x d mixed operator."""
    trials = f.shape[1]
    block = np.empty((synthesis.shape[0], trials + f.shape[0]), dtype=np.complex128)
    np.matmul(synthesis, analysis.conj() @ f, out=block[:, :trials])
    np.matmul(synthesis, analysis.conj(), out=block[:, trials:])
    return block


def worst_residual(block: np.ndarray, f: np.ndarray, target: float) -> float:
    """Largest column norm of block - target * [f | I]; overwrites block."""
    trials = f.shape[1]
    block[:, :trials] -= target * f
    block[:, trials:][np.diag_indices(f.shape[0])] -= target
    return float(np.max(np.linalg.norm(block, axis=0)))

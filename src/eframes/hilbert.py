"""Dense complex linear algebra kernel used by every frame module.

Conventions: vectors are 1-d complex128 arrays; operators on the
d-dimensional space are (d, d) arrays; rectangular (d, N) and (N, d)
arrays are synthesis and analysis maps between coefficient space C^N
and the vector space. The inner product is linear in its first
argument and conjugate-linear in the second. All functions but
worst_residual are pure and never mutate their arguments, so values
can be shared freely between threads.

Input is checked here, once: validated (with require_shape, its shape
half) for every array, and require_positive for every tol, eps and count
that configuration, CLI or library takes; invert_operator is the one
checked inverse.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, SingularOperatorError

#: default tolerance: relative to the scale of each check (see backward_ok)
DEFAULT_TOL = 1e-10
#: default number of random unit trial vectors per check, and their seed
DEFAULT_TRIALS = 100
DEFAULT_SEED = 42


def require_shape(x, name: str, shape: tuple, square: bool = False) -> np.ndarray:
    """x as a complex array if it is nonempty with the given shape (None for
    a free axis; square=True also asks for equal axes), else
    DimensionMismatchError naming the argument. Entries are not checked."""
    arr = np.asarray(x, dtype=np.complex128)
    sizes = zip(shape, arr.shape)
    fits = arr.ndim == len(shape) and all(n in (None, k) for n, k in sizes)
    if not fits or arr.size == 0 or (square and arr.shape[0] != arr.shape[-1]):
        axes = ", ".join("*" if n is None else str(n) for n in shape)
        axes += "," if len(shape) == 1 else ""
        kind = "square array" if square else "array"
        raise DimensionMismatchError(
            f"{name}: expected a nonempty {kind} of shape ({axes}), got {arr.shape}"
        )
    return arr


def validated(x, name: str = "array", shape=(None, None), square=False) -> np.ndarray:
    """require_shape, then ValueError("entries must be finite") for an
    entry that is NaN or infinite: the one check of array input."""
    arr = require_shape(x, name, shape, square)
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite")
    return arr


def require_positive(raw, name: str, integer: bool = False):
    """raw as a float, or an int when integer is set, if it is a finite number
    > 0; else ValueError naming it (a bool, non-number, NaN, infinity or <= 0)."""
    kinds = numbers.Integral if integer else numbers.Real
    if isinstance(raw, bool) or not isinstance(raw, kinds) or not 0 < raw < math.inf:
        kind = "integer" if integer else "number"
        raise ValueError(f"{name} must be a finite positive {kind}, got {raw!r}")
    return int(raw) if integer else float(raw)


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
    u = validated(u, "u", (None,))
    return complex(np.vdot(validated(v, "v", u.shape), u))


def adjoint(a) -> np.ndarray:
    """Conjugate transpose of a (possibly rectangular) linear map."""
    return validated(a, "a").conj().T


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
    tol = require_positive(tol, "tol")
    hermitian, bounds = hermitian_spectrum(validated(a, "a", square=True), tol)
    if not hermitian:
        raise NotHermitianError(f"operator is not Hermitian to tolerance {tol:g}")
    return bounds


def invert_operator(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Dense inverse from one LU, the one checked inverse: SingularOperatorError
    on an exact zero pivot or when the 1-norm reciprocal condition
    1 / (||a||_1 ||a^{-1}||_1) is at most tol (scale invariant; LAPACK's xGECON
    estimates it: Higham, Accuracy and Stability of Numerical Algorithms, ch. 15)."""
    a, tol = validated(a, "a", square=True), require_positive(tol, "tol")
    try:
        inv = np.linalg.inv(a)
        a1, inv1 = float(np.linalg.norm(a, 1)), float(np.linalg.norm(inv, 1))
        # a1 * inv1 >= 1, so dividing 1 by the larger factor first cannot overflow
        rcond = 1.0 / a1 / inv1 if a1 >= 1.0 else 1.0 / inv1 / a1
    except np.linalg.LinAlgError:  # an exact zero pivot
        rcond = 0.0
    if not rcond > tol:
        raise SingularOperatorError(
            f"matrix is singular to tolerance (1-norm reciprocal condition "
            f"= {rcond:.3e})"
        )
    return inv


def pseudoinverse(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse, singular values below tol*sigma_max dropped."""
    return np.linalg.pinv(validated(m, "m"), rcond=require_positive(tol, "tol"))


def backward_ok(residual: float, a, b, tol: float) -> bool:
    """The pass rule of every dual check and certificate: the residual of
    a product of a and b is at most tol * ||a||_F * ||b||_F, a normwise
    backward error (Rigal and Gaches 1967; Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 7). Scaling a by c and b by 1/c, or a
    unitary change of basis, leaves the verdict as it is."""
    return bool(residual <= tol * np.linalg.norm(a) * np.linalg.norm(b))


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(validated(m, "m"), 2))


def is_positive_definite(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff Hermitian to tol with spectrum bounded away from zero."""
    tol = require_positive(tol, "tol")
    hermitian, bounds = hermitian_spectrum(validated(a, "a", square=True), tol)
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

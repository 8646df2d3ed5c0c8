"""Dense complex linear algebra kernel used by every frame module.

Conventions: vectors are 1-d arrays; operators on the d-dimensional space are (d, d)
arrays; rectangular (d, N) and (N, d) arrays are synthesis and analysis maps between
coefficient space C^N and the vector space. The one dtype rule is validated's: a
float64 array stays float64, any other input becomes complex128. The inner product is
linear in its first argument and conjugate-linear in the second. All functions but
worst_residual are pure and never mutate their arguments, so values can be shared
freely between threads. readonly is the one rule by which an array enters a record:
kept when nobody can write it, else a frozen complex128 copy.

Input is checked here, once: validated (shape, then entries) for every
array, require_tol for every tol, which it holds to [2^-48, 1), require_positive
for every eps and count and require_seed for every seed that configuration, CLI
or library takes; finite for every array formed from finite input that can
overflow (each mapping's apply and apply_inverse, S_E, S, T_u, the certificates'
sums, the Neumann deviation, the CLI's rho times a dual and a norm past the
double range), so that an overflow is ValueError("entries must be finite") and
numpy warns of nothing; invert_operator is the one checked inverse.
ControlledEFrame.s_inv alone calls the plain inv (eframe.e_canonical_dual
reuses it), and ControlledEFrame.t_u_pinv a pinv that cuts no singular value,
since the verdict both require has already bounded S away from singular, and
so T_u at full rank. Each tolerance rule is stated once: close (equality),
hermitian_spectrum (Hermitian), SpectralBounds.positive, require_nonsingular
and backward_ok (duals), on scale-safe frobenius norms; no tol reaches
numpy. Every norm the library takes is taken here, over power_of_two where it
could leave the double range, but the banded mapping's 1-norm, summed by hand
for zgbcon on the band over the same power: no other module calls numpy.linalg.norm.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, SingularOperatorError

#: default tolerance: relative to the scale of each check (see backward_ok)
DEFAULT_TOL = 1e-10
TOL_FLOOR = 2.0**-48  # the smallest tol admitted, 16 eps: below it rounding alone fails
#: default number of random unit trial vectors per check, and their seed
DEFAULT_TRIALS = 100
DEFAULT_SEED = 42


def validated(x, name: str = "array", shape=(None, None), square=False) -> np.ndarray:
    """x as an array (the dtype rule: a float64 array itself, anything else complex128)
    if it is nonempty with the given shape (None for a free axis; square=True also asks
    for equal axes), else DimensionMismatchError naming the argument; then ValueError(
    "entries must be finite") for an entry that is NaN or infinite: the one array check."""
    arr = np.asarray(x, np.float64 if getattr(x, "dtype", None) == np.float64 else np.complex128)
    sizes = zip(shape, arr.shape)
    fits = arr.ndim == len(shape) and all(n in (None, k) for n, k in sizes)
    if not fits or arr.size == 0 or (square and arr.shape[0] != arr.shape[-1]):
        axes = ", ".join("*" if n is None else str(n) for n in shape)
        axes += "," if len(shape) == 1 else ""
        kind = "square array" if square else "array"
        raise DimensionMismatchError(
            f"{name}: expected a nonempty {kind} of shape ({axes}), got {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite")
    return arr


def finite(form, *args):
    """form(*args) under np.errstate(over="ignore", invalid="ignore"), then each array it gives
    (a tuple's each) through validated at its own shape, a float64 one with no copy: the
    overflow rule, so an entry formed as inf, or NaN from inf - inf, is a ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = form(*args)
    for arr in out if isinstance(out, tuple) else (out,):
        validated(arr, shape=np.shape(arr))
    return out


def require_positive(raw, name: str, integer: bool = False):
    """raw as a float, or an int when integer is set, if it is a finite number > 0
    in double range; else ValueError naming it (a bool, non-number, NaN or <= 0)."""
    kinds = numbers.Integral if integer else numbers.Real
    ok = isinstance(raw, kinds) and not isinstance(raw, bool)
    try:  # float() raises OverflowError for an integer beyond double range
        ok = ok and 0 < float(raw) < math.inf
    except OverflowError:
        ok = False
    if not ok:
        kind = "integer" if integer else "number"
        raise ValueError(f"{name} must be a finite positive {kind}, got {raw!r}")
    return int(raw) if integer else float(raw)


def require_tol(raw, name: str = "tol") -> float:
    """require_positive(raw, name) if in [TOL_FLOOR, 1), else ValueError naming it: at 1
    or more no positivity or singularity test can pass, so tol alone would decide."""
    tol = require_positive(raw, name)
    if tol < TOL_FLOOR:
        raise ValueError(f"{name} must be at least 2^-48 = {TOL_FLOOR:.3e}, got {raw!r}")
    if tol >= 1.0:
        raise ValueError(f"{name} must be below 1, got {raw!r}")
    return tol


def require_seed(raw, name: str) -> int:
    """raw as an int if it is a non-negative integer, not a bool; else ValueError."""
    if isinstance(raw, bool) or not isinstance(raw, numbers.Integral) or raw < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {raw!r}")
    return int(raw)


def readonly(arr: np.ndarray) -> np.ndarray:
    """The one rule by which an array enters a record: arr itself if nobody can write it,
    a complex128 ndarray read-only down to the ndarray that owns its memory (arr.base, to
    which numpy collapses a chain of views, or arr); else a frozen complex128 copy, so a
    caller's array, or a read-only view of one, is never frozen in place."""
    owner = arr if getattr(arr, "base", None) is None else arr.base
    if type(arr) is type(owner) is np.ndarray and arr.dtype == np.complex128:
        if owner.flags.owndata and not (arr.flags.writeable or owner.flags.writeable):
            return arr
    return frozen(np.array(arr, dtype=np.complex128, copy=True))


def frozen(arr: np.ndarray) -> np.ndarray:
    """Freeze a freshly computed array in place, without a copy."""
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpectralBounds:
    """Extreme eigenvalues (lo, hi) of a Hermitian part, and whether the operator is Hermitian."""

    lo: float
    hi: float
    hermitian: bool = True

    def positive(self, tol: float) -> bool:
        """True iff lo > tol * max(|lo|, |hi|): positive, away from zero."""
        return bool(self.lo > tol * max(abs(self.lo), abs(self.hi)))


def hermitian_spectrum(a: np.ndarray, tol: float) -> SpectralBounds:
    """The extreme eigenvalues of a's Hermitian part (a + a*) / 2, with whether a
    is Hermitian to tol (close(a*, a, tol)) as their hermitian field."""
    hermitian = close(a.conj().T, a, tol)
    w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    return SpectralBounds(float(w[0]), float(w[-1]), hermitian)


def hermitian_bounds(a, tol: float = DEFAULT_TOL) -> SpectralBounds:
    """Smallest and largest eigenvalue of a Hermitian operator: the Hermitian
    precondition, which raises NotHermitianError unless a is Hermitian to tol."""
    tol = require_tol(tol)
    bounds = hermitian_spectrum(validated(a, "a", square=True), tol)
    if not bounds.hermitian:
        raise NotHermitianError(f"operator is not Hermitian to tolerance {tol:g}")
    return bounds


def invert_operator(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Dense inverse from one LU, the one checked inverse: require_nonsingular on
    the exact 1-norm reciprocal condition 1 / (||a||_1 ||a^{-1}||_1), or 0 for an
    exact zero pivot, both read from unit = a / 2^k, 2^k = power_of_two(a), an exact
    scaling; returns unit^{-1} / 2^k under the overflow rule."""
    a, tol = validated(a, "a", square=True), require_tol(tol)
    unscale = 1.0 / power_of_two(a)  # exact and finite
    unit = a * unscale  # a / 2^k at a quarter of the division's cost
    try:
        inv = np.linalg.inv(unit)
        with np.errstate(over="ignore"):  # an inverse past the double range: rcond 0
            rcond = 1.0 / float(np.linalg.norm(unit, 1)) / float(np.linalg.norm(inv, 1))
    except np.linalg.LinAlgError:  # an exact zero pivot
        rcond = 0.0
    require_nonsingular(rcond, tol)
    return finite(np.multiply, inv, unscale, inv)


def require_nonsingular(
    rcond: float, tol: float, quantity: str = "1-norm reciprocal condition"
) -> None:
    """The singularity rule: SingularOperatorError naming the quantity unless
    rcond, a 1-norm reciprocal condition (scale invariant; Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 15), exceeds tol."""
    if not rcond > tol:
        raise SingularOperatorError(
            f"matrix is singular to tolerance ({quantity} = {rcond:.3e})"
        )


def close(a, b, tol: float) -> bool:
    """The equality rule of every operator identity: ||a - b||_F <= tol ||b||_F."""
    return bool(frobenius(a - b) <= tol * frobenius(b))


def backward_ok(residual: float, a, b, tol: float) -> bool:
    """The pass rule of every dual check and certificate: the residual of
    a product of a and b is at most tol * ||a||_F * ||b||_F, a normwise
    backward error (Rigal and Gaches 1967; Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 7). Scaling a by c and b by 1/c, or a
    unitary change of basis, leaves the verdict as it is."""
    return bool(residual <= tol * frobenius(a) * frobenius(b))


def frobenius(a) -> float:
    """Frobenius norm of a without overflow or underflow (_scaled_norm); a norm
    past the double range is ValueError("entries must be finite")."""
    return float(_scaled_norm(a))


def _scaled_norm(a, norm=np.linalg.norm):
    """norm(a), a norm or the largest of a's column norms, when it is in (1e-100, inf),
    where no square overflowed and each lost to underflow is under 1e-107 of their sum,
    or when a is zero; else norm(a over power_of_two(a)), an exact scaling, times that
    power under the overflow rule (finite)."""
    with np.errstate(over="ignore"):
        value = norm(a)
    if 1e-100 < value < math.inf or not a.any():
        return value
    scale = power_of_two(a)
    return finite(np.multiply, norm(a / scale), scale)


def power_of_two(a) -> float:
    """The power of two at a's largest real or imaginary part (a modulus can
    overflow), 2^(e - 1) for one in [2^(e - 1), 2^e), but at least 2^-1022, so
    that its reciprocal is finite: a scale that divides or multiplies exactly."""
    part = max(np.max(np.abs(a.real)), np.max(np.abs(a.imag)))
    return math.ldexp(1.0, max(math.frexp(float(part))[1] - 1, -1022))


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(validated(m, "m"), 2))


def trial_vectors(dim: int, trials: int, seed: int) -> np.ndarray:
    """Seeded random unit vectors of C^dim, as the columns of a (dim, trials) array."""
    rng = np.random.default_rng(require_seed(seed, "seed"))
    f = rng.standard_normal((dim, trials)) + 1j * rng.standard_normal((dim, trials))
    return f / np.linalg.norm(f, axis=0)


def trial_sums(synthesis, analysis, f) -> tuple[np.ndarray, np.ndarray]:
    """(M f, M) for the d x d mixed operator M = synthesis analysis*: the sums of the trial
    vectors and of the basis, with no block of N rows or trials + d columns. If M is real
    (both maps float64), M f is a real GEMM on f's (re, im) pairs."""
    mixed = synthesis @ analysis.conj()  # a float64 array's conj() is itself
    if np.iscomplexobj(mixed):
        return mixed @ f, mixed
    pairs = np.ascontiguousarray(f, dtype=np.complex128).view(np.float64)
    return (mixed @ pairs).view(np.complex128), mixed


def worst_residual(sums, f: np.ndarray, target: float) -> float:
    """Largest column norm of [M f | M] - target * [f | I] for sums = (M f, M), each part
    scale-safe as frobenius on its own; overwrites both. Each column's squares are summed
    row by row, as numpy sums a block's columns (a lone column it sums pairwise)."""
    trial, basis = sums
    trial -= target * f
    basis[np.diag_indices(f.shape[0])] -= target
    norms = (_scaled_norm(part, lambda a: np.max(np.sqrt(sum((a.conj() * a).real)), initial=0.0))
             for part in sums)
    return float(max(norms))

"""Neumann-series correction of approximate duals.

When a candidate family phi almost reconstructs, the deviation
operator R = id - D T_u* (D the synthesis map of phi, T_u the
controlled synthesis map of psi) is a contraction and the series
sum_n R^n phi_k converges to an exact dual. Powers of R are applied
iteratively to the sequence members; high matrix powers are never
materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import hilbert
from .controlled import ControlledEFrame
from .errors import ConvergenceError, DimensionMismatchError
from .mapping import MatrixMapping


@dataclass(frozen=True)
class NeumannReport:
    """Convergence diagnostics of one series run.

    residual_history holds term norms for the dual correction and true
    residuals for the iterative reconstruction; either way consecutive
    entries shrink by about the contraction ratio.
    """

    ratio: float
    terms_used: int
    residual_history: tuple[float, ...]
    converged: bool


@dataclass(frozen=True)
class ApproximateDual:
    """A candidate dual phi of a prepared controlled frame.

    Construction applies the mapping to phi once; the one-step
    reconstruction T_u D* and the contraction ratio are computed on
    first use.
    """

    frame: ControlledEFrame
    phi: np.ndarray
    images: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        images = self.frame.images_of(self.phi)
        object.__setattr__(self, "phi", hilbert.readonly(self.phi))
        object.__setattr__(self, "images", hilbert.frozen(images))

    @cached_property
    def one_step(self) -> np.ndarray:
        """T_u D*, the one-step reconstruction operator."""
        return hilbert.frozen(self.frame.t_u @ self.images.conj())

    @cached_property
    def ratio(self) -> float:
        """Spectral norm of id - T_u D*, the deviation of the one-step
        reconstruction from the identity."""
        return hilbert.operator_norm(np.eye(self.one_step.shape[0]) - self.one_step)

    def _require_contraction(self) -> None:
        if self.ratio >= 1.0:
            raise ConvergenceError(
                f"contraction ratio {self.ratio:.6g} >= 1: the series diverges"
            )

    def corrected_dual(
        self, eps: float = 1e-12, max_terms: int = 10_000
    ) -> tuple[np.ndarray, NeumannReport]:
        """Correct phi into an exact dual by summing the deviation series.

        Terms are added until the latest term norm falls to eps times the
        accumulated norm; terms_used is the index of that final term, so an
        already-exact dual reports 1. The corrected family reconstructs to
        eps / (1 - ratio). Raises ConvergenceError when the ratio is >= 1;
        an exhausted max_terms returns converged=False.
        """
        self._require_contraction()
        frame = self.frame
        d = frame.images.shape[1]
        deviation = np.eye(d) - self.images.T @ (frame.images.conj() @ frame.u.conj().T)
        term = self.phi.copy()
        acc = self.phi.copy()
        history = [float(np.linalg.norm(term))]
        converged = False
        terms_used = max_terms
        for n in range(1, max_terms + 1):
            term = term @ deviation.T
            acc = acc + term
            term_norm = float(np.linalg.norm(term))
            history.append(term_norm)
            if term_norm <= eps * np.linalg.norm(acc):
                terms_used = n
                converged = True
                break
        return acc, NeumannReport(self.ratio, terms_used, tuple(history), converged)

    def iterative_reconstruct(
        self, f, eps: float = 1e-10, max_terms: int = 10_000
    ) -> tuple[np.ndarray, NeumannReport]:
        """Reconstruct f from the approximate pair by geometric iteration.

        Accumulates partial sums of (id - T_u D*)^n applied to the one-step
        reconstruction of f and stops once the true residual drops below
        eps times the norm of f. Raises ConvergenceError when the ratio is
        >= 1; an exhausted max_terms returns converged=False.
        """
        f = hilbert.validated(f, ndim=1)
        if f.shape[0] != self.images.shape[1]:
            raise DimensionMismatchError(
                f"vector dim {f.shape[0]} does not match sequence dim "
                f"{self.images.shape[1]}"
            )
        self._require_contraction()
        one_step = self.one_step
        f_norm = float(np.linalg.norm(f))
        term = one_step @ f
        approx = term.copy()
        residual = float(np.linalg.norm(f - approx))
        history = [residual]
        terms_used = 1
        converged = residual <= eps * f_norm
        while not converged and terms_used < max_terms:
            term = term - one_step @ term
            approx = approx + term
            residual = float(np.linalg.norm(f - approx))
            history.append(residual)
            terms_used += 1
            converged = residual <= eps * f_norm
        return approx, NeumannReport(self.ratio, terms_used, tuple(history), converged)


def contraction_ratio(e: MatrixMapping, psi, phi, u) -> float:
    """See ApproximateDual.ratio."""
    return ApproximateDual(ControlledEFrame(e, psi, u), phi).ratio


def corrected_dual(
    e: MatrixMapping, psi, phi, u, eps: float = 1e-12, max_terms: int = 10_000
) -> tuple[np.ndarray, NeumannReport]:
    """See ApproximateDual.corrected_dual."""
    pair = ApproximateDual(ControlledEFrame(e, psi, u), phi)
    return pair.corrected_dual(eps, max_terms)


def iterative_reconstruct(
    e: MatrixMapping, psi, phi, u, f, eps: float = 1e-10, max_terms: int = 10_000
) -> tuple[np.ndarray, NeumannReport]:
    """See ApproximateDual.iterative_reconstruct."""
    pair = ApproximateDual(ControlledEFrame(e, psi, u), phi)
    return pair.iterative_reconstruct(f, eps, max_terms)

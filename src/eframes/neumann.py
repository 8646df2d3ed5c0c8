"""Neumann-series correction of approximate duals.

When a candidate family phi almost reconstructs, the deviation
operator R = id - D T_u* (D the synthesis map of phi, T_u the
controlled synthesis map of psi) is a contraction and the series
sum_n R^n phi_k converges to an exact dual. Powers of R are applied
iteratively to the sequence members; high matrix powers are never
materialized. Every term, stop and residual norm is hilbert.frobenius,
so scaling psi by a power of two c and phi by 1 / c changes no term count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import hilbert
from .controlled import ControlledEFrame
from .errors import ConvergenceError
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
    """A candidate dual phi of a prepared controlled frame, and its series' settings.

    Construction checks eps and max_terms (hilbert.require_positive) and
    applies the mapping to phi once; the deviation id - T_u D* is formed
    once, on first use, and the contraction ratio, the dual correction and
    the iterative reconstruction all read it.
    """

    frame: ControlledEFrame
    phi: np.ndarray
    eps: float = 1e-12
    max_terms: int = 10_000
    images: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eps", hilbert.require_positive(self.eps, "eps"))
        max_terms = hilbert.require_positive(self.max_terms, "max_terms", integer=True)
        object.__setattr__(self, "max_terms", max_terms)
        object.__setattr__(self, "phi", hilbert.readonly(self.phi))
        object.__setattr__(self, "images", hilbert.frozen(self.frame.images_of(self.phi)))

    @cached_property
    def deviation(self) -> np.ndarray:
        """id - T_u D*: how far the one-step reconstruction is from the identity."""
        product = hilbert.finite(np.matmul, self.frame.t_u, self.images.conj())
        return hilbert.frozen(np.eye(product.shape[0]) - product)  # cannot overflow

    @cached_property
    def ratio(self) -> float:
        """Spectral norm of the deviation id - T_u D*."""
        return hilbert.operator_norm(self.deviation)

    def _require_contraction(self) -> None:
        """ConvergenceError at ratio >= 1, raised by a series run, not by construction."""
        if self.ratio >= 1.0:
            raise ConvergenceError(f"contraction ratio {self.ratio:.6g} >= 1: the series diverges")

    def corrected_dual(self) -> tuple[np.ndarray, NeumannReport]:
        """Correct phi into an exact dual by summing the deviation series.

        Terms are added until the latest term norm falls to the pair's eps
        times the accumulated norm; terms_used is the index of that final
        term, so an already-exact dual reports 1. The corrected family
        reconstructs to eps / (1 - ratio). Raises ConvergenceError when the
        ratio is >= 1; an exhausted max_terms returns converged=False.
        """
        self._require_contraction()
        step = self.deviation.conj()  # term @ step applies id - D T_u* to each member
        term = acc = self.phi
        history, converged = [hilbert.frobenius(term)], False
        while not converged and len(history) <= self.max_terms:
            term = term @ step
            acc = acc + term
            history.append(hilbert.frobenius(term))
            converged = history[-1] <= self.eps * hilbert.frobenius(acc)
        return acc, NeumannReport(self.ratio, len(history) - 1, tuple(history), converged)

    def iterative_reconstruct(self, f) -> tuple[np.ndarray, NeumannReport]:
        """Reconstruct f from the approximate pair by geometric iteration.

        Accumulates partial sums of (id - T_u D*)^n applied to the one-step
        reconstruction of f and stops once the true residual drops below
        the pair's eps times the norm of f, or after its max_terms. Raises
        ConvergenceError when the ratio is >= 1; an exhausted max_terms
        returns converged=False.
        """
        f = hilbert.validated(f, "f", self.images.shape[1:])
        self._require_contraction()
        goal = self.eps * hilbert.frobenius(f)
        term = approx = f - self.deviation @ f  # one-step reconstruction T_u D* f
        history = [hilbert.frobenius(f - approx)]
        while not history[-1] <= goal and len(history) < self.max_terms:
            term = self.deviation @ term
            approx = approx + term
            history.append(hilbert.frobenius(f - approx))
        converged = history[-1] <= goal
        return approx, NeumannReport(self.ratio, len(history), tuple(history), converged)


def contraction_ratio(e: MatrixMapping, psi, phi, u) -> float:
    """See ApproximateDual.ratio."""
    return ApproximateDual(ControlledEFrame(e, psi, u), phi).ratio


def corrected_dual(
    e: MatrixMapping, psi, phi, u, eps: float = 1e-12, max_terms: int = 10_000
) -> tuple[np.ndarray, NeumannReport]:
    """See ApproximateDual.corrected_dual."""
    return ApproximateDual(ControlledEFrame(e, psi, u), phi, eps, max_terms).corrected_dual()


def iterative_reconstruct(
    e: MatrixMapping, psi, phi, u, f, eps: float = 1e-10, max_terms: int = 10_000
) -> tuple[np.ndarray, NeumannReport]:
    """See ApproximateDual.iterative_reconstruct."""
    pair = ApproximateDual(ControlledEFrame(e, psi, u), phi, eps, max_terms)
    return pair.iterative_reconstruct(f)

"""E-frame analysis: frame operator, bounds, canonical dual and
Riesz-type families.

Everything is driven by the images (E psi)_n of a sequence under the
mapping, which e_frame_bounds computes once and returns with the frame
operator T T*, where the synthesis map T has image n as its n-th column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import NotAFrameError
from .hilbert import DEFAULT_TOL, SpectralBounds
from .mapping import MatrixMapping, apply_inverse_mapping, apply_mapping

FRAME = "frame"
BESSEL_ONLY = "bessel-only"


@dataclass(frozen=True)
class EFrameRecord:
    """Analysis result for one (mapping, sequence) pair."""

    psi: np.ndarray
    mapping: MatrixMapping
    images: np.ndarray
    frame_op: np.ndarray
    bounds: SpectralBounds
    verdict: str


def frame_record(e: MatrixMapping, psi, images, frame_op, tol: float) -> EFrameRecord:
    """Bounds and verdict of frame_op, the frame operator of the images of psi.

    The verdict is ``frame`` iff the smallest eigenvalue exceeds tol
    times the largest magnitude (SpectralBounds.positive), otherwise
    ``bessel-only``. Raises NotHermitianError when frame_op is not
    Hermitian to tol.
    """
    bounds = hilbert.hermitian_bounds(frame_op, tol)  # checks tol too
    verdict = FRAME if bounds.positive(tol) else BESSEL_ONLY
    return EFrameRecord(psi, e, images, frame_op, bounds, verdict)


def e_frame_bounds(e: MatrixMapping, psi, tol: float = DEFAULT_TOL) -> EFrameRecord:
    """Frame bounds and verdict from the spectrum of the frame operator."""
    psi = hilbert.require_shape(psi, "psi", (e.n, None))
    images = hilbert.frozen(apply_mapping(e, psi))
    frame_op = hilbert.frozen(images.T @ images.conj())
    return frame_record(e, hilbert.readonly(psi), images, frame_op, tol)


def e_canonical_dual(e: MatrixMapping, psi, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Canonical dual {S^{-*} psi_k}, which is {S^{-1} psi_k} for a Hermitian S.
    Its synthesis map D has T D* = S S^{-1} = id even when S is Hermitian only
    to tol; the frame verdict bounds S from singular."""
    record = e_frame_bounds(e, psi, tol)
    if record.verdict != FRAME:
        raise NotAFrameError("family is not a frame: lower bound vanishes")
    return record.psi @ np.linalg.inv(record.frame_op).conj()


def e_riesz_family(
    v, e: MatrixMapping, basis, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Family with member k equal to V applied to (E^{-1} basis)_k.

    V must be invertible (hilbert.invert_operator at tol) and the basis
    orthonormal to tol (hilbert.close) with as many members as dimensions.
    """
    n = e.n
    basis = hilbert.validated(basis, "basis", (n, n))
    v = hilbert.validated(v, "v", (n, n))
    hilbert.invert_operator(v, tol)
    if not hilbert.close(basis @ basis.conj().T, np.eye(n), tol):
        raise ValueError("basis is not orthonormal to tolerance")
    return apply_inverse_mapping(e, basis) @ v.T

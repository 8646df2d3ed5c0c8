"""E-frame analysis: frame operator, bounds, canonical dual and
Riesz-type families.

An E-frame is a controlled E-frame at U = id: e_frame_bounds is the plain
half of the prepared record (controlled.ControlledEFrame.plain), with the
images (E psi)_n and the frame operator T T*, T having image n as column n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import NotAFrameError
from .hilbert import DEFAULT_TOL, SpectralBounds
from .mapping import MatrixMapping, apply_inverse_mapping

FRAME = "frame"
BESSEL_ONLY = "bessel-only"


@dataclass(frozen=True)
class EFrameRecord:
    """Analysis result for one (mapping, sequence) pair: ControlledEFrame.plain."""

    psi: np.ndarray
    mapping: MatrixMapping
    images: np.ndarray
    frame_op: np.ndarray
    bounds: SpectralBounds
    verdict: str


def e_frame_bounds(e: MatrixMapping, psi, tol: float = DEFAULT_TOL) -> EFrameRecord:
    """Frame bounds and verdict: the record's E-frame half at U = id."""
    from .controlled import ControlledEFrame  # controlled imports this module
    psi = hilbert.require_shape(psi, "psi", (e.n, None))
    return ControlledEFrame(e, psi, np.eye(psi.shape[1], dtype=np.complex128), tol).plain


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

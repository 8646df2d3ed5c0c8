"""E-frame analysis: synthesis and analysis maps, frame operator,
bounds, canonical dual, reconstruction, and Riesz-type families.

Everything is driven by the images (E psi)_n of a sequence under the
mapping: the synthesis map has image n as its n-th column, the
analysis map is its conjugate transpose, and the frame operator is
their composition.
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


def _images(e: MatrixMapping, psi) -> np.ndarray:
    """Images (E psi)_n of an (e.n, d) family; a wrong shape names psi."""
    return apply_mapping(e, hilbert.require_shape(psi, "psi", (e.n, None)))


def e_synthesis(e: MatrixMapping, psi) -> np.ndarray:
    """Synthesis map C^N -> H whose column n is the image (E psi)_n."""
    return _images(e, psi).T


def e_analysis(e: MatrixMapping, psi, f) -> np.ndarray:
    """Coefficient vector {<f, (E psi)_n>}_n."""
    images = _images(e, psi)
    return images.conj() @ hilbert.validated(f, "f", images.shape[1:])


def e_frame_operator(e: MatrixMapping, psi) -> np.ndarray:
    """S = T T*, the sum of outer products of the images."""
    images = _images(e, psi)
    return images.T @ images.conj()


def e_frame_bounds(e: MatrixMapping, psi, tol: float = DEFAULT_TOL) -> EFrameRecord:
    """Frame bounds and verdict from the spectrum of the frame operator."""
    images = hilbert.frozen(_images(e, psi))
    frame_op = hilbert.frozen(images.T @ images.conj())
    return frame_record(e, hilbert.readonly(psi), images, frame_op, tol)


def e_canonical_dual(e: MatrixMapping, psi, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Canonical dual {S^{-1} psi_k}; the frame verdict bounds S from singular."""
    record = e_frame_bounds(e, psi, tol)
    if record.verdict != FRAME:
        raise NotAFrameError("family is not a frame: lower bound vanishes")
    return record.psi @ np.linalg.inv(record.frame_op).T


def e_reconstruct(e: MatrixMapping, psi, phi, f) -> np.ndarray:
    """sum_n <f, (E phi)_n> (E psi)_n: coefficients from phi, synthesis from psi."""
    images_psi = _images(e, psi)
    images_phi = apply_mapping(e, hilbert.require_shape(phi, "phi", images_psi.shape))
    f = hilbert.validated(f, "f", images_psi.shape[1:])
    return images_psi.T @ (images_phi.conj() @ f)


def e_riesz_family(
    v, e: MatrixMapping, basis, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Family with member k equal to V applied to (E^{-1} basis)_k.

    V must be invertible (hilbert.invert_operator at tol) and the basis
    orthonormal with as many members as dimensions.
    """
    n = e.n
    basis = hilbert.validated(basis, "basis", (n, n))
    v = hilbert.validated(v, "v", (n, n))
    hilbert.invert_operator(v, tol)
    gram = basis @ basis.conj().T
    if np.linalg.norm(gram - np.eye(n)) > tol * np.sqrt(n):
        raise ValueError("basis is not orthonormal to tolerance")
    return apply_inverse_mapping(e, basis) @ v.T

"""E-frame entry points at U = id, and Riesz-type families.

An E-frame is a controlled E-frame at U = id: e_frame_bounds is the plain
half of the prepared record (controlled.ControlledEFrame.plain, a
controlled.EFrameRecord), with the images (E psi)_n and the frame operator
T T*, T having image n as column n; e_canonical_dual is the record's
canonical_dual at U = id: its S^{-1}, and its NotAFrameError for a non-frame.
e_riesz_family builds the family V (E^{-1} basis), and riesz_equivalence
checks its controlled bounds against those of {V b_j} over the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .controlled import ControlledEFrame, EFrameRecord
from .hilbert import DEFAULT_TOL, SpectralBounds
from .mapping import MatrixMapping, apply_inverse_mapping, identity_mapping


@dataclass(frozen=True)
class RieszEquivalenceReport:
    """Controlled bounds computed along both routes of the Riesz equivalence."""

    riesz_bounds: SpectralBounds
    direct_bounds: SpectralBounds
    max_deviation: float
    agree: bool


def _record_at_identity(e: MatrixMapping, psi, tol: float) -> ControlledEFrame:
    """The prepared record of psi over E at U = id."""
    psi = hilbert.validated(psi, "psi", (e.n, None))
    return ControlledEFrame(e, psi, np.eye(psi.shape[1]), tol)


def e_frame_bounds(e: MatrixMapping, psi, tol: float = DEFAULT_TOL) -> EFrameRecord:
    """Frame bounds and verdict: the record's E-frame half at U = id."""
    return _record_at_identity(e, psi, tol).plain


def e_canonical_dual(e: MatrixMapping, psi, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Canonical dual {S^{-1} psi_k}: the record's canonical_dual at U = id."""
    return _record_at_identity(e, psi, tol).canonical_dual()


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


def riesz_equivalence(
    v, basis, e: MatrixMapping, u, tol: float = DEFAULT_TOL
) -> RieszEquivalenceReport:
    """Controlled bounds of the Riesz-type family along both routes.

    Route one maps the basis through E^{-1}, applies V, and runs the
    controlled analysis over E; route two analyses {V b_j} directly over
    the identity mapping. The defining sums coincide term by term, so
    the spectra must agree to tol relative to the larger upper bound.
    """
    psi = e_riesz_family(v, e, basis, tol)
    riesz = ControlledEFrame(e, psi, u, tol).bounds
    direct_seq = hilbert.validated(basis, "basis") @ hilbert.validated(v, "v").T
    direct = ControlledEFrame(identity_mapping(e.n), direct_seq, u, tol).bounds
    dev = float(max(abs(riesz.lo - direct.lo), abs(riesz.hi - direct.hi)))
    agree = dev <= tol * max(abs(riesz.hi), abs(direct.hi))
    return RieszEquivalenceReport(riesz, direct, dev, bool(agree))

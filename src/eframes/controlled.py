"""Controlled frames over a matrix mapping: the controlled frame
operator and bounds, the operator identities behind them, Parseval and
commutation criteria, canonical and parametrized dual families, and
certificates for candidate duals.

The controlled frame operator is implemented linearly in f,

    S f = sum_n <f, (E psi)_n> U (E psi)_n,

so S = U S_plain = T_u T*, where T_u has U (E psi)_n as column n. The
conjugate pairing sum_n <(E psi)_n, f> <f, U (E psi)_n> appearing in
the bound inequality is the complex conjugate of <S f, f>; both agree
on the real part, which is what the bounds constrain.

Dual families come in two complete parametrizations: right inverses
(maps V with T_u V* = id) and null-space offsets (maps V with
T_u V = 0 added to the canonical dual). Generators and the inverse
extraction are provided for both.

Everything works from one prepared record per (E, psi, U, tol),
ControlledEFrame. Its constructor validates the inputs and applies E
to psi once. S_E, S, the bounds and verdict, T_u, pinv(T_u) and S^{-1}
are each computed on first use and cached; all of them are d x d or
d x N, so no N x N array is cached. The module-level functions build a
record per call; to run several operations on one problem, build the
record once and call its methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import hilbert
from .eframe import FRAME, EFrameRecord, e_riesz_family, frame_record
from .errors import DualConditionError, NotAFrameError, NotHermitianError
from .hilbert import DEFAULT_SEED, DEFAULT_TOL, DEFAULT_TRIALS, SpectralBounds
from .mapping import (
    MatrixMapping,
    apply_inverse_mapping,
    apply_mapping,
    identity_mapping,
)

CONTROLLED_FRAME = "controlled-frame"
INVALID = "invalid"


@dataclass(frozen=True)
class IdentityReport:
    """Deviations of the three structural operator identities (identity_errors)."""

    err_sue_use: float
    err_commute: float
    err_switched_sum: float


@dataclass(frozen=True)
class DualCertificate:
    """Residual evidence that a family reconstructs, in one orientation."""

    orientation: str
    max_residual: float
    trials: int
    verdict: bool


@dataclass(frozen=True)
class RieszEquivalenceReport:
    """Controlled bounds computed along both routes of the Riesz equivalence."""

    riesz_bounds: SpectralBounds
    direct_bounds: SpectralBounds
    max_deviation: float
    agree: bool


@dataclass(frozen=True)
class ControlledEFrame:
    """One (mapping, sequence, control operator, tolerance) problem.

    Construction checks tol, psi and U (hilbert.require_positive and
    hilbert.validated) and applies the mapping to psi once; everything
    else is computed on first use and cached.
    """

    mapping: MatrixMapping
    psi: np.ndarray
    u: np.ndarray
    tol: float = DEFAULT_TOL
    images: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "tol", hilbert.require_positive(self.tol, "tol"))
        psi = hilbert.require_shape(self.psi, "psi", (self.mapping.n, None))
        images = hilbert.frozen(apply_mapping(self.mapping, psi))
        u = hilbert.validated(self.u, "u", (images.shape[1],) * 2)
        object.__setattr__(self, "psi", hilbert.readonly(psi))
        object.__setattr__(self, "u", hilbert.readonly(u))
        object.__setattr__(self, "images", images)

    @cached_property
    def s_e(self) -> np.ndarray:
        """S_E = T T*, the plain frame operator."""
        return hilbert.frozen(self.images.T @ self.images.conj())

    @cached_property
    def plain(self) -> EFrameRecord:
        """The E-frame half: bounds and verdict of S_E."""
        return frame_record(self.mapping, self.psi, self.images, self.s_e, self.tol)

    @cached_property
    def s_ue(self) -> np.ndarray:
        """f -> sum_n <f, (E psi)_n> U (E psi)_n, equal to U S_E."""
        return hilbert.frozen(self.u @ self.s_e)

    @cached_property
    def _spectrum(self) -> tuple[bool, SpectralBounds]:
        return hilbert.hermitian_spectrum(self.s_ue, self.tol)

    @property
    def bounds(self) -> SpectralBounds:
        """Extreme eigenvalues of the Hermitian part of S_ue."""
        return self._spectrum[1]

    @property
    def verdict(self) -> str:
        """``controlled-frame`` iff S_ue is Hermitian to tol and positive
        (SpectralBounds.positive), else ``invalid``."""
        hermitian, bounds = self._spectrum
        return CONTROLLED_FRAME if hermitian and bounds.positive(self.tol) else INVALID

    def require_valid(self) -> None:
        if self.verdict != CONTROLLED_FRAME:
            raise NotAFrameError(
                "family is not a controlled frame: operator not Hermitian positive"
            )

    @cached_property
    def t_u(self) -> np.ndarray:
        """Synthesis map whose column n is U applied to the image (E psi)_n."""
        return hilbert.frozen(self.u @ self.images.T)

    @cached_property
    def t_u_pinv(self) -> np.ndarray:
        """Pseudoinverse of T_u; singular values below tol * sigma_max are cut."""
        return hilbert.frozen(hilbert.pseudoinverse(self.t_u, self.tol))

    @cached_property
    def s_inv(self) -> np.ndarray:
        """S_ue^{-1}; the valid verdict it requires bounds S_ue from singular."""
        self.require_valid()
        return hilbert.frozen(np.linalg.inv(self.s_ue))

    def is_parseval(self) -> bool:
        """True iff S_ue is the identity to tol * sqrt(d)."""
        d = self.s_ue.shape[0]
        return bool(np.linalg.norm(self.s_ue - np.eye(d)) <= self.tol * np.sqrt(d))

    def identity_errors(
        self, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED
    ) -> IdentityReport:
        """Measure the structural identities behind a valid controlled frame.

        err_sue_use compares the summation route for the controlled frame
        operator against the product U S and err_commute measures
        ||U S - S U*||, both relative to ||S||_F; err_switched_sum is absolute:
        the worst residual, over unit trial vectors, between the sum and its
        switched counterpart with U moved to the coefficient side.
        """
        trials = hilbert.require_positive(trials, "trials", integer=True)
        self.require_valid()
        images, t_u = self.images, self.t_u
        f = hilbert.trial_vectors(images.shape[1], trials, seed)
        lhs = hilbert.trial_sums(t_u, images, f)  # last d columns: summed S
        rhs = hilbert.trial_sums(images.T, t_u.T, f)
        scale = np.linalg.norm(self.s_ue)
        err_sue_use = float(np.linalg.norm(lhs[:, trials:] - self.s_ue) / scale)
        err_commute = np.linalg.norm(self.s_ue - self.s_e @ self.u.conj().T) / scale
        err_commute = float(err_commute)
        err_switched = float(np.max(np.linalg.norm(lhs - rhs, axis=0)))
        return IdentityReport(err_sue_use, err_commute, err_switched)

    def commutation_criterion(self) -> bool:
        """For self-adjoint U: controlled frame iff plain frame, U commutes
        with the frame operator, and U is positive definite."""
        hermitian, u_bounds = hilbert.hermitian_spectrum(self.u, self.tol)
        if not hermitian:
            raise NotHermitianError("control operator must be Hermitian to tolerance")
        if self.plain.verdict != FRAME:
            return False
        commutator = np.linalg.norm(self.s_ue - self.s_e @ self.u)
        if commutator > self.tol * np.linalg.norm(self.s_ue):
            return False
        return u_bounds.positive(self.tol)

    def canonical_reconstruct(self, f) -> np.ndarray:
        """sum_n <S^{-1} f, (E psi)_n> U (E psi)_n, which returns f."""
        y = self.s_inv @ hilbert.validated(f, "f", self.images.shape[1:])
        return self.t_u @ (self.images.conj() @ y)

    def canonical_dual(self) -> np.ndarray:
        """Canonical controlled dual {S^{-*} psi_k}, which is {S^{-1} psi_k} for a
        Hermitian S. Its synthesis map D has T_u D* = S S^{-1} = id even when S
        is Hermitian only to tol."""
        return self.psi @ self.s_inv.conj()

    def images_of(self, phi) -> np.ndarray:
        """Images (E phi)_n of a candidate family shaped like psi."""
        phi = hilbert.require_shape(phi, "phi", self.psi.shape)
        return apply_mapping(self.mapping, phi)

    def certify(
        self, images_phi, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
        tol: float | None = None,
    ) -> tuple[DualCertificate, DualCertificate]:
        """Certify the family with images images_phi as a controlled dual.

        Definitional orientation: f = sum_n <f, (E phi)_n> U (E psi)_n.
        Switched orientation exchanges the roles of psi and phi. Residuals
        are evaluated on `trials` random unit vectors plus the standard
        basis; a certificate passes when the worst residual is at most
        tol (by default the record's) times the Frobenius norms of the
        synthesis and analysis maps of the sum (hilbert.backward_ok).
        """
        trials = hilbert.require_positive(trials, "trials", integer=True)
        tol = self.tol if tol is None else hilbert.require_positive(tol, "tol")
        images_phi = hilbert.validated(images_phi, "images_phi", self.images.shape)
        f = hilbert.trial_vectors(self.images.shape[1], trials, seed)

        def certificate(orientation, synthesis, analysis):
            block = hilbert.trial_sums(synthesis, analysis, f)
            res = hilbert.worst_residual(block, f, 1.0)
            ok = hilbert.backward_ok(res, synthesis, analysis, tol)
            return DualCertificate(orientation, res, block.shape[1], ok)

        return (
            certificate("definitional", self.t_u, images_phi),
            certificate("switched", self.u @ images_phi.T, self.images),
        )

    def dual_from_right_inverse(self, v) -> np.ndarray:
        """Dual family built from a right inverse: member k is
        (E^{-1} {V delta_n})_k for V with T_u V* = id.

        V is a (d, N) map from coefficients into the space; its columns are
        the V delta_n. Unless hilbert.backward_ok accepts ||T V* - id||_F
        against T and V, raises DualConditionError carrying ||T V* - id||.
        """
        v = hilbert.validated(v, "v", self.t_u.shape)
        gap = self.t_u @ v.conj().T - np.eye(self.t_u.shape[0])
        if not hilbert.backward_ok(np.linalg.norm(gap), self.t_u, v, self.tol):
            dev = hilbert.operator_norm(gap)
            raise DualConditionError(
                f"right-inverse condition violated: ||T V* - id|| = {dev:.3e}",
                deviation=dev,
            )
        return apply_inverse_mapping(self.mapping, v.T)

    def dual_with_offset(self, v) -> np.ndarray:
        """Dual family as canonical dual plus the offset (E^{-1} {V* delta_n})_k
        for a null map V with T_u V = 0.

        V is an (N, d) map from the space into coefficients. V = 0 gives
        the canonical dual back. Unless hilbert.backward_ok accepts
        ||T_u V||_F against T_u and V, raises DualConditionError carrying ||T_u V||.
        """
        v = hilbert.validated(v, "v", self.images.shape)
        product = self.t_u @ v
        if not hilbert.backward_ok(np.linalg.norm(product), self.t_u, v, self.tol):
            dev = hilbert.operator_norm(product)
            raise DualConditionError(
                f"null condition violated: ||T V|| = {dev:.3e}", deviation=dev
            )
        return self.canonical_dual() + apply_inverse_mapping(self.mapping, v.conj())

    def random_null_map(self, seed: int = 0) -> np.ndarray:
        """Seeded member of the null-map family: G - pinv(T_u) (T_u G), the
        projection of a random (N, d) map G onto the kernel of T_u."""
        self.require_valid()
        n, d = self.images.shape
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        return g - self.t_u_pinv @ (self.t_u @ g)

    def random_right_inverse(self, seed: int = 0) -> np.ndarray:
        """Seeded right inverse V with T_u V* = id.

        V* = pinv(T_u) + (id - pinv(T_u) T_u) G over random G runs through
        every solution as G varies, so seeding G samples the whole family.
        """
        null = self.random_null_map(seed)
        return (self.t_u_pinv + null).conj().T

    def null_map(self, images_phi, cert: DualCertificate) -> np.ndarray:
        """Null map generating a given dual: V = T_phi* - T_psi* S^{-1}.

        cert is the definitional certificate of phi; when it fails, phi is
        no controlled dual and DualConditionError is raised.
        dual_with_offset applied to the result reproduces phi.
        """
        images_phi = hilbert.validated(images_phi, "images_phi", self.images.shape)
        if not cert.verdict:
            raise DualConditionError(
                f"family is not a controlled dual: residual {cert.max_residual:.3e}",
                deviation=cert.max_residual,
            )
        return images_phi.conj() - self.images.conj() @ self.s_inv


def controlled_synthesis(e: MatrixMapping, psi, u) -> np.ndarray:
    """Synthesis map whose column n is U applied to the image (E psi)_n."""
    return ControlledEFrame(e, psi, u).t_u.copy()


def controlled_frame_operator(e: MatrixMapping, psi, u) -> np.ndarray:
    """f -> sum_n <f, (E psi)_n> U (E psi)_n, equal to U composed with
    the plain frame operator."""
    return ControlledEFrame(e, psi, u).s_ue.copy()


def controlled_bounds(
    e: MatrixMapping, psi, u, tol: float = DEFAULT_TOL
) -> ControlledEFrame:
    """Controlled frame bounds and verdict: the prepared record itself."""
    return ControlledEFrame(e, psi, u, tol)


def identity_errors(
    e: MatrixMapping, psi, u, trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED, tol: float = DEFAULT_TOL,
) -> IdentityReport:
    """See ControlledEFrame.identity_errors."""
    return ControlledEFrame(e, psi, u, tol).identity_errors(trials, seed)


def commutation_criterion(e: MatrixMapping, psi, u, tol: float = DEFAULT_TOL) -> bool:
    """See ControlledEFrame.commutation_criterion."""
    return ControlledEFrame(e, psi, u, tol).commutation_criterion()


def is_parseval(e: MatrixMapping, psi, u, tol: float = DEFAULT_TOL) -> bool:
    """True iff the controlled frame operator is the identity to tol * sqrt(d)."""
    return ControlledEFrame(e, psi, u, tol).is_parseval()


def canonical_reconstruct(
    e: MatrixMapping, psi, u, f, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """sum_n <S^{-1} f, (E psi)_n> U (E psi)_n, which returns f."""
    return ControlledEFrame(e, psi, u, tol).canonical_reconstruct(f)


def canonical_dual(e: MatrixMapping, psi, u, tol: float = DEFAULT_TOL) -> np.ndarray:
    """See ControlledEFrame.canonical_dual."""
    return ControlledEFrame(e, psi, u, tol).canonical_dual()


def verify_dual(
    e: MatrixMapping, psi, phi, u, trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED, tol: float = DEFAULT_TOL,
) -> tuple[DualCertificate, DualCertificate]:
    """Certify phi as a controlled dual of psi in both orientations; see
    ControlledEFrame.certify."""
    record = ControlledEFrame(e, psi, u, tol)
    return record.certify(record.images_of(phi), trials, seed)


def dual_from_right_inverse(
    e: MatrixMapping, psi, u, v, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """See ControlledEFrame.dual_from_right_inverse."""
    return ControlledEFrame(e, psi, u, tol).dual_from_right_inverse(v)


def dual_with_offset(
    e: MatrixMapping, psi, u, v, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """See ControlledEFrame.dual_with_offset."""
    return ControlledEFrame(e, psi, u, tol).dual_with_offset(v)


def random_null_map(
    e: MatrixMapping, psi, u, seed: int = 0, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """See ControlledEFrame.random_null_map."""
    return ControlledEFrame(e, psi, u, tol).random_null_map(seed)


def random_right_inverse(
    e: MatrixMapping, psi, u, seed: int = 0, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """See ControlledEFrame.random_right_inverse."""
    return ControlledEFrame(e, psi, u, tol).random_right_inverse(seed)


def extract_null_map(
    e: MatrixMapping, psi, phi, u, trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED, tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Recover the null map generating a given dual: V = T_phi* - T_psi* S^{-1}.

    Requires phi to verify as a controlled dual in the definitional
    orientation at tol; dual_with_offset applied to the result
    reproduces phi.
    """
    record = ControlledEFrame(e, psi, u, tol)
    images_phi = record.images_of(phi)
    cert, _ = record.certify(images_phi, trials, seed)
    return record.null_map(images_phi, cert)


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
    direct_seq = np.asarray(basis, dtype=complex) @ np.asarray(v, dtype=complex).T
    direct = ControlledEFrame(identity_mapping(e.n), direct_seq, u, tol).bounds
    dev = float(max(abs(riesz.lo - direct.lo), abs(riesz.hi - direct.hi)))
    agree = dev <= tol * max(abs(riesz.hi), abs(direct.hi))
    return RieszEquivalenceReport(riesz, direct, dev, bool(agree))

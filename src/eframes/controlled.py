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

Everything works from one prepared record per (E, psi, U, settings),
ControlledEFrame, the one place a family is prepared and judged: its plain
half, an EFrameRecord (images, S_E, bounds, verdict), is FRAME or BESSEL_ONLY,
and the record CONTROLLED_FRAME or INVALID. Its constructor validates the
inputs and applies E to psi once. S_E, S, the bounds (whose hermitian field the
verdict reads), T_u, pinv(T_u) and S^{-1} are each computed on first use and
cached; all are d x d or d x N, so no N x N array is cached. The verdict is the
one rank rule: pinv(T_u) and S^{-1} require it, and it makes S = T_u T*
invertible, so T_u has full rank d and its pseudoinverse cuts no singular
value. Its settings (tol, trials, seed) are fields checked once at construction;
its methods take data only, bar certify's derived tol. The module-level functions
build a record per call (controlled_bounds and verify_dual take all three settings,
the generators a seed); to run several operations on one problem, build it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import hilbert
from .errors import DualConditionError, NotAFrameError
from .hilbert import DEFAULT_SEED, DEFAULT_TOL, DEFAULT_TRIALS, SpectralBounds
from .mapping import MatrixMapping, apply_inverse_mapping, apply_mapping

FRAME = "frame"
BESSEL_ONLY = "bessel-only"
CONTROLLED_FRAME = "controlled-frame"
INVALID = "invalid"


@dataclass(frozen=True)
class EFrameRecord:
    """The E-frame half of a record, ControlledEFrame.plain: its own results only."""

    images: np.ndarray
    frame_op: np.ndarray
    bounds: SpectralBounds
    verdict: str


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
class ControlledEFrame:
    """One (mapping, sequence, control operator) problem and its settings.

    Construction checks tol, trials, seed, psi and U (hilbert.require_tol,
    require_positive, require_seed and validated) and applies the mapping to
    psi once; everything else is computed on first use and cached.
    """

    mapping: MatrixMapping
    psi: np.ndarray
    u: np.ndarray
    tol: float = DEFAULT_TOL
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    images: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "tol", hilbert.require_tol(self.tol))
        trials = hilbert.require_positive(self.trials, "trials", integer=True)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", hilbert.require_seed(self.seed, "seed"))
        psi = hilbert.readonly(hilbert.validated(self.psi, "psi", (self.mapping.n, None)))
        images = hilbert.frozen(apply_mapping(self.mapping, psi))
        u = hilbert.validated(self.u, "u", (images.shape[1],) * 2)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "u", hilbert.readonly(u))
        object.__setattr__(self, "images", images)

    @cached_property
    def s_e(self) -> np.ndarray:
        """S_E = T T*, the plain frame operator; an overflow is an input error."""
        return hilbert.frozen(hilbert.finite(np.matmul, self.images.T, self.images.conj()))

    @cached_property
    def plain(self) -> EFrameRecord:
        """The E-frame half, the one maker of an EFrameRecord: hermitian_bounds
        of S_E at the record's tol, and ``frame`` iff they are positive."""
        bounds = hilbert.hermitian_bounds(self.s_e, self.tol)
        verdict = FRAME if bounds.positive(self.tol) else BESSEL_ONLY
        return EFrameRecord(self.images, self.s_e, bounds, verdict)

    @cached_property
    def s_ue(self) -> np.ndarray:
        """f -> sum_n <f, (E psi)_n> U (E psi)_n, equal to U S_E."""
        return hilbert.frozen(hilbert.finite(np.matmul, self.u, self.s_e))

    @cached_property
    def bounds(self) -> SpectralBounds:
        """hermitian_spectrum of S_ue: the extreme eigenvalues of its Hermitian
        part, and whether S_ue is Hermitian to tol."""
        return hilbert.hermitian_spectrum(self.s_ue, self.tol)

    @property
    def verdict(self) -> str:
        """``controlled-frame`` iff S_ue is Hermitian to tol (bounds.hermitian) and
        positive (SpectralBounds.positive), else ``invalid``."""
        ok = self.bounds.hermitian and self.bounds.positive(self.tol)
        return CONTROLLED_FRAME if ok else INVALID

    def require_valid(self) -> None:
        if self.verdict != CONTROLLED_FRAME:
            raise NotAFrameError(
                "family is not a controlled frame: operator not Hermitian positive"
            )

    @cached_property
    def t_u(self) -> np.ndarray:
        """Synthesis map whose column n is U applied to the image (E psi)_n."""
        return hilbert.frozen(hilbert.finite(np.matmul, self.u, self.images.T))

    @cached_property
    def t_u_pinv(self) -> np.ndarray:
        """Pseudoinverse of T_u, no singular value cut: the valid verdict it
        requires gives T_u full rank d, so this is a right inverse of T_u."""
        self.require_valid()
        return hilbert.frozen(np.linalg.pinv(self.t_u, rcond=0.0))

    @cached_property
    def s_inv(self) -> np.ndarray:
        """S_ue^{-1}; the valid verdict it requires bounds S_ue from singular."""
        self.require_valid()
        return hilbert.frozen(np.linalg.inv(self.s_ue))

    def is_parseval(self) -> bool:
        """True iff S_ue is the identity to tol (hilbert.close)."""
        return hilbert.close(self.s_ue, np.eye(self.s_ue.shape[0]), self.tol)

    def identity_errors(self) -> IdentityReport:
        """Measure the structural identities behind a valid controlled frame.

        err_sue_use compares the summation route for the controlled frame
        operator against the product U S and err_commute measures
        ||U S - S U*||, both relative to ||S||_F; err_switched_sum is absolute:
        the worst residual, over unit trial vectors, between the sum and its
        switched counterpart with U moved to the coefficient side.
        """
        f = hilbert.trial_vectors(self.images.shape[1], self.trials, self.seed)
        self.require_valid()
        lhs = hilbert.trial_sums(self.t_u, self.images, f)  # (sums of f, summed S)
        rhs = hilbert.trial_sums(self.images.T, self.t_u.T, f)
        scale = hilbert.frobenius(self.s_ue)
        err_sue_use = hilbert.frobenius(lhs[1] - self.s_ue) / scale
        err_commute = hilbert.frobenius(self.s_ue - self.s_e @ self.u.conj().T) / scale
        err_switched = hilbert.worst_residual([a - b for a, b in zip(lhs, rhs)], f, 0.0)
        return IdentityReport(err_sue_use, err_commute, err_switched)

    def commutation_criterion(self) -> bool:
        """For self-adjoint U: controlled frame iff plain frame, U commutes
        with the frame operator, and U is positive definite. Raises
        NotHermitianError for a U that is not Hermitian to tol."""
        positive = hilbert.hermitian_bounds(self.u, self.tol).positive(self.tol)
        if self.plain.verdict != FRAME:
            return False
        return positive and hilbert.close(self.s_e @ self.u, self.s_ue, self.tol)

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
        phi = hilbert.validated(phi, "phi", self.psi.shape)
        return apply_mapping(self.mapping, phi)

    def certify(
        self, images_phi, tol: float | None = None
    ) -> tuple[DualCertificate, DualCertificate]:
        """Certify the family with images images_phi as a controlled dual.

        Definitional orientation: f = sum_n <f, (E phi)_n> U (E psi)_n.
        Switched orientation exchanges the roles of psi and phi. Residuals
        are evaluated on the record's trials random unit vectors plus the
        standard basis; a certificate passes when the worst residual is at
        most tol (by default the record's) times the Frobenius norms of the
        synthesis and analysis maps of the sum (hilbert.backward_ok).
        """
        tol = self.tol if tol is None else hilbert.require_tol(tol)
        images_phi = hilbert.validated(images_phi, "images_phi", self.images.shape)
        f = hilbert.trial_vectors(self.images.shape[1], self.trials, self.seed)

        def certificate(orientation, synthesis, analysis):
            sums = hilbert.finite(hilbert.trial_sums, synthesis, analysis, f)
            res = hilbert.worst_residual(sums, f, 1.0)
            ok = hilbert.backward_ok(res, synthesis, analysis, tol)
            return DualCertificate(orientation, res, self.trials + f.shape[0], ok)

        switched = hilbert.finite(np.matmul, self.u, images_phi.T)
        return (
            certificate("definitional", self.t_u, images_phi),
            certificate("switched", switched, self.images),
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
        self._require_backward_ok(gap, v, "right-inverse condition violated: ||T V* - id||")
        return apply_inverse_mapping(self.mapping, v.T)

    def dual_with_offset(self, v) -> np.ndarray:
        """Dual family as canonical dual plus the offset (E^{-1} {V* delta_n})_k
        for a null map V with T_u V = 0.

        V is an (N, d) map from the space into coefficients. V = 0 gives
        the canonical dual back. Unless hilbert.backward_ok accepts
        ||T_u V||_F against T_u and V, raises DualConditionError carrying ||T_u V||.
        """
        v = hilbert.validated(v, "v", self.images.shape)
        self._require_backward_ok(self.t_u @ v, v, "null condition violated: ||T V||")
        return self.canonical_dual() + apply_inverse_mapping(self.mapping, v.conj())

    def _require_backward_ok(self, residual, v, quantity: str) -> None:
        """The generators' one rejection: unless hilbert.backward_ok accepts
        ||residual||_F against T_u and V, DualConditionError naming the
        quantity and carrying its spectral norm."""
        if not hilbert.backward_ok(hilbert.frobenius(residual), self.t_u, v, self.tol):
            dev = hilbert.operator_norm(residual)
            raise DualConditionError(f"{quantity} = {dev:.3e}", deviation=dev)

    def random_null_map(self) -> np.ndarray:
        """Member of the null-map family: G - pinv(T_u) (T_u G), the projection of a random
        (N, d) map G, drawn from the record's seed, onto the kernel of T_u, {0} at N = d."""
        rng = np.random.default_rng(self.seed)
        self.require_valid()
        n, d = self.images.shape
        if n == d:  # exact: the projection would leave rounding noise alone
            return np.zeros((n, d), dtype=np.complex128)
        g = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        return g - self.t_u_pinv @ (self.t_u @ g)

    def random_right_inverse(self) -> np.ndarray:
        """Seeded right inverse V with T_u V* = id.

        V* = pinv(T_u) + (id - pinv(T_u) T_u) G over random G runs through
        every solution as G varies, so the record's seed samples the whole family.
        """
        null = self.random_null_map()
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
        out = self.images.conj() @ self.s_inv
        return np.subtract(images_phi.conj(), out, out=out)


def controlled_bounds(
    e: MatrixMapping, psi, u, tol: float = DEFAULT_TOL, trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> ControlledEFrame:
    """Controlled frame bounds and verdict: the prepared record itself."""
    return ControlledEFrame(e, psi, u, tol, trials, seed)


def identity_errors(e: MatrixMapping, psi, u) -> IdentityReport:
    """See ControlledEFrame.identity_errors."""
    return ControlledEFrame(e, psi, u).identity_errors()


def commutation_criterion(e: MatrixMapping, psi, u) -> bool:
    """See ControlledEFrame.commutation_criterion."""
    return ControlledEFrame(e, psi, u).commutation_criterion()


def is_parseval(e: MatrixMapping, psi, u) -> bool:
    """See ControlledEFrame.is_parseval."""
    return ControlledEFrame(e, psi, u).is_parseval()


def canonical_dual(e: MatrixMapping, psi, u) -> np.ndarray:
    """See ControlledEFrame.canonical_dual."""
    return ControlledEFrame(e, psi, u).canonical_dual()


def verify_dual(
    e: MatrixMapping, psi, phi, u, trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED, tol: float = DEFAULT_TOL,
) -> tuple[DualCertificate, DualCertificate]:
    """Certify phi as a controlled dual of psi in both orientations; see
    ControlledEFrame.certify."""
    record = ControlledEFrame(e, psi, u, tol, trials, seed)
    return record.certify(record.images_of(phi))


def dual_from_right_inverse(e: MatrixMapping, psi, u, v) -> np.ndarray:
    """See ControlledEFrame.dual_from_right_inverse."""
    return ControlledEFrame(e, psi, u).dual_from_right_inverse(v)


def dual_with_offset(e: MatrixMapping, psi, u, v) -> np.ndarray:
    """See ControlledEFrame.dual_with_offset."""
    return ControlledEFrame(e, psi, u).dual_with_offset(v)


def random_null_map(e: MatrixMapping, psi, u, seed: int = 0) -> np.ndarray:
    """See ControlledEFrame.random_null_map."""
    return ControlledEFrame(e, psi, u, seed=seed).random_null_map()


def random_right_inverse(e: MatrixMapping, psi, u, seed: int = 0) -> np.ndarray:
    """See ControlledEFrame.random_right_inverse."""
    return ControlledEFrame(e, psi, u, seed=seed).random_right_inverse()


def extract_null_map(e: MatrixMapping, psi, phi, u) -> np.ndarray:
    """Recover the null map generating a given dual: V = T_phi* - T_psi* S^{-1}.

    Requires phi to verify as a controlled dual in the definitional
    orientation; dual_with_offset applied to the result reproduces phi.
    """
    record = ControlledEFrame(e, psi, u)
    images_phi = record.images_of(phi)
    return record.null_map(images_phi, record.certify(images_phi)[0])

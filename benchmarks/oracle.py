"""Correctness oracle for the benchmark, independent of the library.

Everything here is recomputed from the raw inputs the benchmark
generated (dense arrays and mapping descriptions), with numpy only;
nothing calls into eframes. Duals are judged by their normwise
relative backward error

    ||T_u D* - I||_2 / (||T_u||_2 ||D||_2)

(Higham, Accuracy and Stability of Numerical Algorithms, ch. 7),
where T_u is the controlled synthesis map of psi and D the synthesis
map of the candidate, so the verdict does not depend on the scale of
psi. Bounds are compared to this module's own eigvalsh, normwise
(relative to the largest eigenvalue). The worked example's residuals
are recomputed from the paper's families with this module's own
mapping application.

A check returns None when the output is right, or a Finding. A
finding is "wrong" when the library returned an answer it presented
as valid and the oracle shows it is not (wrong numbers, a passing
verdict or exit 0 on an input that should fail). It is "refused" when
the library declined a valid input: an exception, a failing verdict
or exit code on something the oracle shows to be valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh as _eigh
from numpy.linalg import eigvalsh as _eigvalsh
from numpy.linalg import svd as _svd

#: Largest accepted relative backward error of a dual. Measured at seed
#: (seeds 1-4), exact canonical duals reach at most 2.5e-12 on
#: lib-session inputs and 7e-16 on cli-tall; a rho-scaled dual sits at
#: |1 - rho| / (||T_u|| ||D||), above 1e-6 on every input.
DUAL_BACKWARD_TOL = 1e-8
#: Forward errors (canonical dual, recovered null map) may grow with the
#: conditioning: accepted up to this times cond(S). Measured at seed,
#: they stay below 2e-15 cond(S), with cond(S) up to 1.4e8.
FORWARD_PER_COND = 1e-11
#: Normwise relative tolerance for bounds against the oracle's spectrum.
BOUNDS_RTOL = 1e-9
#: Relative tolerance for the library's relative identity errors.
IDENTITY_TOL = 1e-9
#: Relative error accepted from iterative_reconstruct, which stops at a
#: true residual of 1e-10 ||f||.
RECONSTRUCTION_TOL = 1e-8
#: ||S_ue - I||_F / sqrt(d) up to which a family counts as Parseval.
PARSEVAL_TOL = 1e-10
#: The worked example's four sums equal their targets exactly, so a
#: reported residual is rounding error alone, and a different order of
#: evaluation gives a different one (0 against 1.4e-17 at dim 256).
#: Each entry of a sum has at most two nonzero terms of size at most
#: 2 |f_i|, so on unit trial vectors every order stays within a few eps;
#: residuals are compared to the oracle's own up to this.
PAPER_RESIDUAL_ATOL = 16 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class Finding:
    kind: str  # "wrong" or "refused"
    reason: str


def wrong(reason: str) -> Finding:
    return Finding("wrong", reason)


def refused(reason: str) -> Finding:
    return Finding("refused", reason)


# ---------------------------------------------------------------- mappings


def apply_bidiagonal(seq: np.ndarray) -> np.ndarray:
    """(E seq) for E = 1 on the diagonal, -1 on the first subdiagonal."""
    out = seq.copy()
    out[1:] -= seq[:-1]
    return out


def apply_banded(diagonals: dict[int, np.ndarray], seq: np.ndarray) -> np.ndarray:
    """(E seq) for E with values[i] at (i, i + off) (off >= 0) or
    (i - off, i) (off < 0), the layout of numpy.diag."""
    n = seq.shape[0]
    out = np.zeros_like(seq)
    for off, vals in diagonals.items():
        if off >= 0:
            out[: n - off] += vals[:, None] * seq[off:]
        else:
            k = -off
            out[k:] += vals[:, None] * seq[: n - k]
    return out


# ---------------------------------------------------------------- reference


def spectral_norm(a: np.ndarray) -> float:
    return float(_svd(a, compute_uv=False)[0])


class Reference:
    """Oracle quantities for one (mapping, psi, U) triple.

    `apply` maps a sequence to its images under E with the caller's own
    code (never the library's).
    """

    def __init__(self, apply, psi: np.ndarray, u: np.ndarray):
        self.apply = apply
        self.psi = psi
        self.u = u
        self.images = apply(psi)
        self.s_e = self.images.T @ self.images.conj()
        self.s_e = (self.s_e + self.s_e.conj().T) / 2.0
        self.s_ue = u @ self.s_e
        herm = (self.s_ue + self.s_ue.conj().T) / 2.0
        self.e_bounds = tuple(float(x) for x in _eigvalsh(self.s_e)[[0, -1]])
        self.c_bounds = tuple(float(x) for x in _eigvalsh(herm)[[0, -1]])
        self.cond = self.c_bounds[1] / self.c_bounds[0]
        self.t_u = u @ self.images.T
        self.t_u_norm = spectral_norm(self.t_u)
        d = psi.shape[1]
        self.parseval = bool(
            np.linalg.norm(self.s_ue - np.eye(d)) <= PARSEVAL_TOL * math.sqrt(d)
        )

    def canonical_dual(self) -> np.ndarray:
        """psi_k -> S_ue^{-1} psi_k through this module's eigh of S_e.

        U commutes with S_e on every workload input, so
        S_ue^{-1} = S_e^{-1} U^{-1}.
        """
        w, v = _eigh(self.s_e)
        s_e_inv = (v / w) @ v.conj().T
        s_ue_inv = s_e_inv @ np.linalg.inv(self.u)
        return self.psi @ s_ue_inv.T

    def backward_error(self, phi: np.ndarray) -> float:
        """||T_u D* - I||_2 / (||T_u||_2 ||D||_2) for the candidate phi."""
        images_phi = self.apply(phi)
        d = self.psi.shape[1]
        one_step = self.t_u @ images_phi.conj()
        scale = self.t_u_norm * spectral_norm(images_phi.T)
        return spectral_norm(one_step - np.eye(d)) / scale

    # ------------------------------------------------------------ checks

    def check_dual(self, phi, what: str = "dual") -> Finding | None:
        phi = np.asarray(phi)
        if phi.shape != self.psi.shape:
            return wrong(f"{what} has shape {phi.shape}, expected {self.psi.shape}")
        if not np.isfinite(phi).all():
            return wrong(f"{what} has non-finite entries")
        err = self.backward_error(phi)
        if not err <= DUAL_BACKWARD_TOL:
            return wrong(f"{what} backward error {err:.3e} > {DUAL_BACKWARD_TOL:g}")
        return None

    def check_bounds(self, lo: float, hi: float, controlled: bool) -> Finding | None:
        ref_lo, ref_hi = self.c_bounds if controlled else self.e_bounds
        scale = max(abs(ref_hi), abs(ref_lo))
        dev = max(abs(lo - ref_lo), abs(hi - ref_hi))
        if not dev <= BOUNDS_RTOL * scale:
            which = "controlled" if controlled else "frame"
            return wrong(
                f"{which} bounds ({lo:.6e}, {hi:.6e}) differ from "
                f"({ref_lo:.6e}, {ref_hi:.6e}) by {dev / scale:.3e} relative"
            )
        return None

    def check_identity_errors(self, sue_use, commute, switched) -> Finding | None:
        # err_switched_sum is an absolute residual over unit vectors,
        # judged here relative to ||S_ue||.
        rel = (float(sue_use), float(commute), float(switched) / self.c_bounds[1])
        if not max(rel) <= IDENTITY_TOL:
            return wrong(f"identity errors {rel} exceed {IDENTITY_TOL:g}")
        return None

    def check_forward(self, value, expected, what: str) -> Finding | None:
        """Relative forward error against FORWARD_PER_COND * cond(S)."""
        err = float(np.linalg.norm(np.asarray(value) - expected) / np.linalg.norm(expected))
        if not err <= FORWARD_PER_COND * self.cond:
            return wrong(f"{what} differs by {err:.3e} relative (cond(S) {self.cond:.3e})")
        return None

    def check_reconstruction(self, approx, f) -> Finding | None:
        err = float(np.linalg.norm(np.asarray(approx) - f) / np.linalg.norm(f))
        if not err <= RECONSTRUCTION_TOL:
            return wrong(f"reconstruction error {err:.3e} > {RECONSTRUCTION_TOL:g}")
        return None


# ----------------------------------------------------------- paper example


def paper_families(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi, psi~ and phi of the paper's worked example, dim + 1 vectors of
    C^dim each: psi_1 = e1, psi_k = 2 e1 + e2 + ... + e_{k-1};
    psi~_1 = e1, psi~_k = 2 (e1 + ... + e_{k-1}); phi_1 = e1 / 3,
    phi_k = e1 + ... + e_{k-1}."""
    below = np.tri(dim + 1, dim, k=-1, dtype=np.complex128)  # e1 + ... + e_{k-1}
    psi, psi_tilde, phi = below.copy(), 2.0 * below, below.copy()
    psi[1:, 0] = 2.0
    psi[0, 0] = psi_tilde[0, 0] = 1.0
    phi[0, 0] = 1.0 / 3.0
    return psi, psi_tilde, phi


def trial_vectors(dim: int, trials: int, seed: int) -> np.ndarray:
    """The CLI's trial vectors as columns: `trials` unit vectors drawn
    from a complex Gaussian seeded with `seed`, then the standard basis."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((dim, trials)) + 1j * rng.standard_normal((dim, trials))
    return np.concatenate([f / np.linalg.norm(f, axis=0), np.eye(dim)], axis=1)


def _sparse_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the nonzero entries of a only."""
    rows, cols = np.nonzero(a)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    np.add.at(out, rows, a[rows, cols, None] * b[cols])
    return out


def paper_residuals(dim: int, trials: int, seed: int) -> dict[str, float]:
    """Largest column residual of each of the example's four sums,
    U T_a T_b^* f against its target, with U = I/2 where controlled."""
    psi, psi_tilde, phi = (apply_bidiagonal(x) for x in paper_families(dim))
    f = trial_vectors(dim, trials, seed)

    def sums(a, b):  # T_a T_b^* f = sum_k <f, b_k> a_k
        return _sparse_product(a.T, _sparse_product(b.conj(), f))

    pair, dual = sums(psi_tilde, psi), sums(psi, phi)
    residual = {
        "plain_psi_tilde": pair - 2.0 * f,
        "controlled_psi_tilde": 0.5 * pair - f,
        "plain_phi": dual - f,
        "controlled_phi": 0.5 * dual - 0.5 * f,
    }
    out = {name: float(np.linalg.norm(r, axis=0).max()) for name, r in residual.items()}
    if not max(out.values()) <= PAPER_RESIDUAL_ATOL:
        raise ValueError(f"the oracle's example families miss the paper's sums: {out}")
    return out


def check_paper_residuals(reported: dict, reference: dict[str, float]) -> Finding | None:
    """Reported residuals against the oracle's, up to rounding."""
    if set(reported) != set(reference):
        return wrong(f"residuals {sorted(reported)}, expected {sorted(reference)}")
    for name, value in reference.items():
        if not abs(reported[name] - value) <= PAPER_RESIDUAL_ATOL:
            return wrong(f"{name} residual {reported[name]:.3e}, oracle {value:.3e}")
    return None


def predicted_terms(ratio: float, eps: float) -> int:
    """ceil(log eps / log ratio): Neumann terms until a term falls to eps."""
    if ratio <= 0.0:
        return 1
    return math.ceil(math.log(eps) / math.log(ratio))


def expect_exit(code: int, expected: int) -> Finding | None:
    """Exit code check: 0 where 2 was due is a wrong pass, anything
    else unexpected is a refusal of valid input."""
    if code == expected:
        return None
    if code == 0:
        return wrong(f"exit 0, expected {expected}")
    return refused(f"exit {code}, expected {expected}")

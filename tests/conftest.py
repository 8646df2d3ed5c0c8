import numpy as np
import pytest

from eframes import gallery


class WorkedExample:
    """The d = 3 truncation of the built-in worked example."""

    def __init__(self):
        self.dim = 3
        self.count = 4
        self.mapping = gallery.example_mapping(3)
        self.psi = gallery.example_psi(3)
        self.psi_tilde = gallery.example_psi_tilde(3)
        self.phi = gallery.example_phi(3)
        self.u = gallery.example_u(3)


@pytest.fixture
def worked():
    return WorkedExample()


def inner(u, v) -> complex:
    """Oracle <u, v>: linear in u and conjugate-linear in v, as the library's sums."""
    return complex(np.vdot(v, u))


def dense_form(e) -> np.ndarray:
    """E as a dense N x N array, read through apply: mappings keep no dense view."""
    return e.apply(np.eye(e.n))


def dense_inverse(e) -> np.ndarray:
    """E^{-1} as a dense N x N array, read through apply_inverse."""
    return e.apply_inverse(np.eye(e.n))


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian direction normalized to unit norm."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_conditioned_matrix(rng, n, cond_max=1e3):
    """Random complex matrix with singular values inside [1/sqrt(c), sqrt(c)]."""
    a = random_complex(rng, (n, n))
    q1, _ = np.linalg.qr(a)
    q2, _ = np.linalg.qr(random_complex(rng, (n, n)))
    lo, hi = 1.0 / np.sqrt(cond_max), np.sqrt(cond_max)
    s = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    return q1 @ np.diag(s) @ q2.conj().T

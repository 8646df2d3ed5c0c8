"""Built-in worked example over the bidiagonal difference mapping.

At dimension d the mapping has size N = d + 1 so that the images of
the base family are [e1, e1, e2, ..., e_d], which span the space. The
three families reproduce the classical dual/non-dual constellation:
psi_tilde pairs with psi only under the halving control operator,
while phi pairs with psi only without it.
"""

from __future__ import annotations

import numpy as np

from .hilbert import require_positive
from .mapping import MatrixMapping, apply_inverse_mapping, build_bidiagonal

#: the halving control operator is U = CONTROL_SCALE * id
CONTROL_SCALE = 0.5


def _check_dim(dim: int) -> None:
    if require_positive(dim, "dim", integer=True) < 2:
        raise ValueError("worked example needs dimension >= 2 (at least e1 and e2)")


def example_mapping(dim: int) -> MatrixMapping:
    """Difference mapping of size dim + 1."""
    _check_dim(dim)
    return build_bidiagonal(dim + 1)


def _strictly_lower(dim: int) -> np.ndarray:
    """(dim + 1, dim) array whose row k, counted from 0, is e1 + ... + e_k."""
    return np.tril(np.ones((dim + 1, dim), dtype=np.complex128), -1)


def example_psi(dim: int) -> np.ndarray:
    """psi_1 = e1, psi_k = 2 e1 + e2 + ... + e_{k-1} for k >= 2."""
    _check_dim(dim)
    psi = _strictly_lower(dim)
    psi[:, 0] *= 2.0
    psi[0, 0] = 1.0
    return psi


def example_psi_tilde(dim: int) -> np.ndarray:
    """psi~_1 = e1, psi~_k = 2 (e1 + ... + e_{k-1}) for k >= 2."""
    _check_dim(dim)
    out = 2.0 * _strictly_lower(dim)
    out[0, 0] = 1.0
    return out


def example_phi(dim: int) -> np.ndarray:
    """phi_1 = e1 / 3, phi_k = e1 + ... + e_{k-1} for k >= 2."""
    _check_dim(dim)
    out = _strictly_lower(dim)
    out[0, 0] = 1.0 / 3.0
    return out


def example_u(dim: int) -> np.ndarray:
    """The halving control operator."""
    _check_dim(dim)
    return CONTROL_SCALE * np.eye(dim, dtype=np.complex128)


def example_parseval_psi(dim: int) -> np.ndarray:
    """Family whose images are [e1, e1, sqrt(2) e2, ..., sqrt(2) e_d].

    Together with the halving control operator this is Parseval: the
    plain frame operator is 2 id, the controlled one is id.
    """
    _check_dim(dim)
    images = np.zeros((dim + 1, dim), dtype=np.complex128)
    images[0, 0] = 1.0
    images[1, 0] = 1.0
    k = np.arange(2, dim + 1)
    images[k, k - 1] = np.sqrt(2.0)
    return apply_inverse_mapping(example_mapping(dim), images)

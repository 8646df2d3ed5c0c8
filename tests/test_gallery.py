import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import dense_form
from eframes import gallery, mapping


def loop_psi(dim):
    psi = np.zeros((dim + 1, dim), dtype=np.complex128)
    psi[0, 0] = 1.0
    for k in range(1, dim + 1):
        psi[k, 0] = 2.0
        psi[k, 1:k] = 1.0
    return psi


def loop_psi_tilde(dim):
    out = np.zeros((dim + 1, dim), dtype=np.complex128)
    out[0, 0] = 1.0
    for k in range(1, dim + 1):
        out[k, :k] = 2.0
    return out


def loop_phi(dim):
    out = np.zeros((dim + 1, dim), dtype=np.complex128)
    out[0, 0] = 1.0 / 3.0
    for k in range(1, dim + 1):
        out[k, :k] = 1.0
    return out


@pytest.mark.parametrize("dim", [2, 3, 4, 7, 64, 257])
def test_families_equal_their_loop_definitions(dim):
    assert np.array_equal(gallery.example_psi(dim), loop_psi(dim))
    assert np.array_equal(gallery.example_psi_tilde(dim), loop_psi_tilde(dim))
    assert np.array_equal(gallery.example_phi(dim), loop_phi(dim))


@pytest.mark.parametrize("dim", [2, 5, 33])
def test_parseval_family_images(dim):
    images = mapping.apply_mapping(
        gallery.example_mapping(dim), gallery.example_parseval_psi(dim)
    )
    expected = np.zeros((dim + 1, dim), dtype=np.complex128)
    expected[0, 0] = expected[1, 0] = 1.0
    expected[np.arange(2, dim + 1), np.arange(1, dim)] = np.sqrt(2.0)
    assert_allclose(images, expected, atol=1e-15)


@pytest.mark.parametrize(
    "family",
    [gallery.example_psi, gallery.example_psi_tilde, gallery.example_phi,
     gallery.example_parseval_psi],
)
def test_families_reject_dim_below_2(family):
    with pytest.raises(ValueError):
        family(1)


PUBLIC = [
    gallery.example_mapping, gallery.example_psi, gallery.example_psi_tilde,
    gallery.example_phi, gallery.example_u, gallery.example_parseval_psi,
]


@pytest.mark.parametrize("dim", [2.5, float("nan"), True, "3"])
@pytest.mark.parametrize("function", PUBLIC, ids=lambda f: f.__name__)
def test_dim_must_be_a_positive_integer(function, dim):
    with pytest.raises(ValueError, match=r"^dim must be a finite positive integer, got "):
        function(dim)


@pytest.mark.parametrize("function", PUBLIC, ids=lambda f: f.__name__)
def test_numpy_integer_dim_is_accepted(function):
    got, want = function(np.int64(4)), function(4)
    if isinstance(want, mapping.MatrixMapping):
        got, want = dense_form(got), dense_form(want)
    assert np.array_equal(got, want)


def test_control_scale_is_a_power_of_two():
    """paper-example reports each controlled residual as CONTROL_SCALE times the
    plain one; that product is exact only for a power of two."""
    assert math.frexp(gallery.CONTROL_SCALE)[0] == 0.5

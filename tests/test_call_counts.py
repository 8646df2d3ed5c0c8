"""Linear-algebra and mapping work per CLI command on the worked config.

Each command prepares its controlled problem once: E is applied to psi
once, and S is factorized at most once. The counts below are exact for
the d = 3 worked example over the bidiagonal mapping. The dual checks
and certificates take Frobenius norms only (hilbert.backward_ok), so a
command that succeeds runs no norm(ord=2) outside the Neumann ratio,
and S^{-1} is one inv with no SVD singularity test and no solve.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from eframes import controlled, eframe, gallery, mapping, neumann
from eframes.cli import main
from test_cli import pairs, write_config

LINALG = ("eigvalsh", "svd", "inv", "pinv", "solve")
APPLIES = ("apply_mapping", "apply_inverse_mapping")


@pytest.fixture
def counts(monkeypatch):
    """Counter of numpy.linalg factorizations, norm(ord=2) and mapping applies."""
    counter = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counter[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in LINALG:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    norm = np.linalg.norm

    def norm_wrapper(x, ord=None, *args, **kwargs):
        if ord == 2:
            counter["norm2"] += 1
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm_wrapper)
    for name in APPLIES:
        fn = getattr(mapping, name)
        wrapper = counting("apply", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("eframes") and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapper)
    return counter


def expected(apply, eigvalsh=0, svd=0, inv=0, pinv=0, norm2=0):
    return {"apply": apply, "eigvalsh": eigvalsh, "svd": svd, "inv": inv,
            "pinv": pinv, "norm2": norm2, "solve": 0}


CASES = {
    "analyze": (["analyze"], expected(1, eigvalsh=2)),
    "dual-canonical": (["dual", "--mode", "canonical"], expected(2, 1, inv=1)),
    "dual-right-inverse": (
        ["dual", "--mode", "right-inverse"], expected(3, eigvalsh=1, pinv=1)),
    "dual-offset": (["dual", "--mode", "offset"], expected(3, 1, inv=1, pinv=1)),
    "neumann": (["neumann", "--rho", "0.9"], expected(3, 1, inv=1, norm2=1)),
    "verify": (["verify"], expected(2)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_command_prepares_once(name, tmp_path, capsys, counts):
    argv, want = CASES[name]
    path = write_config(tmp_path, phi=pairs(gallery.example_psi_tilde(3)))
    assert main([argv[0], path, *argv[1:], "--format", "machine"]) == 0
    capsys.readouterr()
    assert {key: counts[key] for key in want} == want


def test_neumann_calls_read_no_spectrum(worked, counts):
    phi = 0.9 * worked.psi_tilde
    neumann.corrected_dual(worked.mapping, worked.psi, phi, worked.u)
    neumann.iterative_reconstruct(
        worked.mapping, worked.psi, phi, worked.u, np.ones(3, dtype=complex)
    )
    assert counts["eigvalsh"] == 0


def test_e_frame_bounds_is_one_apply_and_one_spectrum(worked, counts):
    """The plain bounds come from the prepared record: E applied once, one
    eigvalsh of S_E; the plain canonical dual adds the record's inv of S."""
    for call, want in ((eframe.e_frame_bounds, expected(1, eigvalsh=1)),
                       (eframe.e_canonical_dual, expected(1, eigvalsh=1, inv=1))):
        counts.clear()
        call(worked.mapping, worked.psi)
        assert {key: counts[key] for key in want} == want


def test_dense_build_is_one_inverse(counts):
    """The inverse the dense kind keeps is also its singularity test."""
    mapping.build_dense(np.eye(5) + np.eye(5, k=-1))
    want = {**dict.fromkeys(LINALG, 0), "inv": 1}
    assert {key: counts[key] for key in LINALG} == want


def test_canonical_reconstruct_reuses_the_inverse_of_s(worked, counts):
    record = controlled.ControlledEFrame(worked.mapping, worked.psi, worked.u)
    record.canonical_dual()
    before = {key: counts[key] for key in LINALG}
    record.canonical_reconstruct(np.ones(3, dtype=complex))
    assert {key: counts[key] for key in LINALG} == before


@pytest.mark.parametrize(
    "command, name", [("analyze", "controlled_bounds"), ("verify", "verify_dual")]
)
def test_cli_command_calls_its_module_function_once(
    command, name, tmp_path, capsys, monkeypatch
):
    """The benchmark's tracer counts controlled work by these module-level names."""
    calls = Counter()
    fn = getattr(controlled, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(controlled, name, counting)
    path = write_config(tmp_path, phi=pairs(gallery.example_psi_tilde(3)))
    assert main([command, path, "--format", "machine"]) == 0
    capsys.readouterr()
    assert calls == {name: 1}

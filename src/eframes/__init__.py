"""Frame analysis over invertible matrix mappings on C^d.

The library computes frame and controlled-frame bounds, canonical and
parametrized dual families, and Neumann-series corrections for
approximate duals, all at finite-section scale (complex d x d
operators, sequences as (N, d) arrays, and N x N mappings applied as
structured or dense operators).
"""

from . import controlled, eframe, gallery, hilbert, mapping, neumann
from .controlled import (
    CONTROLLED_FRAME,
    INVALID,
    ControlledEFrame,
    DualCertificate,
    IdentityReport,
    RieszEquivalenceReport,
    canonical_dual,
    canonical_reconstruct,
    commutation_criterion,
    controlled_bounds,
    dual_from_right_inverse,
    dual_with_offset,
    extract_null_map,
    identity_errors,
    is_parseval,
    random_null_map,
    random_right_inverse,
    riesz_equivalence,
    verify_dual,
)
from .eframe import (
    BESSEL_ONLY,
    FRAME,
    EFrameRecord,
    e_canonical_dual,
    e_frame_bounds,
    e_riesz_family,
)
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    DualConditionError,
    NotAFrameError,
    NotHermitianError,
    SingularOperatorError,
)
from .hilbert import (
    DEFAULT_TOL,
    SpectralBounds,
    hermitian_bounds,
    invert_operator,
    operator_norm,
    pseudoinverse,
)
from .mapping import (
    MatrixMapping,
    apply_inverse_mapping,
    apply_mapping,
    build_banded,
    build_bidiagonal,
    build_dense,
    identity_mapping,
)
from .neumann import (
    ApproximateDual,
    NeumannReport,
    contraction_ratio,
    corrected_dual,
    iterative_reconstruct,
)

__version__ = "0.1.0"

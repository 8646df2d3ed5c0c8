"""Frame analysis over invertible matrix mappings on C^d.

The library computes frame and controlled-frame bounds, canonical and
parametrized dual families, and Neumann-series corrections for
approximate duals, all at finite-section scale (complex d x d
operators, sequences as (N, d) arrays, and N x N mappings applied as
structured or dense operators).
"""

from . import controlled, eframe, gallery, hilbert, mapping, neumann

__version__ = "0.1.0"

"""Root bounds for sparse polynomial systems over p-adic and number fields.

Exact rational geometry (hulls, mixed volumes, lifted Newton polytopes)
feeds explicit closed-form bounds on isolated torus roots, and independent
brute-force oracles verify the bounds at desk scale.  The root exports the
names of the README's Library section, ``__all__``; every other name comes
from its module, e.g. ``rootbounds.polyhedra.mixed_volume``.
"""

from .bounds import LocalField, local_bound, local_facet_bound
from .newton import (SparsePolynomial, SparseSystem, candidate_valuations, newton_data,
                     valuation_face_bound)
from .oracle import count_univariate_padic

__all__ = [
    "LocalField", "SparsePolynomial", "SparseSystem",
    "local_bound", "local_facet_bound", "candidate_valuations",
    "valuation_face_bound", "count_univariate_padic", "newton_data",
]

__version__ = "0.1.0"

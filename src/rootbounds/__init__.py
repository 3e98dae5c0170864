"""Root bounds for sparse polynomial systems over p-adic and number fields.

Exact rational geometry (hulls, mixed volumes, lifted Newton polytopes)
feeds explicit closed-form bounds on isolated torus roots, and independent
brute-force oracles verify the bounds at desk scale.
"""

from .arith import (
    Interval,
    UpperReal,
    euler_ratio,
    log_base,
    natural_log,
    ord_p_value,
    set_precision,
)
from .binomials import (
    BinomialExpansion,
    expansion_coeffs,
    gen_binomial,
    lcm_profile,
)
from .bounds import (
    BoundReport,
    GlobalField,
    LocalField,
    affine_bound,
    cp_bound,
    cp_bound_per_equation,
    global_bound,
    global_facet_sum_bound,
    local_bound,
    local_facet_bound,
    log_inequality_check,
)
from .newton import (
    NewtonData,
    SparsePolynomial,
    SparseSystem,
    candidate_valuations,
    containment_check,
    facet_count,
    newton_data,
    newton_polytope,
    shift_polynomial,
    system_polytope,
    valuation_face_bound,
    valuation_vector_cap,
)
from .oracle import (
    RootCount,
    count_binomial_system,
    count_univariate_padic,
    product_system,
    product_system_root_count,
    rational_root_search,
    reduce_to_square,
    smith_normal_form,
)
from .polyhedra import (
    Polytope,
    convex_hull,
    face,
    lower_facets,
    minkowski_sum,
    mixed_volume,
    project_pi,
    volume,
)

__version__ = "0.1.0"

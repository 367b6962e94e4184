"""Exact optimal transport on the plane and on Q = [-1, 1]^2 under the
maximum metric: diagonal projections, measure Radon transforms,
symmetric-measure constructions, grid perturbations and a verification
suite around an exact transportation solver."""

from .geometry import (
    DiagonalLine,
    L_MINUS,
    L_PLUS,
    MaxIsometry,
    Point2,
    apply_isometry,
    dilate,
    direction_alloc,
    dm,
    midpoint_box,
    project_point,
    same_diagonal,
    triangle_saturates,
)
from .measure import (
    DiscreteMeasure,
    GridMeasure,
    KloecknerParam,
    in_family_F,
    kloeckner_measure,
    kloeckner_recover,
    phi_star,
    phi_t,
    push_forward,
)
from .scalars import ConstraintError, ParseError
from .transport import (
    TransportPlan,
    brute_force_wasserstein,
    is_unique_optimal_plan,
    wasserstein,
    wasserstein_pow,
    wasserstein_pows,
)
from .wgeom import (
    PerturbationTriple,
    RadonImage,
    displacement_interpolation,
    grid_perturbation,
    project_measure,
    radon,
    radon_invert_F,
    symmetric_w1,
    symmetric_wp,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

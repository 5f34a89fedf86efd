"""Order-preserving Lipschitz extensions on finite metric posets."""

from .cones import (
    ConeOrder,
    MoreauSplit,
    contains,
    dominates,
    dual_contains,
    is_pointed,
    monotone_direction,
    moreau_split,
    orthant,
    project_cone,
    scalar_cone,
    trivial_cone,
)
from .extension import (
    EstimateResult,
    ExtensionProblem,
    ExtensionResult,
    componentwise_extend,
    estimate_e,
    feasibility_at_K,
    min_lipschitz_lp,
    scalar_extend,
    line_extend,
    verify_extension,
)
from .obstruction import (
    ObstructionCertificate,
    build_test_map,
    certify_obstruction,
    e2_lower_bound,
)
from .poset import (
    FiniteMetricPoset,
    RadialityWitness,
    chain_instance,
    check_radiality,
    grid_instance,
    is_radially_convex,
    iter_radiality_witnesses,
    poset_from_points,
    radiality_report,
    validate,
)
from .spaces import (
    BusemannValue,
    HalfSpaceHn,
    HilbertRay,
    busemann_limit,
    ray_order,
)
from .trees import RTree, random_tree, tripod

__version__ = "0.1.0"

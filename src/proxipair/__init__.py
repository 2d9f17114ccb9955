"""Best proximity points and pairs on convex body pairs in lp spaces."""

from .errors import (
    DimensionMismatchError,
    DomainError,
    InstanceFormatError,
    PreconditionError,
    ProjectionConvergenceError,
    ProxipairError,
    UnsupportedProjectionError,
)
from .geometry import (
    Ball,
    Box,
    ConvexBody,
    DistanceResult,
    LpSpace,
    Polytope,
    ProximityInstance,
    distance_between,
    project,
)
from .instances import (
    BuiltInstance,
    InstanceDoc,
    build,
    builtin_instance,
    generate_random_instance,
    load_instance,
    parse_instance,
    serialize_instance,
)
from .mappings import (
    CheckResult,
    ContractionCertificate,
    MapSpec,
    certify_contraction,
    certify_mode,
    flip_mode,
)
from .operators import (
    ProximalProjector,
    check_commutation,
    compose_with_projector,
    verify_projector_properties,
)
from .solvers import (
    IterationTrace,
    SolveResult,
    noncyclic_projection_iteration,
    picard_cyclic,
    solve_cyclic_via_reduction,
    solve_noncyclic_via_reduction,
)
from .verification import VerificationReport, run_verification

__version__ = "0.1.0"

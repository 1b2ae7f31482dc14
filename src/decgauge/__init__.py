"""Discrete exterior calculus for abelian gauge boundary data.

Simplicial regions with labeled boundary faces and corners, cochain
calculus with exact integration-by-parts bookkeeping, harmonic field
bases audited by an integer homology oracle, the boundary two-form with
its gauge reduction, and verification suites for the Lagrangian embedding
of extendable boundary data and for gluing of regions.
"""

from .axioms import verify_axioms
from .boundary import (
    BoundaryDatum,
    GaugeTransformation,
    gauge_fix_coclosed,
    holonomy,
    homology_generators,
    integer_period_basis,
    large_gauge_orbit,
    trace_solution,
)
from .dec import (
    Cochain,
    adjointness_defect,
    codifferential,
    d,
    inner_product,
    norm,
    normal_trace,
    star,
    tangential_trace,
    unstar,
)
from .dynamics import (
    SolutionSpace,
    action,
    extend,
    gluing_check,
    restrict,
    solution_space,
    theta,
    verify_lagrangian,
)
from .hodge import (
    HarmonicBasis,
    HmfDecomposition,
    betti_oracle,
    coclosed_decompose,
    harmonic_dirichlet_basis,
    harmonic_neumann_basis,
    hmf_decompose,
    relative_betti_oracle,
)
from .mesh import (
    HypersurfaceMesh,
    MeshError,
    RegionMesh,
    SimplicialComplex,
    boundary_complex,
    disjoint_union,
    extract_face,
    glue,
    load_off,
    region_from_hypersurface,
    save_off,
)
from .subspaces import Subspace
from .symplectic import (
    SymplecticSpace,
    bracket,
    face_factorization_check,
    is_coisotropic,
    is_isotropic,
    is_lagrangian,
    omega,
    symplectic_complement,
)
from .ym2d import (
    Reduced2dDatum,
    curvature_constant,
    holonomy_quotient,
    lagrangian_line_check,
    reduced_form_check,
)

__version__ = "0.1.0"

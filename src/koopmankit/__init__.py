"""koopmankit: finite Koopman-invariant linear representations of nonlinear systems.

Exact lifts read off each benchmark system's field, truncated Carleman linearization,
data-driven identification (sparse regression with subspace refinement; DMD
is its threshold-0 fit on the linear library), Koopman eigenfunctions, and
optimal control designed on the lifted linear model benchmarked against
standard LQR. :mod:`koopmankit.registry` is the one place that knows each benchmark
system, the slow-manifold family's field, lift and tilted coordinates included.
"""

from .artifacts import (
    eigenfunction_to_json,
    load_model,
    read_trajectory,
    save_model,
    save_sparse,
    write_trajectory,
)
from .control import (
    ComparisonResult,
    KoocController,
    closed_loop_cost,
    compare_lqr_kooc,
    kooc_synthesize,
    lqr_gain,
    pbh_unstabilizable_modes,
    solve_care,
)
from .dynamics import (
    CONTINUOUS,
    DISCRETE,
    PolySystem,
    Trajectory,
    integrate,
    iterate,
)
from .exceptions import (
    BlowUp,
    DegenerateSpectrum,
    KoopmankitError,
    NotStabilizable,
    NumericsError,
    TrajectoryError,
)
from .identification import (
    DataSet,
    RefinementResult,
    SparseModel,
    dataset_from_trajectories,
    invariance_residual,
    refine_subspace,
    sindy,
)
from .lifting import (
    KoopmanModel,
    ObservableLibrary,
    closure_residual,
    eval_library,
    field_lift,
    monomials,
    project_states,
    propagate,
)
from .numerics import eig, lstsq
from .polynomials import Polynomial, PolynomialMap, format_polynomial
from .registry import (builtin, carleman_center, carleman_logistic, registry_info, registry_names,
                       rotate_model, rotation_matrix, slow_manifold_field, slow_manifold_lift_ct,
                       slow_subspace_slope)
from .spectral import (
    Eigenfunction,
    eigen_residual,
    eigenfunctions,
    verify_eigenfunction,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUp",
    "CONTINUOUS",
    "ComparisonResult",
    "DISCRETE",
    "DataSet",
    "DegenerateSpectrum",
    "Eigenfunction",
    "KoocController",
    "KoopmanModel",
    "KoopmankitError",
    "NotStabilizable",
    "NumericsError",
    "ObservableLibrary",
    "PolySystem",
    "Polynomial",
    "PolynomialMap",
    "RefinementResult",
    "SparseModel",
    "Trajectory",
    "TrajectoryError",
    "builtin",
    "carleman_center",
    "carleman_logistic",
    "closed_loop_cost",
    "closure_residual",
    "compare_lqr_kooc",
    "dataset_from_trajectories",
    "eig",
    "eigenfunction_to_json",
    "eigenfunctions",
    "eigen_residual",
    "eval_library",
    "field_lift",
    "format_polynomial",
    "integrate",
    "invariance_residual",
    "iterate",
    "kooc_synthesize",
    "load_model",
    "lqr_gain",
    "lstsq",
    "monomials",
    "pbh_unstabilizable_modes",
    "project_states",
    "propagate",
    "read_trajectory",
    "refine_subspace",
    "registry_info",
    "registry_names",
    "rotate_model",
    "rotation_matrix",
    "save_model",
    "save_sparse",
    "sindy",
    "slow_manifold_field",
    "slow_manifold_lift_ct",
    "slow_subspace_slope",
    "solve_care",
    "verify_eigenfunction",
    "write_trajectory",
]

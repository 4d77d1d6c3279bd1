"""geocert: certify geodesic convexity on the SPD manifold and solve what passes.

The package has three layers: a symbolic one (expression trees with sign,
curvature, and monotonicity propagation), a numeric one (validated SPD
linear algebra and a randomized falsifier for curvature claims), and a
solver (Riemannian gradient descent under the affine-invariant metric).
The ``geocert`` command drives all three from YAML problem files.
"""

from . import atoms as _atoms  # populates the atom registry  # noqa: F401
from .analysis import (
    AnalysisReport,
    TraceEntry,
    analyze,
    combine_add,
    combine_max,
    combine_product,
    compose_inverse,
    compose_loewner,
    compose_scalar,
    gate_positive_domain,
)
from .atoms import CATALOG_IDS, SPD_ATOM_IDS
from .dsl import parse_dsl, unparse
from .errors import (
    DeclarationConflictError,
    DomainError,
    ExpressionError,
    GeocertError,
    InconclusiveError,
    ParseError,
    ProblemFileError,
    RangeError,
    RegistrationConflictError,
    ShapeError,
    StagnationError,
    UnknownAtomError,
)
from .expr import (
    Add,
    ArgKind,
    AtomApply,
    AtomSignature,
    ConstMatrix,
    ConstScalar,
    Definiteness,
    ECurvature,
    Expression,
    GCurvature,
    GMonotonicity,
    Manifold,
    MaxOf,
    Mul,
    ParamRef,
    SPD,
    Sign,
    Variable,
    VariableScope,
    apply_atom,
    atom_ids,
    clear_declarations,
    differentiable,
    eval_atom,
    evaluate,
    lookup_atom,
    make_const_matrix,
    make_variable,
    register_atom,
    unregister_atom,
    value_and_grad,
)
from .oracle import (
    CrossValidation,
    FuzzConfig,
    FuzzReport,
    Witness,
    check_econvex,
    check_gconvex,
    check_monotone_loewner,
    cross_validate,
    reevaluate_witness,
)
from .problems import LoadedProblem, load_problem
from .solver import (
    Objective,
    SolveResult,
    fd_directional,
    finite_difference_gradient,
    gradient_descent,
    make_brascamp_lieb_problem,
    make_karcher_problem,
    make_matrix_sqrt_problem,
    make_tyler_problem,
    riemannian_grad,
    riemannian_grad_norm,
)
from .spd import (
    EigenPair,
    SPDMatrix,
    distance,
    geodesic,
    geodesic_path,
    geometric_mean,
    loewner_geq,
    matrix_exp,
    matrix_inv,
    matrix_log,
    matrix_pow,
    matrix_sqrt,
    random_spd,
    sym_eig,
)

__version__ = "0.1.0"

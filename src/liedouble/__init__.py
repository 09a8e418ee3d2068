"""Exact-arithmetic Manin triples, Drinfeld doubles and Lie bialgebras.

Structure-constant Lie algebras over the field Q(i, sqrt2), pairing and
crossed-Jacobi validation, double construction, cocommutators, classical
r-matrices with Schouten-bracket verdicts, and a factory reproducing the
self-dual double structure on gl(n) + t_n for arbitrary n.
"""

from .scalars import (
    HALF_SQRT2,
    I_UNIT,
    MINUS_ONE,
    ONE,
    SQRT2,
    ZERO,
    Scalar,
    ScalarParseError,
    rational,
    scalar_parse,
)
from .liealg import (
    BilinearForm,
    LieAlgebra,
    Matrix,
    SingularMatrixError,
    StructureTensor,
    Vector,
    Violation,
    ViolationReport,
    abelian,
    direct_sum,
    structure_equal,
    trace_form,
)
from .manin import (
    CompatibilityError,
    DoubleAlgebra,
    InvarianceReport,
    ManinTriple,
    build_double,
    check_ad_invariance,
    check_compatibility,
    check_isotropic_pairing,
)
from .bialg import (
    NOT_INVARIANT,
    QUASITRIANGULAR,
    TRIANGULAR,
    Cocommutator,
    QuasitriangularReport,
    ThreeTensor,
    TwoTensor,
    build_rmatrix,
    check_cocycle,
    check_cojacobi,
    coboundary,
    cocommutator_from_triple,
    dual_algebra,
    express_in_basis,
    schouten_bracket,
    schouten_check,
)
from .glnfactory import (
    build_gln_tn,
    build_gln_triple,
    build_s_minus,
    build_s_plus,
    check_chain_embedding,
    delta_in_gln_basis,
    double_in_gln_basis,
    f_index,
    fundamental_representation,
    gln_change_of_basis,
    gln_dim,
    gln_labels,
    gln_tn_trace_form,
    h_index,
    i_index,
    identify_central,
    representation_index,
    rmatrix_in_gln_basis,
    root_index,
    cartan_index,
    solvable_dim,
    solvable_labels,
    split_twist,
)
from .algfile import (
    AlgebraFile,
    AlgebraFileError,
    BracketDecl,
    format_algebra_file,
    from_algebra,
    parse_algebra_file,
)
from .suite import CheckResult, verify_suite

__version__ = "0.1.0"

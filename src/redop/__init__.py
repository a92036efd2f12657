"""Singularity co-orders and reduction operators for PDEs in two variables.

The package computes how strongly the invariant-surface conditions of a
vector field degenerate a given equation (strong and weak singularity
co-orders), derives the determining equations of singular reduction
operators, reduces equations with supplied ansatzes, and certifies the
correspondence between reduction operators and one-parameter solution
families.
"""

from .core import (
    Session,
    TriBool,
    UnknownFunction,
    diff,
    equations_equal,
    is_zero,
    normalize,
    primitive_equation,
    substitute,
)
from .errors import (
    BothCoefficientsZero,
    DegenerateInverse,
    LeaderNotSolvable,
    NonPolynomialSplit,
    NotRepresentable,
    OrderUndefined,
    ParseError,
    RedopError,
    ResidualNonInvariant,
    SetNotFirstCoorder,
    UndeclaredIdentifier,
    UnsupportedAnsatz,
    WrongCoorderBranch,
)
from .families import (
    BacklundReport,
    BijectionReport,
    SolutionFamily,
    adjoint_operator,
    backlund_verify,
    coorder0_solution,
    verify_bijection,
    verify_family_solves,
    zeta_from_family,
)
from .jets import (
    DifferentialFunction,
    JetContext,
    MultiIndex,
    VectorField,
    apply_prolonged,
    characteristic,
    ord,
    prolong,
    total_derivative,
    transpose,
)
from .problems import ProblemFile, parse_problem, render_problem
from .reduction import (
    AnsatzReduction,
    DeterminingSystem,
    conditional_invariance_test,
    de0_equation,
    determining_regular,
    determining_singular,
    eq6_equation,
    reduce_with_ansatz,
    solve_for_leader,
)
from .report import AnalysisReport, CommandResult, Verdict, emit_report, render
from .runner import run
from .singular import (
    CoorderReport,
    SetAnalysis,
    analyze_reduced_set,
    eliminate_on_Q,
    representation_check,
    weak_coorder,
)

__version__ = "0.1.0"

"""Calabi-Yau structures around special Lagrangian tori, as truncated power
series, plus the admissibility test for one-parameter torus families and the
semi-flat obstruction curve Phi(t)."""

from .jets import (
    EXACT,
    FLOAT,
    ComplexJet,
    IncompatibleJetsError,
    Jet,
    JetDomainError,
    JetError,
    det,
    holomorphic_extend,
    jet_cos,
    jet_exp,
    jet_log,
    jet_pow,
    jet_sin,
    jet_sqrt,
)
from .solver import (
    CONSTANT_POLICY,
    CYStructureJet,
    DegenerateMetricError,
    ExtensionPolicy,
    HermitianJet,
    PolicyError,
    ResidualReport,
    SolverError,
    build_gamma,
    check_structure,
    ck_step,
    dump_structure,
    horizontal_slice_residuals,
    load_structure,
    solve_calabi_yau,
)
from .families import (
    FamilyCheckReport,
    FamilyError,
    InadmissibleFamilyError,
    MetricFamily,
    check_slag_family,
    family_from_entries,
    family_to_policy,
    make_block_family,
    make_collapsing_21,
    make_collapsing_22,
    make_cone_family,
    metric_jets,
)
from .hodge import (
    GramMatrix,
    HarmonicBasis,
    HodgeError,
    PhiCurve,
    gram_L2,
    harmonic_basis_2d,
    harmonic_basis_diag3,
    periodic_quad,
    phi_2d,
    phi_curve,
    transform_gram,
)
from .dsl import EvalDomainError, ParseError, eval_grid, eval_jet, parse, to_text

__version__ = "0.1.0"

"""Difference-based mutation analysis toolkit.

Behavior matrices record what every program did on every test; a
differentiator reduces pairs of behaviors to difference bits.  On top of
that sit program spaces and positions, position lattices, kill matrices
with dynamic subsumption and minimal mutant sets, and mutation-based fault
localization.  A built-in toy language supplies parse / mutate / execute
so the whole pipeline runs end to end.
"""
from .behavior import (
    AdequacyResult,
    BehaviorMatrix,
    BehaviorToken,
    DiffVector,
    Differentiator,
    ProgramEntry,
    TestVector,
    diff_vector,
    differentiate,
    manhattan_norm,
    matrix_from_json_text,
    matrix_from_outputs,
    matrix_to_json_text,
)
from .errors import (
    CapacityError,
    MutspaceError,
    ParseError,
    RoleError,
    SchemaError,
    UnknownIdError,
)
from .lattice import (
    DevianceWitness,
    PositionLattice,
    annotate,
    build_lattice,
    deviant,
    lattice_to_dot,
    project,
    reachable_by_deviance,
)
from .mbfl import (
    FaultLocalizationInput,
    FixCounts,
    MethodComparison,
    SuspiciousnessReport,
    compare_methods,
    fix_counts,
    fix_score,
    flt_score,
    rank_statements,
)
from .space import (
    ProgramSpace,
    coincidence_counterexample,
    distinguishing_dimensions,
    mutation_adequacy,
    position,
)
from .subsumption import (
    EquivalenceCheck,
    KillMatrix,
    MinimalSetResult,
    MutantClass,
    SubsumptionGraph,
    adequacy_from_kills,
    build_dmsg,
    deviance_subsumption_equivalence,
    dmsg_to_dot,
    dynamically_subsumes,
    kill_matrix,
    max_minimal_size,
    minimal_mutant_set,
)

__version__ = "0.1.0"

"""Exact analysis of disclosure procedures for the Two-Children and
Tuesday-Child probability puzzles: the answer depends on how the information
was obtained, and this package makes the "how" a first-class, computable object.
"""

from .engine import (
    OTHER,
    AtLeastOne,
    Claim,
    PosteriorReport,
    ProtocolKernel,
    ProudOf,
    REJECT,
    Statement,
    Text,
    TwoOfAKind,
    YesNo,
    marginal,
    posterior,
    statement_mass,
    validate_kernel,
)
from .model import (
    AllMatch,
    Always,
    And,
    Child,
    ChildDayIs,
    ChildSexIs,
    CountAtLeast,
    Exists,
    Family,
    Not,
    Or,
    QueryPredicate,
    Sex,
    WorldConfig,
    compile_query,
    count_families,
    enumerate_families,
    eval_query,
    family_str,
    restrict_prior,
    uniform_prior,
)
from .scenarios import BUILTIN_IDS, Scenario, build_scenario, sweep_formula, week_sweep

__all__ = [
    "AllMatch", "Always", "And", "AtLeastOne", "BUILTIN_IDS", "Child",
    "ChildDayIs", "ChildSexIs", "Claim", "CountAtLeast", "Exists", "Family",
    "Not", "OTHER", "Or", "PosteriorReport", "ProtocolKernel", "ProudOf",
    "QueryPredicate", "REJECT", "Scenario", "Sex", "Statement", "Text",
    "TwoOfAKind", "WorldConfig", "YesNo", "build_scenario", "compile_query",
    "count_families", "enumerate_families", "eval_query", "family_str",
    "marginal", "posterior", "restrict_prior", "statement_mass",
    "sweep_formula", "uniform_prior", "validate_kernel", "week_sweep",
]

"""meadowkit: Komori fields with totalized division, their punched
partial variants, configurable three-valued logics of partial
functions, and a linter for the relevant division convention."""

from .carriers import (
    RATIONALS,
    Carrier,
    CarrierMismatchError,
    FiniteProbeSet,
    PrimeField,
    Rationals,
    format_element,
    normalize,
    parse_rational,
)
from .lint import (
    Certificate,
    CertificateKind,
    Convention,
    Occurrence,
    Statement,
    StatementKind,
    Verdict,
    VerdictKind,
    collect_occurrences,
    find_zero_witness,
    lint,
    nonzero_certificate,
    parse_corpus,
)
from .logic import (
    LPMD,
    ConnectiveFamily,
    EqualityKind,
    LogicConfig,
    NonEnumerableCarrierError,
    QuantifierFamily,
    SentenceVerdict,
    TruthValue,
    and_tv,
    classify_sentence,
    connective_table,
    eval_equality,
    eval_formula,
    implies_tv,
    not_tv,
    or_tv,
    parse_logic_config,
)
from .parser import ParseError, parse_formula, parse_term
from .printer import print_formula, print_term
from .semantics import (
    UNDEFINED,
    AxiomReport,
    Exhaustive,
    Mode,
    RandomSample,
    StructureSpec,
    UnboundVariableError,
    axiom_catalog,
    eval_partial,
    eval_total,
    verify_axiom,
    verify_axiom_spec,
)
from .terms import free_vars, is_divisive, is_inversive, to_divisive, to_inversive

__version__ = "0.1.0"

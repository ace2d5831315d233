"""Decision procedures for single axiom schemata of the propositional
ontology L1.

The package checks classical tautologies, validity over admissible
valuations, triviality and quasi-triviality of schemata, recovery of the
three base axiom schemata from a candidate, and Hilbert-style proof
scripts; a bundled corpus and a regression battery reproduce all the
established verdicts and sweep the conjectured schemata.
"""

from __future__ import annotations

from . import criteria as _criteria
from . import decision as _decision
from . import proofs as _proofs
from .axioms import A_T, AX1, AX2, AX3, AX3S, AXIOMS_BY_NAME, BASE_AXIOMS
from .characterize import (
    CharacterizationReport,
    RecoveryOutcome,
    characterize,
    recover_axioms,
    recovery_script,
)
from .corpus import Corpus, load_corpus
from .criteria import (
    CriterionInapplicable,
    InapplicablePair,
    QntReport,
    Refutation,
    TrivialityReport,
    is_quasi_trivial,
    is_trivial,
    qnt_matrix,
    quasi_triviality,
    triviality,
)
from .decision import (
    POOL_CAP,
    TheoremVerdict,
    holds_in_all_admissible,
    is_theorem,
)
from .formula import (
    And,
    Atom,
    Epsilon,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    SchemaEntry,
    conjoin,
    eps,
)
from .proofs import (
    ProofCheckResult,
    ProofScript,
    bundled_scripts,
    check_bundled_proofs,
    check_proof,
    load_proof_file,
    parse_proof_script,
)
from .semantics import (
    BudgetError,
    SemanticsVerdict,
    Valuation,
    are_equivalent,
    entails,
    evaluate,
    is_tautology,
    truth_table,
)
from .substitution import CandidateMap, Substitution
from .syntax import ParseError, parse_formula, parse_schema_file, print_formula
from .verify import (
    ConjectureRow,
    VerificationItem,
    VerificationReport,
    conjecture_report,
    run_verification,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Drop every internal memoization (enumerated admissible valuations,
    compiled schema bodies and their essential atoms, hypothesis verdicts,
    the bundled scripts' directive index); used by the slow-path oracle
    tests."""
    _decision.clear_caches()
    _criteria.clear_caches()
    _proofs.clear_caches()

"""Decision procedures for single axiom schemata of the propositional
ontology L1.

The package checks classical tautologies, validity over admissible
valuations, triviality and quasi-triviality of schemata, recovery of the
three base axiom schemata from a candidate, and Hilbert-style proof
scripts; a bundled corpus and a regression battery reproduce all the
established verdicts and sweep the conjectured schemata.

The library is its modules: import each name from the module that defines
it (see the README's "Library layout"). Importing the package itself loads
none of them.
"""


def clear_caches() -> None:
    """Drop every internal memoization (enumerated admissible valuations,
    compiled schema bodies and their essential atoms, hypothesis verdicts,
    the bundled scripts' directive index); used by the slow-path oracle
    tests."""
    from . import criteria, decision, proofs, semantics

    semantics.compile_schema.cache_clear()
    decision.clear_caches()
    criteria.clear_caches()
    proofs.clear_caches()

"""The one-pass JSON writer against the two passes it replaced.

reports.json_document writes a report straight from its records; the
oracle in tests/oracles.py first lowers the report to a tree of dicts and
lists by the rules written out once more, then writes that tree. Both must
give the same bytes, and jsonable the same tree, on every record a command
reaches, on explain-mode sweeps of generated pairs, and on proof-check and
verification results that carry arbitrary text.
"""

import json
import sys
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st
from oracles import two_pass_json_document, two_pass_jsonable
from test_cli import records_within
from test_kernel import padded_pairs

import l1ax
from l1ax import reports
from l1ax.characterize import RecoveryOutcome, characterize
from l1ax.corpus import load_corpus
from l1ax.criteria import Refutation, qnt_matrix, quasi_triviality, triviality
from l1ax.decision import TheoremVerdict, is_theorem
from l1ax.formula import Atom
from l1ax.proofs import LineResult, ProofCheckResult, check_proof, load_proof_file
from l1ax.semantics import Valuation, is_tautology
from l1ax.syntax import parse_formula
from l1ax.verify import ConjectureRow, VerificationItem, VerificationReport, conjecture_report


def assert_matches_the_oracle(value):
    text = reports.json_document(value)
    assert text == two_pass_json_document(value)
    tree = reports.jsonable(value)
    assert tree == two_pass_jsonable(value)
    assert tree == json.loads(text)


def reached_reports():
    """The reports of every command, and each record they hold."""
    corpus = load_corpus()
    proof = Path(l1ax.__file__).with_name("proofs") / "s3_from_base.proof"
    top = [
        is_tautology(parse_formula("eps(a,b) -> eps(b,a)")),
        is_tautology(parse_formula("eps(a,b) | !eps(a,b)")),
        is_theorem(corpus["A_M8"].body),
        is_theorem(parse_formula("eps(a,b) -> eps(b,a)")),
        characterize(corpus["A_M8"]),
        characterize(corpus["A_S3"]),
        triviality(corpus["A_M8"], corpus["A_t"]),
        quasi_triviality(corpus["A_S1"], corpus["A_S2"]),
        *qnt_matrix([corpus["A_t"], corpus["Ax1"]]).values(),
        check_proof(load_proof_file(proof)),
        VerificationReport((VerificationItem("item", True, "detail"),)),
        *conjecture_report(corpus)[:1],
    ]
    return records_within(top)


def test_every_reached_record_is_written_as_the_two_passes_write_it():
    records = reached_reports()
    # both reshaped records and the records that hold valuations are reached
    reached = {type(r) for r in records}
    assert {Refutation, ConjectureRow, TheoremVerdict, RecoveryOutcome} <= reached
    for record in records:
        assert_matches_the_oracle(record)
        # a payload holds a record's members beside keys of its own
        payload = {"command": "c", **reports.members(record)}
        assert json.loads(reports.json_document(payload)) == {
            "command": "c", **two_pass_jsonable(record)
        }


@given(padded_pairs().filter(lambda pair: max(e.arity for e in pair) <= 4))
def test_explain_mode_sweeps_of_generated_pairs_match_the_oracle(pair):
    # both orders, so both padded cases of the comparison occur
    for left, right in (pair, pair[::-1]):
        source, target = sorted((left, right), key=lambda e: -e.arity)
        assert_matches_the_oracle(triviality(source, target))
        assert_matches_the_oracle(quasi_triviality(left, right))


@given(
    st.text(),
    st.lists(st.tuples(st.text(), st.text(), st.booleans(), st.text()), max_size=3),
    st.booleans(),
    st.lists(st.tuples(st.text(), st.booleans(), st.text()), max_size=3),
)
def test_results_with_arbitrary_text_match_the_oracle(name, lines, conclusion_ok, items):
    assert_matches_the_oracle(ProofCheckResult(name, tuple(LineResult(*x) for x in lines), conclusion_ok))
    assert_matches_the_oracle(VerificationReport(tuple(VerificationItem(*x) for x in items)))


def test_a_document_keeps_no_atom_past_its_writing():
    atom = Atom("unwritten", "atom")
    held = sys.getrefcount(atom)
    reports.json_document(Valuation((atom,), frozenset([atom])))
    assert sys.getrefcount(atom) == held

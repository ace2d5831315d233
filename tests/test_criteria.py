"""Triviality and quasi-triviality sweeps with self-certifying witnesses."""

import random

import pytest

from l1ax.axioms import A_T
from l1ax.cli import main
from l1ax.corpus import load_corpus
from l1ax.criteria import (
    CriterionInapplicable,
    InapplicablePair,
    QntReport,
    is_nontrivial_standard,
    is_quasi_trivial,
    is_trivial,
    qnt_matrix,
    quasi_triviality,
    triviality,
)
from l1ax.formula import SchemaEntry
from l1ax.substitution import Substitution
from l1ax.syntax import parse_formula
from oracles import certify_refutations, qnt_bodies


def test_four_variable_schema_nontrivial_with_full_refutation_list(corpus):
    report = triviality(corpus["A_M8"], A_T)
    assert report.verdict == "nontrivial"
    assert report.witness is None
    assert report.map_count == 24
    assert len(report.refutations) == 24
    certify_refutations(report, corpus["A_M8"].body, A_T.body)

    first = report.refutations[0]
    assert first.rho == (1, 2, 3, 4)
    assert first.sigma.mapping == {"a": "a", "b": "b", "c": "c", "d": "y1"}
    assert first.valuation.counter == 6
    assert {str(a) for a in first.valuation.false_atoms()} == {
        "eps(a,a)",
        "eps(c,y1)",
    }


def test_triviality_of_a_schema_against_itself(corpus):
    report = triviality(corpus["A_t"], A_T)
    assert report.verdict == "trivial"
    assert report.witness is not None
    assert report.witness.rho == (1, 2, 3)
    assert report.map_count == 1  # the identity map succeeds immediately
    assert report.refutations == ()


def test_triviality_arity_guards(corpus):
    with pytest.raises(CriterionInapplicable):
        triviality(corpus["Ax1"], A_T)  # fewer than three variables
    with pytest.raises(CriterionInapplicable):
        triviality(corpus["Ax2"], corpus["A_M8"])  # subject below reference


def test_standard_nontriviality_is_cached(corpus):
    is_nontrivial_standard.cache_clear()
    assert is_nontrivial_standard(corpus["A_M8"])
    before = is_nontrivial_standard.cache_info().hits
    assert is_nontrivial_standard(corpus["A_M8"])
    assert is_nontrivial_standard.cache_info().hits == before + 1


def test_star_companion_is_quasi_trivial(corpus):
    report = quasi_triviality(corpus["Star"], corpus["A_M8"])
    assert report.verdict == "quasi-trivial"
    assert report.case_used == 1
    assert report.witness.rho == (1, 2, 3, 4)
    assert report.witness_left_oriented.mapping == {
        "a": "a",
        "b": "b",
        "d": "c",
        "e": "d",
    }
    assert report.cross_check == "agree"
    assert report.hypothesis_met == (True, True)


def test_five_variable_companion_is_quasi_trivial(corpus):
    report = quasi_triviality(corpus["DoubleStar"], corpus["A_M8"])
    assert report.verdict == "quasi-trivial"
    assert report.case_used == 2
    assert report.witness.rho == (1, 2, 3, 4, 5)
    assert report.witness.sigma.mapping == {
        "a": "a",
        "b": "b",
        "c": "v1",
        "d": "c",
        "e": "d",
    }
    assert report.witness_left_oriented == report.witness.sigma
    assert report.cross_check is None  # mirrored sweep needs equal arities
    assert report.hypothesis_met == (True, True)


def test_hypothesis_flags_are_recorded_not_enforced(corpus):
    report = quasi_triviality(corpus["A_t"], corpus["A_M8"])
    assert report.hypothesis_met == (False, True)
    assert report.verdict in ("quasi-trivial", "quasi-nontrivial")


def test_quasi_triviality_is_reflexive(corpus):
    for entry in corpus:
        if entry.arity < 3:
            continue
        report = quasi_triviality(entry, entry)
        assert report.verdict == "quasi-trivial", entry.name
        assert report.witness.rho == tuple(range(1, entry.arity + 1))
        assert report.map_count == 1


def test_quasi_triviality_is_symmetric(corpus):
    entries = [e for e in corpus if e.arity >= 3]
    five = corpus.established_five()
    pairs = [(x, y) for x in five for y in five]
    rng = random.Random(7)
    for _ in range(20):
        pairs.append((rng.choice(entries), rng.choice(entries)))
    for x, y in pairs:
        assert is_quasi_trivial(x, y) == is_quasi_trivial(y, x), (x.name, y.name)


def test_comparison_against_the_standard_matches_triviality(corpus):
    # with the three-variable standard as right side, the quasi-triviality
    # comparison degenerates to the plain triviality criterion
    for entry in corpus:
        if entry.arity < 3:
            continue
        assert is_quasi_trivial(entry, A_T) == is_trivial(entry, A_T), entry.name


def test_quasi_triviality_composes_along_monotone_arities(corpus):
    names = ("A_M8", "Star", "DoubleStar", "A_t", "A_t-1", "A_S1")
    entries = [corpus[n] for n in names]
    verdict = {}
    for x in entries:
        for y in entries:
            verdict[(x.name, y.name)] = is_quasi_trivial(x, y)
    # the chain through the four-variable companions must actually fire
    assert verdict[("A_M8", "Star")] and verdict[("Star", "DoubleStar")]
    checked = 0
    for x in entries:
        for y in entries:
            for z in entries:
                if not (x.arity <= y.arity <= z.arity):
                    continue
                if verdict[(x.name, y.name)] and verdict[(y.name, z.name)]:
                    assert verdict[(x.name, z.name)], (x.name, y.name, z.name)
                    checked += 1
    assert checked > 0


def test_quasi_triviality_arity_guard(corpus):
    with pytest.raises(CriterionInapplicable):
        quasi_triviality(corpus["Ax1"], corpus["A_M8"])
    with pytest.raises(CriterionInapplicable):
        quasi_triviality(corpus["A_M8"], corpus["Ax3s"])


def test_matrix_over_the_five_schemata(corpus):
    five = corpus.established_five()
    cells = qnt_matrix(five)
    assert len(cells) == 25
    for (a, b), cell in cells.items():
        assert isinstance(cell, QntReport)
        if a == b:
            assert cell.verdict == "quasi-trivial"
        else:
            assert cell.verdict == "quasi-nontrivial"
            # the matrix decides; the pair's refutations come from explain mode
            report = quasi_triviality(cell.left, cell.right)
            assert (report.verdict, report.case_used, report.witness, report.map_count) == (
                cell.verdict,
                cell.case_used,
                cell.witness,
                cell.map_count,
            )
            assert len(report.refutations) == cell.map_count == 24
            certify_refutations(report, *qnt_bodies(report))
        assert cell.cross_check == "agree"


def test_matrix_marks_inapplicable_pairs_instead_of_raising(corpus):
    cells = qnt_matrix((corpus["Ax1"], corpus["A_M8"]))
    assert isinstance(cells[("Ax1", "Ax1")], InapplicablePair)
    assert isinstance(cells[("Ax1", "A_M8")], InapplicablePair)
    assert isinstance(cells[("A_M8", "Ax1")], InapplicablePair)
    assert isinstance(cells[("A_M8", "A_M8")], QntReport)
    assert "variables" in cells[("Ax1", "A_M8")].reason


def test_nested_variant_nontrivial_against_the_flattened_standard(corpus):
    report = triviality(corpus["A_S3"], corpus["A_t-1"])
    assert report.verdict == "nontrivial"
    assert len(report.refutations) == 24
    certify_refutations(report, corpus["A_S3"].body, corpus["A_t-1"].body)


# The fresh pools y1..., u1..., v1... are reserved only in schema files.
# Formula text may use them: fresh_variables skips every name already in
# use, so such a name never clashes with padding and changes no verdict.

# A_t with the second c split off as d: four variables, so a comparison
# with a three-variable schema pads that schema's side
SPLIT_A_T = "eps(a,b) -> eps(a,a) & (eps(b,c) -> eps(a,d) & eps(b,a))"


def renamed(entry, var, name):
    return SchemaEntry.make(entry.name, Substitution.of({var: name}).apply(entry.body))


def outcomes(entry, references, split):
    """Verdicts and map counts of entry against A_t and each reference,
    both ways. The sweep kernel works on variable slots, names aside, but
    explain mode replays every candidate through Substitution.apply, on
    names. A three-variable entry is padded against split (with y in
    triviality, u and v in quasi-triviality), so those run in explain mode:
    a padding name that clashed with one of entry's would fail the replay."""
    runs = [(triviality, entry, A_T, False)]
    for ref in references:
        runs += [(quasi_triviality, entry, ref, False), (quasi_triviality, ref, entry, False)]
    if entry.arity == 3:
        runs += [
            (triviality, split, entry, True),
            (quasi_triviality, entry, split, True),
            (quasi_triviality, split, entry, True),
        ]
    return [
        (report.verdict, report.map_count)
        for report in (run(left, right, explain=explain) for run, left, right, explain in runs)
    ]


def test_reserved_fresh_names_in_formula_text_change_no_verdict(corpus):
    references = [corpus[n] for n in ("A_t", "A_M8", "Star")]
    split = SchemaEntry.make("split", parse_formula(SPLIT_A_T))
    compared = 0
    for entry in corpus:
        if entry.arity < 3:
            continue
        for var in entry.variables:
            control = outcomes(renamed(entry, var, "w"), references, split)
            for name in ("y1", "y2", "u1", "v1"):
                reserved = outcomes(renamed(entry, var, name), references, split)
                assert reserved == control, (entry.name, var, name)
                compared += len(control)
    assert compared > 3000


def test_schema_files_still_reject_reserved_names(tmp_path):
    path = tmp_path / "reserved.schemata"
    path.write_text("Mine := eps(u1,b) -> eps(u1,u1)\n")
    with pytest.raises(ValueError, match="u1"):
        load_corpus(path)
    assert main(["characteristic", "eps(u1,b) -> eps(u1,u1)"]) == 0

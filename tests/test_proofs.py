"""The derivation kernel: script parsing, line checking, fault isolation."""

import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

import l1ax
from l1ax import proofs
from l1ax.decision import grid_atoms, is_theorem
from l1ax.formula import Implies, InputError, Not, Or, eps
from l1ax.proofs import (
    Justification,
    LineResult,
    ProofLine,
    ProofScript,
    bundled_scripts,
    check_bundled_proofs,
    check_proof,
    derived_conclusions,
    load_proof_file,
    parse_proof_script,
)
from l1ax.semantics import full_mask, truth_table
from l1ax.substitution import Substitution
from l1ax.syntax import ParseError, SourceSpan, parse_formula, print_formula
from oracles import all_instances
from test_cli import RENAMED_A_M8

EXPECTED_SCRIPTS = (
    "at1_from_s3",
    "base_from_m8",
    "base_from_s1",
    "base_from_s2",
    "base_from_s3n",
    "base_from_s3nd",
    "m8_from_base",
    "s1_from_base",
    "s2_from_base",
    "s3_from_base",
    "s3n_from_base",
    "s3nd_from_base",
)


def check_text(text):
    return check_proof(parse_proof_script(text))


def test_bundled_scripts_all_check():
    results = check_bundled_proofs()
    assert tuple(sorted(results)) == EXPECTED_SCRIPTS
    for name, res in results.items():
        assert res.ok, (name, res.failures)
        assert res.conclusion_ok
    assert sum(len(r.lines) for r in results.values()) == 89


def test_forward_scripts_conclude_the_bundled_schemata(corpus):
    derived = derived_conclusions()
    for schema, script in (
        ("A_M8", "m8_from_base"),
        ("A_S1", "s1_from_base"),
        ("A_S2", "s2_from_base"),
        ("A_S3", "s3_from_base"),
        ("A_S3N", "s3n_from_base"),
        ("A_S3Nd", "s3nd_from_base"),
    ):
        assert derived[corpus[schema].body] == script


def test_kernel_lines_are_semantic_consequences():
    # soundness spot check: every accepted line is entailed by the script's
    # assumption instances over a four-name pool, or is outright valid
    pool = ("a", "b", "c", "d")
    domain = grid_atoms(pool)
    full = full_mask(len(domain))
    for name, script in bundled_scripts().items():
        assert check_proof(script).ok
        if script.assumptions:
            mask = full
            for entry in script.assumptions:
                for inst in all_instances(entry, pool):
                    mask &= truth_table(inst, domain)
            for line in script.lines:
                line_tt = truth_table(line.formula, domain)
                assert mask & ~line_tt & full == 0, (name, line.label)
        else:
            for line in script.lines:
                assert is_theorem(line.formula).valid, (name, line.label)


def test_modus_ponens_accepts_and_rejects():
    good = check_text(
        """name: mp_demo
assume: P := eps(a,b)
assume: PQ := eps(a,b) -> eps(b,b)
conclude: eps(b,b)

s1: eps(a,b) ; SCHEMA(P)
s2: eps(a,b) -> eps(b,b) ; SCHEMA(PQ)
s3: eps(b,b) ; MP(s1, s2)
"""
    )
    assert good.ok

    bad = check_text(
        """name: mp_bad
assume: P := eps(a,b)
assume: PQ := eps(a,b) -> eps(b,b)
conclude: eps(c,c)

s1: eps(a,b) ; SCHEMA(P)
s2: eps(a,b) -> eps(b,b) ; SCHEMA(PQ)
s3: eps(c,c) ; MP(s1, s2)
"""
    )
    assert not bad.ok
    assert bad.failures == ("s3",)


def test_axiom_citation_with_instance_map():
    result = check_text(
        """name: ax_inst
conclude: eps(b,c) -> eps(b,b)

s1: eps(b,c) -> eps(b,b) ; AXIOM(Ax1, {a->b, b->c})
"""
    )
    assert result.ok


def test_unknown_axiom_name_fails_the_line():
    result = check_text(
        """name: ax_unknown
conclude: eps(a,b) -> eps(a,a)

s1: eps(a,b) -> eps(a,a) ; AXIOM(Ax9)
"""
    )
    assert not result.ok
    assert result.failures == ("s1",)


def test_substitution_rule_checks_the_image():
    result = check_text(
        """name: subst_demo
conclude: eps(c,b) -> eps(c,c)

s1: eps(a,b) -> eps(a,a) ; AXIOM(Ax1)
s2: eps(c,b) -> eps(c,c) ; SUBST(s1, {a->c})
"""
    )
    assert result.ok

    wrong = check_text(
        """name: subst_wrong
conclude: eps(c,b) -> eps(a,a)

s1: eps(a,b) -> eps(a,a) ; AXIOM(Ax1)
s2: eps(c,b) -> eps(a,a) ; SUBST(s1, {a->c})
"""
    )
    assert not wrong.ok
    assert wrong.failures == ("s2",)


def test_taut_rule_only_accepts_tautologies():
    result = check_text(
        """name: taut_demo
conclude: eps(a,b)

s1: eps(a,b) ; TAUT
"""
    )
    assert not result.ok


def test_failed_lines_are_isolated_and_still_citable():
    result = check_text(
        """name: isolated
conclude: eps(a,b) | eps(c,c)

good: eps(a,a) | !eps(a,a) ; TAUT
bad: eps(a,b) ; TAUT
after: eps(b,b) | !eps(b,b) ; TAUT
uses: eps(a,b) | eps(c,c) ; TAUTCONSEQ(bad)
"""
    )
    assert not result.ok
    assert result.failures == ("bad",)
    by_label = {lr.label: lr for lr in result.lines}
    assert by_label["good"].ok
    assert by_label["after"].ok
    # the failed line's stated formula is still registered for later steps
    assert by_label["uses"].ok
    assert result.conclusion_ok


def test_citing_an_unknown_label_fails_only_that_line():
    result = check_text(
        """name: ghost
conclude: eps(b,b) | !eps(b,b)

s1: eps(a,a) | !eps(a,a) ; TAUTCONSEQ(nope)
s2: eps(b,b) | !eps(b,b) ; TAUT
"""
    )
    assert not result.ok
    assert result.failures == ("s1",)


def test_conclusion_mismatch_fails_the_script():
    result = check_text(
        """name: wrongend
conclude: eps(a,a) | !eps(a,a)

t: eps(b,b) | !eps(b,b) ; TAUT
"""
    )
    assert not result.ok
    assert not result.conclusion_ok
    assert result.failures == ("(conclusion)",)


def test_script_without_conclusion_checks_lines_only():
    result = check_text("name: open_ended\n\nt: eps(a,a) | !eps(a,a) ; TAUT\n")
    assert result.ok and result.conclusion_ok


def test_duplicate_labels_rejected_at_parse():
    with pytest.raises(ParseError) as exc:
        parse_proof_script(
            "name: dup\n\nt1: eps(a,a) | !eps(a,a) ; TAUT\n"
            "t1: eps(b,b) | !eps(b,b) ; TAUT\n"
        )
    assert "duplicate" in str(exc.value)


def test_a_repeated_conclude_is_refused_at_its_second_line():
    # the last conclude winning would let an invalid first one check
    text = (
        "conclude: eps(a,b) -> eps(a,a)\n"
        "conclude: eps(a,b) -> eps(a,b)\n"
        "s1: eps(a,b) -> eps(a,b) ; TAUT\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_proof_script(text)
    assert (exc.value.message, exc.value.span) == ("duplicate conclude", SourceSpan(2, 1))
    assert check_text(text.split("\n", 1)[1]).ok


@pytest.mark.parametrize("second_body", ["eps(a,b) -> eps(b,a)", "eps(a,b) -> eps(a,a)"])
def test_a_repeated_assumption_is_refused_at_its_second_line(second_body):
    # whether or not the bodies differ; with the second renamed, X is the
    # first body, of which s1 is no instance
    text = (
        "name: twice\n"
        "assume: X := eps(a,b) -> eps(a,a)\n"
        f"assume:  X  := {second_body}\n"
        "s1: eps(a,b) -> eps(b,a) ; SCHEMA(X)\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_proof_script(text)
    assert (exc.value.message, exc.value.span) == ("duplicate assumption 'X'", SourceSpan(3, 1))
    assert not check_text(text.replace("assume:  X  := ", "assume: Y := ")).ok


def test_malformed_lines_rejected_at_parse():
    with pytest.raises(ParseError):
        parse_proof_script("name: x\n\nt1: eps(a,a) | !eps(a,a)\n")  # no rule
    with pytest.raises(ParseError):
        parse_proof_script("name: x\n\nt1: eps(a,a) ; FROBNICATE(t0)\n")
    with pytest.raises(ParseError):
        parse_proof_script("wibble: true\n")  # unknown directive


def test_load_proof_file_round_trip(tmp_path):
    path = tmp_path / "scratch.proof"
    path.write_text(
        """# a comment line
name: scratch
conclude: eps(a,b) -> eps(a,b)

s1: eps(a,b) -> eps(a,b) ; TAUT
"""
    )
    script = load_proof_file(path)
    assert script.name == "scratch"
    assert script.conclusion == parse_formula("eps(a,b) -> eps(a,b)")
    assert check_proof(script).ok


def test_tautological_consequence_needs_entailment():
    result = check_text(
        """name: tc_bad
assume: P := eps(a,b)
conclude: eps(b,a)

s1: eps(a,b) ; SCHEMA(P)
s2: eps(b,a) ; TAUTCONSEQ(s1)
"""
    )
    assert not result.ok
    assert result.failures == ("s2",)


def script_text(script):
    """script in the script syntax, printed from its parsed lines."""
    directives = [f"name: {script.name}"]
    directives += [f"assume: {s.name} := {print_formula(s.body)}" for s in script.assumptions]
    if script.conclusion is not None:
        directives.append(f"conclude: {print_formula(script.conclusion)}")
    steps = [
        f"{line.label}: {print_formula(line.formula)} ; {line.justification.describe()}"
        for line in script.lines
    ]
    return "\n".join(directives + steps) + "\n"


def test_bundled_scripts_print_back_to_their_lines():
    rules = set()
    for name, script in bundled_scripts().items():
        assert parse_proof_script(script_text(script)) == script, name
        rules.update(line.justification.rule for line in script.lines)
    assert rules == {"TAUT", "AXIOM", "SCHEMA", "MP", "SUBST", "TAUTCONSEQ"}


@pytest.mark.parametrize(
    "rule, cited, message",
    [
        ("AXIOM", ("Ax1", "Ax2"), "AXIOM takes a name and an optional substitution"),
        ("AXIOM", ("Ax1",), "AXIOM takes a name and an optional substitution"),
        ("MP", ("l1",), "MP takes two line labels"),
        # script text never builds this one: the parser reads TAUT bare and
        # refuses TAUT(...) as an unknown justification
        ("TAUT", ("s1",), "TAUT cites nothing and takes no substitution"),
    ],
)
def test_a_built_justification_of_the_wrong_shape_is_refused(rule, cited, message):
    with pytest.raises(InputError) as exc:
        Justification(rule, cited, None)
    assert str(exc.value) == message


def test_a_built_justification_citing_an_empty_name_is_refused():
    with pytest.raises(InputError, match="^AXIOM cites an empty name or label$"):
        Justification("AXIOM", ("",), Substitution.identity())


# the record checks each known rule's shape; the parser reports it at the line
@pytest.mark.parametrize(
    "justification, where, message",
    [
        ("TAUT(s1)", "2:1", "unknown justification 'TAUT'"),
        ("FOO(s1)", "2:1", "unknown justification 'FOO'"),
        ("MP(s1)", "2:1", "MP takes two line labels"),
        ("MP(s1, s1, s1)", "2:1", "MP takes two line labels"),
        ("TAUTCONSEQ()", "2:1", "TAUTCONSEQ needs at least one line label"),
        ("SUBST(s1)", "2:1", "SUBST takes a line label and a substitution"),
        ("SUBST(s1, {a->b}, x)", "2:1", "SUBST takes a line label and a substitution"),
        ("SUBST(s1, {a->})", "2:42", "expected a variable"),
        ("AXIOM()", "2:1", "AXIOM takes a name and an optional substitution"),
        ("AXIOM(Ax1, Ax2)", "2:39", "unknown token 'A'"),
        ("SCHEMA(A, {a->b}, x)", "2:1", "SCHEMA takes a name and an optional substitution"),
        ("AXIOM(Ax1, {a->b)", "2:1", "unbalanced braces in justification"),
    ],
)
def test_a_malformed_justification_is_reported_at_its_line(justification, where, message):
    text = f"s1: eps(a,a) | !eps(a,a) ; TAUT\ns2: eps(a,a) | !eps(a,a) ; {justification}\n"
    with pytest.raises(ParseError) as exc:
        parse_proof_script(text)
    assert str(exc.value) == f"error at {where} ({message})"


def test_a_built_script_fails_a_duplicate_label_and_an_unknown_rule():
    taut = parse_formula("eps(a,a) | !eps(a,a)")
    line = ProofLine("t", taut, Justification("TAUT", (), None))
    result = check_proof(ProofScript("built", (), (line, line), None))
    assert result.lines[1] == LineResult("t", "", False, "duplicate label")
    assert result.failures == ("t",)
    foo = Justification("FOO", (), None)
    result = check_proof(ProofScript("built", (), (ProofLine("f", taut, foo),), None))
    assert result.lines == (LineResult("f", "FOO", False, f"unknown justification {foo!r}"),)
    assert not result.ok


# derivation_of looks one formula up; derived_conclusions is its oracle


def bundled_formulas():
    """Every formula a bundled script states: conclusions and steps."""
    out = []
    for script in bundled_scripts().values():
        if script.conclusion is not None:
            out.append(script.conclusion)
        out.extend(line.formula for line in script.lines)
    return out


BUNDLED_FORMULAS = bundled_formulas()


def assert_lookups_agree(formulas):
    derived = derived_conclusions()
    for formula in formulas:
        assert proofs.derivation_of(formula) == derived.get(formula), formula


def test_derivation_of_agrees_on_every_corpus_body_and_script_formula(corpus):
    assert_lookups_agree([entry.body for entry in corpus] + BUNDLED_FORMULAS)
    for name in ("A_t", "A_t-1", "Star"):
        assert proofs.derivation_of(corpus[name].body) is None


atoms = st.builds(eps, st.sampled_from("abcd"), st.sampled_from("abcd"))
lookup_formulas = st.recursive(
    st.sampled_from(BUNDLED_FORMULAS) | atoms,
    lambda sub: st.builds(Not, sub) | st.builds(Or, sub, sub) | st.builds(Implies, sub, sub),
    max_leaves=4,
)


@given(lookup_formulas)
def test_derivation_of_agrees_on_random_formulas(formula):
    assert_lookups_agree([formula])


@pytest.fixture
def tamper(monkeypatch, corpus):
    """Replace the bundled texts by edit(list of (file stem, text)) of the
    real ones, then require the two lookups to agree; the caches are
    dropped before and after, so nothing tampered outlives the test."""
    original = proofs._bundled_texts()

    def apply(edit):
        texts = edit(list(original))
        monkeypatch.setattr(proofs, "_bundled_texts", lambda: texts)
        l1ax.clear_caches()
        assert_lookups_agree([entry.body for entry in corpus] + BUNDLED_FORMULAS)

    yield apply
    l1ax.clear_caches()


def bundled_text(stem):
    return dict(proofs._bundled_texts())[stem]


def replacing(stem, text):
    return lambda texts: [(s, text if s == stem else t) for s, t in texts]


def renamed(text, old, new):
    return text.replace(f"name: {old}", f"name: {new}", 1)


BROKEN_S3 = ("eps(b,b) ; AXIOM(Ax1", "eps(b,a) ; AXIOM(Ax1")


def test_a_script_that_fails_its_check_falls_through(corpus, tamper):
    s3 = bundled_text("s3_from_base")
    broken = s3.replace(*BROKEN_S3)
    assert broken != s3
    copy = ("zz_s3_copy", renamed(s3, "s3_from_base", "s3_copy"))
    tamper(lambda texts: [*replacing("s3_from_base", broken)(texts), copy])
    assert proofs.derivation_of(corpus["A_S3"].body) == "s3_copy"
    tamper(replacing("s3_from_base", broken))
    assert proofs.derivation_of(corpus["A_S3"].body) is None


def test_a_script_without_conclude_is_found_by_its_last_line(corpus, tamper):
    s1 = bundled_text("s1_from_base")
    open_ended = "\n".join(l for l in s1.splitlines() if not l.startswith("conclude:"))
    assert open_ended != s1
    tamper(replacing("s1_from_base", open_ended))
    stated = {stem: conclusion for conclusion, stem, _ in proofs._directive_index()}
    assert stated["s1_from_base"] is None and stated["m8_from_base"] is not None
    assert proofs.derivation_of(corpus["A_S1"].body) == "s1_from_base"


def test_the_earlier_file_name_wins(corpus, tamper):
    copy = renamed(bundled_text("m8_from_base"), "m8_from_base", "m8_copy")
    tamper(lambda texts: [("a_m8", copy), *texts])
    assert proofs.derivation_of(corpus["A_M8"].body) == "m8_copy"
    tamper(lambda texts: [*texts, ("zz_m8", copy)])
    assert proofs.derivation_of(corpus["A_M8"].body) == "m8_from_base"


def test_files_that_share_a_name_are_all_kept(corpus, tamper):
    """Scripts are keyed by file: a later file with the same name: hides no
    earlier one, each is checked, and the earlier one that checks is found."""
    broken = bundled_text("s3_from_base").replace(*BROKEN_S3)
    tamper(lambda texts: [*texts, ("zz_s3", broken)])
    assert list(bundled_scripts()) == [*EXPECTED_SCRIPTS, "zz_s3"]
    results = check_bundled_proofs()
    assert results["s3_from_base"].ok and not results["zz_s3"].ok
    assert {results[stem].name for stem in ("s3_from_base", "zz_s3")} == {"s3_from_base"}
    assert proofs.derivation_of(corpus["A_S3"].body) == "s3_from_base"


@pytest.fixture
def script_parses(monkeypatch):
    """The file stems of the scripts proofs parses, and the formula texts
    it parses outside parse_proof_script. The caches are dropped before
    and after."""
    stems, formulas, depth = [], [], []

    def counted_formula(text, **kwargs):
        if not depth:
            formulas.append(text)
        return parse_formula(text, **kwargs)

    def counted_script(text, default_name="script"):
        stems.append(default_name)
        depth.append(1)
        try:
            return parse_proof_script(text, default_name)
        finally:
            depth.pop()

    monkeypatch.setattr(proofs, "parse_formula", counted_formula)
    monkeypatch.setattr(proofs, "parse_proof_script", counted_script)
    l1ax.clear_caches()
    yield stems, formulas
    l1ax.clear_caches()


def test_the_directive_index_parses_nothing(script_parses):
    index = proofs._directive_index()
    # 12 bundled scripts, 6 of them with assume: lines
    assert sum(stated is not None for stated, _, _ in index) == 6
    assert script_parses == ([], [])


@pytest.mark.parametrize(
    "schema, script, parsed",
    [
        ("A_M8", "m8_from_base", ["m8_from_base"]),
        # s1's conclusion has the atoms of A_S3Nd's, but not in their order
        ("A_S3Nd", "s3nd_from_base", ["s3nd_from_base"]),
        (RENAMED_A_M8, None, []),
        ("A_t", None, []),
    ],
    ids=["A_M8", "A_S3Nd", "renamed-A_M8", "A_t"],
)
def test_a_lookup_parses_only_the_conclusions_with_its_atoms(
    script_parses, corpus, schema, script, parsed
):
    """A lookup parses each script whose conclusion has its atoms, once,
    and no formula apart from a script."""
    body = corpus[schema].body if schema in corpus else parse_formula(schema)
    assert proofs.derivation_of(body) == script
    assert script_parses == (parsed, [])


def test_a_malformed_conclusion_fails_only_a_lookup_with_its_atoms(monkeypatch, corpus):
    """m8_from_base's conclude: reads 'eps(a,b) )', the rest of it a comment."""
    broken = bundled_text("m8_from_base").replace("conclude:", "conclude: eps(a,b) ) #", 1)
    texts = replacing("m8_from_base", broken)(proofs._bundled_texts())
    monkeypatch.setattr(proofs, "_bundled_texts", lambda: texts)
    l1ax.clear_caches()
    try:
        assert proofs.derivation_of(corpus["A_S1"].body) == "s1_from_base"
        with pytest.raises(ParseError):
            proofs.derivation_of(eps("a", "b"))
    finally:
        l1ax.clear_caches()


def test_the_bundled_texts_come_in_file_name_order(monkeypatch):
    listdir = os.listdir
    monkeypatch.setattr(os, "listdir", lambda path: listdir(path)[::-1])
    stems = [stem for stem, _ in proofs._bundled_texts()]
    assert stems == list(EXPECTED_SCRIPTS)


def test_a_malformed_conclusion_behind_assume_lines_fails_only_the_full_map(
    monkeypatch, corpus
):
    """derivation_of never reads a script with assumptions; the full map
    still parses every bundled script."""
    texts = [
        (stem, text.replace("conclude:", "conclude: )", 1) if stem == "base_from_m8" else text)
        for stem, text in proofs._bundled_texts()
    ]
    monkeypatch.setattr(proofs, "_bundled_texts", lambda: texts)
    l1ax.clear_caches()
    try:
        assert proofs.derivation_of(corpus["A_S1"].body) == "s1_from_base"
        with pytest.raises(ParseError):
            derived_conclusions()
    finally:
        l1ax.clear_caches()

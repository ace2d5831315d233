"""Command line behaviour: exit codes, output shapes, determinism."""

import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import l1ax
from l1ax import cli, reports
from l1ax.characterize import CharacterizationReport, RecoveryOutcome, characterize
from l1ax.cli import main
from l1ax.corpus import load_corpus
from l1ax.criteria import (
    InapplicablePair,
    QntReport,
    Refutation,
    TrivialityReport,
    qnt_matrix,
    quasi_triviality,
    triviality,
)
from l1ax.decision import TheoremVerdict, is_theorem
from l1ax.formula import Atom, Formula, Record, SchemaEntry
from l1ax.proofs import LineResult, ProofCheckResult, check_proof, load_proof_file
from l1ax.semantics import SemanticsVerdict, Valuation, is_tautology
from l1ax.substitution import CandidateMap, Substitution
from l1ax.syntax import (
    MAX_DEPTH,
    MAX_PARENS,
    MAX_SIZE,
    ParseError,
    SourceSpan,
    parse_formula,
    print_formula,
)
from l1ax.verify import ConjectureRow, VerificationItem, VerificationReport, conjecture_report
from test_corpus import schema_files


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_taut_tautology(capsys):
    code, out, _ = run(capsys, "taut", "eps(a,b) | !eps(a,b)")
    assert code == 0
    assert out.strip() == "tautology"


def test_taut_counterexample(capsys):
    code, out, _ = run(capsys, "taut", "eps(a,b) -> eps(b,a)")
    assert code == 0
    assert "not a tautology" in out
    assert "counterexample:" in out


def test_taut_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "taut", "eps(a,")
    assert code == 2
    assert err.startswith("error:")


def test_theorem_by_corpus_name(capsys):
    code, out, _ = run(capsys, "theorem", "A_M8")
    assert code == 0
    assert out.splitlines()[0] == "valid"


def test_theorem_refuted_formula(capsys):
    code, out, _ = run(capsys, "theorem", "eps(a,b) -> eps(b,a)")
    assert code == 0
    assert "not valid" in out
    assert "counter-valuation:" in out


def test_nontrivial_defaults_to_the_standard(capsys):
    code, out, _ = run(capsys, "nontrivial", "A_M8")
    assert code == 0
    assert "verdict: nontrivial w.r.t. A_t" in out
    assert out.count("substituted=") == 24


def test_nontrivial_with_explicit_reference(capsys):
    code, out, _ = run(capsys, "nontrivial", "A_S3", "--ref", "A_t-1")
    assert code == 0
    assert "verdict: nontrivial w.r.t. A_t-1" in out


def test_nontrivial_inapplicable_exits_two(capsys):
    code, _, err = run(capsys, "nontrivial", "Ax1")
    assert code == 2
    assert err.startswith("error:")


BUNDLED_NAMES = (
    "Ax1, Ax2, Ax3, Ax3s, A_t, A_t-1, A_M8, A_S1, A_S2, A_S3, A_S3N, A_S3Nd, "
    "Star, DoubleStar, A_k1, A_k2, A_k3, A_ad1, A_ad2, A_ad6, A_ad6_2, A_ad7, "
    "A_ad7_2, A_ad8, A_S1ex1, A_S1ex2, A_S1ex3, A_S2ex1, A_S2ex2, A_S2ex3"
)


def test_unknown_name_lists_the_corpus(capsys):
    # "-" is legal in schema names, so A_t-2 is a name, not formula text
    for name in ("A_M9", "A_t-2"):
        code, out, err = run(capsys, "theorem", name)
        assert (code, out) == (2, "")
        assert err == f"error: unknown schema name {name!r}; known names: {BUNDLED_NAMES}\n"


def test_unknown_name_lists_the_corpus_file(capsys, tmp_path):
    path = tmp_path / "mine.schemata"
    path.write_text("Mine := eps(a,b) -> eps(b,a)\nYours := eps(a,a)\n")
    code, out, err = run(capsys, "theorem", "A_M8", "--corpus-file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: unknown schema name 'A_M8'; known names: Mine, Yours\n"


def test_qnt_text_carries_the_witness(capsys):
    code, out, _ = run(capsys, "qnt", "Star", "A_M8")
    assert code == 0
    assert "verdict: quasi-trivial" in out
    assert "{a->a, b->b, d->c, e->d}" in out
    assert "cross-check (mirrored sweep): agree" in out


def test_qnt_json_shape(capsys):
    code, out, _ = run(capsys, "qnt", "DoubleStar", "A_M8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "quasi-trivial"
    assert payload["case_used"] == 2
    assert payload["witness_left_oriented"] == {
        "a": "a",
        "b": "b",
        "c": "v1",
        "d": "c",
        "e": "d",
    }
    # canonical JSON: two-space indent, sorted keys
    assert out.strip() == json.dumps(payload, indent=2, sort_keys=True)


def test_qnt_refutations_survive_in_pair_json(capsys):
    code, out, _ = run(capsys, "qnt", "A_S1", "A_S2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "quasi-nontrivial"
    assert len(payload["refutations"]) == 24


def test_matrix_text_summary(capsys):
    code, out, _ = run(capsys, "matrix")
    assert code == 0
    assert out.strip().endswith("off-diagonal quasi-nontrivial: 20/20")


def test_matrix_json_compresses_refutations(capsys):
    code, out, _ = run(capsys, "matrix", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cells"]) == 25
    cell = payload["cells"]["A_S1|A_S2"]
    assert cell["verdict"] == "quasi-nontrivial"
    assert cell["refutation_count"] == 24
    assert "refutations" not in cell
    diagonal = payload["cells"]["A_M8|A_M8"]
    assert diagonal["verdict"] == "quasi-trivial"


def test_matrix_over_a_custom_corpus(capsys, tmp_path):
    path = tmp_path / "two.schemata"
    path.write_text(
        "M := eps(a,b) & eps(c,d) -> eps(a,a) & eps(c,c)"
        " & (eps(b,c) -> eps(a,d) & eps(b,a))\n"
        "N := eps(a,b) & eps(c,d) -> eps(a,a)"
        " & (eps(b,c) -> eps(a,d) & eps(b,a))\n"
    )
    code, out, _ = run(capsys, "matrix", "--corpus", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["cells"]) == ["M|M", "M|N", "N|M", "N|N"]


def test_characteristic_text(capsys):
    code, out, _ = run(capsys, "characteristic", "A_M8", "--max-pool", "3")
    assert code == 0
    assert "characteristic: yes" in out
    assert "provable: yes (bundled script m8_from_base)" in out

    code, out, _ = run(capsys, "characteristic", "A_S3")
    assert code == 0
    assert "characteristic: no" in out
    assert "Ax1: not recovered (pools <= 4)" in out


def test_characteristic_rejects_bad_pool(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["characteristic", "A_M8", "--max-pool", "7"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_check_proof_accepts_bundled_scripts(capsys, tmp_path):
    src = Path(_bundled_script("s3_from_base")).read_text()
    path = tmp_path / "ok.proof"
    path.write_text(src)
    code, out, _ = run(capsys, "check-proof", str(path))
    assert code == 0
    assert out.strip().endswith("result: ok")


def test_check_proof_rejects_a_tampered_script(capsys, tmp_path):
    src = Path(_bundled_script("s3_from_base")).read_text()
    path = tmp_path / "bad.proof"
    path.write_text(src.replace("eps(b,b) ; AXIOM(Ax1", "eps(b,a) ; AXIOM(Ax1"))
    code, out, _ = run(capsys, "check-proof", str(path))
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize(
    "justification, message",
    [
        ("AXIOM(,)", "AXIOM cites an empty name or label"),
        ("TAUTCONSEQ(,)", "TAUTCONSEQ cites an empty name or label"),
        ("MP(,a)", "MP cites an empty name or label"),
        ("TAUTCONSEQ(s1,,s2)", "TAUTCONSEQ cites an empty name or label"),
    ],
)
def test_check_proof_refuses_an_empty_argument_at_its_line(
    capsys, tmp_path, justification, message
):
    path = tmp_path / "empty.proof"
    path.write_text(
        f"s1: eps(a,a) | !eps(a,a) ; TAUT\ns2: eps(a,a) | !eps(a,a) ; {justification}\n"
    )
    assert run(capsys, "check-proof", str(path)) == (2, "", f"error: error at 2:1 ({message})\n")


def test_check_proof_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "check-proof", str(tmp_path / "nope.proof"))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("check-proof", "{path}"),
        ("theorem", "A_t", "--corpus-file", "{path}"),
        ("matrix", "--corpus", "{path}"),
    ],
)
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_paths_exit_two_with_one_line(capsys, tmp_path, argv, kind):
    path = tmp_path / "nope" if kind == "missing" else tmp_path
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno ")
    assert err.endswith(f"{str(path)!r}\n")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("!" * 3000 + "eps(a,b)", f"formula nests deeper than {MAX_DEPTH} levels"),
        ("(" * 3000 + "eps(a,b)" + ")" * 3000, f"parentheses nest deeper than {MAX_PARENS} levels"),
        (" & ".join(["eps(a,b)"] * 400), f"formula nests deeper than {MAX_DEPTH} levels"),
    ],
    ids=["bangs", "parentheses", "flat-conjunction"],
)
@pytest.mark.parametrize("command", ["taut", "theorem", "characteristic"])
def test_deep_formulas_exit_two_with_one_line(capsys, command, text, message):
    code, out, err = run(capsys, command, text)
    assert code == 2
    assert out == ""
    assert re.fullmatch(rf"error: error at 1:\d+ \({message}\)\n", err)


# depth exactly MAX_DEPTH: the valid Ax2 under 194 negations (depth 6 + 194),
# a conjunction of 67 atoms (3 levels per '&') under one negation, and A_M8
# under 191 negations (depth 9 + 191), the shape whose `qnt` overflows first
AT_THE_CAP = (
    "!" * 194 + "(eps(a,b) & eps(b,c) -> eps(a,c))",
    "!(" + " & ".join(["eps(a,b)", "eps(b,c)", "eps(c,a)"] * 22 + ["eps(a,b)"]) + ")",
    "!" * 191 + "(eps(a,b) & eps(c,d) -> eps(a,a) & eps(c,c) & (eps(b,c) -> eps(a,d) & eps(b,a)))",
)
AT_THE_CAP_COMMANDS = (
    ("taut",),
    ("theorem",),
    ("characteristic",),
    ("characteristic", "--json"),
    ("qnt", "A_M8"),
)


@pytest.mark.parametrize("text", AT_THE_CAP)
def test_formulas_at_the_depth_cap_run_every_command(capsys, text):
    with pytest.raises(ParseError, match="nests deeper"):
        parse_formula("!" + text)
    f = parse_formula(text)
    assert parse_formula(print_formula(f)) == f
    for argv in AT_THE_CAP_COMMANDS:
        code, out, err = run(capsys, *argv, text)
        assert (code, err) == (0, ""), argv
        assert out


def test_formulas_at_the_depth_cap_run_under_dash_o():
    script = (
        "import sys\n"
        "from l1ax.cli import main\n"
        "from l1ax.syntax import parse_formula, print_formula\n"
        f"for text in {AT_THE_CAP!r}:\n"
        "    f = parse_formula(text)\n"
        "    if parse_formula(print_formula(f)) != f:\n"
        "        sys.exit(1)\n"
        f"    for argv in {AT_THE_CAP_COMMANDS!r}:\n"
        "        if main([*argv, text]) != 0:\n"
        "            sys.exit(1)\n"
    )
    src = str(Path(l1ax.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_conjectures_json_rows(capsys):
    code, out, _ = run(capsys, "conjectures", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 16
    for row in payload["rows"]:
        assert set(row["comparisons"]) == {
            "A_M8",
            "A_S1",
            "A_S2",
            "A_S3N",
            "A_S3Nd",
        }


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.strip().endswith("result: ok")
    assert "FAIL" not in out


def test_resolution_through_a_corpus_file(capsys, tmp_path):
    path = tmp_path / "mine.schemata"
    path.write_text("Mine := eps(a,b) -> eps(b,a)\n")
    code, out, _ = run(capsys, "theorem", "Mine", "--corpus-file", str(path))
    assert code == 0
    assert "not valid" in out


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "matrix", "--json")
    _, second, _ = run(capsys, "matrix", "--json")
    assert first == second


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "l1ax.cli", "taut", "eps(a,a) | !eps(a,a)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "tautology"


def test_readme_usage_lists_exactly_the_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    usage = readme.split("## Command line", 1)[1].split("```")[1]
    assert re.findall(r"^l1ax (\S+)", usage, flags=re.M) == list(cli.COMMANDS)


def test_jsonable_rejects_objects_without_a_json_form():
    for value in (object(), {}):
        with pytest.raises(TypeError, match=f"no JSON form for {type(value).__name__}"):
            reports.jsonable(value)


def test_each_derived_flag_follows_its_witness_both_ways():
    derived = {
        SemanticsVerdict: "holds", TheoremVerdict: "valid", RecoveryOutcome: "recovered",
        CharacterizationReport: "characteristic", TrivialityReport: "verdict",
        QntReport: "case_used verdict witness_left_oriented", Refutation: "target_value",
        InapplicablePair: "verdict", ProofCheckResult: "failures ok",
    }
    for cls, names in derived.items():
        for name in names.split():
            assert isinstance(vars(cls)[name], property) and name not in cls.__slots__
    corpus = load_corpus()
    three, four = corpus["A_t"], corpus["A_S1"]
    v = Valuation((), frozenset())
    pool = ("a", "b", "c")
    cand = CandidateMap((2, 1, 3), Substitution.of({"a": "b", "b": "a", "c": "c"}))
    assert SemanticsVerdict(None).holds and not SemanticsVerdict(v).holds
    assert TheoremVerdict(pool, None).valid and not TheoremVerdict(pool, v).valid
    found = RecoveryOutcome(three, 3, (), (), None)
    missed = RecoveryOutcome(three, 4, (), (), v)
    assert found.recovered and not missed.recovered
    valid, invalid = TheoremVerdict(pool, None), TheoremVerdict(pool, v)
    assert CharacterizationReport(three, valid, (found,) * 3, 4, None).characteristic
    assert not CharacterizationReport(three, invalid, (found,) * 3, 4, None).characteristic
    assert not CharacterizationReport(three, valid, (found, missed, found), 4, None).characteristic
    assert TrivialityReport(three, three, cand, (), 3).verdict == "trivial"
    assert TrivialityReport(three, three, None, (), 6).verdict == "nontrivial"
    assert Refutation(cand.rho, cand.sigma, v, True).target_value is False
    assert Refutation(cand.rho, cand.sigma, v, False).target_value is True
    hit = QntReport(three, three, cand, (), 3, (True, True), "agree")
    miss = QntReport(three, three, None, (), 6, (True, True), "agree")
    assert (hit.verdict, miss.verdict) == ("quasi-trivial", "quasi-nontrivial")
    assert hit.witness_left_oriented == cand.sigma.invert()
    assert miss.witness_left_oriented is None
    # case 1 maps the right side onto the left unless the left has more variables
    assert [QntReport(a, b, None, (), 0, (True, True), None).case_used
            for a, b in ((three, four), (four, four), (four, three))] == [1, 1, 2]
    assert QntReport(four, three, cand, (), 1, (True, True), None).witness_left_oriented == cand.sigma
    assert QntReport(three, four, cand, (), 1, (True, True), None).witness_left_oriented is None
    assert InapplicablePair(three, four, "why").verdict == "inapplicable"
    passed, failed = LineResult("s1", "TAUT", True, ""), LineResult("s2", "TAUT", False, "x")
    for lines, conclusion_ok, failures in (
        ((), True, ()),
        ((passed,), True, ()),
        ((passed, failed), True, ("s2",)),
        ((passed,), False, ("(conclusion)",)),
        ((failed,), False, ("s2", "(conclusion)")),
    ):
        result = ProofCheckResult("p", lines, conclusion_ok)
        assert (result.failures, result.ok) == (failures, not failures), failures


def records_within(value):
    """Every record jsonable lowers by its one rule, value included, found
    through fields, tuples and dict values."""
    if isinstance(value, (tuple, list)):
        return [r for item in value for r in records_within(item)]
    if isinstance(value, dict):
        return records_within(list(value.values()))
    if isinstance(value, Record) and not isinstance(
        value, (Formula, SchemaEntry, Substitution, Valuation)
    ):
        found = [value]
        for name in type(value).__slots__:
            found += records_within(getattr(value, name))
        return found
    return []


def test_jsonable_lowers_a_record_to_its_fields_and_properties():
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
    seen = set()
    for record in records_within(top):
        cls = type(record)
        seen.add(cls)
        data = reports.jsonable(record)
        if isinstance(record, ConjectureRow):
            # the conjectures command writes a whole schema entry and
            # compressed sweeps
            summary = json.loads(reports.json_document(reports.conjecture_summary(record)))
            assert sorted(summary) == [
                "characterization", "comparisons", "nontriviality", "schema"
            ]
        keys = set(cls.__slots__) | {n for n, v in vars(cls).items() if isinstance(v, property)}
        assert set(data) == keys, cls.__name__
    derived = {
        SemanticsVerdict, TheoremVerdict, RecoveryOutcome, CharacterizationReport,
        TrivialityReport, QntReport, Refutation, InapplicablePair, ProofCheckResult,
        VerificationReport,
    }
    assert derived <= seen


# the values jsonable makes, with text that needs escaping and ints of any size
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@given(json_values)
def test_json_document_is_the_canonical_json_dump(value):
    assert reports.json_document(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_document_covers_escapes_and_empty_containers():
    value = {"é\"\\\n\x00": ["☃", "\x7f", "", {}, [], True, False, None, -(2**70)], "": {}}
    assert reports.json_document(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, (1.5,), {1}, {"a": [0.0]}, {1: 2}])
def test_json_document_rejects_other_types(value):
    with pytest.raises(TypeError):
        reports.json_document(value)


def test_valuation_text_names_the_shorter_side():
    domain = tuple(Atom(x, y) for x in "ab" for y in "ab")

    def text(counter):
        return reports.valuation_text(Valuation.at_counter(domain, counter))

    assert text(0b0000) == "all atoms true"
    assert text(0b1111) == "all atoms false"
    assert text(0b0100) == "false: eps(b,a); all other atoms true"
    assert text(0b1011) == "true: eps(b,a); all other atoms false"
    # a tie names the false side
    assert text(0b0110) == "false: eps(a,b), eps(b,a); all other atoms true"


# a request reads the bundled corpus only to resolve a name-shaped argument,
# or for verify, conjectures and matrix without --corpus


@pytest.fixture
def loads(monkeypatch):
    """The arguments of every load_corpus call the command line makes."""
    calls = []
    real = cli.load_corpus

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "load_corpus", counted)
    return calls


def _bundled_script(name):
    return str(Path(l1ax.__file__).with_name("proofs") / f"{name}.proof")


SYMMETRY = "eps(a,b) -> eps(b,a)"
A_M8_TEXT = (
    "eps(a,b) & eps(c,d) -> eps(a,a) & eps(c,c) & (eps(b,c) -> eps(a,d) & eps(b,a))"
)


@pytest.mark.parametrize(
    "argv",
    [
        ("taut", SYMMETRY),
        ("theorem", SYMMETRY),
        ("characteristic", SYMMETRY, "--max-pool", "3"),
        ("check-proof", "{script}"),
        ("qnt", A_M8_TEXT, A_M8_TEXT),
        ("nontrivial", A_M8_TEXT, "--ref", A_M8_TEXT),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_formula_text_reads_no_corpus(capsys, loads, argv, json_flag):
    script = _bundled_script("s3_from_base")
    code, out, _ = run(capsys, *(a.format(script=script) for a in argv), *json_flag)
    assert code == 0
    assert loads == []


@pytest.mark.parametrize(
    "argv",
    [
        ("qnt", "A_M8", "A_S1"),
        ("nontrivial", A_M8_TEXT),
        ("theorem", "A_M9"),
        ("verify",),
        ("conjectures",),
        ("matrix",),
    ],
    ids=" ".join,
)
def test_a_name_reads_the_bundled_corpus_once(capsys, loads, argv):
    run(capsys, *argv)
    assert loads == [()]


def test_matrix_over_a_file_reads_no_bundled_corpus(capsys, loads, tmp_path):
    path = tmp_path / "one.schemata"
    path.write_text(f"M := {A_M8_TEXT}\n")
    code, out, _ = run(capsys, "matrix", "--corpus", str(path))
    assert code == 0
    assert out.startswith("entries: M\n")
    assert loads == [(Path(path),)]


def test_a_missing_corpus_file_fails_before_the_command_runs(capsys, loads, tmp_path):
    path = tmp_path / "nope.schemata"
    code, out, err = run(capsys, "taut", SYMMETRY, "--corpus-file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno ")
    assert err.count("\n") == 1
    assert loads == [(Path(path),)]


# main renders only the output it prints

RENDER_ARGVS = [
    ("taut", SYMMETRY),
    ("theorem", "A_M8"),
    ("nontrivial", "A_M8"),
    ("qnt", "A_S1", "A_S2"),
    ("matrix",),
    ("characteristic", "A_S3", "--max-pool", "3"),
    ("check-proof", "{script}"),
    ("check-proof", "{broken}"),
    ("verify",),
    ("conjectures",),
]


@pytest.fixture
def renders(monkeypatch):
    """Names of the reports functions called, jsonable, json_document and
    every *_text."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in dir(reports):
        if name in ("jsonable", "json_document") or name.endswith("_text"):
            monkeypatch.setattr(reports, name, counted(name, getattr(reports, name)))
    return calls


@pytest.mark.parametrize("argv", RENDER_ARGVS, ids=" ".join)
def test_only_the_requested_format_is_rendered(capsys, renders, tmp_path, argv):
    broken = tmp_path / "broken.proof"
    broken.write_text(
        Path(_bundled_script("s3_from_base"))
        .read_text()
        .replace("eps(b,b) ; AXIOM(Ax1", "eps(b,a) ; AXIOM(Ax1")
    )
    argv = [a.format(script=_bundled_script("s3_from_base"), broken=broken) for a in argv]
    code, _, _ = run(capsys, *argv)
    assert code in (0, 1)
    assert renders and "jsonable" not in renders
    renders.clear()
    assert run(capsys, *argv, "--json")[0] == code
    assert renders and not any(name.endswith("_text") for name in renders)


# a standard output that cannot be written is a user error

class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_an_unwritable_stdout_exits_two_with_one_error_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["taut", SYMMETRY])
    assert (code, capsys.readouterr().err) == (2, "error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("sink", ["closed pipe", "/dev/full"])
@pytest.mark.parametrize("argv", [("taut", SYMMETRY), ("conjectures", "--json")], ids=" ".join)
def test_an_unwritable_stdout_exits_two_in_a_fresh_process(sink, argv):
    if sink == "/dev/full":
        if not os.path.exists(sink):
            pytest.skip("no /dev/full")
        stdout = os.open(sink, os.O_WRONLY)
    else:
        read_end, stdout = os.pipe()
        os.close(read_end)
    # buffered, as a plain run is: a short answer then sits in the buffer the
    # interpreter flushes again at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(l1ax.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "l1ax.cli", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env=env,
        )
    finally:
        os.close(stdout)
    assert proc.returncode == 2, proc.stderr
    assert re.fullmatch(r"error: \[Errno \d+\] [^\n]*\n", proc.stderr)


# input files are read as UTF-8 whatever the locale, and an answer that an
# ASCII stdout cannot encode is an unwritable stdout


def run_under_an_ascii_locale(*argv):
    """A fresh process of the command line whose locale, file system and
    standard streams are ASCII."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(("LC_", "LANG", "PYTHONIOENCODING", "PYTHONUTF8"))
    }
    env.update(
        LC_ALL="C",
        PYTHONCOERCECLOCALE="0",
        PYTHONPATH=str(Path(l1ax.__file__).resolve().parents[1]),
    )
    return subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "l1ax.cli", *argv],
        capture_output=True,
        timeout=60,
        env=env,
    )


@pytest.mark.parametrize(
    "name, line, argv",
    [
        ("mine.proof", "s1: eps(a,b) -> eps(a,a) ; AXIOM(Ax1)", ("check-proof",)),
        ("mine.schemata", f"Mine := {SYMMETRY}", ("theorem", "Mine", "--corpus-file")),
    ],
    ids=["proof", "schemata"],
)
def test_a_utf8_input_file_is_read_under_an_ascii_locale(capsys, tmp_path, name, line, argv):
    path = tmp_path / name
    path.write_text(f"# r\u00e9sum\u00e9\n{line}\n", encoding="utf-8")
    proc = run_under_an_ascii_locale(*argv, str(path))
    assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
    # the bytes it prints under the test's own locale
    assert proc.stdout == run(capsys, *argv, str(path))[1].encode()


def test_an_answer_an_ascii_stdout_cannot_encode_exits_two(tmp_path):
    path = tmp_path / "mine.proof"
    path.write_text("name: caf\u00e9\ns1: eps(a,b) -> eps(a,a) ; AXIOM(Ax1)\n", encoding="utf-8")
    proc = run_under_an_ascii_locale("check-proof", str(path))
    assert (proc.returncode, proc.stdout) == (2, b""), proc.stderr
    assert re.fullmatch(rb"error: 'ascii' codec can't encode [^\n]*\n", proc.stderr)


def test_the_parser_is_built_once_and_survives_clear_caches():
    parser = cli.build_parser()
    l1ax.clear_caches()
    assert cli.build_parser() is parser


def test_reusing_the_parser_leaks_no_state_between_requests(tmp_path):
    from test_output_identity import DATA, _argvs, _record, _write_files

    files = _write_files(tmp_path)
    expected = json.loads(DATA.read_text())
    argvs = _argvs()
    for argv in argvs + argvs[::-1]:
        assert _record(argv, files) == expected[" ".join(argv)], argv


def test_proof_script_errors_point_at_their_column():
    from l1ax.proofs import parse_proof_script

    text = Path(_bundled_script("base_from_m8")).read_text()
    with pytest.raises(ParseError, match=r"^error at 9:9 \(unknown token 'A'\)$"):
        parse_proof_script(text.replace("s2: eps(", "s2: eps(A,a) & eps(", 1))
    # an uppercase B in an assumed schema, the conclusion, and a justification
    # map, each behind extra blanks
    for old, new in [
        ("assume: A_M8 := eps(a,b)", "assume:  A_M8  :=  eps(a,B)"),
        ("conclude: (eps(a,b)", "conclude:   (eps(a,B)"),
        ("s1: eps", "  s1:  eps"),
    ]:
        script = text.replace(old, new).replace("{c->a, d->b}", "{c->a,  d->B}")
        lineno, line = next((i, l) for i, l in enumerate(script.splitlines(), 1) if "B" in l)
        with pytest.raises(ParseError) as exc:
            parse_proof_script(script)
        assert exc.value.span == SourceSpan(lineno, line.index("B") + 1)


# characteristic and verify look up the one bundled derivation they cite


@pytest.fixture
def proof_work(monkeypatch):
    """Counts of bundled-text reads, script parses and proof checks."""
    counts = {"texts": 0, "parse": 0, "check": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for key, name in (
        ("texts", "_bundled_texts"),
        ("parse", "parse_proof_script"),
        ("check", "check_proof"),
    ):
        monkeypatch.setattr(l1ax.proofs, name, counted(key, getattr(l1ax.proofs, name)))
    l1ax.clear_caches()
    yield counts
    l1ax.clear_caches()


# A_M8 with a and d swapped: valid and characteristic, but no script concludes it
RENAMED_A_M8 = (
    "eps(d,b) & eps(c,a) -> eps(d,d) & eps(c,c) & (eps(b,c) -> eps(d,a) & eps(b,d))"
)


@pytest.mark.parametrize(
    "schema, script, checks",
    [("A_S3", "s3_from_base", 1), ("A_t", None, 0), (RENAMED_A_M8, None, 0)],
    ids=["A_S3", "A_t", "renamed-A_M8"],
)
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_characteristic_checks_only_the_script_it_cites(
    capsys, proof_work, schema, script, checks, json_flag
):
    code, out, _ = run(capsys, "characteristic", schema, "--max-pool", "3", *json_flag)
    assert code == 0
    if json_flag:
        assert json.loads(out)["derivation_script"] == script
    else:
        assert (f"provable: yes (bundled script {script})" in out) == (script is not None)
    assert proof_work == {"texts": 1, "parse": checks, "check": checks}


def test_verify_cites_the_same_derivations(capsys, proof_work):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert re.findall(r"provable \((\w+)\)", out) == ["m8_from_base", "s3_from_base"]


def test_the_directive_index_is_rebuilt_after_clear_caches(capsys, proof_work):
    argv = ("characteristic", "A_S3", "--max-pool", "3")
    run(capsys, *argv)
    run(capsys, *argv)
    assert proof_work == {"texts": 1, "parse": 2, "check": 2}
    l1ax.clear_caches()
    run(capsys, *argv)
    assert proof_work == {"texts": 2, "parse": 3, "check": 3}


# an iff chain outgrows syntax.MAX_SIZE before any walk visits its copies

IFF_CHAIN = " <-> ".join(["eps(a,b)"] * 19)  # 2,883,574 nodes desugared
PAST_THE_SIZE = "formula expands to more than 4096 nodes"


@pytest.mark.parametrize(
    "argv, where",
    [
        (("taut", IFF_CHAIN), "1:114"),
        (("theorem", IFF_CHAIN), "1:114"),
        (("theorem", "X", "--corpus-file", "{file}"), "3:122"),
    ],
    ids=["taut", "theorem", "schema-file"],
)
def test_an_oversize_formula_fails_fast_at_its_operator(capsys, tmp_path, argv, where):
    path = tmp_path / "big.schemata"
    path.write_text(f"X := eps(a,b)\n\nBig :=  {IFF_CHAIN}\n")
    start = time.perf_counter()
    code, out, err = run(capsys, *(a.format(file=path) for a in argv))
    assert time.perf_counter() - start < 0.1
    assert (code, out, err) == (2, "", f"error: error at {where} ({PAST_THE_SIZE})\n")


# Every command frees what it builds by reference counting alone, so a
# request leaves the cycle collector nothing to find; --json too, since
# reports.json_document writes the JSON text without the standard library's
# indenting encoder, whose closures refer to themselves.
ACYCLIC_ARGVS = [
    ["taut", "eps(a,b) -> eps(b,a)"],
    ["theorem", "A_M8"],
    ["theorem", "eps(a,b) -> eps(b,a)"],
    ["qnt", "A_S1", "A_S2"],
    ["qnt", "Star", "A_M8"],
    ["nontrivial", "A_M8"],
    ["characteristic", "A_S3", "--max-pool", "3"],
    ["check-proof", _bundled_script("s3_from_base")],
    ["matrix"],
    ["verify"],
    ["conjectures"],
]
ACYCLIC_ARGVS += [[*argv, "--json"] for argv in ACYCLIC_ARGVS]


@pytest.mark.parametrize(
    "argv", ACYCLIC_ARGVS, ids=lambda argv: argv[0] + " --json" * (argv[-1] == "--json")
)
def test_a_command_leaves_no_reference_cycles(capsys, argv):
    main(argv)  # warm up: the parser and other program constants
    l1ax.clear_caches()
    gc.collect()
    gc.disable()
    try:
        main(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_an_internal_fault_exits_3_on_one_line(capsys, monkeypatch):
    real = l1ax.criteria.evaluate
    monkeypatch.setattr(l1ax.criteria, "evaluate", lambda f, v: not real(f, v))
    code, out, err = run(capsys, "qnt", "A_M8", "A_S1")
    assert (code, out) == (3, "")
    assert re.fullmatch(r"internal error: refutation of \{[^\n]*\} fails its replay\n", err)


def test_a_witness_that_fails_its_replay_in_decide_mode_exits_3(capsys, monkeypatch):
    # a verdict that carries a counterexample never holds
    never = l1ax.semantics.SemanticsVerdict(l1ax.semantics.Valuation((), frozenset()))
    monkeypatch.setattr(l1ax.criteria, "are_equivalent", lambda a, b: never)
    code, out, err = run(capsys, "matrix")
    assert (code, out) == (3, "")
    assert re.fullmatch(r"internal error: witness \{[^\n]*\} fails its replay\n", err)


def test_a_stray_key_error_is_an_internal_fault(capsys, monkeypatch):
    def faulty_lookup(left, right):
        return {}[left.name]

    monkeypatch.setattr(l1ax.criteria, "quasi_triviality", faulty_lookup)
    code, out, err = run(capsys, "qnt", "A_S1", "A_S2")
    assert (code, out, err) == (3, "", "internal error: 'A_S1'\n")


@pytest.mark.parametrize("error", [ValueError, TypeError])
def test_a_stray_exception_is_an_internal_fault(capsys, monkeypatch, error):
    def faulty_check(formula):
        raise error("a fault of the program")

    monkeypatch.setattr(l1ax.decision, "is_theorem", faulty_check)
    code, out, err = run(capsys, "theorem", "A_t")
    assert (code, out, err) == (3, "", "internal error: a fault of the program\n")


@pytest.mark.parametrize("command", ["theorem", "characteristic"])
def test_a_schema_beyond_the_pool_cap_is_a_user_error(capsys, command):
    code, out, err = run(capsys, command, "eps(a,b) & eps(c,d) & eps(e,f)")
    assert (code, out, err) == (2, "", "error: pool size 6 outside 1..5\n")


def test_a_file_that_is_not_text_is_a_user_error(capsys, tmp_path):
    path = tmp_path / "binary.schemata"
    path.write_bytes(b"X := eps(a,b)\xff\n")
    code, out, err = run(capsys, "theorem", "X", "--corpus-file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: 'utf-8' codec can't decode byte 0xff in position 13: invalid start byte\n"


# drawn proof scripts: directives, then steps, some with bad justifications;
# or junk text
directives = st.sampled_from(
    [
        "name: drawn",
        "assume: A := eps(a,b) -> eps(a,a)",
        "assume: eps(a,b)",  # no ':='
        "meta: source = drawn",
        "meta: source",  # no '='
        "conclude: eps(a,b) -> eps(a,a)",
        "conclude: eps(a,",
        "# comment",
    ]
)
steps = st.sampled_from(
    [
        "s1: eps(a,b) -> eps(a,a) ; SCHEMA(A)",
        "s2: eps(c,d) -> eps(c,c) ; SCHEMA(A, {a->c, b->d})",
        "s3: eps(a,b) | !eps(a,b) ; TAUT",
        "s4: eps(a,a) ; MP(s3, s1)",
        "s5: eps(a,a) ; TAUTCONSEQ(s1, s9)",
        "s6: eps(a,b) -> eps(a,a) ; AXIOM(Ax1)",
        "s7: eps(a,a) ; SCHEMA(Nope)",
        "s8: eps(a,a) ; AXIOM(Ax9, {a->b})",
        "s9: eps(b,a) -> eps(b,b) ; SUBST(s1, {a->b, b->a})",
        "s10: eps(a,a) ; SUBST(s1, {a->})",
        "s11: eps(a,a) ; MP(s1)",
        "s12: eps(a,a) ; BOGUS(s1)",
        "s1: eps(a,a) ; TAUT",  # a duplicate label when s1 is drawn too
        "s13: eps(a,a)",  # no justification
    ]
)
proof_scripts = st.one_of(
    st.tuples(st.lists(directives, max_size=3), st.lists(steps, min_size=1, max_size=4)).map(
        lambda parts: "\n".join(parts[0] + parts[1])
    ),
    st.text(alphabet="eps(a,b);:->{}|!&s1 TAUMP\n", max_size=24),
)


@pytest.fixture(scope="module")
def drawn_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn")


@given(schema_files, st.sampled_from(["X1", "A_t", "B-2", "Q"]), proof_scripts)
def test_main_ends_in_an_exit_code_on_drawn_files(drawn_dir, text, name, script):
    schemata, proof = drawn_dir / "drawn.schemata", drawn_dir / "drawn.proof"
    schemata.write_text(text)
    proof.write_text(script)
    for argv in (
        ["theorem", name, "--corpus-file", str(schemata)],
        ["matrix", "--corpus", str(schemata)],
        ["check-proof", str(proof)],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 2:
            assert out.getvalue() == "" and re.fullmatch(r"error: [^\n]*\n", err.getvalue()), argv
        else:
            assert code in (0, 1) and err.getvalue() == "", (argv, code, err.getvalue())


# the parsers at their limits: formula text nested just under and just over
# MAX_DEPTH and MAX_PARENS, '<->' chains of atoms around MAX_SIZE, the
# reserved names as variables, junk characters, and proof scripts whose
# justifications have empty, extra or unbalanced arguments. Every example
# stays cheap: the sweeps see at most four variables, or nine, which exceed
# MAP_BUDGET before any table; a proof line at most nine atoms; `theorem` is
# bounded by the five-name pool cap; `taut` is left out, as ATOM_BUDGET
# admits tables of gigabytes.
JUNK = "#$%^~`@?;:=.\t\n\x00\u00e9"


def iff_operands():
    """The most atoms a '<->' chain holds within MAX_SIZE nodes."""
    operands, size = 1, 1
    while 8 + 2 * size + 2 <= MAX_SIZE:
        operands, size = operands + 1, 8 + 2 * size + 2
    return operands


def mutated(text, kind, at, junk):
    """text, with eps for its first variable or a junk character inserted
    after its first, as kind says, or as it is."""
    if kind == "eps":
        return text.replace("eps(", "eps(eps,", 1)
    if kind == "junk":
        return text[:at] + junk + text[at:]
    return text


def formula_shapes(variables):
    """Formula text over variables: small, then just under or just over
    MAX_SIZE, MAX_DEPTH and MAX_PARENS; now and then with the reserved
    word eps for a variable or with a junk character."""
    atom = st.builds("eps({},{})".format, st.sampled_from(variables), st.sampled_from(variables))
    small = st.one_of(
        st.lists(atom, min_size=2, max_size=4).map(lambda a: " & ".join(a[:-1]) + " -> " + a[-1]),
        st.recursive(
            atom,
            lambda f: st.builds("({} -> {})".format, f, f) | st.builds("!{}".format, f),
            max_leaves=4,
        ),
    )
    k = iff_operands()
    shapes = (
        small,
        st.integers(k - 1, k + 1).flatmap(
            lambda n: st.lists(atom, min_size=n, max_size=n).map(" <-> ".join)
        ),
        st.builds(lambda d, f: "!" * d + f, st.integers(MAX_DEPTH - 2, MAX_DEPTH + 1), atom),
        st.builds(
            lambda p, f: "(" * p + f + ")" * p, st.integers(MAX_PARENS - 1, MAX_PARENS + 1), atom
        ),
    )
    return [
        st.builds(
            mutated,
            shape,
            st.sampled_from(["eps", "junk", "", "", "", ""]),
            st.integers(1, 30),
            st.sampled_from(JUNK),
        )
        for shape in shapes
    ]


# nine variables: 9! renamings exceed MAP_BUDGET before anything is tabled
WIDE = " & ".join(f"eps(x{i},x{i + 1})" for i in range(8)) + " -> eps(x0,x0)"
# small ones, '<->' chains, or WIDE; the deep shapes name too few variables
sweep_formulas = st.sampled_from(["wide", "", "", ""]).flatmap(
    lambda kind: st.just(WIDE) if kind else st.one_of(formula_shapes(("a", "b", "c", "y1"))[:2])
)
justifications = st.builds(
    lambda rule, args, shape: shape.format(rule, ",".join(args)),
    st.sampled_from(["TAUT", "AXIOM", "SCHEMA", "MP", "SUBST", "TAUTCONSEQ", "FOO"]),
    st.lists(
        st.sampled_from(["", " ", "s1", "s2", "Ax1", "Ax2", "A", "{a->b}", "{a->u1", "b->a}"]),
        max_size=4,
    ),
    st.sampled_from(["{}({})", "{}({}", "{}(({})", "{}({}))", "{}"]),
)
script_formulas = st.one_of(formula_shapes(("a", "b", "v1")))
limit_scripts = st.builds(
    lambda assumed, lines: f"assume: A := {assumed}\n"
    + "".join(f"s{i}: {f} ; {j}\n" for i, (f, j) in enumerate(lines, 1)),
    script_formulas,
    st.lists(
        st.tuples(script_formulas, justifications)
        | st.sampled_from(
            [
                ("eps(a,a) | !eps(a,a)", "TAUT"),
                ("eps(a,b)", "TAUT"),
                ("eps(a,b) -> eps(a,a)", "AXIOM(Ax1)"),
            ]
        ),
        min_size=1,
        max_size=3,
    ),
)


def main_ends_cleanly(argv):
    """main(argv) exits 0 or 1 with nothing on stderr, or 2 with one error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert out.getvalue() == "" and re.fullmatch(r"error: [^\n]*\n", err.getvalue()), argv
    else:
        assert code in (0, 1) and err.getvalue() == "", (argv, code, err.getvalue())


@settings(deadline=2000)
@given(
    st.tuples(*formula_shapes(("a", "b", "c", "d", "e", "f", "y1", "u1", "v1"))),
    sweep_formulas,
    sweep_formulas,
    limit_scripts,
    st.sampled_from([[], ["--json"]]),
)
def test_main_ends_in_an_exit_code_at_the_parsers_limits(
    drawn_dir, texts, left, right, script, flags
):
    proof = drawn_dir / "limits.proof"
    proof.write_text(script)
    for argv in (
        *(["theorem", text] for text in texts),
        ["qnt", left, right],
        ["nontrivial", left],
        ["nontrivial", right, "--ref", left],
        ["check-proof", str(proof)],
    ):
        main_ends_cleanly(argv + flags)

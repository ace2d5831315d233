"""The bundled schema corpus: names, lazy parsing, and transcription pins."""

from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from l1ax import syntax
from l1ax.axioms import A_T, AX1, AX2, AX3, AX3S
from l1ax.cli import main
from l1ax.corpus import Corpus, load_corpus, validate_entries
from l1ax.formula import And, Implies, conjoin, eps
from l1ax.syntax import parse_formula, parse_schema_file, print_formula

ALL_NAMES = (
    "Ax1",
    "Ax2",
    "Ax3",
    "Ax3s",
    "A_t",
    "A_t-1",
    "A_M8",
    "A_S1",
    "A_S2",
    "A_S3",
    "A_S3N",
    "A_S3Nd",
    "Star",
    "DoubleStar",
    "A_k1",
    "A_k2",
    "A_k3",
    "A_ad1",
    "A_ad2",
    "A_ad6",
    "A_ad6_2",
    "A_ad7",
    "A_ad7_2",
    "A_ad8",
    "A_S1ex1",
    "A_S1ex2",
    "A_S1ex3",
    "A_S2ex1",
    "A_S2ex2",
    "A_S2ex3",
)

CONJECTURES = ALL_NAMES[14:]


def test_names_and_size(corpus):
    assert corpus.names() == ALL_NAMES
    assert len(corpus) == 30
    assert "A_M8" in corpus
    assert "A_M9" not in corpus


def test_established_five(corpus):
    five = corpus.established_five()
    assert tuple(e.name for e in five) == ("A_M8", "A_S1", "A_S2", "A_S3N", "A_S3Nd")
    for e in five:
        assert e == corpus[e.name]


def test_conjecture_entries(corpus):
    assert tuple(e.name for e in corpus.conjecture_entries()) == CONJECTURES


def test_axiom_constants_match_the_corpus(corpus):
    for constant in (AX1, AX2, AX3, AX3S, A_T):
        assert corpus[constant.name] == constant


def test_unknown_name_raises_with_the_known_list(corpus):
    with pytest.raises(KeyError) as exc:
        corpus["A_M9"]
    assert "A_M9" in str(exc.value)
    assert "A_M8" in str(exc.value)


def test_reference_schema_transcription(corpus):
    expected = Implies(
        And(eps("a", "b"), eps("c", "d")),
        conjoin(
            eps("a", "a"),
            eps("c", "c"),
            Implies(eps("b", "c"), And(eps("a", "d"), eps("b", "a"))),
        ),
    )
    assert corpus["A_M8"].body == expected
    assert corpus["A_M8"].variables == ("a", "b", "c", "d")


def test_flat_conjunction_schema_transcription(corpus):
    expected = Implies(
        And(eps("a", "b"), eps("b", "c")),
        conjoin(eps("a", "a"), eps("b", "b"), eps("a", "c"), eps("b", "a")),
    )
    assert corpus["A_ad8"].body == expected


def test_companion_schemata_variable_order(corpus):
    # the d-before-c occurrence order drives the map enumeration
    assert corpus["Star"].variables == ("a", "b", "d", "e")
    assert corpus["DoubleStar"].variables == ("a", "b", "d", "e", "c")
    assert corpus["Star"].body == parse_formula(
        "eps(a,b) & eps(d,e) -> eps(d,d) & eps(a,a)"
        " & (eps(b,d) -> eps(a,e)) & (!eps(b,a) -> !eps(b,d))"
    )
    assert corpus["DoubleStar"].body == parse_formula(
        "eps(a,b) & eps(d,e) -> eps(d,d) & eps(a,a)"
        " & (eps(b,d) -> eps(a,e) & eps(b,a)) & (eps(c,c) | !eps(c,c))"
    )


def test_every_body_round_trips_through_the_printer(corpus):
    for entry in corpus:
        assert parse_formula(print_formula(entry.body)) == entry.body


def test_loading_a_custom_schema_file(tmp_path):
    path = tmp_path / "mine.schemata"
    path.write_text("Mine := eps(a,b) -> eps(a,a)\n")
    custom = load_corpus(path)
    assert custom.names() == ("Mine",)
    assert custom["Mine"].arity == 2


def test_reserved_fresh_names_rejected_at_load(tmp_path):
    path = tmp_path / "bad.schemata"
    path.write_text("Bad := eps(y1,a) -> eps(y1,y1)\n")
    with pytest.raises(ValueError) as exc:
        load_corpus(path)
    assert "reserved" in str(exc.value)


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "nope.schemata")


# a corpus parses an entry the first time it is read; a schema file given by
# path has every entry read at load


def test_every_bundled_entry_parses_and_validates():
    text = resources.files("l1ax").joinpath("data/corpus.schemata").read_text()
    eager = parse_schema_file(text)
    validate_entries(eager, "bundled corpus")
    corpus = load_corpus()
    assert corpus.names() == tuple(eager) == ALL_NAMES
    assert [corpus[name] for name in reversed(ALL_NAMES)] == list(reversed(eager.values()))


@pytest.fixture
def corpus_parses(monkeypatch):
    """The line of every formula parsed from a schema file."""
    lines = []
    real = syntax.parse_formula

    def counted(text, line=1, column=1):
        lines.append(line)
        return real(text, line, column)

    monkeypatch.setattr(syntax, "parse_formula", counted)
    return lines


@pytest.mark.parametrize(
    "argv, parsed",
    [
        (("theorem", "A_M8"), 1),
        (("qnt", "A_M8", "A_S1"), 2),
        (("nontrivial", "A_M8", "--ref", "A_M8"), 1),
        (("verify",), 30),
    ],
    ids=["theorem", "qnt", "one-name-twice", "verify"],
)
def test_a_request_parses_only_the_entries_it_reads(capsys, corpus_parses, argv, parsed):
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert len(corpus_parses) == len(set(corpus_parses)) == parsed


def test_names_membership_and_the_unknown_name_error_parse_nothing(corpus_parses):
    corpus = load_corpus()
    assert corpus.names() == ALL_NAMES
    assert len(corpus) == 30 and "A_M8" in corpus and "A_M9" not in corpus
    with pytest.raises(KeyError, match="unknown schema name 'A_M9'; known names: Ax1, Ax2,"):
        corpus["A_M9"]
    assert corpus_parses == []


BAD_FILES = [
    # (text, stderr of `theorem X --corpus-file FILE`), FILE standing for the path
    ("X := eps(a,b) -> eps(a,a)\nY := eps(a,\n", "error: error at 2:12 (expected a variable)\n"),
    ("X := eps(a,b) -> eps(a,a)\nX := eps(a,b)\n", "error: error at 2:1 (duplicate schema name 'X')\n"),
    (
        "X := eps(a,b) -> eps(a,a)\nY := eps(y1,a) -> eps(a,a)\n",
        "error: FILE: schema 'Y' uses reserved fresh variable names ['y1']; the pools"
        " y1.., u1.., v1.. are reserved for generated substitutions\n",
    ),
]


@pytest.mark.parametrize("text, message", BAD_FILES, ids=["formula", "duplicate", "reserved"])
def test_a_bad_line_of_a_corpus_file_fails_a_request_for_another_name(
    capsys, tmp_path, text, message
):
    path = tmp_path / "bad.schemata"
    path.write_text(text)
    assert main(["theorem", "X", "--corpus-file", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", message.replace("FILE", str(path)))


# generated schema files: valid lines, and each way a line can be wrong
line_kinds = st.sampled_from(
    [
        "{name} := eps(a,b) -> eps(b,a)",
        "{name} :=eps(a,b) & eps(c,c)  # note",
        "  {name}  :=   !eps(b,a)",
        "{name} := eps(y1,a) -> eps(a,a)",  # reserved variable
        "{name} := eps(a, -> eps(a,a)",  # bad formula
        "{name} eps(a,b)",  # no ':='
        "1{name} := eps(a,b)",  # bad name
        "",
        "# comment",
    ]
)
# "X1" twice, so that duplicate definitions are drawn often
schema_files = st.lists(
    st.tuples(line_kinds, st.sampled_from(["X1", "A_t", "B-2", "X1"])), max_size=6
).map(lambda lines: "\n".join(kind.format(name=name) for kind, name in lines))


def read(entries_of, text, order):
    """The names and entries of a schema file, read in the given order, or
    the type and message of the first error; entries_of gives the entries
    and their names."""
    try:
        entries, names = entries_of(text)
        for i in order(len(names)):
            entries[names[i]]
        return names, [entries[name] for name in names]
    except ValueError as exc:
        return type(exc), str(exc)


@given(schema_files, st.randoms(use_true_random=False))
def test_entries_read_on_demand_match_the_whole_file_parse(text, rng):
    def eager(text):
        entries = parse_schema_file(text)
        validate_entries(entries, "drawn")
        return entries, list(entries)

    def lazy(text):
        # iterating a Corpus parses its entries, so its names come from names()
        corpus = Corpus(text, "drawn")
        return corpus, list(corpus.names())

    def shuffled(n):
        return rng.sample(range(n), n)

    expected = read(eager, text, range)
    assert read(lazy, text, shuffled) == expected

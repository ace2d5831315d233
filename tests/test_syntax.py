"""Concrete syntax: parsing, printing, and the round trip between them.

The regex scanner and index-reading parser of `l1ax.syntax` replaced a
character-loop tokenizer and a parser over Token objects. That pair is kept
below, verbatim, as the oracle: both must give the same formula, or the same
error message and span, on every input within the depth limit.
"""

import re
from dataclasses import dataclass
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from l1ax import proofs, syntax
from l1ax.formula import (
    And,
    Atom,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    atoms,
    eps,
    is_valid_variable,
    name_variables,
)
from l1ax.substitution import Substitution
from l1ax.syntax import (
    MAX_DEPTH,
    MAX_PARENS,
    MAX_SIZE,
    ParseError,
    SourceSpan,
    parse_formula,
    parse_schema_file,
    parse_substitution_mapping,
    print_formula,
    scanned_atoms,
)

ab, ba, cd, aa = eps("a", "b"), eps("b", "a"), eps("c", "d"), eps("a", "a")


def test_parse_simple_implication():
    assert parse_formula("eps(a,b) -> eps(a,a)") == Implies(ab, aa)


def test_connective_precedence():
    # ! binds tighter than &, & tighter than |, | tighter than ->
    f = parse_formula("!eps(a,b) & eps(b,a) | eps(c,d) -> eps(a,a)")
    assert f == Implies(Or(And(Not(ab), ba), cd), aa)


def test_implication_is_right_associative():
    f = parse_formula("eps(a,b) -> eps(b,a) -> eps(c,d)")
    assert f == Implies(ab, Implies(ba, cd))


def test_biconditional_folds_left():
    f = parse_formula("eps(a,b) <-> eps(b,a) <-> eps(c,d)")
    assert f == Iff(Iff(ab, ba), cd)


def test_biconditional_binds_loosest():
    f = parse_formula("eps(a,b) -> eps(b,a) <-> eps(c,d)")
    assert f == Iff(Implies(ab, ba), cd)


def test_parentheses_override_precedence():
    f = parse_formula("(eps(a,b) -> eps(b,a)) -> eps(c,d)")
    assert f == Implies(Implies(ab, ba), cd)


def test_whitespace_is_insignificant():
    assert parse_formula("eps( a , b )->eps(a,a)") == parse_formula(
        "eps(a,b) -> eps(a,a)"
    )


def test_double_negation_parses():
    assert parse_formula("!!eps(a,b)") == Not(Not(ab))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_formula("eps(a,b) -> ")
    assert "error at 1:" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_formula("eps(a,b")
    assert "error at 1:" in str(exc.value)

    with pytest.raises(ParseError):
        parse_formula("eps(a,b) eps(c,d)")

    with pytest.raises(ParseError):
        parse_formula("")


def test_parse_error_line_offset_is_honoured():
    with pytest.raises(ParseError) as exc:
        parse_formula("eps(a,", line=7)
    assert "error at 7:" in str(exc.value)


def test_corpus_bodies_round_trip(corpus):
    for entry in corpus:
        assert parse_formula(print_formula(entry.body)) == entry.body


variables = st.sampled_from(["a", "b", "c", "d", "e"])
leaves = st.builds(eps, variables, variables)
formulas = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Or, sub, sub),
        st.builds(And, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Iff, sub, sub),
    ),
    max_leaves=12,
)


@given(formulas)
def test_print_parse_round_trip(f):
    assert parse_formula(print_formula(f)) == f


@given(formulas)
def test_atoms_and_variables_follow_the_printed_text(f):
    # the printed text is read left to right, independently of the tree walk
    found = re.findall(r"eps\((\w+),(\w+)\)", print_formula(f))
    assert atoms(f) == tuple(Atom(x, y) for x, y in dict.fromkeys(found))
    assert name_variables(f) == tuple(dict.fromkeys(v for pair in found for v in pair))


def test_substitution_mapping_round_trip():
    mapping = {"a": "b", "c": "y1"}
    assert parse_substitution_mapping(str(Substitution.of(mapping))) == mapping
    assert parse_substitution_mapping("{ a ->b ,c-> y1 }") == mapping


def test_substitution_mapping_rejects_duplicates():
    with pytest.raises(ParseError):
        parse_substitution_mapping("{a->b, a->c}")


def test_substitution_mapping_rejects_garbage():
    for bad in ("a->b", "{a->}", "{->b}", "{a=>b}"):
        with pytest.raises(ParseError):
            parse_substitution_mapping(bad)


def test_schema_file_basics():
    text = """# leading comment
X1 := eps(a,b) -> eps(a,a)

X2 := eps(a,b) & eps(b,c) -> eps(a,c)  # trailing note
"""
    entries = parse_schema_file(text)
    assert list(entries) == ["X1", "X2"]
    assert entries["X1"].arity == 2
    assert entries["X2"].body == parse_formula("eps(a,b) & eps(b,c) -> eps(a,c)")


def test_schema_file_rejects_duplicates():
    with pytest.raises(ValueError):
        parse_schema_file("X := eps(a,b)\nX := eps(b,a)\n")


def test_schema_file_errors_report_their_line():
    with pytest.raises(ParseError) as exc:
        parse_schema_file("X1 := eps(a,b)\nX2 := eps(a,\n")
    assert "error at 2:" in str(exc.value)


# the reference implementation: tokenizer and parser as they were before the
# regex scanner


_PUNCT = (
    ("<->", "DARROW"),
    ("->", "ARROW"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    (",", "COMMA"),
    ("!", "BANG"),
    ("&", "AMP"),
    ("|", "PIPE"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
)


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    span: SourceSpan


def tokenize(text: str, line: int = 1, column: int = 1) -> list[Token]:
    """Token stream for formulas and substitutions, ending with EOF.

    line/column give the position of text[0] inside the enclosing source,
    so errors in schema files and proof scripts point at the real location.
    """
    tokens: list[Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            column += 1
            i += 1
            continue
        span = SourceSpan(line, column)
        for lit, kind in _PUNCT:
            if text.startswith(lit, i):
                tokens.append(Token(kind, lit, span))
                i += len(lit)
                column += len(lit)
                break
        else:
            if ch.isalpha() and ch.islower():
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                tokens.append(Token("IDENT", word, span))
                column += j - i
                i = j
            else:
                raise ParseError(f"unknown token {ch!r}", span)
    tokens.append(Token("EOF", "", SourceSpan(line, column)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.span)
        return self.advance()

    def parse_formula(self) -> Formula:
        left = self.parse_imp()
        while self.peek().kind == "DARROW":
            self.advance()
            left = Iff(left, self.parse_imp())
        return left

    def parse_imp(self) -> Formula:
        left = self.parse_or()
        if self.peek().kind == "ARROW":
            self.advance()
            return Implies(left, self.parse_imp())
        return left

    def parse_or(self) -> Formula:
        left = self.parse_and()
        while self.peek().kind == "PIPE":
            self.advance()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_not()
        while self.peek().kind == "AMP":
            self.advance()
            left = And(left, self.parse_not())
        return left

    def parse_not(self) -> Formula:
        tok = self.peek()
        if tok.kind == "BANG":
            self.advance()
            return Not(self.parse_not())
        if tok.kind == "LPAREN":
            self.advance()
            inner = self.parse_formula()
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind == "IDENT" and tok.text == "eps":
            self.advance()
            self.expect("LPAREN", "'(' after eps")
            subject = self.parse_variable()
            self.expect("COMMA", "','")
            predicate = self.parse_variable()
            self.expect("RPAREN", "')'")
            return Atom(subject, predicate)
        raise ParseError("expected a formula", tok.span)

    def parse_variable(self) -> str:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise ParseError("expected a variable", tok.span)
        if not is_valid_variable(tok.text):
            raise ParseError(f"invalid variable name {tok.text!r}", tok.span)
        self.advance()
        return tok.text

    def parse_substitution_body(self) -> dict[str, str]:
        self.expect("LBRACE", "'{'")
        mapping: dict[str, str] = {}
        if self.peek().kind != "RBRACE":
            while True:
                src_tok = self.peek()
                src = self.parse_variable()
                self.expect("ARROW", "'->'")
                tgt = self.parse_variable()
                if src in mapping:
                    raise ParseError(f"duplicate source variable {src!r}", src_tok.span)
                mapping[src] = tgt
                if self.peek().kind != "COMMA":
                    break
                self.advance()
        self.expect("RBRACE", "'}'")
        return mapping


def reference_parse_formula(text: str, line: int = 1, column: int = 1) -> Formula:
    parser = _Parser(tokenize(text, line, column))
    if parser.peek().kind == "EOF":
        raise ParseError("empty input", parser.peek().span)
    formula = parser.parse_formula()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected {tok.text!r} after formula", tok.span)
    return formula


def reference_parse_substitution_mapping(text: str, line: int = 1, column: int = 1) -> dict[str, str]:
    """Parse '{a->b, c->d}' into a plain mapping. '{}' is the identity."""
    parser = _Parser(tokenize(text, line, column))
    mapping = parser.parse_substitution_body()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected {tok.text!r} after substitution", tok.span)
    return mapping


# printer


def outcome(parse, *args):
    """The parse result, or the type, message and span of its ParseError."""
    try:
        return parse(*args)
    except ParseError as exc:
        return type(exc), exc.message, exc.span


def reference_outcome(parse, *args):
    """outcome() with the reference parser behind every formula and
    substitution that parse reads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(syntax, "parse_formula", reference_parse_formula)
        mp.setattr(proofs, "parse_formula", reference_parse_formula)
        mp.setattr(proofs, "parse_substitution_mapping", reference_parse_substitution_mapping)
        return outcome(parse, *args)


blanks = st.text(alphabet=" \t\r\n", max_size=3)


@st.composite
def spaced(draw, f):
    """f printed, with random blanks, newlines included, between its tokens."""
    tokens = re.findall(r"<->|->|\w+|\S", print_formula(f))
    return "".join(tok + draw(blanks) for tok in tokens)


# junk from fragments: operators, names, braces, blanks, uppercase, digits,
# non-ASCII letters and characters no token starts with
junk = st.lists(
    st.sampled_from(
        [
            "eps(", "eps", "a", "b1", "x_y", "(", ")", ",", "!", "&", "|", "->",
            "<->", "<-", "<", "-", "{", "}", " ", "\n", "\t", "\r", "\x0b", "A",
            "Eps", "1", "_", "$", "é²ªß", "ǅ", "eps(a,b)", "{a->b}", "{c->y1, d->a}",
        ]
    ),
    max_size=14,
).map("".join)
texts = st.one_of(formulas.flatmap(spaced), junk)
positions = st.integers(min_value=1, max_value=40)


@given(texts, positions, positions)
def test_parse_formula_matches_the_reference(text, line, column):
    assert outcome(parse_formula, text, line, column) == outcome(
        reference_parse_formula, text, line, column
    )


mappings = st.dictionaries(variables, st.sampled_from(["a", "b", "y1", "u2"]), max_size=4)
substitution_texts = st.one_of(
    mappings.map(lambda m: str(Substitution.of(m))).flatmap(
        lambda text: st.lists(blanks, min_size=len(text) + 1, max_size=len(text) + 1).map(
            lambda gaps: "".join(g + c for g, c in zip(gaps, text + " "))
        )
    ),
    junk,
)


@given(substitution_texts, positions, positions)
def test_parse_substitution_mapping_matches_the_reference(text, line, column):
    assert outcome(parse_substitution_mapping, text, line, column) == outcome(
        reference_parse_substitution_mapping, text, line, column
    )


# atoms side by side, in a substitution, spread over lines, with 'eps' as a
# name, misspelt, followed by a word, with an uppercase name and unclosed:
# the junk above seldom draws these next to a well-formed atom token
ATOM_SHAPED = [
    "eps(a,b) eps(c,d)",
    "{eps(a,b)->c}",
    "{a->eps(b,c)}",
    "{} eps(a,b)",
    "eps ( a ,\n b )",
    "eps(eps,a)",
    "eps(a,eps)",
    "eps(eps(a,b),c)",
    "epsx(a,b)",
    "eps(a,b)c",
    "eps(A,b)",
    "eps(a,b",
]


@pytest.mark.parametrize("text", ATOM_SHAPED)
@pytest.mark.parametrize(
    "parse, reference",
    [
        (parse_formula, reference_parse_formula),
        (parse_substitution_mapping, reference_parse_substitution_mapping),
    ],
    ids=["formula", "substitution"],
)
def test_atom_shaped_input_parses_as_the_reference_parses_it(parse, reference, text):
    assert outcome(parse, text, 2, 7) == outcome(reference, text, 2, 7)


@given(st.one_of(texts, st.sampled_from(ATOM_SHAPED)))
def test_scanned_atoms_are_the_atoms_of_what_parses(text):
    parsed = outcome(parse_formula, text)
    if not isinstance(parsed, tuple):
        assert scanned_atoms(text) == atoms(parsed)


@given(formulas, st.sampled_from(["", " ", "\n\t "]))
def test_scanned_atoms_of_a_printed_formula_are_its_atoms_in_order(f, blank):
    """Most texts above do not parse; these all do, with blanks inside and
    around every atom token."""
    text = re.sub(r"([(),])", rf"{blank}\1{blank}", print_formula(f))
    assert scanned_atoms(text) == atoms(parse_formula(text)) == atoms(f)


# "X1" twice, so that duplicate definitions are drawn often
names = st.sampled_from(["X1", "A_t", "B-2", "x", "1X", "X1"])


@given(st.lists(st.tuples(names, blanks, texts, st.sampled_from(["", "  # note"])), max_size=4))
def test_parse_schema_file_matches_the_reference(lines):
    text = "\n".join(f"{name} :={gap}{body}{comment}" for name, gap, body, comment in lines)
    assert outcome(parse_schema_file, text) == reference_outcome(parse_schema_file, text)


@given(texts, texts, texts, substitution_texts)
def test_parse_proof_script_matches_the_reference(assumed, conclusion, step, sigma):
    text = (
        f"name: drawn\nassume: S := {assumed}\nconclude: {conclusion}\n"
        f"s1: {step} ; SCHEMA(S, {sigma})\ns2: {conclusion} ; TAUTCONSEQ(s1)\n"
    )
    assert outcome(proofs.parse_proof_script, text) == reference_outcome(
        proofs.parse_proof_script, text
    )


def test_bundled_sources_parse_as_the_reference_parses_them():
    root = resources.files("l1ax")
    corpus_text = root.joinpath("data/corpus.schemata").read_text()
    assert parse_schema_file(corpus_text) == reference_outcome(parse_schema_file, corpus_text)
    for entry in root.joinpath("proofs").iterdir():
        text = entry.read_text()
        assert proofs.parse_proof_script(text) == reference_outcome(
            proofs.parse_proof_script, text
        )


def test_a_blank_formula_is_located_just_past_its_separator():
    for text in ("X :=   ", "X :=\t\t# note"):
        with pytest.raises(ParseError) as exc:
            parse_schema_file(text)
        assert (exc.value.message, exc.value.span) == ("empty input", SourceSpan(1, 5))
    with pytest.raises(ParseError) as exc:
        proofs.parse_proof_script("conclude:   \nt: eps(a,a) | !eps(a,a) ; TAUT\n")
    assert (exc.value.message, exc.value.span) == ("empty input", SourceSpan(1, 10))


def test_an_error_at_the_end_counts_the_trailing_blanks():
    tail = " \t\r\n" * 2000
    assert parse_formula("eps(a,b)" + tail) == eps("a", "b")
    with pytest.raises(ParseError) as exc:
        parse_formula("eps(a,b) ->" + tail, line=3, column=5)
    assert exc.value.span == SourceSpan(2003, 1)
    with pytest.raises(ParseError) as exc:
        parse_formula("eps(a,b) ->  ", line=3, column=5)
    assert exc.value.span == SourceSpan(3, 18)


def depth(f):
    """AST depth, an atom counting 1."""
    if isinstance(f, Not):
        return 1 + depth(f.operand)
    if isinstance(f, Or):
        return 1 + max(depth(f.left), depth(f.right))
    return 1


def chain(op, n):
    return f" {op} ".join(["eps(a,b)"] * n)


@pytest.mark.parametrize(
    "text",
    [
        "(" * MAX_PARENS + "eps(a,b)" + ")" * MAX_PARENS,
        "!" * (MAX_DEPTH - 1) + "eps(a,b)",
        chain("&", 67),
        chain("->", MAX_DEPTH - 1),
        chain("|", MAX_DEPTH),
        # siblings do not nest
        " | ".join(["(eps(a,b))"] * (MAX_PARENS + 50)),
        # the most parser frames: six per '(!', one per further '!'
        "(!" * MAX_PARENS + "!" * (MAX_DEPTH - MAX_PARENS - 1) + "eps(a,b)" + ")" * MAX_PARENS,
    ],
)
def test_formulas_up_to_the_depth_limit_parse(text):
    f = parse_formula(text)
    assert depth(f) <= MAX_DEPTH
    assert parse_formula(print_formula(f)) == f


@pytest.mark.parametrize(
    "text, column",
    [
        # '!' nesting: the first token past the limit
        ("!" * 3000 + "eps(a,b)", MAX_DEPTH + 2),
        # depth: the operator whose node passes the limit
        ("!" * MAX_DEPTH + "eps(a,b)", 1),
        (chain("&", 68), 67 * len("eps(a,b) & ") - 1),
        (chain("&", 400), 67 * len("eps(a,b) & ") - 1),
        (chain("|", MAX_DEPTH + 1), MAX_DEPTH * len("eps(a,b) | ") - 1),
        # an iff chain outgrows MAX_SIZE long before MAX_DEPTH: deepen its
        # last operand instead
        (chain("<->", 3) + " <-> " + "!" * 195 + "eps(a,b)", 2 * len("eps(a,b) <-> ") + 10),
    ],
)
def test_deeper_formulas_fail_as_parse_errors(text, column):
    with pytest.raises(ParseError) as exc:
        parse_formula(text, line=2)
    assert exc.value.message == f"formula nests deeper than {MAX_DEPTH} levels"
    assert exc.value.span == SourceSpan(2, column)


@pytest.mark.parametrize(
    "text",
    [
        "(" * (MAX_PARENS + 1) + "eps(a,b)" + ")" * (MAX_PARENS + 1),
        "(" * 3000,
        "(!" * 3000,
    ],
)
def test_deeper_parentheses_fail_at_the_first_one_past_the_limit(text):
    with pytest.raises(ParseError) as exc:
        parse_formula(text, line=2)
    assert exc.value.message == f"parentheses nest deeper than {MAX_PARENS} levels"
    past = [i for i, c in enumerate(text) if c == "("][MAX_PARENS]
    assert exc.value.span == SourceSpan(2, past + 1)


def test_parsed_depth_is_the_formula_depth():
    # the parser's count is exact: a conjunction of n atoms is 3n - 2 deep
    for n in (33, 34, 66, 67):
        assert depth(parse_formula(chain("&", n))) == 3 * n - 2
    assert depth(parse_formula(chain("->", MAX_DEPTH - 1))) == MAX_DEPTH
    assert depth(parse_formula(chain("<->", 4))) == 16


def size(f):
    """Node count of the desugared formula, shared subterms counted each time."""
    if isinstance(f, Not):
        return 1 + size(f.operand)
    if isinstance(f, Or):
        return 1 + size(f.left) + size(f.right)
    return 1


def balanced(k):
    """A disjunction of 2^k atoms, k deep."""
    return "eps(a,b)" if k == 0 else f"({balanced(k - 1)} | {balanced(k - 1)})"


def parsed_size(text):
    return syntax._Parser(text, 1, 1).parse_formula(0)[2]


@given(formulas)
def test_parsed_size_is_the_node_count(f):
    assert parsed_size(print_formula(f)) == size(f)


def test_an_iff_chain_doubles_its_size_per_operand(monkeypatch):
    monkeypatch.setattr(syntax, "MAX_SIZE", 10**6)
    assert [parsed_size(chain("<->", n)) for n in (1, 2, 3, 4, 14)] == [1, 12, 34, 78, 90102]


@pytest.mark.parametrize(
    "text, column",
    [
        # the tenth operand takes the chain to 5622 nodes
        (chain("<->", 10), 8 * len("eps(a,b) <-> ") + 10),
        (chain("<->", 41), 8 * len("eps(a,b) <-> ") + 10),
        # a balanced disjunction of 2048 atoms has 4095 nodes; '!' adds one
        ("!" + balanced(11), None),
        ("!!" + balanced(11), 1),
    ],
    ids=["iff-10", "iff-41", "at-the-limit", "past-the-limit"],
)
def test_larger_formulas_fail_as_parse_errors(text, column):
    if column is None:
        assert size(parse_formula(text)) == MAX_SIZE
        return
    with pytest.raises(ParseError) as exc:
        parse_formula(text, line=2)
    assert exc.value.message == f"formula expands to more than {MAX_SIZE} nodes"
    assert exc.value.span == SourceSpan(2, column)

"""Concrete syntax: scanner, parser, printer, schema files, substitutions.

Grammar (binding from loosest to tightest):

    formula := iff
    iff     := imp ("<->" imp)*          left associative
    imp     := or ("->" imp)?            right associative
    or      := and ("|" and)*            left associative
    and     := not ("&" not)*            left associative
    not     := "!" not | "(" formula ")" | "eps(" var "," var ")"
    var     := [a-z][a-z0-9_]*           'eps' is reserved

One compiled regex splits the input into token strings; the parser reads
them by index. A well-formed atom, 'eps(' var ',' var ')' with blanks
allowed between its parts, is one token, which the parser turns straight
into an Atom; any other text scans into operators, words and single
characters, and fails as it would if atoms were scanned part by part. An
error message quotes an atom token as 'eps', its first part. Positions are
not tracked per token: a ParseError's span is worked out from the offset
of the offending token when it is raised. A
formula deeper than MAX_DEPTH, one that desugars to more than MAX_SIZE nodes,
or parentheses nested deeper than MAX_PARENS, are refused with a ParseError.

The printer is the exact inverse of the parser on desugared formulas: it
resugars conjunction, implication and equivalence patterns and emits minimal
parentheses, so parse(print(f)) == f structurally.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator

from .formula import (
    And,
    Atom,
    Formula,
    Iff,
    Implies,
    InputError,
    Not,
    Or,
    Record,
    SchemaEntry,
    is_valid_variable,
)


class SourceSpan(Record):
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(InputError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"error at {span} ({message})")
        self.message = message
        self.span = span


# Bounds on the input, set from the recursion depths measured at the default
# recursion limit under pytest. Every walk of a formula (compile, substitute,
# evaluate, print, ==, hash) recurses per level of its depth, and `qnt` on two
# formulas of depth 316 raises RecursionError; MAX_DEPTH leaves over a third
# of that to callers' frames. The parser spends five frames per parenthesis,
# which add no depth, and overflows at 190 nested ones.
MAX_DEPTH = 200
MAX_PARENS = 100
# Bound on the desugared node count. '<->' holds each operand twice, so an
# iff chain doubles per operand within MAX_DEPTH (14 operands: 90,102 nodes)
# and every walk visits each copy. Bundled corpus entries expand to at most
# 35 nodes and proof-script formulas to 46.
MAX_SIZE = 4096

# one token after optional blanks: a whole atom (two valid variable names,
# neither 'eps'), an operator, a word (\w is exactly str.isalnum() or "_"),
# or any other single character, refused below. The scan ends at the last
# token, so blanks are always followed by one.
_VAR = r"[ \t\r\n]*(?!eps\b)[a-z][a-z0-9_]*[ \t\r\n]*"
_TOKEN = re.compile(rf"[ \t\r\n]*(eps[ \t\r\n]*\({_VAR},{_VAR}\)|<->|->|[(),!&|{{}}]|\w+|.)")
_PUNCT = frozenset(("<->", "->", "(", ")", ",", "!", "&", "|", "{", "}"))
_NAME = re.compile(r"[a-z][a-z0-9_]*")


def _is_atom(tok: str) -> bool:
    # no other token is longer than one character and ends in ')'
    return tok[-1:] == ")" and len(tok) > 1


def _quoted(tok: str) -> str:
    """tok as a message quotes it: an atom token by its first part."""
    return repr("eps" if _is_atom(tok) else tok)


class _Parser:
    """Recursive descent over the token texts of one input, "" closing them.

    Tokens are plain strings; the span of an error is worked out from the
    text only when the error is raised. The formula methods return the
    formula, its depth after desugaring (an atom is 1, '&' adds 3
    levels, '<->' 5), bounded by MAX_DEPTH, and its desugared node count
    (an atom is 1; '!' adds 1, '|' 1, '->' 2, '&' 4; 'l <-> r' is
    8 + 2l + 2r), bounded by MAX_SIZE. `nest` counts the '!' and
    right-nested '->' enclosing the current position; each adds a level, so
    bounding it by MAX_DEPTH as the parser descends refuses no formula the
    depth bound accepts. `parens` counts the enclosing '(', up to MAX_PARENS.
    """

    def __init__(self, text: str, line: int, column: int):
        self.text = text
        self.origin = line, column
        # the scan ends at the last token: a search restarting at each
        # trailing blank would take quadratic time
        self.end = len(text.rstrip(" \t\r\n"))
        tokens = _TOKEN.findall(text, 0, self.end)
        for i, tok in enumerate(tokens):
            if tok not in _PUNCT and not (tok[0].isalpha() and tok[0].islower()):
                raise self.error(f"unknown token {tok[0]!r}", i)
        tokens.append("")
        self.tokens = tokens
        self.pos = 0
        self.parens = 0

    def error(self, message: str, i: int) -> ParseError:
        """A ParseError located at token i, counting lines from the origin."""
        match = next(itertools.islice(_TOKEN.finditer(self.text, 0, self.end), i, None), None)
        offset = len(self.text) if match is None else match.start(1)
        line, column = self.origin
        newline = self.text.rfind("\n", 0, offset)
        if newline < 0:
            return ParseError(message, SourceSpan(line, column + offset))
        return ParseError(
            message, SourceSpan(line + self.text.count("\n", 0, offset), offset - newline)
        )

    def bound(self, depth: int, i: int) -> None:
        if depth > MAX_DEPTH:
            raise self.error(f"formula nests deeper than {MAX_DEPTH} levels", i)

    def node(self, formula: Formula, depth: int, size: int, i: int) -> tuple[Formula, int, int]:
        """The formula built at token i with its depth and size, both bounded."""
        self.bound(depth, i)
        if size > MAX_SIZE:
            raise self.error(f"formula expands to more than {MAX_SIZE} nodes", i)
        return formula, depth, size

    def expect(self, tok: str, what: str) -> None:
        if self.tokens[self.pos] != tok:
            raise self.error(f"expected {what}", self.pos)
        self.pos += 1

    def parse_formula(self, nest: int) -> tuple[Formula, int, int]:
        left, depth, size = self.parse_imp(nest)
        while self.tokens[self.pos] == "<->":
            op = self.pos
            self.pos += 1
            right, d, n = self.parse_imp(nest)
            left, depth, size = self.node(
                Iff(left, right), max(depth, d) + 5, 8 + 2 * (size + n), op
            )
        return left, depth, size

    def parse_imp(self, nest: int) -> tuple[Formula, int, int]:
        left, depth, size = self.parse_or(nest)
        if self.tokens[self.pos] == "->":
            op = self.pos
            self.pos += 1
            right, d, n = self.parse_imp(nest + 1)
            return self.node(Implies(left, right), max(depth + 1, d) + 1, size + n + 2, op)
        return left, depth, size

    def parse_or(self, nest: int) -> tuple[Formula, int, int]:
        left, depth, size = self.parse_and(nest)
        while self.tokens[self.pos] == "|":
            op = self.pos
            self.pos += 1
            right, d, n = self.parse_and(nest)
            left, depth, size = self.node(Or(left, right), max(depth, d) + 1, size + n + 1, op)
        return left, depth, size

    def parse_and(self, nest: int) -> tuple[Formula, int, int]:
        left, depth, size = self.parse_not(nest)
        while self.tokens[self.pos] == "&":
            op = self.pos
            self.pos += 1
            right, d, n = self.parse_not(nest)
            left, depth, size = self.node(And(left, right), max(depth, d) + 3, size + n + 4, op)
        return left, depth, size

    def parse_not(self, nest: int) -> tuple[Formula, int, int]:
        op = self.pos
        self.bound(nest, op)
        tok = self.tokens[op]
        if _is_atom(tok):
            self.pos += 1
            return Atom(*_NAME.findall(tok, 3)), 1, 1
        if tok == "!":
            self.pos += 1
            operand, depth, size = self.parse_not(nest + 1)
            return self.node(Not(operand), depth + 1, size + 1, op)
        if tok == "(":
            if self.parens == MAX_PARENS:
                raise self.error(f"parentheses nest deeper than {MAX_PARENS} levels", op)
            self.parens += 1
            self.pos += 1
            inner = self.parse_formula(nest)
            self.expect(")", "')'")
            self.parens -= 1
            return inner
        if tok == "eps":
            # not scanned as an atom, so malformed: find its first error
            self.pos += 1
            self.expect("(", "'(' after eps")
            subject = self.parse_variable()
            self.expect(",", "','")
            predicate = self.parse_variable()
            self.expect(")", "')'")
            # a fault guard: parts that pass these checks scan as one atom token
            raise RuntimeError(f"eps({subject},{predicate}) was not scanned as one atom")
        raise self.error("expected a formula", op)

    def parse_variable(self) -> str:
        tok = self.tokens[self.pos]
        if not tok or tok in _PUNCT:
            raise self.error("expected a variable", self.pos)
        if not is_valid_variable(tok):
            raise self.error(f"invalid variable name {_quoted(tok)}", self.pos)
        self.pos += 1
        return tok

    def parse_substitution_body(self) -> dict[str, str]:
        self.expect("{", "'{'")
        mapping: dict[str, str] = {}
        if self.tokens[self.pos] != "}":
            while True:
                src_pos = self.pos
                src = self.parse_variable()
                self.expect("->", "'->'")
                tgt = self.parse_variable()
                if src in mapping:
                    raise self.error(f"duplicate source variable {src!r}", src_pos)
                mapping[src] = tgt
                if self.tokens[self.pos] != ",":
                    break
                self.pos += 1
        self.expect("}", "'}'")
        return mapping


def parse_formula(text: str, line: int = 1, column: int = 1) -> Formula:
    """Parse formula text; line/column give the position of text[0] inside
    the enclosing source, so errors in schema files and proof scripts point
    at the real location."""
    parser = _Parser(text, line, column)
    if not parser.tokens[0]:
        raise parser.error("empty input", 0)
    formula = parser.parse_formula(0)[0]
    tok = parser.tokens[parser.pos]
    if tok:
        raise parser.error(f"unexpected {_quoted(tok)} after formula", parser.pos)
    return formula


def scanned_atoms(text: str) -> tuple[Atom, ...]:
    """The distinct atoms of text's atom tokens in order of first
    occurrence, parsing nothing: if text parses as a formula, exactly that
    formula's atoms()."""
    tokens = _TOKEN.findall(text, 0, len(text.rstrip(" \t\r\n")))
    # past its 'eps', an atom token holds only its two names as words
    names = _NAME.findall("".join([tok[3:] for tok in tokens if _is_atom(tok)]))
    return tuple(dict.fromkeys(map(Atom, names[::2], names[1::2])))


def parse_substitution_mapping(text: str, line: int = 1, column: int = 1) -> dict[str, str]:
    """Parse '{a->b, c->d}' into a plain mapping. '{}' is the identity."""
    parser = _Parser(text, line, column)
    mapping = parser.parse_substitution_body()
    tok = parser.tokens[parser.pos]
    if tok:
        raise parser.error(f"unexpected {_quoted(tok)} after substitution", parser.pos)
    return mapping


# printer


def match_and(f: Formula) -> tuple[Formula, Formula] | None:
    if (
        isinstance(f, Not)
        and isinstance(f.operand, Or)
        and isinstance(f.operand.left, Not)
        and isinstance(f.operand.right, Not)
    ):
        return f.operand.left.operand, f.operand.right.operand
    return None


def match_implies(f: Formula) -> tuple[Formula, Formula] | None:
    if isinstance(f, Or) and isinstance(f.left, Not):
        return f.left.operand, f.right
    return None


def match_iff(f: Formula) -> tuple[Formula, Formula] | None:
    conj = match_and(f)
    if conj is None:
        return None
    fwd = match_implies(conj[0])
    bwd = match_implies(conj[1])
    if fwd is not None and bwd is not None and fwd[0] == bwd[1] and fwd[1] == bwd[0]:
        return fwd
    return None


_IFF, _IMP, _OR, _AND, _NOT, _ATOM = range(6)


def _render(f: Formula, level: int) -> str:
    if isinstance(f, Atom):
        return str(f)
    pair = match_iff(f)
    if pair is not None:
        text = f"{_render(pair[0], _IFF)} <-> {_render(pair[1], _IMP)}"
        return f"({text})" if level > _IFF else text
    pair = match_and(f)
    if pair is not None:
        text = f"{_render(pair[0], _AND)} & {_render(pair[1], _NOT)}"
        return f"({text})" if level > _AND else text
    if isinstance(f, Not):
        return f"!{_render(f.operand, _NOT)}"
    pair = match_implies(f)
    if pair is not None:
        text = f"{_render(pair[0], _OR)} -> {_render(pair[1], _IMP)}"
        return f"({text})" if level > _IMP else text
    if isinstance(f, Or):
        text = f"{_render(f.left, _OR)} | {_render(f.right, _AND)}"
        return f"({text})" if level > _OR else text
    raise TypeError(f"not a formula node: {f!r}")


def print_formula(f: Formula) -> str:
    return _render(f, _IFF)


# schema files

SCHEMA_NAME_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"


def is_valid_schema_name(name: str) -> bool:
    return (
        bool(name)
        and name[0].isalpha()
        and all(c in SCHEMA_NAME_CHARS for c in name)
    )


def split_lines(text: str, sep: str, expected: str) -> Iterator[tuple[int, str, str, int]]:
    """Each line of text that is not blank once its '#' comment is cut, as
    (line number, head, rest, column of rest): head is the text before the
    first sep, rest the text after it, both stripped. Columns count from 1
    at the line's start, so errors point into the line; a blank rest is at
    the column just past sep. A line without sep is refused with a
    ParseError at its column 1 naming the expected form. Schema files and
    proof scripts are both read through this."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line:
            continue
        head, found, rest = line.partition(sep)
        if not found:
            raise ParseError(f"expected '{expected}'", SourceSpan(lineno, 1))
        rest = rest.lstrip()
        yield lineno, head.strip(), rest, len(line) - len(rest) + 1


def scan_schema_file(text: str) -> Iterator[tuple[str, str, int, int]]:
    """Yield (name, formula text, line, column) for each 'Name := formula'
    line, parsing no formula; line and column locate the formula text.

    Lines are read by split_lines. An invalid name and a duplicate name (at
    its second definition) are refused with a ParseError at column 1 of
    their line.
    """
    seen: set[str] = set()
    for lineno, name, formula_text, column in split_lines(text, ":=", "name := formula"):
        if not is_valid_schema_name(name):
            raise ParseError(f"invalid schema name {name!r}", SourceSpan(lineno, 1))
        if name in seen:
            raise ParseError(f"duplicate schema name {name!r}", SourceSpan(lineno, 1))
        seen.add(name)
        yield name, formula_text, lineno, column


def parse_schema_entry(name: str, text: str, line: int, column: int) -> SchemaEntry:
    """One scanned line of a schema file, its formula parsed."""
    return SchemaEntry.make(name, parse_formula(text, line=line, column=column))


def parse_schema_file(text: str) -> dict[str, SchemaEntry]:
    """Parse lines of the form 'Name := formula' into an ordered mapping,
    line by line: the first error in the file is the one raised."""
    return {scanned[0]: parse_schema_entry(*scanned) for scanned in scan_schema_file(text)}

"""Concrete syntax: tokenizer, parser, printer, schema files, substitutions.

Grammar (binding from loosest to tightest):

    formula := iff
    iff     := imp ("<->" imp)*          left associative
    imp     := or ("->" imp)?            right associative
    or      := and ("|" and)*            left associative
    and     := not ("&" not)*            left associative
    not     := "!" not | "(" formula ")" | "eps(" var "," var ")"
    var     := [a-z][a-z0-9_]*           'eps' is reserved

The printer is the exact inverse of the parser on desugared formulas: it
resugars conjunction, implication and equivalence patterns and emits minimal
parentheses, so parse(print(f)) == f structurally.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    is_valid_variable,
)


@dataclass(frozen=True, slots=True)
class SourceSpan:
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"error at {span} ({message})")
        self.message = message
        self.span = span


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
            return Epsilon(Atom(subject, predicate))
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


def parse_formula(text: str, line: int = 1, column: int = 1) -> Formula:
    parser = _Parser(tokenize(text, line, column))
    if parser.peek().kind == "EOF":
        raise ParseError("empty input", parser.peek().span)
    formula = parser.parse_formula()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected {tok.text!r} after formula", tok.span)
    return formula


def parse_substitution_mapping(text: str, line: int = 1, column: int = 1) -> dict[str, str]:
    """Parse '{a->b, c->d}' into a plain mapping. '{}' is the identity."""
    parser = _Parser(tokenize(text, line, column))
    mapping = parser.parse_substitution_body()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected {tok.text!r} after substitution", tok.span)
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
    if isinstance(f, Epsilon):
        return str(f.atom)
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


def parse_schema_file(text: str) -> dict[str, SchemaEntry]:
    """Parse lines of the form 'Name := formula' into an ordered mapping.

    Blank lines are skipped and '#' starts a comment. Duplicate names are
    rejected with the position of the second definition.
    """
    entries: dict[str, SchemaEntry] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if ":=" not in line:
            raise ParseError("expected 'name := formula'", SourceSpan(lineno, 1))
        name_part, formula_part = line.split(":=", 1)
        name = name_part.strip()
        if not is_valid_schema_name(name):
            raise ParseError(f"invalid schema name {name!r}", SourceSpan(lineno, 1))
        if name in entries:
            raise ParseError(f"duplicate schema name {name!r}", SourceSpan(lineno, 1))
        column = len(name_part) + 2 + (len(formula_part) - len(formula_part.lstrip())) + 1
        body = parse_formula(formula_part.strip(), line=lineno, column=column)
        entries[name] = SchemaEntry.make(name, body)
    return entries

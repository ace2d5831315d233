"""A checking kernel for Hilbert-style derivations in L1.

Scripts are sequences of labeled lines, each carrying a stated formula and a
justification. The kernel never searches for proofs; it only confirms that
every line follows by its stated rule, and it keeps checking after a failure
so a corrupted line is isolated rather than cascading. Substitution steps
are sound here because assumptions are always taken as schemata (closed
under uniform substitution), as are the base axioms.

Script text format, one directive or step per line, read by
syntax.split_lines ('#' starts a comment, blank lines are skipped):

    name: base_from_m8
    assume: A_M8 := eps(a,b) & eps(c,d) -> ...
    meta: reconstructed = true
    conclude: eps(a,b) -> eps(a,a)
    s1: eps(a,b) & eps(a,b) -> ... ; SCHEMA(A_M8, {c->a, d->b})
    s2: eps(a,b) -> eps(a,a) ; TAUTCONSEQ(s1)

Justifications: TAUT, AXIOM(name[, sigma]), SCHEMA(name[, sigma]),
MP(antecedent, implication), SUBST(line, sigma), TAUTCONSEQ(line, ...).
Each is one Justification record: the rule name, what it cites and its
substitution, printed back in this syntax by describe(). meta: lines must
read 'key = value' and are otherwise ignored. A second conclude: or a
repeated assume: name is a parse error, as a repeated step label is.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

from .axioms import AXIOMS_BY_NAME
from .formula import Atom, Formula, Implies, InputError, Record, SchemaEntry, atoms
from .semantics import entails, is_tautology
from .substitution import Substitution
from .syntax import (
    ParseError,
    SourceSpan,
    parse_formula,
    parse_substitution_mapping,
    scanned_atoms,
    split_lines,
)

DIRECTIVES = ("name", "assume", "meta", "conclude")


RULES = ("TAUT", "AXIOM", "SCHEMA", "MP", "SUBST", "TAUTCONSEQ")


class Justification(Record):
    """The rule of one line as the script writes it (one of RULES), the
    axiom, schema or line labels it cites, and its substitution: None for
    TAUT, MP and TAUTCONSEQ.

    A known rule checks its shape when the record is built, and no rule
    cites an empty name or label; a broken record raises InputError. An
    unknown rule name is left to check_proof, which fails its line."""

    rule: str
    cited: tuple[str, ...]
    sigma: Substitution | None

    def __post_init__(self) -> None:
        rule, count, substituted = self.rule, len(self.cited), self.sigma is not None
        if rule == "TAUT" and (count or substituted):
            raise InputError("TAUT cites nothing and takes no substitution")
        if rule == "MP" and (count != 2 or substituted):
            raise InputError("MP takes two line labels")
        if rule == "TAUTCONSEQ" and (not count or substituted):
            raise InputError("TAUTCONSEQ needs at least one line label")
        if rule == "SUBST" and (count != 1 or not substituted):
            raise InputError("SUBST takes a line label and a substitution")
        if rule in ("AXIOM", "SCHEMA") and (count != 1 or not substituted):
            raise InputError(f"{rule} takes a name and an optional substitution")
        if not all(self.cited):
            raise InputError(f"{rule} cites an empty name or label")

    def describe(self) -> str:
        args = self.cited if self.sigma is None else (*self.cited, str(self.sigma))
        return f"{self.rule}({', '.join(args)})" if args else self.rule


class ProofLine(Record):
    label: str
    formula: Formula
    justification: Justification


class ProofScript(Record):
    name: str
    assumptions: tuple[SchemaEntry, ...]
    lines: tuple[ProofLine, ...]
    conclusion: Formula | None


class LineResult(Record):
    label: str
    rule: str
    ok: bool
    detail: str


class ProofCheckResult(Record):
    """conclusion_ok is false when a conclusion is stated and no last line
    states it. failures holds the label of each failed line, then
    "(conclusion)", which no parsed label reads, unless conclusion_ok."""

    name: str
    lines: tuple[LineResult, ...]
    conclusion_ok: bool

    @property
    def failures(self) -> tuple[str, ...]:
        failed = tuple(line.label for line in self.lines if not line.ok)
        return failed if self.conclusion_ok else (*failed, "(conclusion)")

    @property
    def ok(self) -> bool:
        return not self.failures


def _check_line(
    line: ProofLine,
    earlier: dict[str, Formula],
    assumptions: dict[str, SchemaEntry],
) -> LineResult:
    j = line.justification
    rule = j.describe()

    def fail(detail: str) -> LineResult:
        return LineResult(line.label, rule, False, detail)

    def ok(detail: str = "") -> LineResult:
        return LineResult(line.label, rule, True, detail)

    if j.rule == "TAUT":
        verdict = is_tautology(line.formula)
        if verdict.holds:
            return ok("tautology confirmed")
        return fail(f"not a tautology; counterexample {verdict.witness}")

    if j.rule in ("AXIOM", "SCHEMA"):
        (name,) = j.cited
        axiom = j.rule == "AXIOM"
        schema = (AXIOMS_BY_NAME if axiom else assumptions).get(name)
        if schema is None:
            return fail(
                f"unknown axiom {name!r}" if axiom else f"{name!r} is not an assumed schema"
            )
        if j.sigma.apply(schema.body) == line.formula:
            return ok(f"instance of {name}" if axiom else f"instance of assumed {name}")
        return fail(f"stated formula is not {name} under {j.sigma}")

    if j.rule not in ("MP", "SUBST", "TAUTCONSEQ"):
        return fail(f"unknown justification {j!r}")
    missing = [ref for ref in j.cited if ref not in earlier]
    if missing:
        where = f" {missing[0]!r}" if j.rule == "TAUTCONSEQ" else ""
        return fail(f"cited line{where} does not precede this one")
    premises = [earlier[ref] for ref in j.cited]

    if j.rule == "MP":
        antecedent, implication = j.cited
        if premises[1] == Implies(premises[0], line.formula):
            return ok("modus ponens")
        return fail(f"line {implication} is not ({antecedent} -> this line)")

    if j.rule == "SUBST":
        if j.sigma.apply(premises[0]) == line.formula:
            return ok(f"substitution instance of {j.cited[0]}")
        return fail(f"stated formula is not {j.cited[0]} under {j.sigma}")

    verdict = entails(premises, line.formula)
    if verdict.holds:
        return ok("tautological consequence")
    return fail(f"does not follow; counterexample {verdict.witness}")


def check_proof(script: ProofScript) -> ProofCheckResult:
    """Verify every line; failures are recorded and do not stop the check."""
    assumptions = {s.name: s for s in script.assumptions}
    earlier: dict[str, Formula] = {}
    results: list[LineResult] = []
    for line in script.lines:
        if line.label in earlier:
            results.append(LineResult(line.label, "", False, "duplicate label"))
            continue
        results.append(_check_line(line, earlier, assumptions))
        # later lines may cite this one by its stated formula either way;
        # that is what isolates a single corrupted line
        earlier[line.label] = line.formula
    conclusion_ok = script.conclusion is None or (
        bool(script.lines) and script.lines[-1].formula == script.conclusion
    )
    return ProofCheckResult(script.name, tuple(results), conclusion_ok)


# script text parsing


def _strip_at(text: str, column: int) -> tuple[str, int]:
    """text without surrounding blanks, and the column of its first
    character, given the column of text[0]."""
    body = text.lstrip()
    return body.rstrip(), column + len(text) - len(body)


def _split_args(text: str, column: int, span: SourceSpan) -> list[tuple[str, int]]:
    """The top-level comma-separated arguments, each stripped and with its
    column; column is that of text[0]."""
    args: list[tuple[str, int]] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == "," and depth == 0:
            args.append(_strip_at(text[start:i], column + start))
            start = i + 1
    if text[start:].strip():
        args.append(_strip_at(text[start:], column + start))
    if depth != 0:
        raise ParseError("unbalanced braces in justification", span)
    return args


def _parse_justification(text: str, lineno: int, column: int) -> Justification:
    span = SourceSpan(lineno, 1)
    text, column = _strip_at(text, column)
    if text == "TAUT":
        return Justification("TAUT", (), None)
    if "(" not in text or not text.endswith(")"):
        raise ParseError(f"malformed justification {text!r}", span)
    head, _, inner = text.partition("(")
    pieces = _split_args(inner[:-1], column + len(head) + 1, span)
    rule = head.strip()
    # TAUT is written bare, never with parentheses
    if rule not in RULES or rule == "TAUT":
        raise ParseError(f"unknown justification {rule!r}", span)
    cited = tuple(arg for arg, _ in pieces)
    sigma = None
    if rule in ("AXIOM", "SCHEMA", "SUBST") and len(pieces) == 2:
        arg, at = pieces[1]
        sigma = Substitution.of(parse_substitution_mapping(arg, line=lineno, column=at))
        cited = cited[:1]
    elif rule in ("AXIOM", "SCHEMA") and len(pieces) == 1:
        sigma = Substitution.identity()
    try:
        return Justification(rule, cited, sigma)
    except InputError as exc:
        raise ParseError(str(exc), span) from None


# the form split_lines names when a script line has no ':'
_LINE_FORM = "label: formula ; JUSTIFICATION"


def parse_proof_script(text: str, default_name: str = "script") -> ProofScript:
    name = default_name
    assumptions: list[SchemaEntry] = []
    conclusion: Formula | None = None
    lines: list[ProofLine] = []
    seen_labels: set[str] = set()

    for lineno, head, rest, column in split_lines(text, ":", _LINE_FORM):
        span = SourceSpan(lineno, 1)
        if head == "name":
            name = rest
        elif head == "assume":
            if ":=" not in rest:
                raise ParseError("assume needs 'Name := formula'", span)
            schema_name, _, formula_text = rest.partition(":=")
            assumed = schema_name.strip()
            if any(a.name == assumed for a in assumptions):
                raise ParseError(f"duplicate assumption {assumed!r}", span)
            formula_text, column = _strip_at(formula_text, column + len(schema_name) + 2)
            body = parse_formula(formula_text, line=lineno, column=column)
            assumptions.append(SchemaEntry.make(assumed, body))
        elif head == "meta":
            if "=" not in rest:
                raise ParseError("meta needs 'key = value'", span)
        elif head == "conclude":
            if conclusion is not None:
                raise ParseError("duplicate conclude", span)
            conclusion = parse_formula(rest, line=lineno, column=column)
        else:
            if head in DIRECTIVES or not head or not head.replace("_", "").isalnum():
                raise ParseError(f"invalid step label {head!r}", span)
            if head in seen_labels:
                raise ParseError(f"duplicate step label {head!r}", span)
            if ";" not in rest:
                raise ParseError("step needs 'formula ; JUSTIFICATION'", span)
            formula_text, _, just_text = rest.rpartition(";")
            step_text, step_column = _strip_at(formula_text, column)
            formula = parse_formula(step_text, line=lineno, column=step_column)
            justification = _parse_justification(
                just_text, lineno, column + len(formula_text) + 1
            )
            seen_labels.add(head)
            lines.append(ProofLine(head, formula, justification))

    if not lines:
        raise ParseError("script has no proof lines", SourceSpan(1, 1))
    return ProofScript(
        name=name,
        assumptions=tuple(assumptions),
        lines=tuple(lines),
        conclusion=conclusion,
    )


def load_proof_file(path: str | Path) -> ProofScript:
    p = Path(path)
    return parse_proof_script(p.read_text(encoding="utf-8"), default_name=p.stem)


def _bundled_texts() -> list[tuple[str, str]]:
    """(file stem, text) of every script in the proofs/ data directory, in
    file-name order, decoded as UTF-8."""
    root = os.path.join(os.path.dirname(__file__), "proofs")
    texts = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".proof"):
            with open(os.path.join(root, name), "rb") as f:
                texts.append((name[: -len(".proof")], f.read().decode()))
    return texts


def bundled_scripts() -> dict[str, ProofScript]:
    """Every proof script shipped in the proofs/ data directory, keyed by
    file stem in file-name order."""
    return {stem: parse_proof_script(text, default_name=stem) for stem, text in _bundled_texts()}


def check_bundled_proofs() -> dict[str, ProofCheckResult]:
    return {stem: check_proof(s) for stem, s in bundled_scripts().items()}


def derived_conclusions() -> dict[Formula, str]:
    """The last line of each assumption-free bundled script that checks,
    mapped to the name of the first such script in file-name order.

    It parses every bundled script and checks every assumption-free one.
    Verdicts look one formula up through derivation_of instead, which
    gives the same answer; this map is the public listing and its oracle.
    """
    out: dict[Formula, str] = {}
    for script in bundled_scripts().values():
        if not script.assumptions and check_proof(script).ok:
            out.setdefault(script.lines[-1].formula, script.name)
    return out


@functools.cache
def _directive_index() -> tuple[tuple[tuple[Atom, ...] | None, str, str], ...]:
    """(atoms of the stated conclusion in order of first occurrence, or
    None, file stem, text) of every bundled script with no assume: line,
    in file-name order.

    No formula is parsed: the atoms are those the conclude: text's tokens
    scan to. A file's lines are read up to its first assume:.
    """
    index = []
    for stem, text in _bundled_texts():
        key = None
        for _, head, rest, _ in split_lines(text, ":", _LINE_FORM):
            if head == "assume":
                break
            if head == "conclude":
                key = scanned_atoms(rest)
        else:
            index.append((key, stem, text))
    return tuple(index)


def derivation_of(formula: Formula) -> str | None:
    """The name of the bundled assumption-free script that derives formula,
    exactly derived_conclusions().get(formula).

    A script that states a conclusion checks only if its last line is that
    conclusion, so only a script stating formula, or stating none, can be
    the answer, and a conclusion that is formula has formula's atoms in
    formula's order. So only the scripts keyed by those atoms in that
    order, or by None, are parsed, in file-name order, and the first whose
    last line is formula and that checks is returned. A script that does
    not parse fails derived_conclusions() outright, but fails here only
    when this lookup parses it.
    """
    wanted = atoms(formula)
    for key, stem, text in _directive_index():
        if key is None or key == wanted:
            script = parse_proof_script(text, default_name=stem)
            if script.lines[-1].formula == formula and check_proof(script).ok:
                return script.name
    return None


def clear_caches() -> None:
    _directive_index.cache_clear()

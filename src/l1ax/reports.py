"""Serialization of report objects to JSON text and terminal text.

One rule gives every report's JSON form: a Record becomes an object of its
fields and its properties, the flags and verdicts it derives from its
witnesses, by sorted key, each value lowered in turn: formulas and atoms
become their printed form, schema entries their name, substitutions
source-to-target maps, tuples arrays, and valuations an atom list plus the
true subset. Aggregate commands write summaries built from that form:
qnt_summary compresses a matrix cell's refutation sweep to its count, and
conjecture_summary gives a conjecture row its whole schema entry and both
sweeps so compressed; the single-pair commands expose every refutation in
full. json_document() writes that form in one pass, from a plan of sorted
keys made at the first write of each record class; jsonable() reads its
text back as a tree.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import attrgetter

from .formula import Atom, Formula, Record, SchemaEntry
from .semantics import SemanticsVerdict, Valuation
from .substitution import CandidateMap, Substitution
from .syntax import print_formula

# the deciding modules' report classes, for annotations only: a type checker
# takes TYPE_CHECKING as true, while at run time writing a report runs no
# module but the one that made it
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .characterize import CharacterizationReport
    from .criteria import InapplicablePair, QntReport, Refutation, TrivialityReport
    from .decision import TheoremVerdict
    from .proofs import ProofCheckResult
    from .verify import ConjectureRow, VerificationReport

# values that stand for a plain value: a string, or a map or object of values
_STAND_INS = {
    **dict.fromkeys(Formula.__subclasses__(), print_formula),
    Atom: str,  # replaces its Formula entry: the printed text, without the printer
    SchemaEntry: attrgetter("name"),
    Substitution: lambda s: dict(s.items),
    Valuation: lambda v: {"atoms": v.domain, "true": [a for a in v.domain if a in v.true_atoms]},
}
# each other record class's plan, made at its first write and kept: its
# members' (key, getter), by key
_PLANS: dict[type, tuple[tuple[str, Callable], ...]] = {}


def _plan(cls: type) -> tuple[tuple[str, Callable], ...] | None:
    """The plan of cls, or None if cls is no record class that has one: its
    attributes, fields and properties alike, each read by its own name."""
    if cls in _PLANS:
        return _PLANS[cls]
    if Record not in cls.__bases__ or not cls.attributes or cls in _STAND_INS:
        return None
    _PLANS[cls] = tuple(sorted((name, attrgetter(name)) for name in cls.attributes))
    return _PLANS[cls]


def members(record: Record) -> dict:
    """A report record's JSON object as a dict of values not yet lowered,
    for a payload that adds keys of its own."""
    return {key: get(record) for key, get in _plan(type(record))}


def qnt_summary(cell: QntReport | InapplicablePair | TrivialityReport) -> dict:
    """Compressed matrix/sweep cell as members() gives it: witnesses kept,
    refutations counted. Every map examined before the witness, or every map
    when there is none, was refuted, whether or not the report lists them."""
    data = members(cell)
    if data.pop("refutations", None) is not None:  # not an inapplicable pair
        data["refutation_count"] = cell.map_count - (cell.witness is not None)
    return data


def conjecture_summary(row: ConjectureRow) -> dict:
    """A conjecture row as the conjectures command writes it: the whole
    schema entry, the characterization, and both sweeps as qnt_summary
    gives them."""
    entry = row.entry
    return {
        "schema": dict(
            name=entry.name, formula=entry.body, variables=entry.variables, arity=entry.arity
        ),
        "characterization": row.characterization,
        "nontriviality": qnt_summary(row.nontriviality),
        "comparisons": {name: qnt_summary(cell) for name, cell in row.comparisons.items()},
    }


def jsonable(obj: object) -> object:
    """The JSON-ready form of a report: json_document's text read back as a
    tree. A dict is a payload, not a report value: it raises TypeError, also
    as an item of a list or tuple."""
    if isinstance(obj, (tuple, list)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, dict):
        raise TypeError("no JSON form for dict")
    import json

    return json.loads(json_document(obj))


def json_document(value: object) -> str:
    """json.dumps(tree, indent=2, sort_keys=True), where tree is value lowered
    by the rules above: a report value, or a dict with str keys that holds
    them; anything else, a str or int subclass too, raises TypeError. The
    standard library's indenting encoder runs in Python through closures that
    leave reference cycles; here only strings go through its C escaper."""
    from json.encoder import encode_basestring_ascii  # only --json loads json

    out: list[str] = []
    _write(value, "\n", out, encode_basestring_ascii, {})
    return "".join(out)


def _write(value: object, indent: str, out: list, quote: Callable, atoms: dict) -> None:
    """Append value's JSON text to out, its lines indented after indent;
    atoms holds the quoted text of each atom of an array written so far."""
    cls = value.__class__
    if cls is str:
        out.append(quote(value))
    elif cls is int:
        out.append(str(value))
    elif value is True or value is False or value is None:
        out.append("true" if value else "null" if value is None else "false")
    elif cls in _STAND_INS:
        _write(_STAND_INS[cls](value), indent, out, quote, atoms)
    elif cls in _PLANS:
        inner = indent + "  "
        sep = "{" + inner
        for key, get in _PLANS[cls]:
            out.append(f'{sep}"{key}": ')
            _write(get(value), inner, out, quote, atoms)
            sep = "," + inner
        out.append(indent + "}")
    elif cls is list or cls is tuple:
        inner = indent + "  "
        sep = "[" + inner
        for x in value:
            out.append(sep)
            if x.__class__ is Atom:
                out.append(atoms.get(x) or atoms.setdefault(x, quote(str(x))))
            else:
                _write(x, inner, out, quote, atoms)
            sep = "," + inner
        out.append(indent + "]" if value else "[]")
    elif isinstance(value, dict):
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + quote(key) + ": ")  # TypeError unless key is a str
            _write(value[key], inner, out, quote, atoms)
            sep = "," + inner
        out.append(indent + "}" if value else "{}")
    elif _plan(cls):  # a record class written for the first time
        _write(value, indent, out, quote, atoms)
    else:
        raise TypeError(f"no JSON form for {type(value).__name__}")


# terminal text


def valuation_text(v: Valuation) -> str:
    """The shorter of the false-side and true-side descriptions; on a tie,
    the false side, which is str(v)."""
    domain = v.domain
    true = [a for a in domain if a in v.true_atoms]
    if not true or len(true) * 2 >= len(domain):
        return str(v)
    return "true: " + ", ".join(map(str, true)) + "; all other atoms false"


def _bool_text(value: bool) -> str:
    return "yes" if value else "no"


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def _describe_map(candidate: CandidateMap | Refutation) -> str:
    return f"sigma {candidate.sigma} rho ({','.join(map(str, candidate.rho))})"


def _sigma_note(report: QntReport) -> str:
    """The witness map quoted after a verdict, left-oriented when possible."""
    if report.witness_left_oriented is not None:
        return f" (sigma {report.witness_left_oriented})"
    if report.witness is not None:
        return f" (sigma {report.witness.sigma})"
    return ""


def refutation_lines(refutations: tuple[Refutation, ...]) -> list[str]:
    return [
        f"  {i}. {_describe_map(ref)}: substituted={str(ref.substituted_value).lower()} "
        f"target={str(ref.target_value).lower()} under {valuation_text(ref.valuation)}"
        for i, ref in enumerate(refutations, start=1)
    ]


def triviality_text(report: TrivialityReport) -> str:
    lines = [
        f"subject: {report.subject.name}",
        f"reference: {report.reference.name}",
        f"verdict: {report.verdict} w.r.t. {report.reference.name}",
        f"maps examined: {report.map_count}",
    ]
    if report.witness is not None:
        lines.append(f"witness: {_describe_map(report.witness)}")
    if report.refutations:
        lines.append("refutations:")
        lines.extend(refutation_lines(report.refutations))
    return "\n".join(lines)


def qnt_text(report: QntReport) -> str:
    lines = [
        f"left: {report.left.name}",
        f"right: {report.right.name}",
        f"case: {report.case_used}",
        f"verdict: {report.verdict}",
        f"maps examined: {report.map_count}",
    ]
    if report.witness is not None:
        lines.append(f"witness: {_describe_map(report.witness)}")
    if report.witness_left_oriented is not None:
        lines.append(f"witness (left-oriented): {report.witness_left_oriented}")
    hyp_left, hyp_right = report.hypothesis_met
    lines.append(
        "hypothesis (both nontrivial w.r.t. A_t): "
        f"left={_bool_text(hyp_left)} right={_bool_text(hyp_right)}"
    )
    if report.cross_check is not None:
        lines.append(f"cross-check (mirrored sweep): {report.cross_check}")
    if report.refutations:
        lines.append("refutations:")
        lines.extend(refutation_lines(report.refutations))
    return "\n".join(lines)


def matrix_text(cells: dict[tuple[str, str], QntReport | InapplicablePair]) -> str:
    names = []
    for a, _ in cells:
        if a not in names:
            names.append(a)
    lines = [f"entries: {', '.join(names)}"]
    off_diagonal_qnt = 0
    off_diagonal = 0
    for (a, b), cell in cells.items():
        if cell.verdict == "inapplicable":
            lines.append(f"{a} vs {b}: inapplicable ({cell.reason})")
            continue
        note = _sigma_note(cell)
        if cell.witness is not None and a == b:
            note = " (identity witness)"
        examined = _count(cell.map_count, "map")
        lines.append(f"{a} vs {b}: {cell.verdict} ({examined} examined){note}")
        if a != b:
            off_diagonal += 1
            if cell.verdict == "quasi-nontrivial":
                off_diagonal_qnt += 1
    lines.append(
        f"off-diagonal quasi-nontrivial: {off_diagonal_qnt}/{off_diagonal}"
    )
    return "\n".join(lines)


def theorem_text(verdict: TheoremVerdict) -> str:
    pool = ",".join(verdict.pool)
    if verdict.valid:
        return f"valid\npool: {pool}"
    return (
        "not valid\n"
        f"pool: {pool}\n"
        f"counter-valuation: {valuation_text(verdict.counter_valuation)}"
    )


def taut_text(verdict: SemanticsVerdict) -> str:
    if verdict.holds:
        return "tautology"
    return f"not a tautology\ncounterexample: {valuation_text(verdict.witness)}"


def characterization_text(report: CharacterizationReport) -> str:
    lines = [f"schema: {report.subject.name}"]
    if report.validity.valid:
        lines.append(f"valid: yes (pool {','.join(report.validity.pool)})")
    else:
        lines.append("valid: no")
        lines.append(
            f"counter-valuation: {valuation_text(report.validity.counter_valuation)}"
        )
    if report.derivation_script is not None:
        lines.append(f"provable: yes (bundled script {report.derivation_script})")
    lines.append("recovery:")
    for rec in report.recoveries:
        if rec.recovered:
            maps = "; ".join(str(s) for s in rec.witness_maps)
            lines.append(
                f"  {rec.axiom.name}: recovered (pool {rec.pool_size}) via {maps}"
            )
        else:
            lines.append(
                f"  {rec.axiom.name}: not recovered (pools <= {rec.pool_size})"
            )
            lines.append(f"    counterexample: {valuation_text(rec.counterexample)}")
    lines.append(f"characteristic: {_bool_text(report.characteristic)}")
    return "\n".join(lines)


def proof_check_text(result: ProofCheckResult) -> str:
    lines = [f"script: {result.name} ({len(result.lines)} lines)"]
    for lr in result.lines:
        mark = "ok  " if lr.ok else "FAIL"
        detail = f": {lr.detail}" if lr.detail else ""
        lines.append(f"{mark} {lr.label} {lr.rule}{detail}")
    lines.append(f"conclusion: {'matches' if result.conclusion_ok else 'MISSING'}")
    lines.append(f"result: {'ok' if result.ok else 'FAILED'}")
    return "\n".join(lines)


def verification_text(report: VerificationReport) -> str:
    lines = []
    for item in report.items:
        mark = "PASS" if item.passed else "FAIL"
        lines.append(f"{mark} {item.name}: {item.detail}")
    lines.append(f"result: {'ok' if report.ok else 'FAILED'}")
    return "\n".join(lines)


def conjecture_text(rows: tuple[ConjectureRow, ...]) -> str:
    lines = []
    for row in rows:
        ch = row.characterization
        valid = _bool_text(ch.validity.valid)
        characteristic = _bool_text(ch.characteristic)
        recovered = ",".join(
            rec.axiom.name for rec in ch.recoveries if rec.recovered
        ) or "none"
        lines.append(
            f"{row.entry.name} ({row.entry.arity} variables): valid={valid} "
            f"recovers={recovered} characteristic={characteristic} "
            f"w.r.t. A_t: {row.nontriviality.verdict} "
            f"({_count(row.nontriviality.map_count, 'map')})"
        )
        for name, rep in row.comparisons.items():
            lines.append(
                f"  vs {name}: {rep.verdict} (case {rep.case_used}, "
                f"{_count(rep.map_count, 'map')}){_sigma_note(rep)}"
            )
    return "\n".join(lines)

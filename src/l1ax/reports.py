"""Serialization of report objects to JSON text and terminal text.

jsonable() is the one lowering: a report Record becomes a dict of its
fields and its properties, the flags and verdicts it derives from its
witnesses, each value lowered in turn: formulas become their printed form,
schema entries their name, substitutions source-to-target maps, tuples
lists, and valuations an atom list plus the true subset. Two reports
differ from that rule; each is marked below. Aggregate reports (matrix
cells, conjecture rows) carry witness data but compress refutation sweeps
to their count; the single-pair commands expose every refutation in full.
json_document() is the one writer of what jsonable() makes as JSON text.
"""

from __future__ import annotations

from collections.abc import Callable

from .characterize import CharacterizationReport
from .criteria import InapplicablePair, QntReport, Refutation, TrivialityReport
from .decision import TheoremVerdict
from .formula import Formula, Record, SchemaEntry
from .proofs import ProofCheckResult
from .semantics import SemanticsVerdict, Valuation
from .substitution import CandidateMap, Substitution
from .syntax import print_formula
from .verify import ConjectureRow, VerificationReport


def jsonable(obj: object) -> object:
    """The JSON-ready form of a report: its Record fields and properties,
    lowered in turn."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (tuple, list)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, Formula):
        return print_formula(obj)
    if isinstance(obj, SchemaEntry):
        return obj.name
    if isinstance(obj, Substitution):
        return dict(obj.items)
    if isinstance(obj, Valuation):
        names = [str(a) for a in obj.domain]
        return {
            "atoms": names,
            "true": [s for a, s in zip(obj.domain, names) if a in obj.true_atoms],
        }
    if isinstance(obj, ConjectureRow):
        # exception: the whole schema entry, and both sweeps compressed
        return {
            "schema": {
                "name": obj.entry.name,
                "formula": print_formula(obj.entry.body),
                "variables": list(obj.entry.variables),
                "arity": obj.entry.arity,
            },
            "characterization": jsonable(obj.characterization),
            "nontriviality": qnt_summary(obj.nontriviality),
            "comparisons": {
                name: qnt_summary(rep) for name, rep in obj.comparisons.items()
            },
        }
    if not isinstance(obj, Record):
        raise TypeError(f"no JSON form for {type(obj).__name__}")
    data = {name: jsonable(getattr(obj, name)) for name in obj.attributes}
    if isinstance(obj, Refutation):
        # exception: the candidate's rho and sigma sit at the top level
        data.update(data.pop("candidate"))
    return data


def qnt_summary(cell: QntReport | InapplicablePair | TrivialityReport) -> dict:
    """Compressed matrix/sweep cell: witnesses kept, refutations counted.

    Every map examined before the witness, or every map when there is
    none, was refuted, whether or not the report lists the refutations.
    """
    if isinstance(cell, InapplicablePair):
        return jsonable(cell)
    data = jsonable(cell)
    del data["refutations"]
    data["refutation_count"] = cell.map_count - (cell.witness is not None)
    return data


def json_document(value: object) -> str:
    """json.dumps(value, indent=2, sort_keys=True) for the values jsonable
    makes: dicts with str keys, lists, str, int, bool and None; any other
    type raises TypeError. The standard library encodes an indented document
    in pure Python, through closures that leave reference cycles behind;
    here only the strings go through its C escaper."""
    from json.encoder import encode_basestring_ascii  # only --json loads json

    out: list[str] = []
    _write_json(value, "\n", out, encode_basestring_ascii)
    return "".join(out)


def _write_json(
    value: object, indent: str, out: list[str], quote: Callable[[str], str]
) -> None:
    """Append value's JSON text to out, its lines indented after indent."""
    if isinstance(value, str):
        out.append(quote(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep)
            out.append(quote(key))  # TypeError unless key is a str
            out.append(": ")
            _write_json(value[key], inner, out, quote)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out, quote)
            sep = "," + inner
        out.append(indent + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"no JSON text for {type(value).__name__}")


# terminal text


def valuation_text(v: Valuation) -> str:
    """The shorter of the false-side and true-side descriptions; on a tie,
    the false side, which is str(v)."""
    true = [a for a in v.domain if a in v.true_atoms]
    if not true or len(true) * 2 >= len(v.domain):
        return str(v)
    return "true: " + ", ".join(map(str, true)) + "; all other atoms false"


def _bool_text(value: bool) -> str:
    return "yes" if value else "no"


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def _describe_map(candidate: CandidateMap) -> str:
    rho = ",".join(str(k) for k in candidate.rho)
    return f"sigma {candidate.sigma} rho ({rho})"


def _sigma_note(report: QntReport) -> str:
    """The witness map quoted after a verdict, left-oriented when possible."""
    if report.witness_left_oriented is not None:
        return f" (sigma {report.witness_left_oriented})"
    if report.witness is not None:
        return f" (sigma {report.witness.sigma})"
    return ""


def refutation_lines(refutations: tuple[Refutation, ...]) -> list[str]:
    lines = []
    for i, ref in enumerate(refutations, start=1):
        lines.append(
            f"  {i}. {_describe_map(ref.candidate)}: "
            f"substituted={str(ref.substituted_value).lower()} "
            f"target={str(ref.target_value).lower()} "
            f"under {valuation_text(ref.valuation)}"
        )
    return lines


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
        if isinstance(cell, InapplicablePair):
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

"""Regression runner for every established claim, plus the conjecture sweep.

run_verification re-derives each established result from scratch against
the bundled corpus and reports one pass/fail item per claim; items are
fault-isolated, so corrupting a single corpus entry fails exactly the
items that depend on it. conjecture_report computes the same battery of
verdicts for the conjectured schemata, where no expected values exist:
every cell is populated with machine-checked witnesses instead.
"""

from __future__ import annotations


from .characterize import CharacterizationReport, characterize, recover_axioms
from .corpus import Corpus, load_corpus
from .criteria import (
    QntReport,
    TrivialityReport,
    is_quasi_trivial,
    is_trivial,
    qnt_matrix,
    quasi_triviality,
    triviality,
)
from .decision import admissible_mask, is_countermodel, is_theorem
from .formula import And, Atom, Or, Record, SchemaEntry, atoms, conjoin
from .proofs import check_bundled_proofs, derivation_of
from .semantics import Valuation, are_equivalent, evaluate
from .substitution import Substitution

QUARTET = ("A_S1", "A_S2", "A_S3N", "A_S3Nd")


class VerificationFailure(Exception):
    """A re-derived claim came out different from the established one."""


def check(condition: object, message: object) -> None:
    """Fail the current item unless condition holds; unlike assert, this
    survives python -O."""
    if not condition:
        raise VerificationFailure(message)


class VerificationItem(Record):
    name: str
    passed: bool
    detail: str


class VerificationReport(Record):
    items: tuple[VerificationItem, ...]

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)


def _all_true_except(domain: tuple[Atom, ...], false: set[Atom]) -> Valuation:
    return Valuation(domain, frozenset(a for a in domain if a not in false))


def run_verification(corpus: Corpus | None = None) -> VerificationReport:
    c = corpus if corpus is not None else load_corpus()

    def base_conjunction():
        return conjoin(c["Ax1"].body, c["Ax2"].body, c["Ax3"].body)

    def at_equivalence() -> str:
        verdict = are_equivalent(c["A_t"].body, base_conjunction())
        check(verdict.holds, f"counterexample {verdict.witness}")
        return "A_t is equivalent to Ax1 & Ax2 & Ax3"

    def at1_equivalence() -> str:
        verdict = are_equivalent(c["A_t-1"].body, And(c["Ax2"].body, c["Ax3"].body))
        check(verdict.holds, f"counterexample {verdict.witness}")
        return "A_t-1 is equivalent to Ax2 & Ax3"

    def _theorem_item(name: str) -> str:
        verdict = is_theorem(c[name].body)
        check(verdict.valid, f"counter-valuation {verdict.counter_valuation}")
        script = derivation_of(c[name].body)
        check(script is not None, "no bundled derivation found")
        return f"valid over pool {''.join(verdict.pool)}; provable ({script})"

    def m8_theorem() -> str:
        return _theorem_item("A_M8")

    def m8_nontrivial() -> str:
        report = triviality(c["A_M8"], c["A_t"])
        check(report.verdict == "nontrivial", f"verdict {report.verdict}")
        check(report.map_count == 24, f"{report.map_count} maps, expected 24")
        sigma_cc = Substitution.of({"a": "a", "b": "b", "c": "c", "d": "y1"})
        check(
            any(r.sigma == sigma_cc for r in report.refutations),
            f"no refutation of {sigma_cc}",
        )
        substituted = sigma_cc.apply(c["A_M8"].body)
        domain = atoms(Or(substituted, c["A_t"].body))
        val = _all_true_except(domain, {Atom("c", "c")})
        check(evaluate(substituted, val) is False, "the c->c image holds at v(eps(c,c))=f")
        check(evaluate(c["A_t"].body, val) is True, "A_t fails at v(eps(c,c))=f")
        return "nontrivial wrt A_t; 24 refutations replayed; the v(eps(c,c))=f valuation refutes the c->c map"

    def star_quasi_trivial() -> str:
        report = quasi_triviality(c["Star"], c["A_M8"])
        check(
            report.verdict == "quasi-trivial" and report.case_used == 1,
            f"{report.verdict} in case {report.case_used}",
        )
        check(
            report.witness is not None and report.witness.rho == tuple(range(1, 5)),
            f"witness {report.witness}",
        )
        expected = Substitution.of({"a": "a", "b": "b", "d": "c", "e": "d"})
        check(
            report.witness_left_oriented == expected,
            f"left-oriented witness {report.witness_left_oriented}",
        )
        return f"quasi-trivial wrt A_M8 at rho=id with sigma {expected}"

    def doublestar_quasi_trivial() -> str:
        report = quasi_triviality(c["DoubleStar"], c["A_M8"])
        check(
            report.verdict == "quasi-trivial" and report.case_used == 2,
            f"{report.verdict} in case {report.case_used}",
        )
        expected = Substitution.of(
            {"a": "a", "b": "b", "c": "v1", "d": "c", "e": "d"}
        )
        check(
            report.witness is not None
            and report.witness.rho == tuple(range(1, 6))
            and report.witness.sigma == expected,
            f"witness {report.witness}",
        )
        return f"quasi-trivial wrt A_M8 at rho=id with sigma {expected} (fresh v1 for the spectator)"

    def qt_reflexive() -> str:
        names = [n for n in c.names() if c[n].arity >= 3]
        for name in names:
            report = quasi_triviality(c[name], c[name])
            check(report.verdict == "quasi-trivial", name)
            check(
                report.witness is not None
                and report.witness.rho == tuple(range(1, c[name].arity + 1)),
                name,
            )
        return f"identity witness for all {len(names)} applicable corpus entries"

    def qnt_symmetric() -> str:
        five = c.established_five()
        for a in five:
            for b in five:
                check(is_quasi_trivial(a, b) == is_quasi_trivial(b, a), (a.name, b.name))
        return "verdicts agree in both directions on all 25 pairs of the established five"

    def bridge_at() -> str:
        names = [n for n in c.names() if c[n].arity >= 3]
        for name in names:
            check(is_quasi_trivial(c[name], c["A_t"]) == is_trivial(c[name], c["A_t"]), name)
        return f"quasi-triviality wrt A_t matches triviality wrt A_t on {len(names)} entries"

    def qt_transitive() -> str:
        entries = [c[n] for n in c.names() if c[n].arity >= 3]
        verdict: dict[tuple[str, str], bool] = {}
        for a in entries:
            for b in entries:
                verdict[(a.name, b.name)] = is_quasi_trivial(a, b)
        applicable = 0
        for a in entries:
            for b in entries:
                if not verdict[(a.name, b.name)]:
                    continue
                for d in entries:
                    increasing = a.arity <= b.arity <= d.arity
                    decreasing = a.arity >= b.arity >= d.arity
                    if (increasing or decreasing) and verdict[(b.name, d.name)]:
                        applicable += 1
                        check(verdict[(a.name, d.name)], (a.name, b.name, d.name))
        return f"holds on all {applicable} monotone-arity triples with both premises"

    def s3_theorem() -> str:
        return _theorem_item("A_S3")

    def s3_nontrivial() -> str:
        report = triviality(c["A_S3"], c["A_t-1"])
        check(report.verdict == "nontrivial", f"verdict {report.verdict}")
        check(report.map_count == 24, f"{report.map_count} maps, expected 24")
        return "nontrivial wrt A_t-1; 24 refutations replayed"

    def s3_recovery() -> str:
        outcomes = recover_axioms(c["A_S3"])
        by_name = {o.axiom.name: o for o in outcomes}
        check(
            by_name["Ax2"].recovered and by_name["Ax3"].recovered,
            "Ax2 or Ax3 not recovered",
        )
        ax1 = by_name["Ax1"]
        check(not ax1.recovered, "Ax1 recovered")
        check(ax1.counterexample is not None, "no counterexample for Ax1")
        pool = tuple("abcd"[: ax1.pool_size])
        check(
            is_countermodel(ax1.counterexample, c["Ax1"].body, (c["A_S3"],), pool),
            "the counterexample falsifies an A_S3 instance or satisfies Ax1",
        )
        return "Ax2 and Ax3 recovered; Ax1 fails at pools <= 4 with a replayable counterexample"

    def characteristic_item(name: str) -> CharacterizationReport:
        report = characterize(c[name])
        check(report.validity.valid, name)
        check(report.characteristic, name)
        for rec in report.recoveries:
            check(rec.recovered and rec.pool_size == 3, (name, rec.axiom.name))
            check(1 <= len(rec.witness_maps) <= 2, (name, rec.axiom.name))
        return report

    def m8_characteristic() -> str:
        report = characteristic_item("A_M8")
        sizes = ",".join(str(len(r.witness_maps)) for r in report.recoveries)
        return f"characteristic at pool 3; witness sizes {sizes}"

    def quartet_characteristic() -> str:
        for name in QUARTET:
            characteristic_item(name)
        return "A_S1, A_S2, A_S3N, A_S3Nd all characteristic at pool 3 with <=2 witnesses per axiom"

    def quartet_nontrivial() -> str:
        for name in QUARTET:
            report = triviality(c[name], c["A_t"])
            check(report.verdict == "nontrivial", name)
            check(report.map_count == 24, name)
        return "all four nontrivial wrt A_t with 24 replayed refutations each"

    def matrix_qnt() -> str:
        five = c.established_five()
        cells = qnt_matrix(five)
        for (a, b), cell in cells.items():
            check(isinstance(cell, QntReport), (a, b))
            check(cell.verdict == ("quasi-trivial" if a == b else "quasi-nontrivial"), (a, b))
            check(cell.cross_check in (None, "agree"), (a, b))
        pair = quasi_triviality(c["A_S1"], c["A_S2"])
        sigma = Substitution.of({"a": "c", "b": "d", "c": "a", "d": "b"})
        hits = [r for r in pair.refutations if r.sigma == sigma]
        check(hits, "expected the printed sigma among the refutations")
        falsified = set(hits[0].valuation.false_atoms())
        check(falsified & {Atom("c", "b"), Atom("d", "c")}, falsified)
        return (
            "all 20 ordered off-diagonal pairs quasi-nontrivial (diagonal reflexive); "
            f"(A_S1, A_S2) refuted under {sigma} by falsifying "
            + ", ".join(str(a) for a in sorted(falsified, key=str))
        )

    def kanai_equality() -> str:
        for size in (1, 2, 3, 4):
            pool = tuple("abcd"[:size])
            check(
                admissible_mask(pool, "Ax3") == admissible_mask(pool, "Ax3s"),
                f"pool {''.join(pool)}",
            )
        return "admissible valuations agree under Ax3 and Ax3s for pools 1-4"

    def scripts_check() -> str:
        results = check_bundled_proofs()
        bad = [name for name, r in results.items() if not r.ok]
        check(not bad, f"failing scripts: {bad}")
        lines = sum(len(r.lines) for r in results.values())
        return f"{len(results)} bundled scripts, {lines} lines, all check"

    checks = [
        ("at-equivalence", at_equivalence),
        ("at1-equivalence", at1_equivalence),
        ("m8-theorem", m8_theorem),
        ("m8-nontrivial", m8_nontrivial),
        ("star-quasi-trivial", star_quasi_trivial),
        ("doublestar-quasi-trivial", doublestar_quasi_trivial),
        ("qt-reflexive", qt_reflexive),
        ("qnt-symmetric", qnt_symmetric),
        ("bridge-at", bridge_at),
        ("qt-transitivity-monotone", qt_transitive),
        ("s3-theorem", s3_theorem),
        ("s3-nontrivial-at1", s3_nontrivial),
        ("s3-recovers-ax2-ax3", s3_recovery),
        ("m8-characteristic", m8_characteristic),
        ("quartet-characteristic", quartet_characteristic),
        ("quartet-nontrivial-at", quartet_nontrivial),
        ("matrix-qnt", matrix_qnt),
        ("kanai-admissible-equality", kanai_equality),
        ("scripts-check", scripts_check),
    ]

    items = []
    for name, fn in checks:
        try:
            detail = fn()
            items.append(VerificationItem(name, True, detail))
        except Exception as exc:  # noqa: BLE001 - fault isolation by design
            items.append(VerificationItem(name, False, f"{type(exc).__name__}: {exc}"))
    return VerificationReport(tuple(items))


class ConjectureRow(Record):
    """Every computed verdict for one conjectured schema."""

    characterization: CharacterizationReport
    nontriviality: TrivialityReport
    comparisons: dict[str, QntReport]

    @property
    def entry(self) -> SchemaEntry:
        """The conjectured schema, the characterization's subject."""
        return self.characterization.subject


def conjecture_report(corpus: Corpus | None = None) -> tuple[ConjectureRow, ...]:
    """The full sweep over the conjectured schemata, in decide mode: the
    rows show verdicts, map counts and witnesses, never a refutation.

    No expected values exist for these; the value of the sweep is that
    every verdict is populated and every witness replayed.
    """
    c = corpus if corpus is not None else load_corpus()
    five = c.established_five()
    rows = []
    for entry in c.conjecture_entries():
        rows.append(
            ConjectureRow(
                characterization=characterize(entry),
                nontriviality=triviality(entry, c["A_t"], explain=False),
                comparisons={
                    ref.name: quasi_triviality(entry, ref, explain=False) for ref in five
                },
            )
        )
    return tuple(rows)

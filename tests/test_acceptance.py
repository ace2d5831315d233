"""Acceptance battery: nine end-to-end guarantees with pinned time budgets.

Each test prints a single PASS or FAIL line, so `pytest -v -s` over this
module reads as a release checklist. Budgets are wall-clock seconds for the
work inside the criterion, measured in-process.
"""

import contextlib
import io
import random
import time

from l1ax import clear_caches, cli
from l1ax.axioms import A_T
from l1ax.characterize import characterize, recover_axioms
from l1ax.corpus import load_corpus
from l1ax.criteria import (
    is_quasi_trivial,
    is_trivial,
    qnt_matrix,
    quasi_triviality,
    triviality,
)
from l1ax.decision import admissible_mask, is_theorem
from l1ax.formula import Atom
from l1ax.proofs import bundled_scripts, check_proof
from l1ax.semantics import are_equivalent
from l1ax.substitution import Substitution, is_reserved_fresh_name
from l1ax.syntax import print_formula
from l1ax.verify import conjecture_report
from oracles import certify_refutations, qnt_bodies, triviality_maps

CORPUS = load_corpus()
FIVE = CORPUS.established_five()
QUARTET = tuple(CORPUS[n] for n in ("A_S1", "A_S2", "A_S3N", "A_S3Nd"))


def run_cli(*argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


def timed(num, label, budget, fn):
    start = time.perf_counter()
    failure = None
    try:
        fn()
    except AssertionError as exc:
        failure = exc
    elapsed = time.perf_counter() - start
    ok = failure is None and elapsed <= budget
    print(
        f"criterion {num}: {'PASS' if ok else 'FAIL'}"
        f" [{elapsed:.3f}s/{budget:g}s] {label}"
    )
    if failure is not None:
        raise failure
    assert elapsed <= budget, f"criterion {num} took {elapsed:.3f}s"


def test_criterion_1_standard_equals_base_conjunction():
    def check():
        at = print_formula(CORPUS["A_t"].body)
        base = " & ".join(
            f"({print_formula(CORPUS[n].body)})" for n in ("Ax1", "Ax2", "Ax3")
        )
        code, out = run_cli("taut", f"({at}) <-> {base}")
        assert code == 0
        assert out.strip() == "tautology"

    timed(1, "packaged standard is equivalent to the base conjunction", 0.1, check)


def test_criterion_2_reference_schema_nontrivial():
    def check():
        report = triviality(CORPUS["A_M8"], A_T)
        assert report.verdict == "nontrivial"
        assert report.map_count == 24
        assert len(report.refutations) == 24
        certify_refutations(report, CORPUS["A_M8"].body, A_T.body)
        code, out = run_cli("nontrivial", "A_M8")
        assert code == 0
        assert out.count("substituted=") == 24

    timed(2, "all 24 padded bijections onto the standard are refuted", 1.0, check)


def test_criterion_3_companions_quasi_trivial():
    def check():
        star = quasi_triviality(CORPUS["Star"], CORPUS["A_M8"])
        assert star.verdict == "quasi-trivial"
        assert star.witness.rho == (1, 2, 3, 4)
        assert star.witness_left_oriented.mapping == {
            "a": "a",
            "b": "b",
            "d": "c",
            "e": "d",
        }

        double = quasi_triviality(CORPUS["DoubleStar"], CORPUS["A_M8"])
        assert double.verdict == "quasi-trivial"
        assert double.witness.rho == (1, 2, 3, 4, 5)
        mapping = double.witness_left_oriented.mapping
        fixed = {k: v for k, v in mapping.items() if k != "c"}
        assert fixed == {"a": "a", "b": "b", "d": "c", "e": "d"}
        assert is_reserved_fresh_name(mapping["c"])  # padding name immaterial

        code, out = run_cli("qnt", "Star", "A_M8")
        assert code == 0
        assert "{a->a, b->b, d->c, e->d}" in out

    timed(3, "both companions are quasi-trivial via the identity permutation", 1.0, check)


def test_criterion_4_nested_variant_end_to_end():
    def check():
        assert is_theorem(CORPUS["A_S3"].body).valid
        scripts = bundled_scripts()
        for name in ("s3_from_base", "at1_from_s3"):
            assert check_proof(scripts[name]).ok, name
        report = triviality(CORPUS["A_S3"], CORPUS["A_t-1"])
        assert report.verdict == "nontrivial"
        assert len(report.refutations) == 24
        certify_refutations(report, CORPUS["A_S3"].body, CORPUS["A_t-1"].body)
        recs = {r.axiom.name: r for r in recover_axioms(CORPUS["A_S3"], max_pool=4)}
        assert recs["Ax2"].recovered
        assert recs["Ax3"].recovered
        assert not recs["Ax1"].recovered

    timed(4, "nested variant: valid, derivable, nontrivial, recovers exactly two axioms", 2.0, check)


def test_criterion_5_quartet_characteristic_over_three_names():
    def check():
        for entry in QUARTET:
            report = characterize(entry, max_pool=3)
            assert report.characteristic, entry.name
            assert report.derivation_script is not None
            for rec in report.recoveries:
                assert rec.recovered and rec.pool_size == 3
                assert 1 <= len(rec.witness_maps) <= 2, (entry.name, rec.axiom.name)

    timed(5, "the four siblings are characteristic with witnesses of at most two instances", 5.0, check)


def test_criterion_6_quartet_nontrivial():
    def check():
        for entry in QUARTET:
            report = triviality(entry, A_T)
            assert report.verdict == "nontrivial", entry.name
            assert len(report.refutations) == 24
            certify_refutations(report, entry.body, A_T.body)

    timed(6, "each sibling is nontrivial with a full replayable refutation list", 2.0, check)


def test_criterion_7_pairwise_matrix():
    def check():
        cells = qnt_matrix(FIVE)
        off_diagonal = [key for key in cells if key[0] != key[1]]
        assert len(off_diagonal) == 20
        # the matrix decides; each pair's refutations come from explain mode,
        # which must reach the same verdict, case, witness and map count
        explained = {}
        for key in off_diagonal:
            cell = cells[key]
            assert cell.verdict == "quasi-nontrivial", key
            report = explained[key] = quasi_triviality(cell.left, cell.right)
            assert (report.verdict, report.case_used, report.witness, report.map_count) == (
                cell.verdict,
                cell.case_used,
                cell.witness,
                cell.map_count,
            ), key
            assert len(report.refutations) == cell.map_count == 24
            certify_refutations(report, *qnt_bodies(report))

        # the documented separating map for the sibling pair must fail on
        # one of its two distinguished atoms
        cell = explained[("A_S1", "A_S2")]
        wanted = {"a": "c", "b": "d", "c": "a", "d": "b"}
        match = [r for r in cell.refutations if r.sigma.mapping == wanted]
        assert len(match) == 1
        val = match[0].valuation
        assert (val.value(Atom("c", "b")) is False) or (
            val.value(Atom("d", "c")) is False
        )

    timed(7, "all twenty ordered pairs are quasi-nontrivial with certified refutations", 10.0, check)


def test_criterion_8_property_battery():
    def check():
        entries = [e for e in CORPUS if e.arity >= 3]

        # the comparison is symmetric over every corpus pair
        verdicts = {}
        for x in entries:
            for y in entries:
                verdicts[(x.name, y.name)] = is_quasi_trivial(x, y)
        for x in entries:
            for y in entries:
                assert verdicts[(x.name, y.name)] == verdicts[(y.name, x.name)]

        # reflexive, with the identity permutation as witness
        for e in entries:
            rep = quasi_triviality(e, e)
            assert rep.verdict == "quasi-trivial"
            assert rep.witness.rho == tuple(range(1, e.arity + 1))

        # against the three-variable standard it degenerates to triviality
        for e in entries:
            assert verdicts[(e.name, "A_t")] == is_trivial(e, A_T)

        # fresh padding names are inert: 100 randomized renamings
        rng = random.Random(2718)
        cases = 0
        while cases < 100:
            subject, reference = rng.choice(entries), rng.choice(entries)
            if subject.arity <= reference.arity:
                continue
            maps = list(triviality_maps(subject.variables, reference.variables))
            m = rng.choice(maps)
            fresh = [
                v for v in m.sigma.mapping.values() if is_reserved_fresh_name(v)
            ]
            renamed = {t: f"w{i + 1}" for i, t in enumerate(fresh)}
            remapped = Substitution.of(
                {s: renamed.get(t, t) for s, t in m.sigma.mapping.items()}
            )
            base = are_equivalent(m.sigma.apply(subject.body), reference.body)
            alt = are_equivalent(remapped.apply(subject.body), reference.body)
            assert alt.holds == base.holds
            cases += 1

        # reported witnesses certify themselves on replay
        report = triviality(CORPUS["A_M8"], A_T)
        certify_refutations(report, CORPUS["A_M8"].body, A_T.body)

        # kernel soundness: assumption-free script lines are valid outright
        for name, script in bundled_scripts().items():
            if script.assumptions:
                continue
            for line in script.lines:
                assert is_theorem(line.formula).valid, (name, line.label)

        # the shortened symmetry axiom carves the same admissible sets
        for pool in (("a",), ("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")):
            assert admissible_mask(pool, "Ax3") == admissible_mask(pool, "Ax3s")

    timed(8, "property battery over the whole corpus", 60.0, check)


def test_criterion_9_conjecture_sweep_with_cold_replay():
    def check():
        rows = conjecture_report()
        assert len(rows) == 16
        five_names = tuple(e.name for e in FIVE)
        for row in rows:
            assert len(row.characterization.recoveries) == 3
            assert tuple(row.comparisons) == five_names
            certify_refutations(row.nontriviality, row.entry.body, A_T.body)
            for name, rep in row.comparisons.items():
                certify_refutations(rep, *qnt_bodies(rep))

        # independent replay: drop every cache and recompute each verdict
        clear_caches()
        for row in rows:
            fresh = triviality(row.entry, A_T)
            assert fresh.verdict == row.nontriviality.verdict
            fresh_char = characterize(row.entry)
            assert fresh_char.validity.valid == row.characterization.validity.valid
            assert fresh_char.characteristic == row.characterization.characteristic
            for name, rep in row.comparisons.items():
                assert quasi_triviality(row.entry, CORPUS[name]).verdict == rep.verdict

    timed(9, "conjecture sweep is complete, self-certifying, and cache-independent", 60.0, check)

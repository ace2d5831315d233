"""The compiled sweep kernel against the reference AST path.

The reference path renames the source body with Substitution.apply and
decides are_equivalent on the result; the kernel must agree with it on
every candidate, verdict and counter-valuation alike.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import l1ax
from l1ax import criteria, syntax
from l1ax.cli import main
from l1ax.criteria import (
    CriterionInapplicable,
    is_quasi_trivial,
    qnt_matrix,
    quasi_triviality,
    triviality,
)
from l1ax.formula import And, Implies, InputError, Not, Or, SchemaEntry, eps
from l1ax.semantics import BudgetError, are_equivalent
from l1ax.substitution import FRESH_QNT_RIGHT, FRESH_TRIVIALITY, CandidateMap, Substitution
from oracles import certify_refutations, comparison_maps, padded_bijections, qnt_bodies

SRC = str(Path(l1ax.__file__).resolve().parents[1])


def ast_sweep(candidates, source, target):
    """The reference sweep: (witness, refuting valuations, maps examined)."""
    counters = []
    for count, cand in enumerate(candidates, start=1):
        verdict = are_equivalent(cand.sigma.apply(source.body), target.body)
        if verdict.holds:
            return cand, counters, count
        counters.append(verdict.witness)
    return None, counters, count


def place_of(cand):
    """The kernel's form of a candidate: target slot of each source variable."""
    perm = [r - 1 for r in cand.rho]
    return sorted(range(len(perm)), key=perm.__getitem__)


def test_decide_and_explain_agree_on_every_corpus_pair(corpus):
    entries = [e for e in corpus if e.arity >= 3]
    assert len(entries) ** 2 == 784
    for a in entries:
        for b in entries:
            decided = quasi_triviality(a, b, explain=False)
            explained = quasi_triviality(a, b)
            assert decided.refutations == ()
            assert is_quasi_trivial(a, b) == (decided.verdict == "quasi-trivial")
            for field in ("verdict", "witness", "map_count", "case_used", "cross_check"):
                assert getattr(decided, field) == getattr(explained, field), (a.name, b.name)
            assert len(explained.refutations) == explained.map_count - (
                explained.witness is not None
            )


variables = st.sampled_from("abcde")
bodies = st.recursive(
    st.builds(eps, variables, variables),
    lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(Or, sub, sub), st.builds(Implies, sub, sub)
    ),
    max_leaves=8,
)
schemata = bodies.map(lambda body: SchemaEntry.make("S", body)).filter(
    lambda entry: entry.arity >= 3
)


@st.composite
def schema_pairs(draw):
    """An independent pair, or a schema and a renaming of it (a witness)."""
    source = draw(schemata)
    if draw(st.booleans()):
        return source, draw(schemata)
    names = draw(st.permutations("abcdefg"))
    sigma = Substitution.of(dict(zip(source.variables, names)))
    return source, SchemaEntry.make("T", sigma.apply(source.body))


@given(schema_pairs())
def test_kernel_matches_the_ast_path_on_every_candidate(pair):
    source, target = sorted(pair, key=lambda e: -e.arity)
    kernel = criteria._Kernel(source, target, FRESH_TRIVIALITY)
    for cand in padded_bijections(source.variables, target.variables, FRESH_TRIVIALITY):
        oracle = are_equivalent(cand.sigma.apply(source.body), target.body)
        source_bits, diff, index = kernel.compare(place_of(cand))
        assert (diff == 0) == oracle.holds
        if diff:
            perm = tuple(r - 1 for r in cand.rho)
            ref = kernel.refutation(perm, source_bits, diff, index)
            assert (ref.rho, ref.sigma) == (cand.rho, cand.sigma)
            assert ref.valuation == oracle.witness


@st.composite
def padded_pairs(draw):
    """A pair of schema_pairs, either side possibly padded with
    eps(x,y) | !eps(x,y), an inessential atom that may bring new names,
    so that the arities and atom counts of the two sides differ."""
    sides = [entry.body for entry in draw(schema_pairs())]
    for i in range(2):
        if draw(st.booleans()):
            x, y = draw(st.sampled_from("abcdefgh")), draw(st.sampled_from("abcdefgh"))
            sides[i] = And(sides[i], Or(eps(x, y), Not(eps(x, y))))
    if draw(st.booleans()):
        sides.reverse()
    return SchemaEntry.make("S", sides[0]), SchemaEntry.make("T", sides[1])


def assert_sweeps_match_the_ast_sweep(left, right):
    """Both modes of both criteria, and the mirrored sweep, report the
    reference sweep's witness and map count; explain mode also its
    refutations."""
    source, target = sorted((left, right), key=lambda e: -e.arity)
    expected = ast_sweep(
        padded_bijections(source.variables, target.variables, FRESH_TRIVIALITY),
        source,
        target,
    )
    report = triviality(source, target)
    assert [r.valuation for r in report.refutations] == expected[1]
    for report in (report, triviality(source, target, explain=False)):
        assert (report.witness, report.map_count) == (expected[0], expected[2])

    case, candidates = comparison_maps(left.variables, right.variables)
    oriented = (right, left) if case == 1 else (left, right)
    expected = ast_sweep(candidates, *oriented)
    report = quasi_triviality(left, right)
    assert [r.valuation for r in report.refutations] == expected[1]
    decided = quasi_triviality(left, right, explain=False)
    for report in (report, decided):
        assert (report.case_used, report.witness) == (case, expected[0])
        assert report.map_count == expected[2]
    if left.arity == right.arity:
        mirrored = ast_sweep(
            padded_bijections(left.variables, right.variables, FRESH_QNT_RIGHT), left, right
        )
        kernel = criteria._Kernel(left, right, FRESH_QNT_RIGHT)
        assert criteria._sweep(kernel, explain=False) == (mirrored[0], (), mirrored[2])
        agree = (mirrored[0] is None) == (expected[0] is None)
        for report in (report, decided):
            assert report.cross_check == ("agree" if agree else "disagree")


@given(schema_pairs())
def test_sweeps_match_the_ast_sweep(pair):
    assert_sweeps_match_the_ast_sweep(*pair)


@given(padded_pairs())
def test_sweeps_match_the_ast_sweep_on_padded_schemata(pair):
    assert_sweeps_match_the_ast_sweep(*pair)


def count_compares(monkeypatch):
    """Record (kernel, place) of every map the kernel tables."""
    calls = []
    compare = criteria._Kernel.compare

    def counted(self, place):
        calls.append((self, place))
        return compare(self, place)

    monkeypatch.setattr(criteria._Kernel, "compare", counted)
    return calls


def test_decide_mode_skips_maps_but_counts_them(corpus, monkeypatch):
    s1, s2 = corpus["A_S1"], corpus["A_S2"]
    calls = count_compares(monkeypatch)
    decided = triviality(s1, s2, explain=False)
    assert (decided.witness, decided.map_count) == (None, 24)
    assert len(calls) < 24
    calls.clear()
    explained = triviality(s1, s2)
    assert (explained.witness, explained.map_count, len(calls)) == (None, 24, 24)


def test_decide_mode_tables_only_maps_that_keep_essential_atoms(corpus, monkeypatch):
    entries = [e for e in corpus if e.arity >= 3]
    calls = count_compares(monkeypatch)
    for a in entries:
        for b in entries:
            quasi_triviality(a, b, explain=False)
    assert 0 < len(calls) < 784
    for kernel, place in calls:
        source, target = kernel.essential
        n = len(place)
        assert {place[c // n] * n + place[c % n] for c in source} == target


def test_unequal_essential_atom_counts_compare_no_map(corpus, monkeypatch):
    star = corpus["Star"]
    extended = SchemaEntry.make("extended", And(star.body, eps("b", "b")))
    calls = count_compares(monkeypatch)
    report = quasi_triviality(star, extended, explain=False)
    assert (report.witness, report.map_count, report.cross_check) == (None, 24, "agree")
    assert calls == []


def decided(pairs):
    """Every decide-mode answer for each pair, from cold caches: the report,
    or the type and text of the refusal."""
    criteria.clear_caches()
    answers = []
    for a, b in pairs:
        for run in (is_quasi_trivial, quasi_triviality, triviality):
            try:
                answers.append(run(a, b) if run is is_quasi_trivial else run(a, b, explain=False))
            except InputError as exc:
                answers.append((type(exc), str(exc)))
    criteria.clear_caches()
    return answers


def assert_the_key_cut_matches_the_full_sweep(pairs):
    """Decide mode answers as the full sweep does when no pair is settled
    by its keys and no branch is cut: same verdict, witness, map count and
    cross-check, or the same refusal."""
    answers = decided(pairs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(criteria, "_profiles", lambda source, target: None)
        assert answers == decided(pairs)


def test_the_key_cut_matches_the_full_sweep_on_every_corpus_pair(corpus):
    entries = [e for e in corpus if e.arity >= 3]
    assert_the_key_cut_matches_the_full_sweep([(a, b) for a in entries for b in entries])


@given(padded_pairs().filter(lambda pair: max(e.arity for e in pair) <= 5))
def test_the_key_cut_matches_the_full_sweep_on_generated_pairs(pair):
    assert_the_key_cut_matches_the_full_sweep([pair, pair[::-1]])


def test_the_keys_settle_660_corpus_pairs_before_any_kernel(corpus, monkeypatch):
    entries = [e for e in corpus if e.arity >= 3]
    key = {e.name: criteria._essential(e)[1] for e in entries}
    differ = {(a.name, b.name) for a in entries for b in entries if key[a.name] != key[b.name]}
    counts_differ = [pair for pair in differ if key[pair[0]][0] != key[pair[1]][0]]
    assert (len(differ), len(counts_differ)) == (660, 362)
    built = []
    init = criteria._Kernel.__init__

    def spy(kernel, source, target, *args):
        built.append((source.name, target.name))
        init(kernel, source, target, *args)

    monkeypatch.setattr(criteria._Kernel, "__init__", spy)
    trivial = {(a.name, b.name) for a in entries for b in entries if is_quasi_trivial(a, b)}
    assert len(trivial) == 34
    assert not trivial & differ
    # one primary kernel for each pair whose keys are equal, oriented
    assert sorted(built) == sorted(
        (b, a) if corpus[a].arity <= corpus[b].arity else (a, b)
        for a in key
        for b in key
        if (a, b) not in differ
    )


def test_explain_mode_computes_no_essential_atoms(corpus, monkeypatch):
    found = []
    essential = criteria._essential

    def spy(entry):
        found.append(entry.name)
        return essential(entry)

    monkeypatch.setattr(criteria, "_essential", spy)
    s1, s2 = corpus["A_S1"], corpus["A_S2"]
    explained = triviality(s1, s2)
    assert (explained.verdict, len(explained.refutations)) == ("nontrivial", 24)
    assert found == []
    # decide mode reads them, once for each side
    triviality(s1, s2, explain=False)
    assert found == ["A_S1", "A_S2"]


GRID36 = " | ".join(f"eps({x},{y})" for x in "abcdef" for y in "abcdef")


def test_thirty_six_atoms_exceed_the_budget(capsys):
    entry = SchemaEntry.make("grid", syntax.parse_formula(GRID36))
    for explain in (True, False):
        with pytest.raises(BudgetError) as exc:
            quasi_triviality(entry, entry, explain=explain)
        assert str(exc.value) == "36 atoms exceed the budget of 30"
    assert main(["qnt", GRID36, GRID36]) == 2
    assert capsys.readouterr().err == "error: 36 atoms exceed the budget of 30\n"


# On the same six names, 18 atoms in rows a-c against 17 in rows d-f plus
# two padded atoms in rows a and c: the first map meets 35 atoms. The
# essential counts differ (18 against 17), so a pruned sweep would return
# at once; the budget check must raise as the unpruned walk does.
ROWS_ABC = " | ".join(f"eps({x},{y})" for x in "abc" for y in "abcdef")
ROWS_DEF = " | ".join(f"eps({x},{y})" for x in "def" for y in "abcdef" if x + y != "ff")
PADDED_DEF = f"(eps(a,b) | !eps(a,b)) & (eps(c,c) | !eps(c,c)) & ({ROWS_DEF})"


def test_a_pair_over_the_budget_raises_alike_in_both_modes():
    source = SchemaEntry.make("abc", syntax.parse_formula(ROWS_ABC))
    target = SchemaEntry.make("def", syntax.parse_formula(PADDED_DEF))
    messages = []
    for explain in (True, False):
        for run in (triviality, quasi_triviality):
            with pytest.raises(BudgetError) as exc:
                run(source, target, explain=explain)
            messages.append(str(exc.value))
    with pytest.raises(BudgetError) as exc:
        is_quasi_trivial(source, target)
    messages.append(str(exc.value))
    assert messages == ["35 atoms exceed the budget of 30"] * 5


# The same rows a-c against eps(a,b) or rows d-f without eps(f,f), behind
# two padded atoms: 18 essential atoms on each side, but 3 diagonal ones
# against 2. The keys differ in their second number alone, and the first
# map still meets 35 atoms.
KEYED_DEF = (
    "(eps(a,b) | !eps(a,b)) & (eps(c,c) | !eps(c,c)) & (eps(a,b) | "
    + " | ".join(f"eps({x},{y})" for x in "def" for y in "abcdef" if x + y != "ff")
    + ")"
)


def test_a_pair_over_the_budget_whose_keys_differ_still_raises():
    source = SchemaEntry.make("abc", syntax.parse_formula(ROWS_ABC))
    target = SchemaEntry.make("def", syntax.parse_formula(KEYED_DEF))
    source_key, target_key = (criteria._essential(e)[1] for e in (source, target))
    assert (source_key[:2], target_key[:2]) == ((18, 3), (18, 2))
    for explain in (True, False):
        for run in (triviality, quasi_triviality):
            for pair in ((source, target), (target, source)):
                with pytest.raises(BudgetError, match="^35 atoms exceed the budget of 30$"):
                    run(*pair, explain=explain)
    with pytest.raises(BudgetError, match="^35 atoms exceed the budget of 30$"):
        is_quasi_trivial(source, target)


def chain(k):
    """eps(x0,x1) & ... & eps(x(k-2),x(k-1)) -> eps(x0,x0), on k variables."""
    links = " & ".join(f"eps(x{i},x{i + 1})" for i in range(k - 1))
    return SchemaEntry.make(f"chain{k}", syntax.parse_formula(f"{links} -> eps(x0,x0)"))


def test_nine_variables_exceed_the_map_budget_before_any_table(
    capsys, corpus, monkeypatch, tmp_path
):
    def no_tables(entry):
        raise AssertionError("a table was compiled")

    monkeypatch.setattr(criteria, "compile_schema", no_tables)
    entry, m8 = chain(9), corpus["A_M8"]
    message = "9 variables make 362880 renamings, beyond the budget of 40320"
    runs = [
        (triviality, entry, corpus["A_t"]),
        (quasi_triviality, entry, m8),
        (quasi_triviality, m8, entry),
        (quasi_triviality, entry, entry),
    ]
    start = time.perf_counter()
    for explain in (True, False):
        for run, left, right in runs:
            with pytest.raises(BudgetError, match=f"^{message}$"):
                run(left, right, explain=explain)
    for run in (lambda *pair: qnt_matrix(pair), is_quasi_trivial, criteria.is_trivial):
        with pytest.raises(BudgetError, match=f"^{message}$"):
            run(entry, m8)
    text = syntax.print_formula(entry.body)
    path = tmp_path / "chain.schemata"
    path.write_text(f"Chain := {text}\nM := {syntax.print_formula(m8.body)}\n")
    for argv in (["nontrivial", text], ["qnt", "A_M8", text], ["matrix", "--corpus", str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert time.perf_counter() - start < 0.5


def test_eight_variables_stay_within_the_map_budget(corpus):
    assert criteria.MAP_BUDGET == 40320
    report = triviality(chain(8), corpus["A_t"], explain=False)
    assert (report.verdict, report.map_count) == ("nontrivial", 40320)


def spy_sweeps(monkeypatch, entries, skip=None):
    """Record (source, target) of every sweep; a sweep whose source is
    skip finds nothing. The hypothesis verdicts are computed beforehand."""
    for entry in entries:
        criteria.is_nontrivial_standard(entry)
    calls = []
    sweep = criteria._sweep

    def spy(kernel, explain):
        calls.append((kernel.source.name, kernel.target.name))
        if kernel.source.name == skip:
            return None, (), 0
        return sweep(kernel, explain)

    monkeypatch.setattr(criteria, "_sweep", spy)
    return calls


def test_inverse_witness_spares_the_mirrored_sweep(corpus, monkeypatch):
    calls = spy_sweeps(monkeypatch, [corpus["Star"], corpus["A_M8"]])
    compared = []
    compare = criteria._Kernel.compare

    def spy_compare(kernel, place):
        compared.append(kernel.source.name)
        return compare(kernel, place)

    monkeypatch.setattr(criteria._Kernel, "compare", spy_compare)
    report = quasi_triviality(corpus["Star"], corpus["A_M8"], explain=False)
    assert report.cross_check == "agree"
    assert calls == [("A_M8", "Star"), ("Star", "A_M8")]  # primary, then mirrored
    assert compared.count("Star") == 1  # the mirrored sweep's witness is its first map


def test_failed_inverse_falls_back_to_the_full_mirrored_sweep(corpus, monkeypatch):
    star, m8 = corpus["Star"], corpus["A_M8"]
    calls = spy_sweeps(monkeypatch, [star, m8])
    report = quasi_triviality(star, m8)
    assert report.verdict == "quasi-trivial"
    assert report.cross_check == "agree"
    assert calls == [("A_M8", "Star"), ("Star", "A_M8")]  # primary, then mirrored


def test_failed_fallback_reports_the_disagreement(corpus, monkeypatch):
    star, m8 = corpus["Star"], corpus["A_M8"]
    calls = spy_sweeps(monkeypatch, [star, m8], skip="Star")
    report = quasi_triviality(star, m8)
    assert report.verdict == "quasi-trivial"
    assert report.cross_check == "disagree"
    assert calls == [("A_M8", "Star"), ("Star", "A_M8")]


def test_mirrored_sweep_runs_without_a_primary_witness(corpus, monkeypatch):
    s1, s2 = corpus["A_S1"], corpus["A_S2"]
    calls = spy_sweeps(monkeypatch, [s1, s2])
    cells = qnt_matrix([s1, s2])
    assert {cell.cross_check for cell in cells.values()} == {"agree"}
    assert calls == [
        ("A_S1", "A_S1"),
        ("A_S1", "A_S1"),  # mirrored
        ("A_S2", "A_S1"),
        ("A_S1", "A_S2"),  # mirrored: no primary witness
        ("A_S1", "A_S2"),
        ("A_S2", "A_S1"),  # mirrored
        ("A_S2", "A_S2"),
        ("A_S2", "A_S2"),  # mirrored
    ]


def test_is_quasi_trivial_runs_the_primary_sweep_only(corpus, monkeypatch):
    s1, s2, star, m8 = (corpus[n] for n in ("A_S1", "A_S2", "Star", "A_M8"))
    calls = spy_sweeps(monkeypatch, [s1, s2, star, m8])
    hypotheses = criteria.is_nontrivial_standard.cache_info()
    assert not is_quasi_trivial(s1, s2)  # equal arity, no witness
    assert is_quasi_trivial(star, m8)  # equal arity, witness
    assert calls == [("A_S2", "A_S1"), ("A_M8", "Star")]
    assert criteria.is_nontrivial_standard.cache_info() == hypotheses


@pytest.mark.parametrize(
    "argv, built, replayed",
    [
        (["conjectures"], 0, 0),
        (["matrix"], 0, 10),
        (["verify"], 168, 116),
        (["qnt", "A_S1", "A_S2"], 24, 0),
        (["nontrivial", "A_M8"], 24, 0),
    ],
)
def test_refutations_are_built_only_for_reports_that_show_them(
    argv, built, replayed, capsys, monkeypatch
):
    counts = {"refutation": 0, "replay_witness": 0}
    for name in counts:
        method = getattr(criteria._Kernel, name)

        def spy(kernel, *args, name=name, method=method):
            counts[name] += 1
            return method(kernel, *args)

        monkeypatch.setattr(criteria._Kernel, name, spy)
    l1ax.clear_caches()
    assert main(argv) == 0
    capsys.readouterr()
    assert counts == {"refutation": built, "replay_witness": replayed}


TAMPERED_REPLAY = """
import sys
from l1ax import criteria
from l1ax.corpus import load_corpus

compare = criteria._Kernel.compare

def claim_counter_zero(self, place):
    # report a disagreement at counter 0, where the two tables agree
    source_bits, diff, index = compare(self, place)
    return source_bits, diff | 1, index

criteria._Kernel.compare = claim_counter_zero
c = load_corpus()
try:
    criteria.triviality(c["A_M8"], c["A_t"])
except RuntimeError as exc:
    print(exc)
    sys.exit(3)
"""


def test_a_refutation_that_fails_its_replay_raises_under_dash_o():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", TAMPERED_REPLAY],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "refutation of {a->a, b->b, c->c, d->y1} fails its replay\n"


def test_a_refutation_at_a_counter_where_the_tables_agree_fails_its_replay(corpus):
    kernel = criteria._Kernel(corpus["A_M8"], corpus["A_t"], FRESH_TRIVIALITY)
    perm = (1, 0, 3, 2)  # its own inverse, so also its place
    source_bits, diff, index = kernel.compare(perm)
    kernel.refutation(perm, source_bits, diff, index)  # the true diff replays
    agree = next(c for c in range(1 << len(index)) if not diff >> c & 1)
    message = r"^refutation of \{a->b, b->a, c->y1, d->c\} fails its replay$"
    with pytest.raises(RuntimeError, match=message):
        kernel.refutation(perm, source_bits, 1 << agree, index)
    # a source table wrong at that counter fakes a disagreement that the
    # target confirms; only the substitution-lemma replay of the source sees it
    with pytest.raises(RuntimeError, match=message):
        kernel.refutation(perm, source_bits ^ 1 << agree, 1 << agree, index)


def test_a_refutation_looks_every_image_up_in_the_valuation_domain(corpus):
    kernel = criteria._Kernel(corpus["A_M8"], corpus["A_t"], FRESH_TRIVIALITY)
    perm = (0, 1, 2, 3)
    source_bits, diff, index = kernel.compare(perm)
    del index[next(iter(index))]  # the first source atom leaves the domain
    with pytest.raises(ValueError, match=r"outside valuation domain"):
        kernel.refutation(perm, source_bits, diff, index)


def test_a_refutation_image_outside_the_grid_is_refused(corpus, monkeypatch):
    """The images come from sigma alone: one that names no grid atom is
    looked up as itself and refused by the valuation."""
    candidate = criteria._Kernel.candidate

    def stray(kernel, perm):
        cand = candidate(kernel, perm)
        mapping = {**cand.sigma.mapping, kernel.source.variables[0]: "zz"}
        return CandidateMap(cand.rho, Substitution.of(mapping))

    monkeypatch.setattr(criteria._Kernel, "candidate", stray)
    kernel = criteria._Kernel(corpus["A_M8"], corpus["A_t"], FRESH_TRIVIALITY)
    assert "zz" not in kernel.targets
    perm = (0, 1, 2, 3)
    source_bits, diff, index = kernel.compare(perm)
    with pytest.raises(ValueError, match=r"^atom eps\(zz,[a-z0-9]+\) outside valuation domain$"):
        kernel.refutation(perm, source_bits, diff, index)


# the substitution-lemma replay against Substitution.apply, every
# refutation of every ordered pair of these schemata in explain mode
LEMMA_SCHEMATA = (
    "A_M8", "A_S1", "A_S2", "A_S3N", "A_S3Nd", "Star", "DoubleStar", "A_t", "A_t-1", "A_S3"
)


def test_every_refutation_replays_through_substitution_apply(corpus):
    checked = 0
    for a in LEMMA_SCHEMATA:
        for b in LEMMA_SCHEMATA:
            left, right = corpus[a], corpus[b]
            report = quasi_triviality(left, right)
            certify_refutations(report, *qnt_bodies(report))
            checked += len(report.refutations)
            try:
                report = triviality(left, right)
            except CriterionInapplicable:
                continue
            certify_refutations(report, left.body, right.body)
            checked += len(report.refutations)
    assert checked == 3324 + 2148


def test_a_witness_that_fails_its_replay_raises(corpus, monkeypatch):
    monkeypatch.setattr(criteria, "are_equivalent", lambda a, b: are_equivalent(a, Not(b)))
    for explain in (True, False):
        with pytest.raises(RuntimeError, match="fails its replay"):
            triviality(corpus["A_t"], corpus["A_t"], explain=explain)


def test_clear_caches_drops_the_compiled_bodies(corpus):
    triviality(corpus["A_M8"], corpus["A_t"], explain=False)
    assert criteria.compile_schema.cache_info().currsize > 0
    l1ax.clear_caches()
    assert criteria.compile_schema.cache_info().currsize == 0

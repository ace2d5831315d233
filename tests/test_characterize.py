"""Axiom recovery from instance sets and the characterization verdict."""

import importlib
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from l1ax.axioms import AX1, AX2, AX3
from l1ax.characterize import characterize, recover_axioms, recovery_script
from l1ax.decision import grid_atoms, instance_tables, is_countermodel
from l1ax.formula import And, Atom, Implies, Not, Or, SchemaEntry, eps
from l1ax.proofs import check_proof
from l1ax.semantics import Valuation, entails, evaluate, full_mask, truth_table
from l1ax.substitution import Substitution
from l1ax.syntax import parse_formula
from oracles import all_instances

QUARTET = ("A_S1", "A_S2", "A_S3N", "A_S3Nd")

# the package exports the function characterize under the module's name
characterize_module = importlib.import_module("l1ax.characterize")


def test_reference_schema_characteristic_with_singleton_witnesses(corpus):
    report = characterize(corpus["A_M8"], max_pool=3)
    assert report.characteristic
    assert report.validity.valid
    assert report.derivation_script == "m8_from_base"
    assert [r.axiom.name for r in report.recoveries] == ["Ax1", "Ax2", "Ax3"]
    for rec in report.recoveries:
        assert rec.recovered and rec.pool_size == 3
        assert len(rec.witness_maps) == 1
        assert len(rec.witness_instances) == 1


def test_witness_instances_entail_the_axiom(corpus):
    report = characterize(corpus["A_M8"], max_pool=3)
    for rec in report.recoveries:
        assert entails(list(rec.witness_instances), rec.axiom.body).holds


def test_full_instance_set_entails_every_axiom_instance(corpus):
    # the witness certifies the axiom read over the pool; closure of the
    # instance set under pool renamings lifts that to all instances
    pool = ("a", "b", "c")
    premises = all_instances(corpus["A_M8"], pool)
    for axiom in (AX1, AX2, AX3):
        for inst in all_instances(axiom, pool):
            assert entails(premises, inst).holds, (axiom.name, inst)


def test_quartet_characteristic_at_three_names(corpus):
    for name in QUARTET:
        report = characterize(corpus[name], max_pool=3)
        assert report.characteristic, name
        for rec in report.recoveries:
            assert rec.recovered and rec.pool_size == 3
            assert 1 <= len(rec.witness_maps) <= 2, (name, rec.axiom.name)


def test_nested_variant_never_recovers_the_first_axiom(corpus):
    report = characterize(corpus["A_S3"], max_pool=4)
    assert report.validity.valid
    assert report.derivation_script == "s3_from_base"
    assert not report.characteristic
    by_name = {r.axiom.name: r for r in report.recoveries}
    assert not by_name["Ax1"].recovered
    assert by_name["Ax1"].pool_size == 4
    assert by_name["Ax2"].recovered
    assert by_name["Ax3"].recovered

    # replay the stored counterexample: it satisfies every schema instance
    # over the four-name pool yet falsifies an Ax1 instance
    cex = by_name["Ax1"].counterexample
    pool = ("a", "b", "c", "d")
    for inst in all_instances(corpus["A_S3"], pool):
        assert evaluate(inst, cex)
    assert any(not evaluate(inst, cex) for inst in all_instances(AX1, pool))


def test_single_membership_valuation_separates_the_nested_variant(corpus):
    # an independently constructed separator: only eps(a,b) true
    pool = ("a", "b", "c", "d")
    v = Valuation(domain=grid_atoms(pool), true_atoms=frozenset({Atom("a", "b")}))
    for inst in all_instances(corpus["A_S3"], pool):
        assert evaluate(inst, v)
    assert evaluate(parse_formula("eps(a,b) -> eps(a,a)"), v) is False


def test_recovery_is_monotone_in_the_pool(corpus):
    # a pool-three recovery is kept when the cap allows four names
    recs = recover_axioms(corpus["A_M8"], max_pool=4)
    assert all(rec.recovered and rec.pool_size == 3 for rec in recs)


def test_single_base_axioms_are_not_characteristic():
    for entry, missing in ((AX1, AX2), (AX2, AX1)):
        recs = recover_axioms(
            SchemaEntry.make("probe", entry.body), max_pool=3
        )
        by_name = {r.axiom.name: r for r in recs}
        assert by_name[entry.name].recovered
        assert not by_name[missing.name].recovered


def test_pool_bounds_are_validated(corpus):
    with pytest.raises(ValueError):
        recover_axioms(corpus["A_M8"], max_pool=2)
    with pytest.raises(ValueError):
        characterize(corpus["A_M8"], max_pool=5)


def test_invalid_schema_is_not_characteristic():
    entry = SchemaEntry.make(
        "scratch", parse_formula("eps(a,b) & eps(b,c) -> eps(c,a)")
    )
    report = characterize(entry, max_pool=3)
    assert not report.validity.valid
    assert not report.characteristic
    assert report.derivation_script is None
    assert evaluate(entry.body, report.validity.counter_valuation) is False


def test_recovery_script_is_kernel_checkable(corpus):
    script = recovery_script(corpus["A_M8"])
    assert script.name == "axioms_from_a_m8"
    assert script.assumptions == (corpus["A_M8"],)
    result = check_proof(script)
    assert result.ok
    assert [line.label for line in script.lines][-3:] == ["ax1", "ax2", "ax3"]


def test_recovery_script_for_the_quartet_checks(corpus):
    for name in QUARTET:
        result = check_proof(recovery_script(corpus[name]))
        assert result.ok, name


def assert_tables_match_the_applied_instances(entry, pool):
    grid = grid_atoms(pool)
    expected = [truth_table(inst, grid) for inst in all_instances(entry, pool)]
    assert list(instance_tables(entry, pool)) == expected


def test_reindexed_instance_tables_match_the_applied_instances(corpus):
    for entry in corpus:
        for pool in (("a", "b", "c"), ("a", "b", "c", "d")):
            assert_tables_match_the_applied_instances(entry, pool)


bodies = st.recursive(
    st.builds(eps, st.sampled_from("abcde"), st.sampled_from("abcde")),
    lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(Or, sub, sub), st.builds(Implies, sub, sub)
    ),
    max_leaves=8,
)


@given(bodies, st.sampled_from([("a", "b", "c"), ("b", "d", "a", "c")]))
def test_reindexed_tables_match_on_random_schemata(body, pool):
    assert_tables_match_the_applied_instances(SchemaEntry.make("S", body), pool)


def tamper_tables(monkeypatch, rewrite):
    monkeypatch.setattr(
        characterize_module,
        "instance_tables",
        lambda entry, pool: rewrite(list(instance_tables(entry, pool)), full_mask(len(pool) ** 2)),
    )


def test_a_witness_that_fails_its_replay_raises(corpus, monkeypatch):
    # an all-false first instance looks like a one-instance witness for Ax1
    tamper_tables(monkeypatch, lambda tables, full: [0, *tables[1:]])
    with pytest.raises(RuntimeError, match="witness {a->a, b->a, c->a, d->a} for Ax1 fails its replay"):
        recover_axioms(corpus["A_M8"], max_pool=3)


def test_a_counterexample_that_fails_its_replay_raises(corpus, monkeypatch):
    # all-true tables leave every falsifier of an axiom as a counterexample
    tamper_tables(monkeypatch, lambda tables, full: [full] * len(tables))
    with pytest.raises(RuntimeError, match="counterexample for Ax1 from A_M8 fails its replay"):
        recover_axioms(corpus["A_M8"], max_pool=3)


def seed_recovery(entry, max_pool):
    """The two-pool search recovery used to run: each axiom tried at a, b, c
    and, failing that, at a, b, c, d; a miss reports the last pool's lowest
    counterexample. The oracle for deciding at three names."""
    pools = [("a", "b", "c"), ("a", "b", "c", "d")][: max_pool - 2]
    outcomes, counterexamples = {}, {}
    for pool in pools:
        grid = grid_atoms(pool)
        full = full_mask(len(grid))
        tables = list(instance_tables(entry, pool))
        conjunction = full
        for t in tables:
            conjunction &= t
        targets = list(itertools.product(pool, repeat=entry.arity))
        for axiom in (AX1, AX2, AX3):
            if axiom.name in outcomes:
                continue
            axiom_table = truth_table(axiom.body, grid)
            violations = conjunction & ~axiom_table & full
            if violations:
                counter = (violations & -violations).bit_length() - 1
                counterexamples[axiom.name] = Valuation.at_counter(grid, counter)
                continue
            chosen = characterize_module._shrink(tables, axiom_table, full)
            maps = tuple(
                Substitution.of(dict(zip(entry.variables, targets[i]))) for i in chosen
            )
            outcomes[axiom.name] = (True, len(pool), maps, None)
    return [
        outcomes.get(axiom.name, (False, max_pool, (), counterexamples.get(axiom.name)))
        for axiom in (AX1, AX2, AX3)
    ]


def assert_recovery_matches_the_seed_search(entry, max_pool):
    got = [
        (r.recovered, r.pool_size, r.witness_maps, r.counterexample)
        for r in recover_axioms(entry, max_pool=max_pool)
    ]
    assert got == seed_recovery(entry, max_pool), (entry.name, max_pool)


def retract(valuation, pool):
    """The valuation lifted from the abc grid to pool's grid, every name
    beyond c read as a."""
    r = {x: x if x in "abc" else "a" for x in pool}
    return Valuation(
        domain=grid_atoms(pool),
        true_atoms=frozenset(
            atom
            for atom in grid_atoms(pool)
            if valuation.value(Atom(r[atom.subject], r[atom.predicate]))
        ),
    )


def assert_pool_three_misses_lift(entry):
    wide = ("a", "b", "c", "d")
    for rec in recover_axioms(entry, max_pool=3):
        if not rec.recovered:
            lifted = retract(rec.counterexample, wide)
            assert is_countermodel(lifted, rec.axiom.body, (entry,), wide), (
                entry.name,
                rec.axiom.name,
            )


def test_recovery_matches_the_seed_search_on_the_corpus(corpus):
    for entry in corpus:
        for max_pool in (3, 4):
            assert_recovery_matches_the_seed_search(entry, max_pool)


def test_pool_three_counterexamples_lift_on_the_corpus(corpus):
    misses = 0
    for entry in corpus:
        assert_pool_three_misses_lift(entry)
        misses += sum(not r.recovered for r in recover_axioms(entry, max_pool=3))
    assert misses > 0


def schemata(k):
    names = st.sampled_from("abcde"[:k])
    atom = st.builds(eps, names, names)
    body = st.one_of(
        st.recursive(
            atom,
            lambda sub: st.one_of(
                st.builds(Not, sub), st.builds(Or, sub, sub), st.builds(Implies, sub, sub)
            ),
            max_leaves=8,
        ),
        # the shape of A_M8: two memberships imply a conjunction
        st.builds(
            Implies,
            st.builds(And, atom, atom),
            st.builds(And, atom, st.builds(Implies, atom, st.builds(And, atom, atom))),
        ),
    )
    return body.map(lambda b: SchemaEntry.make("S", b)).filter(lambda e: e.arity == k)


@given(st.integers(2, 5).flatmap(schemata), st.sampled_from([3, 4]))
def test_recovery_matches_the_seed_search_on_random_schemata(entry, max_pool):
    assert_recovery_matches_the_seed_search(entry, max_pool)


@given(st.integers(2, 5).flatmap(schemata))
def test_pool_three_counterexamples_lift_on_random_schemata(entry):
    assert_pool_three_misses_lift(entry)


@pytest.mark.parametrize(
    "name, max_pool, calls",
    [("A_M8", 4, 1), ("A_S3", 3, 1), ("A_S3", 4, 2), ("A_ad1", 3, 1), ("A_ad1", 4, 2)],
)
def test_instance_tables_are_built_once_per_pool(corpus, monkeypatch, name, max_pool, calls):
    pools = []

    def counted(entry, pool, **bound):
        pools.append(pool)
        return instance_tables(entry, pool, **bound)

    monkeypatch.setattr(characterize_module, "instance_tables", counted)
    recover_axioms(corpus[name], max_pool=max_pool)
    assert len(pools) == calls


@pytest.mark.parametrize("below", [1, 4606, 1 << 16])
def test_cut_instance_tables_are_prefixes_of_the_whole_tables(corpus, below):
    pool = ("a", "b", "c", "d")
    whole = list(instance_tables(corpus["A_S3"], pool))
    cut = list(instance_tables(corpus["A_S3"], pool, below=below))
    assert cut == [t & ((1 << below) - 1) for t in whole]


@pytest.mark.parametrize(
    "name, below",
    # A_S3's lowest lift (4605) is its pool-4 answer; A_ad1's for Ax2
    # (19892) lies far above the answer, 3245
    [("A_S3", 4606), ("A_ad1", 19893)],
)
def test_pool_four_is_tabled_up_to_the_lowest_lifted_counterexample(
    corpus, monkeypatch, name, below
):
    bounds = []

    def recorded(entry, pool, **bound):
        bounds.append(bound.get("below"))
        return instance_tables(entry, pool, **bound)

    monkeypatch.setattr(characterize_module, "instance_tables", recorded)
    assert_recovery_matches_the_seed_search(corpus[name], 4)
    assert bounds == [None, below]


def test_lowest_lifts_are_pool_four_countermodels(corpus):
    pool, wide = ("a", "b", "c"), ("a", "b", "c", "d")
    grid, wide_grid = grid_atoms(pool), grid_atoms(wide)
    lifts = 0
    for entry in corpus:
        conjunction = full_mask(len(grid))
        for t in instance_tables(entry, pool):
            conjunction &= t
        for axiom in (AX1, AX2, AX3):
            gap = conjunction & ~truth_table(axiom.body, grid)
            if gap:
                lift = Valuation.at_counter(wide_grid, characterize_module._lowest_lift(gap))
                assert is_countermodel(lift, axiom.body, (entry,), wide), (entry.name, axiom.name)
                lifts += 1
    assert lifts == 23


def test_a_bound_below_the_pool_four_counterexample_raises(corpus, monkeypatch):
    lowest_lift = characterize_module._lowest_lift
    monkeypatch.setattr(characterize_module, "_lowest_lift", lambda gap: lowest_lift(gap) - 1)
    with pytest.raises(RuntimeError, match="no counterexample for Ax1 from A_S3 below its lifted bound"):
        recover_axioms(corpus["A_S3"], max_pool=4)

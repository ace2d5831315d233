"""The admissible-valuation decision procedure on square atom grids.

The enumeration of admissible valuations is checked against its oracle, the
brute-force `admissible_mask` over every grid valuation, and the countermodel
replay against the one it replaced, which built every instance.
"""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import l1ax
from l1ax import decision, formula, semantics
from l1ax.axioms import AX1, AX2, AX3, AX3S, BASE_AXIOMS
from l1ax.characterize import recover_axioms
from l1ax.decision import (
    POOL_CAP,
    admissible_mask,
    grid_atoms,
    holds_in_all_admissible,
    instance_tables,
    is_countermodel,
    is_theorem,
)
from l1ax.formula import And, Atom, Implies, Not, Or, SchemaEntry, eps, name_variables
from l1ax.semantics import (
    Valuation,
    evaluate,
    full_mask,
    lowest_set_bit,
    truth_table,
)
from l1ax.syntax import parse_formula
from oracles import admissible_tiles, all_instances, iter_set_bits

POOLS = (("a",), ("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d"))
FIVE = ("a", "b", "c", "d", "e")


def test_grid_atoms_row_major():
    assert grid_atoms(("a", "b")) == (
        Atom("a", "a"),
        Atom("a", "b"),
        Atom("b", "a"),
        Atom("b", "b"),
    )


def admissible_counters(pool):
    return list(decision._admissible(len(pool))[0])


def test_admissible_counts_frozen():
    assert [len(admissible_counters(p)) for p in (*POOLS, FIVE)] == [2, 7, 36, 256, 2483]


@pytest.mark.parametrize("symmetry", ["Ax3", "Ax3s"])
def test_enumeration_matches_brute_force(symmetry):
    # one enumeration; the mask under either symmetry axiom is its oracle
    for pool in POOLS:
        counters = admissible_counters(pool)
        assert counters == list(iter_set_bits(admissible_mask(pool, symmetry)))


def test_enumeration_matches_brute_force_at_pool_five():
    # the one place a 2^25-bit mask is still built: about 0.9 s under Ax3 and
    # 0.6 s under Ax3s, at a peak RSS of about 153 MB (Python 3.11)
    counters = admissible_counters(FIVE)
    for symmetry in ("Ax3", "Ax3s"):
        assert counters == list(iter_set_bits(admissible_mask(FIVE, symmetry)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_admissible_tiles_match_the_per_valuation_construction(n):
    # the counters themselves are checked against the brute-force mask above
    counters, tiles = decision._admissible(n)
    assert tiles == admissible_tiles(counters, n * n)


def base_instances(pool):
    return [inst for schema in BASE_AXIOMS for inst in all_instances(schema, pool)]


@pytest.mark.parametrize("symmetry", ["Ax3", "Ax3s"])
def test_mask_is_the_conjunction_of_the_applied_axiom_instances(symmetry):
    # the mask as it was built before it reindexed through instance_tables
    for pool in POOLS:
        grid = grid_atoms(pool)
        expected = full_mask(len(grid))
        for schema in (AX1, AX2, AX3 if symmetry == "Ax3" else AX3S):
            for inst in all_instances(schema, pool):
                expected &= truth_table(inst, grid)
        assert admissible_mask(pool, symmetry) == expected


def test_unknown_symmetry_axiom_is_rejected():
    with pytest.raises(ValueError, match=r"^unknown symmetry axiom 'Ax4'$"):
        admissible_mask(("a", "b"), "Ax4")


def test_admissible_counts_match_naive_enumeration():
    # independent recount by brute force, pools small enough to afford it
    for pool in POOLS[:3]:
        domain = grid_atoms(pool)
        instances = base_instances(pool)
        count = sum(
            1
            for k in range(2 ** len(domain))
            if all(
                evaluate(inst, Valuation.at_counter(domain, k))
                for inst in instances
            )
        )
        assert count == len(admissible_counters(pool))


def test_shortened_symmetry_axiom_carves_the_same_sets():
    for pool in POOLS:
        assert admissible_mask(pool, "Ax3") == admissible_mask(pool, "Ax3s")


def test_axiom_instance_counts():
    pool = ("a", "b")
    instances = base_instances(pool)
    # 4 two-variable instances plus 8 each for the two three-variable axioms
    assert len(instances) == 4 + 8 + 8


def test_membership_is_not_symmetric():
    f = parse_formula("eps(a,b) -> eps(b,a)")
    verdict = is_theorem(f)
    assert not verdict.valid
    assert verdict.pool == ("a", "b")
    w = verdict.counter_valuation
    assert w.counter == 12
    assert w.false_atoms() == (Atom("b", "a"), Atom("b", "b"))
    # the witness refutes the formula yet satisfies every axiom instance
    assert evaluate(f, w) is False
    for inst in base_instances(("a", "b")):
        assert evaluate(inst, w)


def test_base_schemata_are_valid(corpus):
    for name in ("Ax1", "Ax2", "Ax3", "Ax3s", "A_t", "A_t-1", "A_M8", "Star"):
        assert is_theorem(corpus[name].body).valid, name


def test_unrestricted_transitivity_of_converse_fails():
    assert not is_theorem(parse_formula("eps(a,b) & eps(b,c) -> eps(c,a)")).valid


def test_holds_in_all_admissible_allows_spectator_names():
    f = parse_formula("eps(a,b) -> eps(a,a)")
    assert holds_in_all_admissible(f, ("a", "b")).valid
    assert holds_in_all_admissible(f, ("a", "b", "c")).valid


def test_pool_cap_guard():
    too_big = tuple("abcdef")
    assert len(too_big) > POOL_CAP
    with pytest.raises(ValueError):
        admissible_mask(too_big)


def test_duplicate_pool_names_rejected():
    with pytest.raises(ValueError, match="^pool variables must be distinct$"):
        holds_in_all_admissible(eps("a", "a"), ("a", "a"))


def test_iter_set_bits():
    assert list(iter_set_bits(0)) == []
    assert list(iter_set_bits(0b101001)) == [0, 3, 5]


def test_single_name_pool_valuations():
    assert admissible_counters(("a",)) == [0, 1]


@functools.cache
def _oracle_mask(pool):
    return admissible_mask(pool)


def _reference(formula, pool):
    """Validity and witness the way the brute-force mask decides them."""
    grid = grid_atoms(pool)
    violations = _oracle_mask(pool) & ~truth_table(formula, grid) & full_mask(len(grid))
    if violations == 0:
        return True, None
    return False, Valuation.at_counter(grid, lowest_set_bit(violations))


names = st.sampled_from("abcd")
atom_st = st.builds(eps, names, names)
formula_st = st.one_of(
    st.recursive(
        atom_st,
        lambda sub: st.one_of(
            st.builds(Not, sub), st.builds(Or, sub, sub), st.builds(Implies, sub, sub)
        ),
        max_leaves=10,
    ),
    # premises joined by eps, like the base axioms: valid more often
    st.builds(Implies, st.builds(And, atom_st, atom_st), atom_st),
)


@given(formula_st)
def test_enumeration_agrees_with_the_mask_reference(formula):
    for pool in (name_variables(formula), ("d", "c", "b", "a")):
        verdict = holds_in_all_admissible(formula, pool)
        assert (verdict.valid, verdict.counter_valuation) == _reference(formula, pool)



# names no formula of formula_st uses
FRESH = ("v", "w", "x", "y", "z")


@given(formula_st)
def test_the_verdict_does_not_depend_on_the_pool(formula):
    # a countermodel restricts to the formula's own grid, and lifts from it
    # by reading each extra name as one of the formula's names
    own = name_variables(formula)
    valid = holds_in_all_admissible(formula, own).valid
    for extra in range(1, POOL_CAP - len(own) + 1):
        for pool in ((*own, *FRESH[:extra]), (*FRESH[:extra], *own)):
            assert holds_in_all_admissible(formula, pool).valid == valid, pool


def test_corpus_verdicts_do_not_depend_on_the_pool(corpus):
    padded = 0
    for entry in corpus:
        own = name_variables(entry.body)
        if len(own) < POOL_CAP:
            fresh = next(name for name in FRESH if name not in own)
            valid = holds_in_all_admissible(entry.body, own).valid
            assert holds_in_all_admissible(entry.body, (*own, fresh)).valid == valid
            padded += 1
    assert padded == 29


# pool-5 verdicts and witnesses, formulas copied as text
DOUBLE_STAR = (
    "eps(a,b) & eps(d,e) -> eps(d,d) & eps(a,a)"
    " & (eps(b,d) -> eps(a,e) & eps(b,a)) & (eps(c,c) | !eps(c,c))"
)
SYM_PAD5 = "(eps(a,b) -> eps(b,a)) & (eps(c,d) | !eps(c,d)) & (eps(e,e) | !eps(e,e))"
REFL_B_PAD5 = "(eps(a,b) -> eps(b,b)) & (eps(c,c) -> eps(c,c)) & (eps(d,e) -> eps(d,e))"
ROW_B_FALSE = "false: eps(b,a), eps(b,b), eps(b,c), eps(b,d), eps(b,e); all other atoms true"


def test_pool_five_verdicts_and_witnesses_are_pinned():
    verdict = is_theorem(parse_formula(DOUBLE_STAR))
    assert verdict.valid and verdict.counter_valuation is None
    assert verdict.pool == ("a", "b", "d", "e", "c")
    for text in (SYM_PAD5, REFL_B_PAD5):
        verdict = is_theorem(parse_formula(text))
        assert not verdict.valid
        assert verdict.pool == FIVE
        w = verdict.counter_valuation
        assert w.counter == 0b11111 << 5
        assert str(w) == ROW_B_FALSE


def test_witness_that_fails_its_replay_raises(monkeypatch):
    # a fake enumeration holding one inadmissible valuation: only eps(a,b)
    # true, which refutes the formula but breaks Ax1
    monkeypatch.setattr(decision, "_admissible", lambda n: ((0b1101,), (0, 1, 0, 0)))
    with pytest.raises(RuntimeError, match="fails its replay"):
        holds_in_all_admissible(parse_formula("eps(a,b) -> eps(b,a)"), ("a", "b"))


def reference_is_countermodel(valuation, formula, schemata, pool):
    """The replay as it was: build every instance and evaluate it."""
    return not evaluate(formula, valuation) and all(
        evaluate(instance, valuation)
        for schema in schemata
        for instance in all_instances(schema, pool)
    )


schema_st = st.recursive(
    st.builds(eps, st.sampled_from("abcde"), st.sampled_from("abcde")),
    lambda sub: st.one_of(st.builds(Not, sub), st.builds(Or, sub, sub), st.builds(And, sub, sub)),
    max_leaves=5,
).map(lambda body: SchemaEntry.make("S", body))


@st.composite
def replays(draw):
    """A pool of 3 to 5 names, a formula over it, schemata and a valuation of
    the pool's grid: a random one, the lowest admissible one refuting the
    formula, or (pools 3 and 4) the lowest one satisfying every instance of
    the schemata and refuting the formula."""
    pool = FIVE[: draw(st.integers(3, 5))]
    on_pool = st.builds(eps, st.sampled_from(pool), st.sampled_from(pool))
    formula = draw(
        st.recursive(
            on_pool,
            lambda sub: st.one_of(st.builds(Not, sub), st.builds(Implies, sub, sub)),
            max_leaves=6,
        )
    )
    schemata = draw(st.one_of(st.just(BASE_AXIOMS), st.lists(schema_st, min_size=1, max_size=2)))
    grid = grid_atoms(pool)
    kind = draw(st.sampled_from(["random", "admissible", "lowest"]))
    if kind == "admissible":
        witness = holds_in_all_admissible(formula, pool).counter_valuation
        if witness is not None:
            return witness, formula, tuple(schemata), pool
    if kind == "lowest" and len(pool) < 5:
        mask = full_mask(len(grid)) & ~truth_table(formula, grid)
        for schema in schemata:
            for table in instance_tables(schema, pool):
                mask &= table
        if mask:
            return Valuation.at_counter(grid, lowest_set_bit(mask)), formula, tuple(schemata), pool
    counter = draw(st.integers(0, (1 << len(grid)) - 1))
    return Valuation.at_counter(grid, counter), formula, tuple(schemata), pool


@given(replays())
def test_countermodel_replay_matches_building_every_instance(replay):
    assert is_countermodel(*replay) == reference_is_countermodel(*replay)


def test_countermodel_replay_needs_the_pool_grid_in_the_domain():
    # all true on the ab grid, refuting !eps(a,a); eps(x,y) reaches eps(a,c)
    valuation = Valuation.at_counter(grid_atoms(("a", "b")), 0)
    args = (valuation, Not(eps("a", "a")), (SchemaEntry.make("S", eps("x", "y")),), ("a", "b", "c"))
    with pytest.raises(ValueError, match=r"atom eps\(a,c\) outside valuation domain"):
        is_countermodel(*args)


def test_countermodel_replay_evaluates_each_atom_pattern_once(monkeypatch):
    # five names, four distinct body atoms: 1024 instances over abcd, at most 16 patterns
    schema = SchemaEntry.make(
        "sym-pad5",
        parse_formula("(eps(a,b) -> eps(b,a)) & (eps(c,d) | !eps(c,d)) & (eps(e,e) | !eps(e,e))"),
    )
    pool = FIVE[:4]
    grid = grid_atoms(pool)
    mask = full_mask(len(grid)) & ~truth_table(AX1.body, grid)
    for table in instance_tables(schema, pool):
        mask &= table
    valuation = Valuation.at_counter(grid, lowest_set_bit(mask))
    bodies = []

    def counted(formula, valuation):
        if formula is schema.body:
            bodies.append(valuation)
        return evaluate(formula, valuation)

    monkeypatch.setattr(decision, "evaluate", counted)
    assert is_countermodel(valuation, AX1.body, (schema,), pool)
    assert 1 < len(bodies) <= 16


def test_clear_caches_drops_the_enumeration():
    decision._admissible(5)
    assert decision._admissible.cache_info().currsize > 0
    l1ax.clear_caches()
    assert decision._admissible.cache_info().currsize == 0


def count_compiles(monkeypatch):
    """The formulas compiled from now on, counted in both namespaces that
    hold compile_formula."""
    compiled, compile_formula = [], semantics.compile_formula

    def counted(formula):
        compiled.append(formula)
        return compile_formula(formula)

    for module in (semantics, decision):
        monkeypatch.setattr(module, "compile_formula", counted)
    return compiled


def test_recovery_compiles_the_body_once(corpus, monkeypatch):
    entry = corpus["A_S3"]
    l1ax.clear_caches()
    compiled = count_compiles(monkeypatch)
    recover_axioms(entry, max_pool=4)
    assert compiled.count(entry.body) == 1


@pytest.mark.parametrize("m", [0, 1, 3])
def test_entailment_and_equivalence_compile_each_formula_once(corpus, monkeypatch, m):
    bodies = [corpus[name].body for name in ("A_S1", "A_S2", "A_M8", "A_t")]
    # semantics imports no atom walk, so formula holds the only one
    assert not hasattr(semantics, "atoms")
    walks, walk = [], formula.atoms
    monkeypatch.setattr(formula, "atoms", lambda f: walks.append(f) or walk(f))
    compiled = count_compiles(monkeypatch)
    semantics.entails(bodies[:m], bodies[m])
    assert (len(compiled), walks) == (m + 1, [])
    compiled.clear()
    semantics.are_equivalent(bodies[0], bodies[m])
    assert (len(compiled), walks) == (2, [])


def test_the_admissibility_filter_compiles_each_schema_once(monkeypatch):
    l1ax.clear_caches()
    compiled = count_compiles(monkeypatch)
    for n in range(1, 5):
        for symmetry in ("Ax3", "Ax3s"):
            admissible_mask(FIVE[:n], symmetry)
    assert len(compiled) == 4

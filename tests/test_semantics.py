"""Bit-parallel truth tables and the valuation counter convention.

The counter convention is load bearing for every reported witness: atoms are
ordered by first occurrence, bit j of the counter set means atom j is false,
so counter 0 is the all-true valuation and the first falsifying counter is
the canonical witness.
"""

import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import l1ax
from l1ax import semantics
from l1ax.axioms import A_T
from l1ax.formula import And, Atom, Implies, Not, Or, atoms, conjoin, eps
from l1ax.semantics import (
    BudgetError,
    Valuation,
    are_equivalent,
    atom_tile,
    compile_formula,
    entails,
    essential_atoms,
    evaluate,
    full_mask,
    is_tautology,
    lowest_set_bit,
    tile_space,
    truth_table,
    within_atom_budget,
)
from l1ax.substitution import Substitution
from oracles import (
    iff_equivalence,
    merged_atom_order,
    node_compile,
    walked_entails,
    walked_equivalence,
)
from test_syntax import formulas

AB, BA, AA = Atom("a", "b"), Atom("b", "a"), Atom("a", "a")


def test_counter_zero_is_all_true():
    v = Valuation.at_counter((AB, BA), 0)
    assert v.value(AB) and v.value(BA)
    assert str(v) == "all atoms true"


def test_set_bit_marks_the_atom_false():
    v = Valuation.at_counter((AB, BA), 0b10)
    assert v.value(AB) is True
    assert v.value(BA) is False
    assert v.false_atoms() == (BA,)
    assert str(v) == "false: eps(b,a); all other atoms true"


def test_counter_round_trips():
    domain = (AB, BA, AA)
    for k in range(8):
        assert Valuation.at_counter(domain, k).counter == k


def test_a_counter_outside_the_domain_is_refused():
    domain = (AB, BA)
    assert Valuation.at_counter(domain, 0).counter == 0
    assert Valuation.at_counter(domain, 3).counter == 3
    # 4 and 9 would wrap onto counters 0 and 1, -1 (lowest_set_bit(0)) onto 3
    for counter in (4, 9, -1):
        with pytest.raises(ValueError, match=rf"^counter {counter} outside 0\.\.3 for 2 atoms$"):
            Valuation.at_counter(domain, counter)
    with pytest.raises(ValueError, match=r"^counter -1 outside 0\.\.3 for 2 atoms$"):
        Valuation.at_counter(domain, lowest_set_bit(0))
    assert Valuation.at_counter((), 0).counter == 0
    with pytest.raises(ValueError, match=r"^counter 1 outside 0\.\.0 for 0 atoms$"):
        Valuation.at_counter((), 1)


def test_all_false_rendering():
    assert str(Valuation.at_counter((AB, BA), 0b11)) == "all atoms false"


def test_value_outside_domain_rejected():
    v = Valuation.at_counter((AB,), 0)
    with pytest.raises(ValueError):
        v.value(BA)


def test_value_answers_false_in_the_domain_and_raises_outside_it():
    v = Valuation.at_counter((AB, AA), 0b10)
    assert v.value(AB) is True
    assert v.value(AA) is False
    for _ in range(2):
        with pytest.raises(ValueError, match="outside valuation domain"):
            v.value(BA)


def test_true_atoms_outside_domain_rejected():
    with pytest.raises(ValueError):
        Valuation(domain=(AB,), true_atoms=frozenset({BA}))


def test_truth_table_single_atom():
    # row index is the counter, so the atom is true exactly in row 0
    assert truth_table(eps("a", "b"), (AB,)) == 0b01
    assert truth_table(Not(eps("a", "b")), (AB,)) == 0b10
    assert full_mask(1) == 0b11


def test_truth_table_matches_pointwise_evaluation():
    f = Implies(And(eps("a", "b"), eps("b", "a")), eps("a", "a"))
    domain = merged_atom_order([f])
    tt = truth_table(f, domain)
    for k in range(2 ** len(domain)):
        v = Valuation.at_counter(domain, k)
        assert bool((tt >> k) & 1) == evaluate(f, v)


variables = st.sampled_from(["a", "b", "c"])
formula_st = st.recursive(
    st.builds(eps, variables, variables),
    lambda sub: st.one_of(st.builds(Not, sub), st.builds(Or, sub, sub)),
    max_leaves=8,
)


@given(formula_st, st.integers(min_value=0))
def test_table_bit_equals_evaluation(f, seed):
    domain = merged_atom_order([f])
    tt = truth_table(f, domain)
    k = seed % (2 ** len(domain))
    assert bool((tt >> k) & 1) == evaluate(f, Valuation.at_counter(domain, k))


@given(formula_st)
def test_essential_atoms_are_those_a_flip_can_change(f):
    """The count beside them is that of their own satisfying valuations,
    each tried once with every other atom true."""
    domain = merged_atom_order([f])
    expected = set()
    for k in range(2 ** len(domain)):
        value = evaluate(f, Valuation.at_counter(domain, k))
        for j, atom in enumerate(domain):
            if evaluate(f, Valuation.at_counter(domain, k ^ 1 << j)) != value:
                expected.add(atom)
    models = sum(
        evaluate(f, Valuation(domain, frozenset(domain).difference(false)))
        for r in range(len(expected) + 1)
        for false in itertools.combinations(sorted(expected, key=domain.index), r)
    )
    assert essential_atoms(*compile_formula(f)) == (expected, models)


def test_a_padded_tautology_is_inessential():
    f = And(eps("a", "b"), Or(eps("b", "b"), Not(eps("b", "b"))))
    assert essential_atoms(*compile_formula(f)) == ({AB}, 1)


def test_excluded_middle_is_a_tautology():
    p = eps("a", "b")
    verdict = is_tautology(Or(p, Not(p)))
    assert verdict.holds and verdict.witness is None


def test_non_tautology_witness_is_lowest_counter():
    f = Implies(eps("a", "b"), eps("b", "a"))
    verdict = is_tautology(f)
    assert not verdict.holds
    assert verdict.witness.counter == 2
    assert evaluate(f, verdict.witness) is False


def test_equivalence_of_distinct_heads_fails_at_counter_four(corpus):
    # the two four-variable siblings differ exactly where eps(a,a) is false
    verdict = are_equivalent(corpus["A_S1"].body, corpus["A_S2"].body)
    assert not verdict.holds
    assert verdict.witness.counter == 4
    assert verdict.witness.false_atoms() == (AA,)
    assert evaluate(corpus["A_S1"].body, verdict.witness) != evaluate(
        corpus["A_S2"].body, verdict.witness
    )


def test_padded_instance_differs_from_reference_at_counter_six(corpus):
    sigma = Substitution.of({"d": "y1"})
    inst = sigma.apply(corpus["A_M8"].body)
    verdict = are_equivalent(inst, A_T.body)
    assert not verdict.holds
    assert [str(a) for a in verdict.witness.domain] == [
        "eps(a,b)",
        "eps(c,y1)",
        "eps(a,a)",
        "eps(c,c)",
        "eps(b,c)",
        "eps(a,y1)",
        "eps(b,a)",
        "eps(a,c)",
    ]
    assert verdict.witness.counter == 6
    assert {str(a) for a in verdict.witness.false_atoms()} == {
        "eps(c,y1)",
        "eps(a,a)",
    }


@given(formula_st, formula_st, formula_st)
def test_equivalence_matches_the_iff_table(f, g, h):
    # independent sides, sides that share subtrees, and equivalent sides
    for left, right in ((f, g), (Or(f, h), Not(Or(h, g))), (Or(f, g), Or(g, f)), (f, f)):
        assert are_equivalent(left, right) == iff_equivalence(left, right)


def renamed(entry, shift):
    """The entry's body under the rotation of its variables by shift places."""
    rotated = entry.variables[shift:] + entry.variables[:shift]
    return Substitution.of(dict(zip(entry.variables, rotated))).apply(entry.body)


def test_every_corpus_equivalence_matches_the_iff_table(corpus):
    verdicts = []
    for entry in corpus:
        pairs = [(entry.body, A_T.body)]
        pairs += [(renamed(entry, shift), entry.body) for shift in range(entry.arity)]
        for left, right in pairs:
            verdict = are_equivalent(left, right)
            assert verdict == iff_equivalence(left, right)
            verdicts.append(verdict.holds)
    # only A_t against itself and the identity rotations hold
    assert (len(verdicts), sum(verdicts)) == (138, len(corpus) + 1)


# the desugared And, Implies and Iff, with double negations at any depth:
# every pattern the compiler fuses, which formula_st's Not and Or rarely build
fused_st = st.recursive(
    formulas,
    lambda sub: st.one_of(
        sub.map(lambda f: Not(Not(f))),
        st.builds(Or, sub, sub),
        st.builds(And, sub, sub),
        st.builds(Implies, sub, sub.map(Not)),
    ),
    max_leaves=3,
)


@given(fused_st, st.integers(min_value=0))
@example(Not(Not(eps("a", "b"))), 1)
@example(Not(Not(Not(eps("a", "b")))), 1)
@example(Not(Not(Not(Not(And(eps("a", "b"), eps("b", "a")))))), 3)
@example(Or(Not(Not(eps("a", "b"))), Not(Not(Not(eps("b", "a"))))), 2)
@example(And(Not(Not(eps("a", "b"))), Not(Implies(eps("b", "a"), Not(Not(eps("a", "a")))))), 5)
def test_fused_tables_match_one_closure_per_node(f, seed):
    fused_atoms, fused = compile_formula(f)
    node_atoms, node = node_compile(f)
    assert fused_atoms == node_atoms == atoms(f)
    k = len(fused_atoms)
    below = seed % (2**k + 1)
    for full in (full_mask(k), full_mask(k) & ((1 << below) - 1)):
        tiles = [atom_tile(k, j) & full for j in range(k)]
        assert fused(tiles, full) == node(tiles, full)


@given(st.lists(fused_st, max_size=3), fused_st, fused_st)
def test_one_compile_per_formula_matches_the_walked_tables(premises, conclusion, other):
    # equal verdicts, witness domains and counters; premises and conclusion
    # share atoms, and a conclusion its premises entail is tried as well
    assert entails(premises, conclusion) == walked_entails(premises, conclusion)
    assert entails([*premises, conclusion], conclusion) == walked_entails(
        [*premises, conclusion], conclusion
    )
    for left, right in ((conclusion, other), (conclusion, Not(Not(conclusion)))):
        assert are_equivalent(left, right) == walked_equivalence(left, right)


def test_an_input_over_the_budget_is_refused_before_any_table(monkeypatch):
    # with the walked tables' text; a mask over 31 atoms alone takes 256 MiB
    def refused(*args):
        raise AssertionError(f"table work on a refused input: {args}")

    for name in ("full_mask", "atom_tile"):
        monkeypatch.setattr(semantics, name, refused)
    wide = [eps(f"x{i}", f"x{i}") for i in range(31)]
    for check, oracle, args in (
        (entails, walked_entails, ([], Or(wide[0], conjoin(*wide[1:])))),
        (entails, walked_entails, (wide[:16], conjoin(*wide[16:]))),
        (are_equivalent, walked_equivalence, (conjoin(*wide[:15]), conjoin(*wide[15:]))),
    ):
        for decide in (check, oracle):
            with pytest.raises(BudgetError, match="^31 atoms exceed the budget of 30$"):
                decide(*args)


def test_tile_space_is_the_atom_tiles_cut_below():
    for k in range(7):
        for below in (None, *range((1 << k) + 2)):
            cut = full_mask(k) if below is None else full_mask(k) & ((1 << below) - 1)
            tiles = [atom_tile(k, j) & cut for j in range(k)]
            assert tile_space(k, below) == (tiles, cut), (k, below)
            assert tile_space(k, below, positions=reversed(range(k))) == (tiles[::-1], cut)


def test_tile_space_refuses_an_atom_over_the_budget_before_any_table(monkeypatch):
    def refused(*args):
        raise AssertionError(f"table work on a refused input: {args}")

    for name in ("full_mask", "atom_tile"):
        monkeypatch.setattr(semantics, name, refused)
    for below in (None, 1):
        with pytest.raises(BudgetError, match="^31 atoms exceed the budget of 30$"):
            tile_space(semantics.ATOM_BUDGET + 1, below)


def test_the_atom_budget_admits_exactly_its_own_count():
    assert within_atom_budget(semantics.ATOM_BUDGET)
    assert not within_atom_budget(semantics.ATOM_BUDGET + 1)


def test_merged_atom_order_first_occurrence_across_formulas():
    fs = [eps("b", "a"), And(eps("a", "b"), eps("b", "a"))]
    assert merged_atom_order(fs) == (BA, AB)


def test_entailment_and_its_witness():
    p, q = eps("a", "b"), eps("b", "a")
    assert entails([p, Implies(p, q)], q).holds
    bad = entails([p], q)
    assert not bad.holds
    assert evaluate(p, bad.witness) and not evaluate(q, bad.witness)


def test_entailment_with_no_premises_is_tautology_check():
    p = eps("a", "b")
    assert entails([], Or(p, Not(p))).holds
    assert not entails([], p).holds


def test_atom_budget_is_enforced():
    f = conjoin(*[eps(f"x{i}", f"x{i}") for i in range(31)])
    with pytest.raises(BudgetError):
        is_tautology(f)


def test_twenty_atoms_still_within_budget():
    f = conjoin(*[eps(f"x{i}", f"x{i}") for i in range(20)])
    verdict = is_tautology(f)
    assert not verdict.holds
    assert verdict.witness.counter == 1  # first conjunct false is enough


def test_lowest_set_bit():
    assert lowest_set_bit(0b1) == 0
    assert lowest_set_bit(0b101000) == 3


def test_clear_caches_keeps_answers_stable():
    f = Implies(eps("a", "b"), eps("b", "a"))
    before = is_tautology(f)
    l1ax.clear_caches()
    after = is_tautology(f)
    assert before == after

"""The admissible-valuation decision procedure on square atom grids.

The enumeration of admissible valuations is checked against its oracle, the
brute-force `admissible_mask` over every grid valuation.
"""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import l1ax
from l1ax import decision
from l1ax.decision import (
    POOL_CAP,
    admissible_count,
    admissible_mask,
    admissible_valuations,
    axiom_instances,
    grid_atoms,
    holds_in_all_admissible,
    is_theorem,
    iter_set_bits,
)
from l1ax.formula import And, Atom, Implies, Not, Or, eps, name_variables
from l1ax.semantics import (
    Valuation,
    evaluate,
    full_mask,
    lowest_set_bit,
    truth_table,
)
from l1ax.syntax import parse_formula

POOLS = (("a",), ("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d"))
FIVE = ("a", "b", "c", "d", "e")


def test_grid_atoms_row_major():
    assert grid_atoms(("a", "b")) == (
        Atom("a", "a"),
        Atom("a", "b"),
        Atom("b", "a"),
        Atom("b", "b"),
    )


def test_admissible_counts_frozen():
    assert [admissible_count(p) for p in (*POOLS, FIVE)] == [2, 7, 36, 256, 2483]


@pytest.mark.parametrize("symmetry", ["Ax3", "Ax3s"])
def test_enumeration_matches_brute_force(symmetry):
    # one enumeration; the mask under either symmetry axiom is its oracle
    for pool in POOLS:
        counters = [v.counter for v in admissible_valuations(pool)]
        assert counters == list(iter_set_bits(admissible_mask(pool, symmetry)))


def test_enumeration_matches_brute_force_at_pool_five():
    # the one place a 2^25-bit mask is still built: about 1 s and 440 MB each
    counters = [v.counter for v in admissible_valuations(FIVE)]
    for symmetry in ("Ax3", "Ax3s"):
        assert counters == list(iter_set_bits(admissible_mask(FIVE, symmetry)))


def test_admissible_counts_match_naive_enumeration():
    # independent recount by brute force, pools small enough to afford it
    for pool in POOLS[:3]:
        domain = grid_atoms(pool)
        instances = list(axiom_instances(pool))
        count = sum(
            1
            for k in range(2 ** len(domain))
            if all(
                evaluate(inst, Valuation.at_counter(domain, k))
                for inst in instances
            )
        )
        assert count == admissible_count(pool)


def test_shortened_symmetry_axiom_carves_the_same_sets():
    for pool in POOLS:
        assert admissible_mask(pool, "Ax3") == admissible_mask(pool, "Ax3s")


def test_axiom_instance_counts():
    pool = ("a", "b")
    instances = list(axiom_instances(pool))
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
    for inst in axiom_instances(("a", "b")):
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
    with pytest.raises(ValueError):
        admissible_count(("a", "a"))


def test_iter_set_bits():
    assert list(iter_set_bits(0)) == []
    assert list(iter_set_bits(0b101001)) == [0, 3, 5]


def test_single_name_pool_valuations():
    vals = list(admissible_valuations(("a",)))
    assert sorted(v.counter for v in vals) == [0, 1]


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


def test_clear_caches_drops_the_enumeration():
    admissible_count(FIVE)
    assert decision._admissible.cache_info().currsize > 0
    l1ax.clear_caches()
    assert decision._admissible.cache_info().currsize == 0

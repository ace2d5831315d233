"""Formula constructors, desugaring, and variable bookkeeping."""

import pytest

from l1ax.formula import (
    And,
    Atom,
    Epsilon,
    Iff,
    Implies,
    Not,
    Or,
    SchemaEntry,
    atoms,
    conjoin,
    eps,
    name_variables,
    walk_atoms,
)


def test_eps_builds_an_epsilon_node():
    f = eps("a", "b")
    assert isinstance(f, Epsilon)
    assert f.atom == Atom("a", "b")
    assert str(f.atom) == "eps(a,b)"


def test_atom_rejects_bad_variable_names():
    for bad in ("", "A", "1a", "a-b", "a b"):
        with pytest.raises(ValueError):
            Atom(bad, "b")
        with pytest.raises(ValueError):
            Atom("a", bad)


def test_atom_rejects_bad_names_after_good_ones_are_cached():
    for _ in range(2):
        assert Atom("a", "b_1") == Atom("a", "b_1")
        for bad in ("eps", "1x"):
            with pytest.raises(ValueError, match="invalid variable name"):
                Atom("a", bad)
            with pytest.raises(ValueError, match="invalid variable name"):
                Atom(bad, "a")


def test_atom_allows_digits_and_underscores():
    assert Atom("a1", "b_2") == Atom("a1", "b_2")


def test_and_desugars_to_primitives():
    p, q = eps("a", "b"), eps("c", "d")
    assert And(p, q) == Not(Or(Not(p), Not(q)))


def test_implies_desugars_to_primitives():
    p, q = eps("a", "b"), eps("c", "d")
    assert Implies(p, q) == Or(Not(p), q)


def test_iff_desugars_to_primitives():
    p, q = eps("a", "b"), eps("c", "d")
    assert Iff(p, q) == And(Implies(p, q), Implies(q, p))


def test_conjoin_folds_left():
    p, q, r = eps("a", "a"), eps("b", "b"), eps("c", "c")
    assert conjoin(p) == p
    assert conjoin(p, q) == And(p, q)
    assert conjoin(p, q, r) == And(And(p, q), r)


def test_walk_atoms_keeps_repetitions_in_order():
    f = And(eps("a", "b"), Or(eps("a", "b"), eps("b", "a")))
    assert list(walk_atoms(f)) == [Atom("a", "b"), Atom("a", "b"), Atom("b", "a")]


def test_atoms_dedup_by_first_occurrence():
    f = And(eps("b", "a"), Or(eps("a", "b"), eps("b", "a")))
    assert atoms(f) == (Atom("b", "a"), Atom("a", "b"))


def test_name_variables_order_subject_before_predicate():
    assert name_variables(eps("b", "a")) == ("b", "a")
    f = Implies(And(eps("a", "b"), eps("c", "d")), eps("d", "a"))
    assert name_variables(f) == ("a", "b", "c", "d")
    assert len(name_variables(f)) == 4


def test_name_variables_see_through_desugared_connectives():
    # the Iff expansion duplicates subformulas; variables must not repeat
    f = Iff(eps("c", "b"), eps("a", "c"))
    assert name_variables(f) == ("c", "b", "a")


def test_schema_entry_make_precomputes_variables():
    body = Implies(eps("c", "b"), eps("c", "c"))
    e = SchemaEntry.make("X", body)
    assert e.variables == ("c", "b")
    assert e.arity == 2
    assert e == SchemaEntry("X", body, ("c", "b"), 2)


def test_formula_nodes_are_hashable_values():
    assert eps("a", "b") == eps("a", "b")
    assert len({eps("a", "b"), eps("a", "b"), eps("b", "a")}) == 2

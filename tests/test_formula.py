"""Formula constructors, desugaring, variable bookkeeping, and the Record
base of every immutable value, checked against a frozen, slotted dataclass
with the same fields."""

import dataclasses
import importlib
import pkgutil

import pytest

import l1ax
from l1ax.formula import (
    And,
    Atom,
    Epsilon,
    Iff,
    Implies,
    Not,
    Or,
    Record,
    SchemaEntry,
    atoms,
    conjoin,
    eps,
    name_variables,
    walk_atoms,
)
from l1ax.semantics import Valuation


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


def record_classes():
    modules = [
        importlib.import_module(f"l1ax.{info.name}")
        for info in pkgutil.iter_modules(l1ax.__path__)
    ]
    return sorted(
        (
            cls
            for module in modules
            for cls in vars(module).values()
            if isinstance(cls, type)
            and issubclass(cls, Record)
            and cls is not Record
            and cls.__module__ == module.__name__
        ),
        key=lambda cls: (cls.__module__, cls.__name__),
    )


AB = Atom("a", "b")
# field values that pass __post_init__; every other class takes plain strings
SAMPLES = {
    Valuation: (((AB,), frozenset({AB})), ((AB,), frozenset())),
}


def sample_values(cls, fields):
    return SAMPLES.get(cls) or tuple(
        tuple(f"{prefix}{i}" for i in range(len(fields))) for prefix in "vw"
    )


def test_every_record_class_is_found():
    assert len(record_classes()) == 31  # 30 values and the Formula base


@pytest.mark.parametrize("cls", record_classes(), ids=lambda cls: cls.__name__)
def test_records_behave_as_frozen_slotted_dataclasses(cls):
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    assert cls.__slots__ == fields
    oracle = dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True, slots=True)
    values, others = sample_values(cls, fields)
    record, twin, other = cls(*values), cls(*values), cls(*others)
    expected = oracle(*values)
    assert record == twin and not record != twin and expected == oracle(*values)
    assert (record == other) == (expected == oracle(*others))
    assert hash(record) == hash(expected) == hash(twin)
    assert repr(record) == repr(expected)
    assert record.__eq__(expected) is NotImplemented and record != expected
    namesake = type(Record)(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(fields)})
    assert namesake(*values) != record
    assert cls(**dict(zip(fields, values))) == record
    for name in (*fields, "stray"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    if fields:
        with pytest.raises(TypeError):
            cls(*values[:-1])


def test_records_run_their_post_init_checks():
    with pytest.raises(ValueError, match="invalid variable name: 'eps'"):
        Atom("eps", "b")
    with pytest.raises(ValueError, match=r"true atoms outside domain: \['eps\(a,b\)'\]"):
        Valuation((), frozenset({AB}))

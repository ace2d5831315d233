"""Formula constructors, desugaring, variable bookkeeping, the interned atom
as the leaf of every formula, and the Record base of every immutable value,
checked against a frozen, slotted dataclass with the same fields."""

import builtins
import copy
import dataclasses
import functools
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest

import l1ax
from l1ax import formula
from l1ax.formula import (
    And,
    Atom,
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
)
from l1ax.proofs import Justification
from l1ax.semantics import Valuation, compile_formula, evaluate
from l1ax.substitution import Substitution
from l1ax.syntax import parse_formula, print_formula


def test_eps_builds_an_epsilon_node():
    f = eps("a", "b")
    assert f is Atom("a", "b")
    assert str(f) == "eps(a,b)"


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


def leaves(f):
    """f's leaves left to right, repeats kept."""
    if isinstance(f, Not):
        return leaves(f.operand)
    if isinstance(f, Or):
        return leaves(f.left) + leaves(f.right)
    return [f]


def test_every_parsed_leaf_is_the_interned_atom():
    f = parse_formula("eps(a,b) -> eps(a,b)")
    assert f == Implies(Atom("a", "b"), Atom("a", "b"))
    assert [leaf is Atom("a", "b") for leaf in leaves(f)] == [True, True]


def test_renamed_and_copied_formulas_keep_the_interned_leaves():
    f = parse_formula("eps(a,b) & eps(b,c) -> eps(b,a)")
    image = Substitution.of({"a": "c", "c": "a"}).apply(f)
    assert image == parse_formula("eps(c,b) & eps(b,a) -> eps(b,c)")
    assert copy.deepcopy(f) == f == pickle_round_trip(f)
    for g in (image, copy.deepcopy(f), pickle_round_trip(f)):
        assert all(leaf is Atom(leaf.subject, leaf.predicate) for leaf in leaves(g))


def test_a_single_atom_formula_round_trips():
    a = Atom("b", "a")
    assert print_formula(a) == "eps(b,a)"
    assert parse_formula(print_formula(a)) is a
    domain, table = compile_formula(a)
    # counter 0 makes the atom true, counter 1 false
    assert domain == (a,) and table([0b01], 0b11) == 0b01
    assert evaluate(a, Valuation((a,), frozenset({a})))
    assert not evaluate(a, Valuation((a,), frozenset()))
    assert Substitution.of({"a": "c"}).apply(a) is Atom("b", "c")
    assert Substitution.identity().apply(a) is a
    assert atoms(a) == (a,) and name_variables(a) == ("b", "a")


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


SIGMA = Substitution.of({"a": "b"})
# one well-formed Justification of each rule, beside the plain-string case
RULE_SAMPLES = {
    "Taut": (("TAUT", (), None), ("TAUTCONSEQ", ("1",), None)),
    "AxiomRef": (("AXIOM", ("Ax1",), Substitution.identity()), ("AXIOM", ("Ax2",), SIGMA)),
    "SchemaRef": (("SCHEMA", ("X",), SIGMA), ("SCHEMA", ("X",), Substitution.identity())),
    "ModusPonens": (("MP", ("1", "2"), None), ("MP", ("2", "1"), None)),
    "Subst": (("SUBST", ("1",), SIGMA), ("SUBST", ("2",), SIGMA)),
    "TautConseq": (("TAUTCONSEQ", ("1", "2"), None), ("TAUTCONSEQ", ("1",), None)),
}


def record_cases():
    for cls in record_classes():
        yield pytest.param(cls, None, id=cls.__name__)
    for name, samples in RULE_SAMPLES.items():
        yield pytest.param(Justification, samples, id=name)


def sample_values(cls, fields):
    return SAMPLES.get(cls) or tuple(
        tuple(f"{prefix}{i}" for i in range(len(fields))) for prefix in "vw"
    )


def test_every_record_class_is_found():
    assert len(record_classes()) == 25  # 24 values and the Formula base


def pickle_round_trip(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize(("cls", "samples"), record_cases())
def test_records_behave_as_frozen_slotted_dataclasses(cls, samples, monkeypatch):
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    assert cls.__slots__ == fields
    oracle = dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True, slots=True)
    values, others = samples or sample_values(cls, fields)
    record, twin, other = cls(*values), cls(*values), cls(*others)
    expected = oracle(*values)
    assert record == twin and not record != twin and expected == oracle(*values)
    assert (record == other) == (expected == oracle(*others))
    # an atom is interned, so its twin is itself and it hashes by identity;
    # every other record hashes as its field tuple
    interned = cls is Atom
    assert (record is twin) == interned and hash(record) == hash(twin)
    assert interned or hash(record) == hash(expected)
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
    # pickle finds the oracle by name in this module, as it finds cls in its own
    oracle.__module__ = __name__
    monkeypatch.setattr(sys.modules[__name__], oracle.__qualname__, oracle, raising=False)
    for round_trip in (copy.copy, copy.deepcopy, pickle_round_trip):
        duplicate, expected_duplicate = round_trip(record), round_trip(expected)
        assert type(duplicate) is cls and type(expected_duplicate) is oracle
        assert (duplicate is record) == interned
        assert expected_duplicate is not expected
        assert duplicate == record and expected_duplicate == expected
        assert hash(duplicate) == hash(record)
        assert interned or hash(duplicate) == hash(expected_duplicate)
        assert repr(duplicate) == repr(expected_duplicate)


def test_a_refused_atom_leaves_no_table_entry():
    table = formula._ATOMS
    size = len(table)
    for _ in range(2):
        for pair in (("a", "eps"), ("eps", "a"), ("zq", "Zq"), ("", "zq")):
            with pytest.raises(ValueError, match=r"^invalid variable name: '(eps|Zq|)'$"):
                Atom(*pair)
            assert pair not in table
    assert len(table) == size
    pair = ("zq", "zq_1")
    grows = pair not in table
    atom = Atom(*pair)
    assert table[pair] is atom is Atom(*pair)
    assert len(table) == size + grows


def test_records_run_their_post_init_checks():
    with pytest.raises(ValueError, match="invalid variable name: 'eps'"):
        Atom("eps", "b")
    with pytest.raises(ValueError, match=r"true atoms outside domain: \['eps\(a,b\)'\]"):
        Valuation((), frozenset({AB}))


class CountedHash:
    """A field value that counts the calls of its own __hash__."""

    def __init__(self):
        self.calls = 0

    def __hash__(self):
        self.calls += 1
        return 17


def test_a_record_hashes_its_fields_once():
    assert Record.__slots__ == ("_hash",)
    namesake = type(Record)("Namesake", (Record,), {"__annotations__": {"value": None}})
    field = CountedHash()
    record, twin = namesake(field), namesake(field)
    lookups = functools.cache(lambda key: object())
    assert hash(record) == hash(record)
    assert lookups(record) is lookups(record)
    assert field.calls == 1
    # an uncached twin equals the cached record, then hashes alike on its own
    assert twin == record and record == twin
    assert field.calls == 1
    assert hash(twin) == hash(record) and field.calls == 2
    assert lookups(twin) is lookups(record) and field.calls == 2
    # a copy starts with no cached hash
    assert hash(copy.copy(record)) == hash(record) and field.calls == 3


def test_copies_rebuild_through_post_init():
    def post_init(self):
        checked.append(self.value)

    checked = []
    namespace = {"__annotations__": {"value": None}, "__post_init__": post_init}
    record = type(Record)("Checked", (Record,), namespace)(1)
    copy.copy(record), copy.deepcopy(record)
    assert checked == [1, 1, 1]


def record_shape(cls):
    return len(cls.__slots__), hasattr(cls, "__post_init__")


def test_a_record_class_of_a_known_shape_compiles_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compiled while defining a record class")

    assert (2, False) in formula._MAKERS
    with monkeypatch.context() as patched:
        patched.setattr(builtins, "compile", refuse)
        patched.setattr(builtins, "exec", refuse)
        pair = type(Record)("Pair", (Record,), {"__annotations__": {"first": None, "second": None}})
    assert record_shape(pair) == (2, False)
    record = pair(1, second=2)
    assert record == pair(first=1, second=2) and record != pair(2, 1)
    assert hash(record) == hash((1, 2)) and repr(record) == "Pair(first=1, second=2)"
    with pytest.raises(TypeError, match=r"missing 1 required positional argument: 'second'"):
        pair(1)


COUNT_RECORD_COMPILES = """
import builtins, importlib, pkgutil, sys

compiled = []


def spy(real):
    def call(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "l1ax.formula":
            compiled.append(real.__name__)
        return real(*args, **kwargs)

    return call


builtins.compile, builtins.exec = spy(compile), spy(exec)
import l1ax
from l1ax import formula

for info in pkgutil.iter_modules(l1ax.__path__):
    importlib.import_module(f"l1ax.{info.name}")
print(len(compiled), sorted(formula._MAKERS))
"""


def test_each_record_shape_is_compiled_once():
    shapes = sorted({record_shape(cls) for cls in record_classes()})
    assert len(shapes) == 9
    src = os.path.dirname(os.path.dirname(l1ax.__file__))
    out = subprocess.run(
        [sys.executable, "-c", COUNT_RECORD_COMPILES],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    ).stdout
    assert out == f"{len(shapes)} {shapes}\n"


PICKLE_HASHED_CORPUS = """
import pickle
from l1ax.corpus import load_corpus
entries = list(load_corpus())
print(hash(tuple(entries)))
print(pickle.dumps(entries).hex())
"""

LOAD_UNDER_ANOTHER_SEED = """
import pickle, sys
from l1ax.corpus import load_corpus
loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
fresh = list(load_corpus())
assert loaded == fresh
assert [hash(e) for e in loaded] == [hash(e) for e in fresh]
assert [hash(e.body) for e in loaded] == [hash(e.body) for e in fresh]
print(hash(tuple(fresh)))
"""


def test_a_pickled_corpus_hashes_afresh_under_another_hash_seed():
    src = os.path.dirname(os.path.dirname(l1ax.__file__))

    def run(source, seed, stdin=None):
        return subprocess.run(
            [sys.executable, "-c", source],
            input=stdin,
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            check=True,
        ).stdout.split()

    seeded_hash, dumped = run(PICKLE_HASHED_CORPUS, "1")
    (other_hash,) = run(LOAD_UNDER_ANOTHER_SEED, "2", dumped)
    # string hashes differ between the two seeds, so a carried hash would not match
    assert seeded_hash != other_hash

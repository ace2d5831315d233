"""Formula algebra for the propositional ontology L1.

Formulas are built from epsilon atoms over name variables with negation and
disjunction as the primitive connectives. Conjunction, implication and
equivalence are provided as constructor functions that desugar immediately,
so every formula object consists of Atom, Not and Or nodes only. All nodes
are immutable and hashable. An atom is the leaf itself, interned, one object
per name pair, so atoms compare and hash by identity; Not and Or nodes
compare structurally.

Record, the immutable-value base of the package, and InputError live here
because every other module imports this one.
"""

from __future__ import annotations

import re
from collections.abc import Callable

NameVar = str

VARIABLE_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

# 'eps' introduces an atom in the concrete syntax and cannot name a variable
RESERVED_WORDS = frozenset({"eps"})


class InputError(ValueError):
    """A request refused because of its input: a parse error, a name or
    size outside what the program accepts. The command line exits 2 on it,
    and 3 on any other ValueError, which only a fault of the program raises."""


# (field count, has __post_init__) -> make(set__hash, *field setters), which
# returns __init__, __eq__ and __hash__ over the placeholder fields _0, _1, ...
# One compile per shape: the 25 record classes of the package come in 9.
_MAKERS: dict[tuple[int, bool], Callable[..., tuple]] = {}


def _maker(count: int, post_init: bool) -> Callable[..., tuple]:
    make = _MAKERS.get((count, post_init))
    if make is None:
        setters = "".join(f"_set{i}, " for i in range(count))
        params = "".join(f"_{i}, " for i in range(count))
        mine = "".join(f"self._{i}, " for i in range(count))
        theirs = "".join(f"other._{i}, " for i in range(count))
        sets = [*(f"_set{i}(self, _{i})" for i in range(count)), "_set__hash(self, None)"]
        if post_init:
            sets.append("self.__post_init__()")
        body = "\n        ".join(sets)
        source = (
            f"def make(_set__hash, {setters}):\n"
            f"    def __init__(self, {params}):\n"
            f"        {body}\n"
            "    def __eq__(self, other):\n"
            "        if other.__class__ is self.__class__:\n"
            f"            return ({mine}) == ({theirs})\n"
            "        return NotImplemented\n"
            "    def __hash__(self):\n"
            "        h = self._hash\n"
            "        if h is None:\n"
            f"            h = hash(({mine}))\n"
            "            _set__hash(self, h)\n"
            "        return h\n"
            "    return __init__, __eq__, __hash__\n"
        )
        namespace: dict[str, object] = {}
        exec(source, namespace)
        make = _MAKERS[count, post_init] = namespace["make"]
    return make


class _RecordType(type):
    """Makes a class body's annotated fields its __slots__ and gives it an
    __init__, __eq__ and __hash__ over them without compiling anything per
    class: they are copies of the methods compiled once for the class's
    shape, with the placeholder parameter and attribute names of their code
    renamed to the class's fields. So keyword construction and the TypeError
    on a missing argument read as for hand-written methods, and __eq__ and
    __hash__ read each field by its own attribute lookup.
    A method the class body defines itself is kept. The root class alone
    gets the _hash slot, where __hash__ keeps an instance's hash from its
    first use on."""

    def __new__(mcls, name: str, bases: tuple[type, ...], namespace: dict[str, object]):
        fields = tuple(namespace.get("__annotations__", ()))
        slots = fields if bases else ("_hash",)
        cls = super().__new__(mcls, name, bases, {**namespace, "__slots__": slots})
        cls.attributes = fields + tuple(k for k, v in namespace.items() if isinstance(v, property))
        if not bases:
            return cls
        # a slot's own descriptor sets the field past the frozen __setattr__
        setters = [getattr(cls, f).__set__ for f in ("_hash", *fields)]
        methods = _maker(len(fields), hasattr(cls, "__post_init__"))(*setters)
        names = {f"_{i}": f for i, f in enumerate(fields)}
        for function in methods:
            method = function.__name__
            if method not in namespace:
                code = function.__code__
                function.__code__ = code.replace(
                    co_varnames=tuple(names.get(n, n) for n in code.co_varnames),
                    co_names=tuple(names.get(n, n) for n in code.co_names),
                )
                function.__qualname__ = f"{cls.__qualname__}.{method}"
                setattr(cls, method, function)
        return cls


class Record(metaclass=_RecordType):
    """An immutable value: the annotated fields of a subclass body become its
    slots and its constructor's arguments, in order. Instances are equal
    when their classes are the same and their field tuples are equal, hash
    as that tuple, run __post_init__ after construction when the class has
    one, refuse assignment and deletion, and print as Name(field=value, ...).
    Fields are not inherited: only leaf classes declare any. A class's
    attributes are its fields, then the properties its body defines. Atom
    alone replaces these __init__, __eq__ and __hash__: it is interned, so
    equal atoms are one object and compare and hash by identity.

    The hash is computed on first use and kept, so a record used again as a
    cache key costs no walk of its fields. Copies and pickles rebuild a
    record from its field values through the constructor, so __post_init__
    runs again, an atom comes back as the interned one, and no cached hash
    travels to an interpreter whose string hashes differ."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


def is_valid_variable(name: str) -> bool:
    return bool(VARIABLE_RE.match(name)) and name not in RESERVED_WORDS


class Formula(Record):
    """Base class for formula nodes. Concrete nodes: Atom (the leaf), Not, Or."""


# (subject, predicate) -> its one Atom. Never cleared, not even by
# clear_caches(): an atom built after a clearing would be a second object,
# unequal to an equal one still alive. It grows by one entry per distinct
# name pair the process has seen, and only after both names are checked.
_ATOMS: dict[tuple[NameVar, NameVar], Atom] = {}


class Atom(Formula):
    """An epsilon atom, the leaf of every formula: subject variable and
    predicate variable.

    Atom(x, y) returns the one atom of the pair, made on the first call
    whose names pass is_valid_variable; a refused name raises on every
    call. Equal atoms are thus the same object, so object's __eq__ and
    __hash__, by identity and in C, are the structural ones."""

    subject: NameVar
    predicate: NameVar

    __init__ = object.__init__  # __new__ sets the fields
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, subject: NameVar, predicate: NameVar) -> Atom:
        atom = _ATOMS.get((subject, predicate))
        if atom is None:
            for v in (subject, predicate):
                if not is_valid_variable(v):
                    raise ValueError(f"invalid variable name: {v!r}")
            atom = object.__new__(cls)
            object.__setattr__(atom, "subject", subject)
            object.__setattr__(atom, "predicate", predicate)
            _ATOMS[subject, predicate] = atom
        return atom

    def __str__(self) -> str:
        return f"eps({self.subject},{self.predicate})"


class Not(Formula):
    operand: Formula


class Or(Formula):
    left: Formula
    right: Formula


def eps(subject: NameVar, predicate: NameVar) -> Formula:
    return Atom(subject, predicate)


def And(left: Formula, right: Formula) -> Formula:
    return Not(Or(Not(left), Not(right)))


def Implies(left: Formula, right: Formula) -> Formula:
    return Or(Not(left), right)


def Iff(left: Formula, right: Formula) -> Formula:
    return And(Implies(left, right), Implies(right, left))


def conjoin(first: Formula, *rest: Formula) -> Formula:
    """Left-folded conjunction of one or more formulas."""
    out = first
    for f in rest:
        out = And(out, f)
    return out


def atoms(formula: Formula) -> tuple[Atom, ...]:
    """Distinct atoms in order of first occurrence, depth-first and left
    to right: the order of the printed formula."""
    seen: dict[Atom, None] = {}
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            seen.setdefault(node)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, Or):
            stack.append(node.right)
            stack.append(node.left)
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return tuple(seen)


def name_variables(formula: Formula) -> tuple[NameVar, ...]:
    """Distinct variables in order of first occurrence, subject before
    predicate: every variable first occurs in the first occurrence of some
    atom, so the distinct atoms, in order, give them in reading order."""
    seen: dict[NameVar, None] = {}
    for at in atoms(formula):
        seen.setdefault(at.subject)
        seen.setdefault(at.predicate)
    return tuple(seen)


class SchemaEntry(Record):
    """A named axiom schema with its variable tuple precomputed."""

    name: str
    body: Formula
    variables: tuple[NameVar, ...]
    arity: int

    @classmethod
    def make(cls, name: str, body: Formula) -> "SchemaEntry":
        nv = name_variables(body)
        return cls(name=name, body=body, variables=nv, arity=len(nv))

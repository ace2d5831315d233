"""Formula algebra for the propositional ontology L1.

Formulas are built from epsilon atoms over name variables with negation and
disjunction as the primitive connectives. Conjunction, implication and
equivalence are provided as constructor functions that desugar immediately,
so every formula object consists of Epsilon, Not and Or nodes only. All nodes
are immutable and hashable; equality is structural.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterator

NameVar = str

VARIABLE_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

# 'eps' introduces an atom in the concrete syntax and cannot name a variable
RESERVED_WORDS = frozenset({"eps"})


# atoms are built by the thousand from a handful of names
@functools.lru_cache(maxsize=4096)
def is_valid_variable(name: str) -> bool:
    return bool(VARIABLE_RE.match(name)) and name not in RESERVED_WORDS


@dataclass(frozen=True, slots=True)
class Atom:
    """An epsilon atom: subject variable and predicate variable."""

    subject: NameVar
    predicate: NameVar

    def __post_init__(self) -> None:
        for v in (self.subject, self.predicate):
            if not is_valid_variable(v):
                raise ValueError(f"invalid variable name: {v!r}")

    def __str__(self) -> str:
        return f"eps({self.subject},{self.predicate})"


class Formula:
    """Base class for formula nodes. Concrete nodes: Epsilon, Not, Or."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Epsilon(Formula):
    atom: Atom


@dataclass(frozen=True, slots=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


def eps(subject: NameVar, predicate: NameVar) -> Formula:
    return Epsilon(Atom(subject, predicate))


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


def walk_atoms(formula: Formula) -> Iterator[Atom]:
    """Yield atoms depth-first, left to right, with repetitions."""
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Epsilon):
            yield node.atom
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, Or):
            stack.append(node.right)
            stack.append(node.left)
        else:
            raise TypeError(f"not a formula node: {node!r}")


def atoms(formula: Formula) -> tuple[Atom, ...]:
    """Distinct atoms in order of first occurrence."""
    seen: dict[Atom, None] = {}
    for at in walk_atoms(formula):
        seen.setdefault(at)
    return tuple(seen)


def name_variables(formula: Formula) -> tuple[NameVar, ...]:
    """Distinct variables in order of first occurrence.

    The walk is depth-first with the subject of each atom before its
    predicate, which coincides with left-to-right reading order of the
    printed formula.
    """
    seen: dict[NameVar, None] = {}
    for at in walk_atoms(formula):
        seen.setdefault(at.subject)
        seen.setdefault(at.predicate)
    return tuple(seen)


@dataclass(frozen=True, slots=True)
class SchemaEntry:
    """A named axiom schema with its variable tuple precomputed."""

    name: str
    body: Formula
    variables: tuple[NameVar, ...]
    arity: int

    @classmethod
    def make(cls, name: str, body: Formula) -> "SchemaEntry":
        nv = name_variables(body)
        return cls(name=name, body=body, variables=nv, arity=len(nv))

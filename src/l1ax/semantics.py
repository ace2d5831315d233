"""Classical two-valued semantics over epsilon atoms.

Truth tables are big integers: bit c of a formula's table is its value under
valuation number c. Valuations are numbered 0 .. 2^k-1 over the atom list in
first-occurrence order, where bit j of the counter set means atom j is FALSE.
Counter 0 is therefore the all-true valuation, and every witness reported by
the checks below is the falsifying valuation with the lowest counter. The
numbering is part of the external contract: rerunning any check reproduces
the same witness bit for bit. Every table over all valuations of its
atoms, or over a prefix of them, takes its atom tiles, full mask and atom
budget check from tile_space.

compile_formula turns a formula into a tree of closures, one per connective
as the formula module desugars it, each doing one big-integer operation on
its operands' tables: Not(Not x) is x, Not(eps) is full ^ t[i],
Not(Or(Not a, Not b)) (And) is a & b, Not(Or(Not a, b)) is a & ~b,
Or(Not a, Not b) is full ^ (a & b), Or(Not a, b) (Implies) is
(full ^ a) | b, and any other Not or Or is full ^ x or a | b. entails and
are_equivalent compile each formula once and read their merged atom order
off the compiled atom lists.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Sequence

from .formula import Atom, Formula, InputError, Not, Or, Record, SchemaEntry

ATOM_BUDGET = 30


class BudgetError(InputError):
    pass


class Valuation(Record):
    """A total truth assignment on an ordered atom domain."""

    domain: tuple[Atom, ...]
    true_atoms: frozenset[Atom]

    def __post_init__(self) -> None:
        missing = self.true_atoms.difference(self.domain)
        if missing:
            raise ValueError(f"true atoms outside domain: {sorted(map(str, missing))}")

    @classmethod
    def at_counter(cls, domain: Sequence[Atom], counter: int) -> "Valuation":
        if counter < 0 or counter >> len(domain):
            raise ValueError(
                f"counter {counter} outside 0..{(1 << len(domain)) - 1} "
                f"for {len(domain)} atoms"
            )
        true = frozenset([atom for j, atom in enumerate(domain) if not (counter >> j) & 1])
        return cls(domain=tuple(domain), true_atoms=true)

    @property
    def counter(self) -> int:
        return sum(
            1 << j for j, atom in enumerate(self.domain) if atom not in self.true_atoms
        )

    def value(self, atom: Atom) -> bool:
        # true atoms lie in the domain; only a false answer scans it
        if atom in self.true_atoms:
            return True
        if atom not in self.domain:
            raise ValueError(f"atom {atom} outside valuation domain")
        return False

    def false_atoms(self) -> tuple[Atom, ...]:
        return tuple(a for a in self.domain if a not in self.true_atoms)

    def __str__(self) -> str:
        false = self.false_atoms()
        if not false:
            return "all atoms true"
        if len(false) == len(self.domain):
            return "all atoms false"
        return "false: " + ", ".join(map(str, false)) + "; all other atoms true"


def evaluate(formula: Formula, valuation: Valuation) -> bool:
    """Pointwise evaluation; the replay path used to certify reported witnesses."""
    node = type(formula)
    if node is Atom:
        return valuation.value(formula)
    if node is Not:
        return not evaluate(formula.operand, valuation)
    if node is Or:
        return evaluate(formula.left, valuation) or evaluate(formula.right, valuation)
    raise TypeError(f"not a formula node: {formula!r}")


def full_mask(n_atoms: int) -> int:
    return (1 << (1 << n_atoms)) - 1


def atom_tile(n_atoms: int, j: int) -> int:
    """Truth table of atom j alone over n_atoms: one bit per valuation."""
    pattern = (1 << (1 << j)) - 1
    span = 1 << (j + 1)
    total = 1 << n_atoms
    while span < total:
        pattern |= pattern << span
        span <<= 1
    return pattern


def within_atom_budget(k: int) -> bool:
    return k <= ATOM_BUDGET


def tile_space(
    k: int, below: int | None = None, positions: Iterable[int] | None = None
) -> tuple[list[int], int]:
    """The atom tiles and the full mask of the valuations over k atoms.

    Raises BudgetError for more than ATOM_BUDGET atoms before anything is
    built. With below, both are cut to the counters 0 .. below-1; with
    positions, only the tiles of those atoms are built, in that order."""
    if not within_atom_budget(k):
        raise BudgetError(f"{k} atoms exceed the budget of {ATOM_BUDGET}")
    full = full_mask(k) if below is None else full_mask(k) & (1 << below) - 1
    return [atom_tile(k, j) & full for j in (range(k) if positions is None else positions)], full


# table(tiles, full): a formula's truth table over any space of valuations,
# tiles[i] being the tile of its i-th atom and full the mask of every one
Table = Callable[[Sequence[int], int], int]


def _closure(f: Formula, order: dict[Atom, int]) -> Table:
    """f's Table, one closure and one big-integer operation per desugared
    connective pattern; operands compile left first, so atoms are numbered
    in order of first occurrence."""
    node = type(f)
    if node is Atom:
        i = order.setdefault(f, len(order))
        return lambda t, full: t[i]
    if node is Or:
        if type(f.left) is Not:
            a = _closure(f.left.operand, order)
            if type(f.right) is Not:  # Or(Not a, Not b): a nand b
                b = _closure(f.right.operand, order)
                return lambda t, full: full ^ (a(t, full) & b(t, full))
            b = _closure(f.right, order)  # Implies(a, b)
            return lambda t, full: (full ^ a(t, full)) | b(t, full)
        a = _closure(f.left, order)
        b = _closure(f.right, order)
        return lambda t, full: a(t, full) | b(t, full)
    if node is Not:
        g = f.operand
        inner = type(g)
        if inner is Atom:
            i = order.setdefault(g, len(order))
            return lambda t, full: full ^ t[i]
        if inner is Not:
            return _closure(g.operand, order)
        if inner is Or and type(g.left) is Not:
            a = _closure(g.left.operand, order)
            if type(g.right) is Not:  # And(a, b)
                b = _closure(g.right.operand, order)
                return lambda t, full: a(t, full) & b(t, full)
            b = _closure(g.right, order)  # Not(Implies(a, b))
            return lambda t, full: a(t, full) & ~b(t, full)
        operand = _closure(g, order)
        return lambda t, full: full ^ operand(t, full)
    raise TypeError(f"not a formula node: {f!r}")


def compile_formula(formula: Formula) -> tuple[tuple[Atom, ...], Table]:
    """The formula's atoms in first-occurrence order and its Table."""
    order: dict[Atom, int] = {}
    table = _closure(formula, order)
    return tuple(order), table


@functools.cache
def compile_schema(entry: SchemaEntry) -> tuple[tuple[Atom, ...], tuple[tuple[int, int], ...], Table]:
    """The body's atoms in first-occurrence order, each coded (subject index,
    predicate index) in entry.variables, and its Table; compiled once."""
    body_atoms, table = compile_formula(entry.body)
    var = {v: i for i, v in enumerate(entry.variables)}
    return body_atoms, tuple((var[a.subject], var[a.predicate]) for a in body_atoms), table


def essential_atoms(atoms: Sequence[Atom], table: Table) -> tuple[frozenset[Atom], int]:
    """The atoms a compiled formula's truth function depends on, and the
    number of valuations of them that satisfy it, from one table: atom j
    is essential iff flipping it changes the table somewhere, and the
    table repeats each valuation of the e essential atoms once for each of
    the 2^(k-e) valuations of the others."""
    tiles, full = tile_space(len(atoms))
    t = table(tiles, full)
    essential = frozenset(
        atom
        for j, (atom, tile) in enumerate(zip(atoms, tiles))
        if (t & ~tile) >> (1 << j) != t & tile
    )
    return essential, t.bit_count() >> (len(atoms) - len(essential))


def truth_table(formula: Formula, atom_order: Sequence[Atom]) -> int:
    """Big-integer truth table of formula over the given atom ordering."""
    index = {atom: j for j, atom in enumerate(atom_order)}
    formula_atoms, table = compile_formula(formula)
    tiles, full = tile_space(len(atom_order), positions=(index[a] for a in formula_atoms))
    return table(tiles, full)


def _merged_tables(formulas: Sequence[Formula]) -> tuple[tuple[Atom, ...], int, list[int]]:
    """The formulas' atoms in first-occurrence order, the full mask, and
    each formula's table over them: one compile per formula, one tile per atom."""
    compiled = [compile_formula(f) for f in formulas]
    index: dict[Atom, int] = {}
    for formula_atoms, _ in compiled:
        for atom in formula_atoms:
            index.setdefault(atom, len(index))
    tiles, full = tile_space(len(index))
    tables = [
        table([tiles[index[atom]] for atom in formula_atoms], full)
        for formula_atoms, table in compiled
    ]
    return tuple(index), full, tables


def lowest_set_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


class SemanticsVerdict(Record):
    """Outcome of a semantic check: it holds exactly when it carries no
    witness, a replayable counterexample."""

    witness: Valuation | None

    @property
    def holds(self) -> bool:
        return self.witness is None


def is_tautology(formula: Formula) -> SemanticsVerdict:
    return entails((), formula)


def are_equivalent(left: Formula, right: Formula) -> SemanticsVerdict:
    """Tautological equivalence; the witness domain covers both formulas.

    Each side is compiled and tabled once over their merged atom order,
    the order of atoms(Iff(left, right)), and the witness is the lowest
    counter where the tables differ: the valuation
    is_tautology(Iff(left, right)) reports, at the cost of one table per
    side instead of a table of the Iff, which holds each side twice."""
    order, _, (left_table, right_table) = _merged_tables([left, right])
    diff = left_table ^ right_table
    if diff == 0:
        return SemanticsVerdict(None)
    return SemanticsVerdict(Valuation.at_counter(order, lowest_set_bit(diff)))


def entails(premises: Sequence[Formula], conclusion: Formula) -> SemanticsVerdict:
    """Tautological consequence: no valuation satisfies premises but not conclusion."""
    order, full, tables = _merged_tables([*premises, conclusion])
    satisfied = full
    for table in tables[:-1]:
        satisfied &= table
    violations = satisfied & ~tables[-1]
    if violations == 0:
        return SemanticsVerdict(None)
    return SemanticsVerdict(Valuation.at_counter(order, lowest_set_bit(violations)))

"""Theoremhood for L1 via admissible valuations.

A valuation over the full atom grid of a finite variable pool is admissible
when it satisfies every instance of the base axiom schemata whose variables
are drawn from the pool, repeated variables included. A formula is an L1
theorem over its own variables exactly when every admissible valuation
satisfies it; pools of up to five variables are supported. The verdict is
the same over every pool that holds the formula's names. A countermodel
over a larger pool restricts to the grid of the formula's own pool: each
instance over the smaller pool is one over the larger, and the formula
reads only that grid. A countermodel over the formula's own pool lifts to
any larger pool by reading each extra name as one of the formula's names,
as characterize.recover_axioms argues for recovery: every instance over the
larger pool then takes the value of an instance over the own pool, and the
formula keeps its value. The criterion's adequacy for formulas of at most
five variables is a known completeness result; this module contributes the
machine check.

The admissible valuations are built from their structure instead of being
filtered out of the 2^(n*n) grid. Call x singular when eps(x,x) holds. By
Ax1 every row eps(x,-) of a non-singular x is false. Among the singular
names Ax3 makes eps symmetric and Ax2 transitive, so they split into blocks:
eps holds inside each block and nowhere else between singular names. What
is left is one free bit per (block, non-singular name z) pair: eps(x,z)
holds for every x of the block or for none of them (Ax2). Pools of 1 to 5
names have 2, 7, 36, 256 and 2483 admissible valuations. The counters of
one choice of singular names and blocks start as one list, and each free
bit doubles it with a copy that has the bit flipped.

The brute-force filter `admissible_mask` is kept as the enumeration's
oracle: it ANDs the tables of every axiom instance over all 2^(n*n) grid
valuations. It tables the instances through `instance_tables`, the
reindexing that recovery uses, and builds no instance formula. Kanai's
shortened symmetry axiom Ax3s carves the same sets; the tests check both
against the enumeration at pools 1 to 5.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator, Sequence

from .axioms import AX1, AX2, AX3, AX3S, BASE_AXIOMS
from .formula import Atom, Formula, InputError, NameVar, Record, SchemaEntry, name_variables
from .semantics import (
    Valuation,
    compile_formula,
    compile_schema,
    evaluate,
    full_mask,
    lowest_set_bit,
    tile_space,
)

POOL_CAP = 5


def grid_atoms(pool: Sequence[NameVar]) -> tuple[Atom, ...]:
    """Row-major atom grid: all eps(x,y) with x, y from the pool."""
    return tuple(Atom(x, y) for x in pool for y in pool)


def instance_tables(
    entry: SchemaEntry, pool: Sequence[NameVar], below: int | None = None
) -> Iterator[int]:
    """Tables over grid_atoms(pool) of every instance of entry over the pool, in
    product order, one at a time: each reindexes the body compile_schema
    coded, eps(x,y) to atom x*n+y, so no instance formula is built.

    With below, every table is cut to the counters 0 .. below-1: bit c is
    the instance's value under valuation c for c < below and 0 beyond."""
    n = len(pool)
    _, coded, table = compile_schema(entry)
    tiles, full = tile_space(n * n, below)
    for place in itertools.product(range(n), repeat=entry.arity):
        yield table([tiles[place[s] * n + place[p]] for s, p in coded], full)


def _check_pool(pool: Sequence[NameVar]) -> tuple[NameVar, ...]:
    pool = tuple(pool)
    if not 1 <= len(pool) <= POOL_CAP:
        raise InputError(f"pool size {len(pool)} outside 1..{POOL_CAP}")
    if len(set(pool)) != len(pool):
        raise ValueError("pool variables must be distinct")
    return pool


def admissible_mask(pool: Sequence[NameVar], symmetry: str = "Ax3") -> int:
    """Bitmask over grid valuations: bit c set iff valuation c satisfies
    every instance over the pool of Ax1, Ax2 and the chosen symmetry axiom.

    Brute force over all 2^(n*n) valuations; the oracle for the enumeration."""
    pool = _check_pool(pool)
    if symmetry not in ("Ax3", "Ax3s"):
        raise ValueError(f"unknown symmetry axiom {symmetry!r}")
    mask = full_mask(len(pool) ** 2)
    for schema in (AX1, AX2, AX3 if symmetry == "Ax3" else AX3S):
        for table in instance_tables(schema, pool):
            mask &= table
    return mask


def _partitions(items: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every split of items into non-empty blocks."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for blocks in _partitions(rest):
        yield ((first,), *blocks)
        for i, block in enumerate(blocks):
            yield (*blocks[:i], (first, *block), *blocks[i + 1 :])


@functools.cache
def _admissible(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Admissible counters of an n-name grid in ascending order, and its n*n
    atom tiles: bit r of tile j is set iff atom j is true in valuation r."""
    everything = (1 << n * n) - 1
    counters = []
    for size in range(n + 1):
        for singular in itertools.combinations(range(n), size):
            rest = [z for z in range(n) if z not in singular]
            for blocks in _partitions(singular):
                inside = sum(1 << x * n + y for b in blocks for x in b for y in b)
                free = [sum(1 << x * n + z for x in b) for b in blocks for z in rest]
                block = [everything ^ inside]
                for bit in free:
                    block += [c ^ bit for c in block]
                counters += block
    counters.sort()
    # one transpose: the counters, highest first, as binary rows of w digits
    # behind a marker bit; column w-1-j read down them is counter bit j of
    # every valuation, and atom j is true exactly where that bit is clear
    w = n * n
    top = 1 << w
    rows = "".join([bin(top | c) for c in reversed(counters)])
    full = (1 << len(counters)) - 1
    tiles = tuple(full ^ int(rows[w + 2 - j :: w + 3], 2) for j in range(w))
    return tuple(counters), tiles


class TheoremVerdict(Record):
    """Validity over admissible valuations: the formula is valid exactly
    when there is no counter-valuation, the first one in counter order."""

    pool: tuple[NameVar, ...]
    counter_valuation: Valuation | None

    @property
    def valid(self) -> bool:
        return self.counter_valuation is None


def is_countermodel(
    valuation: Valuation,
    formula: Formula,
    schemata: Sequence[SchemaEntry],
    pool: Sequence[NameVar],
) -> bool:
    """The valuation falsifies formula and satisfies every instance of the
    schemata over the pool: the pointwise replay of a reported refutation.

    No instance is built. By the substitution lemma sigma(body) holds at v
    iff body holds at v o sigma, the valuation of the body's own atoms that
    gives eps(x,y) the value of eps(sigma(x),sigma(y)) under v. So the body
    is evaluated once per distinct pattern of its atoms' values over the
    instances. The valuation is read on the pool's grid up front, so a
    domain without the whole grid raises ValueError at its first missing
    atom in grid order, whether or not an instance reaches it.
    """
    if evaluate(formula, valuation):
        return False
    n = len(pool)
    grid = [valuation.value(atom) for atom in grid_atoms(pool)]
    for schema in schemata:
        body_atoms, coded, _ = compile_schema(schema)
        patterns: set[tuple[bool, ...]] = set()
        for place in itertools.product(range(n), repeat=schema.arity):
            pattern = []
            for s, p in coded:
                pattern.append(grid[place[s] * n + place[p]])
            patterns.add(tuple(pattern))
        for pattern in patterns:
            true = frozenset(atom for atom, holds in zip(body_atoms, pattern) if holds)
            if not evaluate(schema.body, Valuation(body_atoms, true)):
                return False
    return True


def holds_in_all_admissible(formula: Formula, pool: Sequence[NameVar]) -> TheoremVerdict:
    pool = _check_pool(pool)
    missing = set(name_variables(formula)) - set(pool)
    if missing:
        raise ValueError(f"formula variables outside pool: {sorted(missing)}")
    grid = grid_atoms(pool)
    counters, tiles = _admissible(len(pool))
    full = (1 << len(counters)) - 1
    formula_atoms, table = compile_formula(formula)
    violations = full & ~table([tiles[grid.index(a)] for a in formula_atoms], full)
    if violations == 0:
        return TheoremVerdict(pool, None)
    witness = Valuation.at_counter(grid, counters[lowest_set_bit(violations)])
    if not is_countermodel(witness, formula, BASE_AXIOMS, pool):
        raise RuntimeError(f"counter-valuation {witness.counter} fails its replay")
    return TheoremVerdict(pool, witness)


def is_theorem(formula: Formula) -> TheoremVerdict:
    """Decide L1 theoremhood over the formula's own variable pool."""
    return holds_in_all_admissible(formula, name_variables(formula))


def clear_caches() -> None:
    _admissible.cache_clear()

"""Triviality and quasi-triviality comparisons between axiom schemata.

Two schemata are compared by sweeping candidate renamings of one onto the
other and testing tautological equivalence. A successful candidate is the
witness, and a report's verdict is a property read off it; when none
succeeds, every candidate is refuted by a distinguishing valuation, so a
negative verdict is as replayable as a positive one.

Each schema body is compiled once, by semantics.compile_schema, into its
atoms coded over its variables and a closure that computes its truth table
from atom tiles. A candidate renaming then only reindexes the coded atoms:
the source's atoms come first, then the target's new ones, exactly
their first-occurrence order in atoms(Or(sigma(source), target)), so
the lowest bit where the two tables differ is the counter-valuation
are_equivalent would report. The comparisons run in two modes. Decide mode
(explain=False) returns the verdict, the witness and the number of maps
examined. Explain mode, the default, also builds a Refutation for every
candidate before the witness, straight from the sweep's map with no
CandidateMap, and replays each one by pointwise evaluation through the
substitution lemma: sigma(source) holds at a valuation exactly when the
source holds at its pullback through sigma, so no substituted formula is
built; each image eps(sigma(x), sigma(y)) is the interned atom of its
names, so the valuation over the kernel's grid finds it by identity.
Only reports that print refutations ask for explain mode.
Both modes replay the witness through Substitution.apply and are_equivalent;
the tests keep Substitution.apply as the oracle of the refutation replay.

Both modes walk the renamings depth first in lexicographic rho order.
Equivalent formulas depend on the same atoms, and a renaming maps atoms
injectively, so a witness carries the source's essential atoms exactly onto
the target's. Decide mode cuts every branch that already breaks this;
the number of maps examined is still the witness's position in that order,
or n! without one. Explain mode refutes every candidate, so it cuts nothing.

Before it builds a kernel, decide mode compares the two sides' renaming
keys: the number of essential atoms, the number of diagonal essential
atoms eps(x,x), and the number of valuations of the essential atoms that
satisfy the body. Equal keys are necessary for a witness. A renaming the
criteria use is a bijection of the source's variables onto padded
targets, so it maps atoms injectively, diagonal atoms to diagonal atoms
and the others to others. The essential atoms of sigma(A) are the images
of A's essential atoms, and sigma(A) computes the same truth function of
them as A of its own. Equivalent formulas have the same essential atoms
and the same function on them. So a pair whose keys differ gets the
report the sweep would give, no witness after n! maps, and no kernel is
built for it. The keys are compared after the arity and MAP_BUDGET
checks, and only when the two bodies have at most ATOM_BUDGET atoms
between them: otherwise some renaming may exceed that budget, and the
sweep must raise its BudgetError as it always has. The key's first number
is the only whole-pair cut; the sweep itself has none.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator, Sequence

from .axioms import A_T
from .decision import grid_atoms
from .formula import Atom, InputError, Record, SchemaEntry
from .semantics import (
    BudgetError,
    Valuation,
    are_equivalent,
    compile_schema,
    essential_atoms,
    evaluate,
    lowest_set_bit,
    tile_space,
    within_atom_budget,
)
from .substitution import (
    FRESH_QNT_LEFT,
    FRESH_QNT_RIGHT,
    FRESH_TRIVIALITY,
    CandidateMap,
    Substitution,
    candidate_map,
    padded_targets,
)

# renamings one sweep may walk: triviality of the 8-variable chain schema
# against A_t takes about 0.9 s in explain mode (median of 5 in-process runs,
# Python 3.11.7), and each further variable multiplies that by its count
MAP_BUDGET = math.factorial(8)


class CriterionInapplicable(InputError):
    """The compared schemata fall outside the definition's arity bounds."""


class Refutation(Record):
    """A candidate map, as its rho and sigma, plus a valuation on which the
    two sides disagree.

    substituted_value is the value of the schema the map was applied to;
    target_value, its negation, is the value of the schema it was compared
    against. The target replays by pointwise evaluation of the stored
    valuation, the substituted schema by evaluating the unsubstituted one
    at the valuation's pullback through sigma (the substitution lemma).
    """

    rho: tuple[int, ...]
    sigma: Substitution
    valuation: Valuation
    substituted_value: bool

    @property
    def target_value(self) -> bool:
        return not self.substituted_value


class TrivialityReport(Record):
    """refutations is empty in decide mode; map_count - (witness is not
    None) candidates were refuted either way."""

    subject: SchemaEntry
    reference: SchemaEntry
    witness: CandidateMap | None
    refutations: tuple[Refutation, ...]
    map_count: int

    @property
    def verdict(self) -> str:
        return "nontrivial" if self.witness is None else "trivial"


class QntReport(Record):
    """Outcome of the quasi-triviality comparison of left against right.

    hypothesis_met records whether each side is nontrivial with respect to
    the reference packaging of the axioms, the standing hypothesis of the
    comparison; it is bookkeeping, never a gate. cross_check is set for
    equal-arity pairs: the mirrored sweep (left's variables onto right's)
    must reach the same verdict. refutations is empty in decide mode.
    """

    left: SchemaEntry
    right: SchemaEntry
    witness: CandidateMap | None
    refutations: tuple[Refutation, ...]
    map_count: int
    hypothesis_met: tuple[bool, bool]
    cross_check: str | None

    @property
    def case_used(self) -> int:
        """1 when the right schema's variables were mapped onto the left's
        (left arity <= right arity), 2 for the reverse."""
        return 1 if self.left.arity <= self.right.arity else 2

    @property
    def verdict(self) -> str:
        return "quasi-nontrivial" if self.witness is None else "quasi-trivial"

    @property
    def witness_left_oriented(self) -> Substitution | None:
        """The witness as a substitution applied to the left schema, where
        that is meaningful: the case-2 map itself, or the inverse of a
        fresh-free case-1 map, which is a bijection."""
        if self.witness is None:
            return None
        if self.case_used == 2:
            return self.witness.sigma
        if self.left.arity == self.right.arity:
            return self.witness.sigma.invert()
        return None


# compile_schema's codes of a body's essential atoms, and its renaming key
_Profile = tuple[frozenset[tuple[int, int]], tuple[int, int, int]]


@functools.cache
def _essential(entry: SchemaEntry) -> _Profile:
    """compile_schema's codes of the essential atoms of entry's body, and
    its renaming key (see the module docstring): the number of essential
    atoms, of diagonal ones, and of their valuations that satisfy the body.
    One table gives all of them."""
    body_atoms, coded, table = compile_schema(entry)
    essential, models = essential_atoms(body_atoms, table)
    codes = frozenset(c for atom, c in zip(body_atoms, coded) if atom in essential)
    return codes, (len(codes), sum(s == p for s, p in codes), models)


def _profiles(source: SchemaEntry, target: SchemaEntry) -> tuple[_Profile, _Profile] | None:
    """Both sides' _essential, or None when the two bodies have more atoms
    between them than the atom budget admits: then some renaming may
    exceed the budget, and no map may be skipped before it."""
    if not within_atom_budget(len(compile_schema(source)[0]) + len(compile_schema(target)[0])):
        return None
    return _essential(source), _essential(target)


class _Kernel:
    """The two bodies as compile_schema gives them, for renamings of the
    source's variables onto targets: the target's variables followed by
    fresh padding.

    A renaming is given by place, place[s] being the index in targets of
    the image of source variable s. An atom is coded subject index * n +
    predicate index over targets. Renamings are bijections, so the source's
    atoms keep their order as the first atoms of the pair and the source's
    table depends only on the pair's atom count k.

    Only decide mode builds a kernel with the two sides' profiles, and only
    for a pair whose renaming keys are equal; essential then holds the
    essential atoms of the source, coded over its own variables, and of
    the target, coded over targets. Without profiles it is None, and the
    sweep cuts no branch.
    """

    def __init__(
        self,
        source: SchemaEntry,
        target: SchemaEntry,
        fresh_prefix: str,
        profiles: tuple[_Profile, _Profile] | None = None,
    ):
        self.source, self.target = source, target
        self.targets = padded_targets(source.variables, target.variables, fresh_prefix)
        n = len(self.targets)
        self.source_atoms, self.source_pairs, self.source_table = compile_schema(source)
        _, target_pairs, self.target_table = compile_schema(target)
        self.target_codes = [s * n + p for s, p in target_pairs]
        self.essential: tuple[frozenset[int], ...] | None = None
        if profiles is not None:
            self.essential = tuple(frozenset(s * n + p for s, p in codes) for codes, _ in profiles)
        # atom count k -> (atom tiles, full mask, source table)
        self.spaces: dict[int, tuple[list[int], int, int]] = {}

    @functools.cached_property
    def grid(self) -> tuple[Atom, ...]:
        """The atom of every code."""
        return grid_atoms(self.targets)

    @functools.cached_property
    def ranked(self) -> tuple[list[int], list[tuple[Atom, int, int]]]:
        """The source variables in name order, as sigma lists them, and
        each source atom with the ranks of its two variables in that order;
        only explain mode's refutations read them."""
        by_name = sorted(range(len(self.targets)), key=self.source.variables.__getitem__)
        at = {s: i for i, s in enumerate(by_name)}
        return by_name, [(a, at[s], at[p]) for a, (s, p) in zip(self.source_atoms, self.source_pairs)]

    def compare(self, place: Sequence[int]) -> tuple[int, int, dict[int, int]]:
        """The source's table, the bits where the two tables differ, and
        the pair's atoms (code -> index) under one renaming."""
        n = len(place)
        index = {place[s] * n + place[p]: i for i, (s, p) in enumerate(self.source_pairs)}
        for code in self.target_codes:
            index.setdefault(code, len(index))
        k = len(index)
        space = self.spaces.get(k)
        if space is None:
            tiles, full = tile_space(k)
            space = self.spaces[k] = (tiles, full, self.source_table(tiles, full))
        tiles, full, source_bits = space
        target_bits = self.target_table([tiles[index[c]] for c in self.target_codes], full)
        return source_bits, source_bits ^ target_bits, index

    def candidate(self, perm: tuple[int, ...]) -> CandidateMap:
        return candidate_map(self.source.variables, self.targets, perm)

    def refutation(
        self, perm: Sequence[int], place: Sequence[int], source_bits: int, diff: int, index: dict
    ) -> Refutation:
        """The refutation at the lowest differing bit, its rho and sigma as
        candidate_map gives them for perm, replayed by pointwise evaluation.
        sigma is read off place, the renaming compare tabled, and rho off
        perm; _extend yields place as perm's inverse, and a test pins that.
        By the substitution lemma sigma(source) holds at the valuation
        exactly when the source holds at its pullback through sigma, which
        gives eps(x,y) the value of eps(sigma(x), sigma(y)); so no
        substituted formula is built, and the pullback's images come from
        sigma's items alone, not from index. Atoms are interned, so an image
        in the grid is the grid's own atom, and one outside it is another
        atom, which Valuation refuses."""
        counter = lowest_set_bit(diff)
        valuation = Valuation.at_counter(tuple(map(self.grid.__getitem__, index)), counter)
        substituted_value = bool(source_bits >> counter & 1)
        variables, targets = self.source.variables, self.targets
        by_name, ranked = self.ranked
        sigma = Substitution(tuple([(variables[s], targets[place[s]]) for s in by_name]))
        images = [t for _, t in sigma.items]
        true = [a for a, s, p in ranked if valuation.value(Atom(images[s], images[p]))]
        pullback = Valuation(self.source_atoms, frozenset(true))
        if (
            evaluate(self.source.body, pullback) != substituted_value
            or evaluate(self.target.body, valuation) == substituted_value
        ):
            raise RuntimeError(f"refutation of {sigma} fails its replay")
        return Refutation(tuple([s + 1 for s in perm]), sigma, valuation, substituted_value)

    def replay_witness(self, witness: CandidateMap) -> None:
        substituted = witness.sigma.apply(self.source.body)
        if not are_equivalent(substituted, self.target.body).holds:
            raise RuntimeError(f"witness {witness.sigma} fails its replay")


def _extend(
    i: int,
    n: int,
    perm: list[int],
    place: list[int],
    essential: tuple[frozenset[int], frozenset[int]] | None,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every permutation perm of range(n), in lexicographic order, that
    extends the first i slots perm and place assign, with its inverse
    place: perm sends source variable perm[k] to target slot k. Given
    essential, the essential atoms coded over source variables and over
    target slots, a branch is cut as soon as a pair of assigned slots
    holds an essential atom on one side only."""
    if i == n:
        yield tuple(perm), tuple(place)
        return
    for s in range(n):
        if s in perm:
            continue
        perm.append(s)
        place[s] = i
        if essential is None or all(
            (perm[a] * n + perm[b] in essential[0]) == (a * n + b in essential[1])
            for j in range(i + 1)
            for a, b in ((j, i), (i, j))
        ):
            yield from _extend(i + 1, n, perm, place, essential)
        perm.pop()


def _position(perm: tuple[int, ...]) -> int:
    """The 1-based position of perm in lexicographic order."""
    n = len(perm)
    return 1 + sum(
        sum(t < s for t in perm[i + 1 :]) * math.factorial(n - 1 - i)
        for i, s in enumerate(perm)
    )


def _sweep(
    kernel: _Kernel, explain: bool
) -> tuple[CandidateMap | None, tuple[Refutation, ...], int]:
    """Test the renamings in lexicographic rho order, stopping at the
    first equivalence, whose witness is replayed; given the kernel's
    essential atoms, skip those that cannot preserve them. A pair whose
    renaming keys differ never reaches the sweep in decide mode.

    Returns the witness (or None), the refutations of every candidate
    before success (explain mode only) and the witness's position, or n!.
    """
    n = len(kernel.targets)
    refutations: list[Refutation] = []
    for perm, place in _extend(0, n, [], [0] * n, kernel.essential):
        source_bits, diff, index = kernel.compare(place)
        if not diff:
            witness = kernel.candidate(perm)
            kernel.replay_witness(witness)
            return witness, tuple(refutations), _position(perm)
        if explain:
            refutations.append(kernel.refutation(perm, place, source_bits, diff, index))
    return None, tuple(refutations), math.factorial(n)


def _compare(
    source: SchemaEntry, target: SchemaEntry, fresh_prefix: str, explain: bool
) -> tuple[CandidateMap | None, tuple[Refutation, ...], int]:
    """_sweep's answer for the renamings of source onto target's variables
    padded with fresh_prefix names. More than MAP_BUDGET renamings raise
    BudgetError before anything is compiled; then decide mode settles a
    pair whose renaming keys differ without a kernel."""
    maps = math.factorial(source.arity)
    if maps > MAP_BUDGET:
        raise BudgetError(
            f"{source.arity} variables make {maps} renamings, "
            f"beyond the budget of {MAP_BUDGET}"
        )
    profiles = None if explain else _profiles(source, target)
    if profiles is not None and profiles[0][1] != profiles[1][1]:
        return None, (), maps
    return _sweep(_Kernel(source, target, fresh_prefix, profiles), explain)


def triviality(
    subject: SchemaEntry, reference: SchemaEntry, *, explain: bool = True
) -> TrivialityReport:
    """Is some renaming of subject onto reference's variables equivalent
    to reference? The enumeration covers all arity! padded bijections."""
    if subject.arity < 3:
        raise CriterionInapplicable(
            f"{subject.name} has {subject.arity} distinct variables; "
            "the triviality criterion needs at least 3"
        )
    if subject.arity < reference.arity:
        raise CriterionInapplicable(
            f"{subject.name} has fewer variables ({subject.arity}) than "
            f"the reference {reference.name} ({reference.arity})"
        )
    witness, refutations, count = _compare(subject, reference, FRESH_TRIVIALITY, explain)
    return TrivialityReport(subject, reference, witness, refutations, count)


@functools.lru_cache(maxsize=None)
def is_nontrivial_standard(entry: SchemaEntry) -> bool:
    """The standing hypothesis: nontrivial w.r.t. the packaged axioms."""
    return triviality(entry, A_T, explain=False).verdict == "nontrivial"


def _mirror_cross_check(left: SchemaEntry, right: SchemaEntry, found: bool) -> str:
    """Does the mirrored sweep, left's variables onto right's, find a
    witness exactly when the primary sweep did (found)?"""
    mirrored = _compare(left, right, FRESH_QNT_RIGHT, explain=False)[0]
    return "agree" if (mirrored is not None) == found else "disagree"


def _oriented(left: SchemaEntry, right: SchemaEntry) -> tuple[SchemaEntry, SchemaEntry, str]:
    """The source, target and fresh prefix of the primary sweep of left
    against right, as quasi_triviality's docstring sets it out."""
    for entry in (left, right):
        if entry.arity < 3:
            raise CriterionInapplicable(
                f"{entry.name} has {entry.arity} distinct variables; "
                "the quasi-triviality comparison needs at least 3 on each side"
            )
    if left.arity <= right.arity:
        return right, left, FRESH_QNT_LEFT
    return left, right, FRESH_QNT_RIGHT


def quasi_triviality(
    left: SchemaEntry, right: SchemaEntry, *, explain: bool = True
) -> QntReport:
    """Compare two schemata for quasi-triviality.

    Case 1 (left arity <= right arity): sweep renamings of the right
    schema's variables onto the left's, padded with fresh u-variables, and
    test sigma(right) equivalent to left. Case 2 does the mirror image
    with fresh v-variables. Equal-arity pairs also run the mirrored sweep
    as a cross-check; the definition's branch stays authoritative.
    """
    witness, refutations, count = _compare(*_oriented(left, right), explain)
    cross_check = None
    if left.arity == right.arity:
        cross_check = _mirror_cross_check(left, right, witness is not None)
    return QntReport(
        left=left,
        right=right,
        witness=witness,
        refutations=refutations,
        map_count=count,
        hypothesis_met=(is_nontrivial_standard(left), is_nontrivial_standard(right)),
        cross_check=cross_check,
    )


def is_trivial(subject: SchemaEntry, reference: SchemaEntry) -> bool:
    return triviality(subject, reference, explain=False).verdict == "trivial"


def is_quasi_trivial(left: SchemaEntry, right: SchemaEntry) -> bool:
    """The verdict of quasi_triviality alone: the primary sweep, without
    the mirrored cross-check or the hypothesis bookkeeping."""
    return _compare(*_oriented(left, right), explain=False)[0] is not None


class InapplicablePair(Record):
    """Matrix cell for a pair outside the comparison's arity bounds."""

    left: SchemaEntry
    right: SchemaEntry
    reason: str

    @property
    def verdict(self) -> str:
        return "inapplicable"


MatrixCell = QntReport | InapplicablePair


def qnt_matrix(entries: Iterable[SchemaEntry]) -> dict[tuple[str, str], MatrixCell]:
    """Decide-mode quasi-triviality reports for every ordered pair, diagonal
    included.

    Pairs the definition does not cover become InapplicablePair cells
    rather than aborting the whole matrix.
    """
    pool = tuple(entries)
    cells: dict[tuple[str, str], MatrixCell] = {}
    for a in pool:
        for b in pool:
            try:
                cells[(a.name, b.name)] = quasi_triviality(a, b, explain=False)
            except CriterionInapplicable as exc:
                cells[(a.name, b.name)] = InapplicablePair(a, b, str(exc))
    return cells


def clear_caches() -> None:
    is_nontrivial_standard.cache_clear()
    _essential.cache_clear()

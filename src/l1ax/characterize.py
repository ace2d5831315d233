"""Characteristic-schema checking: validity plus axiom recovery.

A schema is characteristic when it is valid and the set of its
substitution instances tautologically yields each of the three base axiom
schemata. Instances over the names a, b, c decide this exactly. Recovery
tables every such instance on the atom grid, then shrinks the witness to
the smallest certifying subset so reports stay close to the
two-substitution certificates given by hand. The witness is re-certified
through entails on the substituted instances, and a reported
counterexample is replayed pointwise.
"""

from __future__ import annotations

import itertools

from .axioms import BASE_AXIOMS
from .decision import (
    TheoremVerdict,
    grid_atoms,
    instance_tables,
    is_countermodel,
    is_theorem,
)
from .formula import Formula, Record, SchemaEntry
from .proofs import Justification, ProofLine, ProofScript, derivation_of
from .semantics import Valuation, entails, full_mask, lowest_set_bit, truth_table
from .substitution import Substitution

# recovery decides over the first three; counterexamples lie on the first max_pool
NAMES = ("a", "b", "c", "d")


class RecoveryOutcome(Record):
    """Result of recovering one axiom from a schema's instances.

    The axiom is recovered exactly when there is no counterexample. Then
    (always at pool_size 3) witness_maps lists the shrunken instance set
    over a, b, c: the conjunction of the corresponding instances
    tautologically implies the axiom, re-certified through entails.
    Otherwise the axiom does not follow from the schema's instances over
    any pool, and counterexample is the lowest valuation of the pool_size
    grid satisfying every instance there but falsifying the axiom.
    """

    axiom: SchemaEntry
    pool_size: int
    witness_maps: tuple[Substitution, ...]
    witness_instances: tuple[Formula, ...]
    counterexample: Valuation | None

    @property
    def recovered(self) -> bool:
        return self.counterexample is None


class CharacterizationReport(Record):
    subject: SchemaEntry
    validity: TheoremVerdict
    recoveries: tuple[RecoveryOutcome, ...]
    max_pool: int
    derivation_script: str | None

    @property
    def characteristic(self) -> bool:
        return self.validity.valid and all(r.recovered for r in self.recoveries)


def _shrink(tables: list[int], axiom_table: int, full: int) -> tuple[int, ...]:
    """Smallest instance subset whose conjunction implies the axiom, given
    that the whole set does.

    Tries singletons, then pairs, in enumeration order; beyond that a
    greedy backward elimination returns an irredundant (not necessarily
    minimum) set. Returns indices into tables.
    """
    gap = ~axiom_table & full
    if not gap:
        return ()
    for i, t in enumerate(tables):
        if t & gap == 0:
            return (i,)
    for i, j in itertools.combinations(range(len(tables)), 2):
        if tables[i] & tables[j] & gap == 0:
            return (i, j)
    keep = list(range(len(tables)))
    for idx in reversed(range(len(tables))):
        rest = full
        for k in keep:
            if k != idx:
                rest &= tables[k]
        if rest & gap == 0:
            keep.remove(idx)
    return tuple(keep)


def _read(counter: int, pairs: tuple[tuple[int, int], ...]) -> int:
    """The counter whose bit q is bit s of counter, for each (q, s) of pairs."""
    return sum(((counter >> s) & 1) << q for q, s in pairs)


# (abcd grid position, abc grid position): the abc atoms inside the abcd grid
_EMBEDDING = tuple((x * 4 + y, x * 3 + y) for x in range(3) for y in range(3))
# the same pairs over the whole abcd grid, read through each retraction d -> t
_RETRACTIONS = tuple(
    tuple(
        (x * 4 + y, (x if x < 3 else t) * 3 + (y if y < 3 else t))
        for x in range(4)
        for y in range(4)
    )
    for t in range(3)
)


def _lowest_lift(violations: int) -> int:
    """The lowest abcd counter lifted from a set bit of violations, a mask of
    abc counters, through a retraction sending d to a, b or c.

    Every lift of c3 agrees with its embedding on the abc atoms, and the
    embedding places abc positions in order, so it rises with c3: once it
    reaches the best lift found, no later violation lifts lower."""
    best = 1 << 16  # above every abcd counter
    while violations:
        c3 = lowest_set_bit(violations)
        if _read(c3, _EMBEDDING) >= best:
            break
        best = min(best, *(_read(c3, pairs) for pairs in _RETRACTIONS))
        violations &= violations - 1
    return best


def recover_axioms(
    entry: SchemaEntry, max_pool: int = 4
) -> tuple[RecoveryOutcome, ...]:
    """Per-axiom recovery from the instances over a, b, c, smallest witness first.

    The verdict is exact at three names. A valuation of the abc grid that
    satisfies every instance and falsifies an axiom lifts to any larger pool
    by a retraction, reading each extra name as a, b or c: every instance
    over the larger pool then takes the value of an instance over abc, and
    the axiom keeps its value. So no pool recovers an axiom that abc does
    not, and a miss proves that the axiom does not follow. Its
    counterexample is the lowest one on the max_pool grid. At pool 4 the
    lowest lift of an abc counterexample bounds it from above, so the abcd
    instances are tabled once, and only below the highest such bound among
    the missed axioms; an axiom with no violation there raises RuntimeError.
    """
    if not 3 <= max_pool <= 4:
        raise ValueError("max_pool must be 3 or 4")
    pool = NAMES[:3]
    grid = grid_atoms(pool)
    tables = list(instance_tables(entry, pool))
    full = full_mask(len(grid))
    conjunction = full
    for t in tables:
        conjunction &= t
    axiom_tables = [truth_table(axiom.body, grid) for axiom in BASE_AXIOMS]
    gaps = [conjunction & ~t for t in axiom_tables]
    wide_pool, wide_grid = pool, grid
    wide_conjunction = conjunction
    if max_pool == 4 and any(gaps):
        wide_pool = NAMES[:4]
        wide_grid = grid_atoms(wide_pool)
        below = 1 + max(_lowest_lift(gap) for gap in gaps if gap)
        wide_conjunction = (1 << below) - 1
        for t in instance_tables(entry, wide_pool, below=below):
            wide_conjunction &= t
    result = []
    for axiom, axiom_table, gap in zip(BASE_AXIOMS, axiom_tables, gaps):
        if gap:
            violations = wide_conjunction & ~truth_table(axiom.body, wide_grid)
            if not violations:
                raise RuntimeError(
                    f"no counterexample for {axiom.name} from {entry.name} "
                    "below its lifted bound"
                )
            counterexample = Valuation.at_counter(wide_grid, lowest_set_bit(violations))
            if not is_countermodel(counterexample, axiom.body, (entry,), wide_pool):
                raise RuntimeError(
                    f"counterexample for {axiom.name} from {entry.name} fails its replay"
                )
            result.append(RecoveryOutcome(axiom, max_pool, (), (), counterexample))
            continue
        targets = list(itertools.product(pool, repeat=entry.arity))
        witness_maps = tuple(
            Substitution.of(dict(zip(entry.variables, targets[i])))
            for i in _shrink(tables, axiom_table, full)
        )
        witness_instances = tuple(sigma.apply(entry.body) for sigma in witness_maps)
        if not entails(list(witness_instances), axiom.body).holds:
            raise RuntimeError(
                f"witness {'; '.join(map(str, witness_maps))} for {axiom.name} "
                "fails its replay"
            )
        result.append(RecoveryOutcome(axiom, 3, witness_maps, witness_instances, None))
    return tuple(result)


def characterize(entry: SchemaEntry, max_pool: int = 4) -> CharacterizationReport:
    """Validity plus three-axiom recovery, with the derivational upgrade.

    derivation_script names a bundled assumption-free proof of the schema
    body when one exists, upgrading the validity verdict from exhaustive
    semantics to a checked derivation. It is looked up by stated
    conclusion (proofs.derivation_of), so only a script that concludes the
    body, or states no conclusion, is parsed and checked.
    """
    return CharacterizationReport(
        subject=entry,
        validity=is_theorem(entry.body),
        recoveries=recover_axioms(entry, max_pool=max_pool),
        max_pool=max_pool,
        derivation_script=derivation_of(entry.body),
    )


def recovery_script(entry: SchemaEntry) -> ProofScript:
    """A kernel-checkable derivation of the recovered axioms from entry.

    Instance lines come straight from the recovery witnesses; each axiom
    then follows as a tautological consequence. Raises if nothing was
    recovered.
    """
    recovered = [r for r in recover_axioms(entry) if r.recovered]
    if not recovered:
        raise ValueError(f"no axiom is recovered from {entry.name}")
    sigma_lines: dict[Substitution, str] = {}
    lines: list[ProofLine] = []
    for outcome in recovered:
        for sigma in outcome.witness_maps:
            if sigma not in sigma_lines:
                label = f"g{len(sigma_lines) + 1}"
                sigma_lines[sigma] = label
                schema = Justification("SCHEMA", (entry.name,), sigma)
                lines.append(ProofLine(label, sigma.apply(entry.body), schema))
    for outcome in recovered:
        cited = tuple(sigma_lines[s] for s in outcome.witness_maps)
        label = outcome.axiom.name.lower().replace("-", "_")
        lines.append(ProofLine(label, outcome.axiom.body, Justification("TAUTCONSEQ", cited, None)))
    return ProofScript(
        name=f"axioms_from_{entry.name.lower().replace('-', '_')}",
        assumptions=(entry,),
        lines=tuple(lines),
        conclusion=lines[-1].formula,
    )

"""Characteristic-schema checking: validity plus axiom recovery.

A schema is characteristic when it is valid and the set of its
substitution instances over a small variable pool tautologically yields
each of the three base axiom schemata. Recovery tables every instance on
the pool's atom grid, then shrinks the witness to the smallest certifying
subset so reports stay close to the two-substitution certificates given
by hand. The witness is re-certified through entails on the substituted
instances, and a reported counterexample is replayed pointwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .axioms import BASE_AXIOMS
from .decision import TheoremVerdict, grid_atoms, instance_tables, is_theorem
from .formula import Formula, SchemaEntry
from .proofs import ProofLine, ProofScript, SchemaRef, TautConseq, derived_conclusions
from .semantics import Valuation, entails, evaluate, full_mask, lowest_set_bit, truth_table
from .substitution import Substitution, instances

RECOVERY_POOLS = (("a", "b", "c"), ("a", "b", "c", "d"))


@dataclass(frozen=True, slots=True)
class RecoveryOutcome:
    """Result of recovering one axiom from a schema's instances.

    When recovered, witness_maps lists the shrunken instance set (the
    conjunction of the corresponding instances tautologically implies the
    axiom, re-certified through entails). When not recovered at any pool
    up to the bound, counterexample is a valuation over the largest grid
    satisfying every instance but falsifying the axiom.
    """

    axiom: SchemaEntry
    recovered: bool
    pool_size: int
    witness_maps: tuple[Substitution, ...]
    witness_instances: tuple[Formula, ...]
    counterexample: Valuation | None


@dataclass(frozen=True, slots=True)
class CharacterizationReport:
    subject: SchemaEntry
    validity: TheoremVerdict
    recoveries: tuple[RecoveryOutcome, ...]
    characteristic: bool
    max_pool: int
    derivation_script: str | None


def _replay_counterexample(
    entry: SchemaEntry, axiom: SchemaEntry, pool: tuple[str, ...], valuation: Valuation
) -> None:
    """Every instance over the pool holds at the valuation and the axiom fails."""
    if evaluate(axiom.body, valuation) or not all(
        evaluate(instance, valuation) for instance in instances(entry, pool)
    ):
        raise RuntimeError(
            f"counterexample for {axiom.name} from {entry.name} fails its replay"
        )


def _shrink(
    tables: list[int], axiom_table: int, full: int
) -> tuple[int, ...] | None:
    """Smallest instance subset whose conjunction implies the axiom.

    Tries singletons, then pairs, in enumeration order; beyond that a
    greedy backward elimination returns an irredundant (not necessarily
    minimum) set. Returns indices into tables, or None if even the whole
    set fails.
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
    everything = full
    for t in tables:
        everything &= t
    if everything & gap:
        return None
    keep = list(range(len(tables)))
    for idx in reversed(range(len(tables))):
        rest = full
        for k in keep:
            if k != idx:
                rest &= tables[k]
        if rest & gap == 0:
            keep.remove(idx)
    return tuple(keep)


def recover_axioms(
    entry: SchemaEntry, max_pool: int = 4
) -> tuple[RecoveryOutcome, ...]:
    """Per-axiom recovery over growing pools, smallest witness first.

    A failure at the bound is reported as not recovered there, never as
    impossibility.
    """
    if not 3 <= max_pool <= 4:
        raise ValueError("max_pool must be 3 or 4")
    pools = [p for p in RECOVERY_POOLS if len(p) <= max_pool]
    outcomes: dict[str, RecoveryOutcome] = {}
    last_counterexamples: dict[str, Valuation | None] = {}
    for pool in pools:
        pending = [ax for ax in BASE_AXIOMS if ax.name not in outcomes]
        if not pending:
            break
        atom_order = grid_atoms(pool)
        full = full_mask(len(atom_order))
        tables = instance_tables(entry, pool)
        conjunction = full
        for t in tables:
            conjunction &= t
        for axiom in pending:
            axiom_table = truth_table(axiom.body, atom_order)
            violations = conjunction & ~axiom_table & full
            if violations:
                counter = lowest_set_bit(violations)
                last_counterexamples[axiom.name] = Valuation.at_counter(
                    atom_order, counter
                )
                continue
            chosen = _shrink(tables, axiom_table, full)
            if chosen is None:
                raise RuntimeError(f"no instance subset of {entry.name} implies {axiom.name}")
            targets = list(itertools.product(pool, repeat=entry.arity))
            witness_maps = tuple(
                Substitution.of(dict(zip(entry.variables, targets[i]))) for i in chosen
            )
            witness_instances = tuple(sigma.apply(entry.body) for sigma in witness_maps)
            if not entails(list(witness_instances), axiom.body).holds:
                raise RuntimeError(
                    f"witness {'; '.join(map(str, witness_maps))} for {axiom.name} "
                    "fails its replay"
                )
            outcomes[axiom.name] = RecoveryOutcome(
                axiom=axiom,
                recovered=True,
                pool_size=len(pool),
                witness_maps=witness_maps,
                witness_instances=witness_instances,
                counterexample=None,
            )
    result = []
    for axiom in BASE_AXIOMS:
        if axiom.name in outcomes:
            result.append(outcomes[axiom.name])
        else:
            counterexample = last_counterexamples[axiom.name]
            _replay_counterexample(entry, axiom, pools[-1], counterexample)
            result.append(
                RecoveryOutcome(
                    axiom=axiom,
                    recovered=False,
                    pool_size=max_pool,
                    witness_maps=(),
                    witness_instances=(),
                    counterexample=counterexample,
                )
            )
    return tuple(result)


def characterize(entry: SchemaEntry, max_pool: int = 4) -> CharacterizationReport:
    """Validity plus three-axiom recovery, with the derivational upgrade.

    derivation_script names a bundled assumption-free proof of the schema
    body when one exists, upgrading the validity verdict from exhaustive
    semantics to a checked derivation.
    """
    validity = is_theorem(entry.body)
    recoveries = recover_axioms(entry, max_pool=max_pool)
    characteristic = validity.valid and all(r.recovered for r in recoveries)
    return CharacterizationReport(
        subject=entry,
        validity=validity,
        recoveries=recoveries,
        characteristic=characteristic,
        max_pool=max_pool,
        derivation_script=derived_conclusions().get(entry.body),
    )


def recovery_script(
    entry: SchemaEntry, recoveries: tuple[RecoveryOutcome, ...] | None = None
) -> ProofScript:
    """A kernel-checkable derivation of the recovered axioms from entry.

    Instance lines come straight from the recovery witnesses; each axiom
    then follows as a tautological consequence. Raises if nothing was
    recovered.
    """
    if recoveries is None:
        recoveries = recover_axioms(entry)
    recovered = [r for r in recoveries if r.recovered]
    if not recovered:
        raise ValueError(f"no axiom is recovered from {entry.name}")
    sigma_lines: dict[Substitution, str] = {}
    lines: list[ProofLine] = []
    for outcome in recovered:
        for sigma in outcome.witness_maps:
            if sigma not in sigma_lines:
                label = f"g{len(sigma_lines) + 1}"
                sigma_lines[sigma] = label
                lines.append(ProofLine(label, sigma.apply(entry.body), SchemaRef(entry.name, sigma)))
    for outcome in recovered:
        cited = tuple(sigma_lines[s] for s in outcome.witness_maps)
        label = outcome.axiom.name.lower().replace("-", "_")
        lines.append(ProofLine(label, outcome.axiom.body, TautConseq(cited)))
    return ProofScript(
        name=f"axioms_from_{entry.name.lower().replace('-', '_')}",
        assumptions=(entry,),
        lines=tuple(lines),
        conclusion=lines[-1].formula,
        metadata={"generated": "true"},
    )

"""Uniform simultaneous substitution and the candidate maps of the criteria.

A substitution maps name variables to name variables and applies to every
atom at once, so swaps like {a->b, b->a} behave correctly. The triviality
and quasi-triviality criteria quantify over bijections of one schema's
variables onto another's, padded with canonically chosen fresh variables
when the arities differ. This module fixes the padded targets and builds
the CandidateMap of one permutation; criteria._extend walks the
permutations, and the tests keep the plain enumeration as an oracle.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .formula import Atom, Formula, NameVar, Not, Or, Record

# Fresh variables come from reserved pools so reported witnesses are stable:
# y1,y2,... pad triviality maps, u1,u2,... pad the first quasi-triviality
# case, v1,v2,... the second.
FRESH_TRIVIALITY = "y"
FRESH_QNT_LEFT = "u"
FRESH_QNT_RIGHT = "v"

RESERVED_FRESH_PREFIXES = (FRESH_TRIVIALITY, FRESH_QNT_LEFT, FRESH_QNT_RIGHT)


def is_reserved_fresh_name(name: str) -> bool:
    return (
        len(name) >= 2
        and name[0] in RESERVED_FRESH_PREFIXES
        and name[1:].isdigit()
    )


class Substitution(Record):
    """An immutable variable-to-variable map; unmapped variables stay fixed."""

    items: tuple[tuple[NameVar, NameVar], ...]

    @classmethod
    def of(cls, mapping: Mapping[NameVar, NameVar]) -> "Substitution":
        return cls(items=tuple(sorted(mapping.items())))

    @classmethod
    def identity(cls) -> "Substitution":
        return cls(items=())

    @property
    def mapping(self) -> dict[NameVar, NameVar]:
        return dict(self.items)

    def apply(self, formula: Formula) -> Formula:
        return _rename(formula, self.mapping)

    def is_injective(self) -> bool:
        targets = [t for _, t in self.items]
        return len(targets) == len(set(targets))

    def invert(self) -> "Substitution":
        if not self.is_injective():
            raise ValueError("substitution is not injective")
        return Substitution(items=tuple(sorted((t, s) for s, t in self.items)))

    def __str__(self) -> str:
        return "{" + ", ".join(f"{s}->{t}" for s, t in self.items) + "}"


def _rename(f: Formula, m: Mapping[NameVar, NameVar]) -> Formula:
    """f with every variable x renamed to m.get(x, x); an atom's image is
    the interned atom of the renamed pair."""
    node = type(f)
    if node is Atom:
        return Atom(m.get(f.subject, f.subject), m.get(f.predicate, f.predicate))
    if node is Not:
        return Not(_rename(f.operand, m))
    if node is Or:
        return Or(_rename(f.left, m), _rename(f.right, m))
    raise TypeError(f"not a formula node: {f!r}")


def fresh_variables(prefix: str, count: int, avoid: set[NameVar]) -> tuple[NameVar, ...]:
    """First `count` names prefix1, prefix2, ... that avoid the given set."""
    out: list[NameVar] = []
    i = 1
    while len(out) < count:
        name = f"{prefix}{i}"
        if name not in avoid:
            out.append(name)
        i += 1
    return tuple(out)


class CandidateMap(Record):
    """One enumerated map: rho is the 1-based source permutation, sigma the
    substitution sending source variable rho(i) to the i-th target."""

    rho: tuple[int, ...]
    sigma: Substitution


def padded_targets(
    source_vars: Sequence[NameVar],
    target_vars: Sequence[NameVar],
    fresh_prefix: str,
) -> tuple[NameVar, ...]:
    """The target variables in order followed by len(source)-len(target)
    fresh variables; requires len(source_vars) >= len(target_vars)."""
    n = len(source_vars)
    r = len(target_vars)
    if n < r:
        raise ValueError(
            f"need at least {r} source variables, got {n}"
        )
    avoid = set(source_vars) | set(target_vars)
    return tuple(target_vars) + fresh_variables(fresh_prefix, n - r, avoid)


def candidate_map(
    source_vars: Sequence[NameVar], targets: Sequence[NameVar], perm: Sequence[int]
) -> CandidateMap:
    """The map sending source variable perm[i] (0-based) to targets[i]."""
    sigma = Substitution.of({source_vars[s]: targets[i] for i, s in enumerate(perm)})
    return CandidateMap(rho=tuple(s + 1 for s in perm), sigma=sigma)

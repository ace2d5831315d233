"""The base axiom schemata of L1 and Kanai's shortened variant."""

from __future__ import annotations

from .formula import And, Implies, SchemaEntry, eps

AX1 = SchemaEntry.make("Ax1", Implies(eps("a", "b"), eps("a", "a")))

AX2 = SchemaEntry.make(
    "Ax2", Implies(And(eps("a", "b"), eps("b", "c")), eps("a", "c"))
)

AX3 = SchemaEntry.make(
    "Ax3", Implies(And(eps("a", "b"), eps("b", "c")), eps("b", "a"))
)

# Kanai's variant: the b=c instance of Ax3, enough to regenerate it
AX3S = SchemaEntry.make(
    "Ax3s", Implies(And(eps("a", "b"), eps("b", "b")), eps("b", "a"))
)

BASE_AXIOMS = (AX1, AX2, AX3)

AXIOMS_BY_NAME = {ax.name: ax for ax in (AX1, AX2, AX3, AX3S)}

# the conjunction-of-base equivalent schema
A_T = SchemaEntry.make(
    "A_t",
    Implies(
        eps("a", "b"),
        And(
            eps("a", "a"),
            Implies(eps("b", "c"), And(eps("a", "c"), eps("b", "a"))),
        ),
    ),
)

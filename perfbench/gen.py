"""Seeded input generator for the three workloads.

The seed picks the variable renamings and the order of the ops; the set of
ops, and so the amount of work in a pass, is the same for every seed. A
renaming sends the variables of a schema, in order of first occurrence, to
fresh letter-only names of the form z + three consonants, which never meet
the reserved y/u/v padding pools or the recovery pools a..d. Because such a
renaming preserves every verdict, map count and enumeration order, mapping
the names back and re-sorting each printed substitution gives an output that
no longer depends on the seed: `canonical_digest` hashes that form, so one
golden digest per op template serves every seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from dataclasses import dataclass, field

import known

WORKLOADS = ("regress", "pool5", "queries")

_LETTERS = "bcdfghjklmnpqrstwx"
_NAMES = tuple("z" + "".join(t) for t in itertools.product(_LETTERS, repeat=3))
_VARIABLE = re.compile(r"\beps\(([a-z][a-z0-9_]*),([a-z][a-z0-9_]*)\)")
_TOKEN = re.compile(r"\b[a-z][a-z0-9_]*\b")
_SUBSTITUTION = re.compile(r"\{([a-z0-9_]+->[a-z0-9_]+(?:, [a-z0-9_]+->[a-z0-9_]+)*)\}")

# copies of each schema in the seeded matrix corpus of the regress workload
MATRIX_COPIES = {"A_M8": 3, "A_S1": 2, "A_S2": 2, "A_S3N": 2, "A_S3Nd": 2, "Star": 3, "DoubleStar": 2}

POOL5_OPS = (
    ("characteristic", "DoubleStar", False),
    ("theorem", "DoubleStar", True),
    ("characteristic", "sym-pad5", True),
    ("theorem", "refl-b-pad5", False),
)

# query templates: (subcommand, schema or script names, extra flags);
# each runs once as text and once with --json, every other one renamed
QUERY_TEMPLATES = (
    *(("qnt", pair, ()) for pair in (
        ("Star", "A_M8"), ("A_M8", "Star"), ("A_M8", "A_S1"), ("A_S1", "A_S2"),
        ("A_S2", "A_S3N"), ("A_S3N", "A_S3Nd"), ("A_S3Nd", "A_M8"), ("A_S2", "A_S1"),
        ("A_M8", "A_M8"), ("A_S1", "A_S1"), ("A_t", "A_t-1"), ("A_k1", "A_t"),
        ("A_k3", "A_ad6"), ("A_ad7", "A_ad7_2"), ("A_S1ex1", "A_S2ex1"), ("A_t", "A_M8"),
        ("A_S3", "A_S3N"), ("A_ad8", "A_ad1"), ("DoubleStar", "A_M8"), ("A_M8", "DoubleStar"),
        ("A_k2", "A_ad2"), ("A_S1ex3", "A_S2ex3"), ("Star", "A_S1"), ("A_ad6_2", "A_S3"),
        ("A_S3N", "A_M8"), ("A_ad1", "A_ad2"), ("A_S2ex2", "A_S1ex2"), ("A_k3", "A_k1"),
        ("A_t-1", "A_t"), ("A_S1ex2", "A_S1ex3"),
    )),
    *(("nontrivial", pair, ()) for pair in (
        ("A_M8", "A_t"), ("A_S1", "A_t"), ("A_S2", "A_t"), ("A_S3N", "A_t"),
        ("A_S3Nd", "A_t"), ("A_t", "A_t"), ("A_S3", "A_t-1"), ("A_t-1", "A_t"),
        ("A_k1", "A_t"), ("A_k3", "A_t"), ("A_ad6", "A_t"), ("A_S1ex2", "A_t"),
        ("Star", "A_t"), ("Ax2", "A_t"),
    )),
    *(("taut", (name,), ()) for name in (
        "excluded-middle", "identity", "and-comm", "self-imp", "Ax1", "Ax2",
        "A_t", "A_M8", "sym", "A_ad1", "A_S3N", "conv",
    )),
    *(("check-proof", (name,), ()) for name in known.PROOF_SCRIPTS),
    *(("theorem", (name,), ()) for name in (
        "A_M8", "A_S1", "A_S2", "A_S3", "A_S3N", "A_S3Nd", "Star", "A_t",
        "Ax3s", "A_k1", "A_ad7", "sym", "conv", "refl-b", "A_ad8", "A_S2ex3",
    )),
    *(("characteristic", (name,), ("--max-pool", str(pool))) for name, pool in (
        ("A_M8", 3), ("A_S1", 4), ("A_S2", 3), ("A_S3N", 4), ("A_S3Nd", 3),
        ("A_S3", 4), ("A_t", 3), ("Ax1", 3), ("Star", 4), ("A_k1", 4),
        ("A_ad6", 3), ("A_S2ex1", 4), ("sym", 3), ("A_k2", 3),
    )),
)


@dataclass
class Op:
    """One CLI call: its argv, what it was made from, and how to check it."""

    kind: str
    names: tuple[str, ...]
    argv: list[str]
    key: str
    back: dict[str, str] = field(default_factory=dict)

    @property
    def as_json(self) -> bool:
        return "--json" in self.argv


class Renamer:
    """Draws fresh variable names, each used once per workload."""

    def __init__(self, rng: random.Random):
        self._names = iter(rng.sample(_NAMES, len(_NAMES)))

    def rename(self, formula: str, back: dict[str, str]) -> str:
        """formula with its variables renamed; back records new -> old."""
        fresh: dict[str, str] = {}
        for var in _VARIABLE.findall(formula):
            for v in var:
                if v not in fresh:
                    fresh[v] = next(self._names)
                    back[fresh[v]] = v
        return _VARIABLE.sub(lambda m: f"eps({fresh[m[1]]},{fresh[m[2]]})", formula)


def _op(kind, names, extra, as_json, renamed, renamer: Renamer) -> Op:
    back: dict[str, str] = {}

    def schema_arg(name: str) -> str:
        """A corpus schema by name, or formula text (renamed or not)."""
        formula = known.SCHEMATA[name][1]
        if renamed:
            return renamer.rename(formula, back)
        return name if name in known.CORPUS else formula

    if kind == "check-proof":
        args = [f"src/l1ax/proofs/{names[0]}.proof"]
        renamed = False
    elif kind == "nontrivial":
        subject, ref = names
        args = [schema_arg(subject)]
        if renamed or ref != "A_t":
            args += ["--ref", schema_arg(ref)]
    else:
        args = [schema_arg(name) for name in names]
    flags = [*extra, *(["--json"] if as_json else [])]
    key = " ".join([kind, *names, *flags, *(["renamed"] if renamed else [])])
    return Op(kind, tuple(names), [kind, *args, *flags], key, back)


def matrix_corpus(renamer: Renamer) -> tuple[str, tuple[str, ...], dict[str, str]]:
    """The seeded schema file for `matrix --corpus`: its text, the original
    of each entry in order, and the renaming back to the originals."""
    lines, originals, back = [], [], {}
    for name, copies in MATRIX_COPIES.items():
        for k in range(1, copies + 1):
            lines.append(f"{name}__{k} := {renamer.rename(known.CORPUS[name][1], back)}")
            originals.append(name)
    return "\n".join(lines) + "\n", tuple(originals), back


def generate(workload: str, seed: int, out_rel: str) -> tuple[list[Op], dict[str, str]]:
    """The ops of one pass and the files they read (path relative to the
    checkout -> text), all determined by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    renamer = Renamer(rng)
    files: dict[str, str] = {}
    if workload == "regress":
        path = f"{out_rel}/matrix.schemata"
        text, originals, back = matrix_corpus(renamer)
        files[path] = text
        ops = [
            Op("verify", (), ["verify"], "verify"),
            Op("conjectures", (), ["conjectures"], "conjectures"),
            Op("matrix", known.FIVE, ["matrix"], "matrix"),
            Op("matrix", originals, ["matrix", "--corpus", path], "matrix --corpus", back),
        ]
    elif workload == "pool5":
        ops = [_op(kind, (name,), (), as_json, True, renamer) for kind, name, as_json in POOL5_OPS]
    elif workload == "queries":
        ops = [
            _op(kind, names, extra, as_json, i % 2 == 1, renamer)
            for i, (kind, names, extra) in enumerate(QUERY_TEMPLATES)
            for as_json in (False, True)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops, files


def _canonical_text(text: str, back: dict[str, str]) -> str:
    text = _TOKEN.sub(lambda m: back.get(m[0], m[0]), text)
    return _SUBSTITUTION.sub(lambda m: "{" + ", ".join(sorted(m[1].split(", "))) + "}", text)


def _canonical_json(value, back: dict[str, str]):
    if isinstance(value, dict):
        return {_canonical_text(k, back): _canonical_json(v, back) for k, v in value.items()}
    if isinstance(value, list):
        return [_canonical_json(v, back) for v in value]
    if isinstance(value, str):
        return _canonical_text(value, back)
    return value


def canonical_digest(op: Op, stdout: str) -> str:
    """sha256 of stdout, after undoing the op's renaming if it has one."""
    if op.back:
        if op.as_json:
            stdout = json.dumps(_canonical_json(json.loads(stdout), op.back), indent=2, sort_keys=True)
        else:
            stdout = _canonical_text(stdout, op.back)
    return hashlib.sha256(stdout.encode()).hexdigest()

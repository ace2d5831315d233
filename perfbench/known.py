"""Hand-written known answers for the benchmark's inputs.

Every expected verdict here is copied from the established results quoted
in README.md and PAPER.md (the corpus table, the worked examples, the
pairwise quasi-nontriviality theorem of the established five, the
quasi-triviality of Star and DoubleStar to A_M8), or follows from the
definitions by hand (a sweep that finds no witness examines all n! maps;
two order-preserving renamings of one schema match at the identity map).
Nothing here is computed by the code under test. The self-tests check that
the formulas below agree with the bundled corpus.

Generated inputs are bijective renamings of these formulas, and a bijective
renaming preserves every verdict and map count, so each generated op is
checked against the entry of the schema it was made from.
"""

from __future__ import annotations

import json
import math
import re

# name -> (arity, formula), as printed in the README's corpus table
CORPUS = {
    "Ax1": (2, "eps(a,b) -> eps(a,a)"),
    "Ax2": (3, "eps(a,b) & eps(b,c) -> eps(a,c)"),
    "Ax3": (3, "eps(a,b) & eps(b,c) -> eps(b,a)"),
    "Ax3s": (2, "eps(a,b) & eps(b,b) -> eps(b,a)"),
    "A_t": (3, "eps(a,b) -> eps(a,a) & (eps(b,c) -> eps(a,c) & eps(b,a))"),
    "A_t-1": (3, "eps(a,b) & eps(b,c) -> eps(a,c) & eps(b,a)"),
    "A_M8": (4, "eps(a,b) & eps(c,d) -> eps(a,a) & eps(c,c) & (eps(b,c) -> eps(a,d) & eps(b,a))"),
    "A_S1": (4, "eps(a,b) & eps(c,d) -> eps(a,a) & (eps(b,c) -> eps(a,d) & eps(b,a))"),
    "A_S2": (4, "eps(a,b) & eps(c,d) -> eps(c,c) & (eps(b,c) -> eps(a,d) & eps(b,a))"),
    "A_S3": (4, "eps(a,b) & eps(b,c) -> eps(b,b) & (eps(c,d) -> eps(a,d) & eps(b,a))"),
    "A_S3N": (4, "eps(a,b) -> eps(a,a) & (eps(b,c) -> eps(b,b) & (eps(c,d) -> eps(a,d) & eps(b,a)))"),
    "A_S3Nd": (4, "eps(a,b) -> eps(a,a) & (eps(b,c) & eps(c,d) -> eps(a,d) & eps(b,a))"),
    "Star": (4, "eps(a,b) & eps(d,e) -> eps(d,d) & eps(a,a) & (eps(b,d) -> eps(a,e)) & (!eps(b,a) -> !eps(b,d))"),
    "DoubleStar": (5, "eps(a,b) & eps(d,e) -> eps(d,d) & eps(a,a) & (eps(b,d) -> eps(a,e) & eps(b,a)) & (eps(c,c) | !eps(c,c))"),
    "A_k1": (3, "eps(a,b) -> eps(a,a) & (eps(b,b) & eps(b,c) -> eps(a,c) & eps(b,a))"),
    "A_k2": (3, "eps(a,b) -> eps(a,a) & (eps(c,c) & eps(b,c) -> eps(a,c) & eps(c,b))"),
    "A_k3": (4, "eps(a,b) -> eps(a,a) & (eps(c,d) & eps(b,c) -> eps(a,c) & eps(c,b))"),
    "A_ad1": (3, "eps(a,b) & eps(b,b) -> eps(a,a) & eps(b,a) & (eps(b,c) -> eps(a,c))"),
    "A_ad2": (3, "eps(a,b) -> eps(a,a) & (eps(b,c) -> eps(a,c)) & (eps(b,b) -> eps(b,a))"),
    "A_ad6": (4, "eps(a,b) & eps(b,c) -> eps(a,a) & eps(b,a) & (eps(c,d) -> eps(b,d))"),
    "A_ad6_2": (4, "eps(a,b) & eps(b,c) -> eps(b,b) & eps(b,a) & (eps(b,d) -> eps(a,d))"),
    "A_ad7": (4, "eps(a,b) & eps(b,c) -> eps(a,a) & eps(b,a) & (eps(c,d) -> eps(a,d))"),
    "A_ad7_2": (4, "eps(a,b) & eps(b,c) -> eps(b,b) & eps(b,a) & (eps(c,d) -> eps(a,d))"),
    "A_ad8": (3, "eps(a,b) & eps(b,c) -> eps(a,a) & eps(b,b) & eps(a,c) & eps(b,a)"),
    "A_S1ex1": (4, "eps(a,b) & eps(c,d) -> eps(a,a) & (eps(b,c) -> eps(b,d) & eps(b,a))"),
    "A_S1ex2": (4, "eps(a,b) & eps(c,d) -> eps(a,a) & (eps(b,c) -> eps(b,d) & eps(c,b))"),
    "A_S1ex3": (4, "eps(a,b) & eps(c,d) -> eps(a,a) & (eps(b,c) -> eps(a,c) & eps(c,b))"),
    "A_S2ex1": (4, "eps(a,b) & eps(c,d) -> eps(c,c) & (eps(b,c) -> eps(b,d) & eps(b,a))"),
    "A_S2ex2": (4, "eps(a,b) & eps(c,d) -> eps(c,c) & (eps(b,c) -> eps(b,d) & eps(c,b))"),
    "A_S2ex3": (4, "eps(a,b) & eps(c,d) -> eps(c,c) & (eps(b,c) -> eps(a,c) & eps(c,b))"),
}

ESTABLISHED = (
    "Ax1", "Ax2", "Ax3", "Ax3s", "A_t", "A_t-1", "A_M8", "A_S1", "A_S2",
    "A_S3", "A_S3N", "A_S3Nd", "Star", "DoubleStar",
)
CONJECTURES = tuple(name for name in CORPUS if name not in ESTABLISHED)
FIVE = ("A_M8", "A_S1", "A_S2", "A_S3N", "A_S3Nd")

# Formulas outside the corpus with a known status. The invalid ones fail on
# the admissible valuation where only eps(a,a) and eps(a,b) are true: a is
# an individual, b a plural name containing it. The padded pool-5 variants
# conjoin spectator tautologies on three fresh names c, d, e.
EXTRA = {
    "sym": (2, "eps(a,b) -> eps(b,a)"),
    "refl-b": (2, "eps(a,b) -> eps(b,b)"),
    "conv": (3, "eps(a,b) & eps(b,c) -> eps(c,b)"),
    "sym-pad5": (5, "(eps(a,b) -> eps(b,a)) & (eps(c,d) | !eps(c,d)) & (eps(e,e) | !eps(e,e))"),
    "refl-b-pad5": (5, "(eps(a,b) -> eps(b,b)) & (eps(c,c) -> eps(c,c)) & (eps(d,e) -> eps(d,e))"),
    "excluded-middle": (2, "eps(a,b) | !eps(a,b)"),
    "identity": (2, "eps(a,b) -> eps(a,b)"),
    "and-comm": (2, "eps(a,b) & eps(b,a) -> eps(b,a) & eps(a,b)"),
    "self-imp": (3, "(eps(a,b) -> eps(b,c)) -> (eps(a,b) -> eps(b,c))"),
}

SCHEMATA = {**CORPUS, **EXTRA}

# Quasi-triviality classes: schemata in one class are quasi-trivial to each
# other, schemata in different classes are quasi-nontrivial. Star and
# DoubleStar are the quasi-trivial companions of A_M8; the established five
# are pairwise quasi-nontrivial.
QT_CLASS = {"A_M8": 0, "Star": 0, "DoubleStar": 0, "A_S1": 1, "A_S2": 2, "A_S3N": 3, "A_S3Nd": 4}

# triviality with respect to a reference: (subject, reference) -> verdict
TRIVIALITY = {
    **{(name, "A_t"): "nontrivial" for name in FIVE},
    ("A_t", "A_t"): "trivial",
    ("A_S3", "A_t-1"): "nontrivial",
}

VALID = {name: True for name in ESTABLISHED}
VALID.update({"sym": False, "refl-b": False, "conv": False, "sym-pad5": False, "refl-b-pad5": False})

# characteristic from pool 3 on: the established five (and so their
# quasi-trivial companions) and A_t, whose identity instance is the base
# conjunction. Not characteristic: anything invalid, Ax1 (its instances
# never yield transitivity) and A_S3 (it only yields A_t-1).
CHARACTERISTIC = {name: True for name in (*FIVE, "Star", "DoubleStar", "A_t")}
CHARACTERISTIC.update({name: False for name, valid in VALID.items() if not valid})
CHARACTERISTIC.update({"Ax1": False, "A_S3": False})

TAUTOLOGY = {
    "excluded-middle": True, "identity": True, "and-comm": True, "self-imp": True,
    "Ax1": False, "Ax2": False, "A_t": False, "A_M8": False, "sym": False,
}

PROOF_SCRIPTS = (
    "at1_from_s3", "base_from_m8", "base_from_s1", "base_from_s2", "base_from_s3n",
    "base_from_s3nd", "m8_from_base", "s1_from_base", "s2_from_base", "s3_from_base",
    "s3n_from_base", "s3nd_from_base",
)

VERIFY_ITEMS = 19


def qnt_expect(left: str, right: str) -> tuple[str, int | None] | None:
    """Known (verdict, maps examined) of `qnt left right`, or None."""
    if left == right:
        return "quasi-trivial", 1
    if left in QT_CLASS and right in QT_CLASS:
        if QT_CLASS[left] == QT_CLASS[right]:
            return "quasi-trivial", None
        return "quasi-nontrivial", math.factorial(max(CORPUS[left][0], CORPUS[right][0]))
    return None


def _lines(stdout: str) -> list[str]:
    return stdout.rstrip("\n").split("\n")


def _field(lines: list[str], prefix: str) -> str | None:
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def check(kind: str, names: tuple[str, ...], as_json: bool, stdout: str) -> list[str]:
    """Problems with one op's stdout against the known answers (empty if none).

    kind is the subcommand, names the original schema (or script) names the
    op was generated from, in argument order.
    """
    problems: list[str] = []
    try:
        data = json.loads(stdout) if as_json else None
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    lines = _lines(stdout)
    if kind == "qnt":
        known = qnt_expect(*names)
        if known is not None:
            verdict, maps = known
            if as_json:
                got_verdict, got_maps = data["verdict"], data["map_count"]
            else:
                got_verdict = _field(lines, "verdict: ")
                got_maps = int(_field(lines, "maps examined: ") or -1)
            _expect(problems, "verdict", got_verdict, verdict)
            if maps is not None:
                _expect(problems, "maps examined", got_maps, maps)
    elif kind == "nontrivial":
        subject, reference = names
        verdict = TRIVIALITY.get((subject, reference))
        if verdict is not None:
            if as_json:
                got_verdict, got_maps = data["verdict"], data["map_count"]
            else:
                got_verdict = (_field(lines, "verdict: ") or "").split(" w.r.t. ")[0]
                got_maps = int(_field(lines, "maps examined: ") or -1)
            _expect(problems, "verdict", got_verdict, verdict)
            maps = math.factorial(CORPUS[subject][0]) if verdict == "nontrivial" else 1
            _expect(problems, "maps examined", got_maps, maps)
    elif kind == "taut":
        want = TAUTOLOGY.get(names[0])
        if want is not None:
            got = data["holds"] if as_json else lines[0] == "tautology"
            _expect(problems, "tautology", got, want)
    elif kind == "theorem":
        want = VALID.get(names[0])
        if want is not None:
            got = data["valid"] if as_json else lines[0] == "valid"
            _expect(problems, "valid", got, want)
    elif kind == "characteristic":
        valid, characteristic = VALID.get(names[0]), CHARACTERISTIC.get(names[0])
        if as_json:
            got_valid, got_char = data["validity"]["valid"], data["characteristic"]
        else:
            got_valid = (_field(lines, "valid: ") or "").startswith("yes")
            got_char = _field(lines, "characteristic: ") == "yes"
        if valid is not None:
            _expect(problems, "valid", got_valid, valid)
        if characteristic is not None:
            _expect(problems, "characteristic", got_char, characteristic)
    elif kind == "check-proof":
        got = data["ok"] if as_json else lines[-1] == "result: ok"
        _expect(problems, "proof checks", got, True)
    elif kind == "verify":
        passed = sum(line.startswith("PASS ") for line in lines)
        _expect(problems, "items passed", passed, VERIFY_ITEMS)
        _expect(problems, "last line", lines[-1], "result: ok")
    elif kind == "conjectures":
        rows = [line.split(" (", 1)[0] for line in lines if not line.startswith(" ")]
        _expect(problems, "rows", tuple(rows), CONJECTURES)
        vs = sum(line.startswith("  vs ") for line in lines)
        _expect(problems, "comparisons", vs, len(CONJECTURES) * len(FIVE))
    elif kind == "matrix":
        problems.extend(_check_matrix(names, lines))
    else:
        problems.append(f"no known answers for {kind!r}")
    return problems


_CELL = re.compile(r"(\S+) vs (\S+): (\S+) \((\d+) maps? examined\)")


def _check_matrix(names: tuple[str, ...], lines: list[str]) -> list[str]:
    """names are the originals of the matrix entries, in entry order."""
    problems: list[str] = []
    cells = [m.groups() for m in map(_CELL.match, lines) if m]
    _expect(problems, "cells", len(cells), len(names) ** 2)
    qnt = 0
    for (_, _, verdict, maps), (left, right) in zip(
        cells, [(a, b) for a in names for b in names]
    ):
        want, want_maps = qnt_expect(left, right)
        _expect(problems, f"{left} vs {right}", verdict, want)
        if want_maps is not None:
            _expect(problems, f"{left} vs {right} maps", int(maps), want_maps)
        qnt += want == "quasi-nontrivial"
    total = len(names) * (len(names) - 1)
    _expect(problems, "summary", lines[-1], f"off-diagonal quasi-nontrivial: {qnt}/{total}")
    return problems

"""Named mutants of the program, each of which the tests must kill.

A mutant is one exact edit of a file under src/ (old text -> new text) and
the test files that must each fail under it. For every mutant the script
copies src/ into a temporary directory, applies the edit there and runs
pytest on each of those files against the copy, stopping at the first
failing test. The listed files are first run once against an unedited
copy, where they must pass, so no kill comes from a test that fails anyway.

An equivalent mutant, one that no test can kill because the program's
output stays the same, is listed in EQUIVALENT with its reason; it is not
run and not counted as killed.

The script exits 1 if a mutant survives, if the old text of a mutant or of
an equivalent one does not occur exactly once in its file, or if the
unedited copy fails. Each pytest run
may map at most MEMORY_LIMIT bytes, so a mutant that builds a table past
the atom budget fails with MemoryError instead of filling the machine.

It imports only the standard library, and pytest does not collect it.
From the repository root, with pytest and hypothesis installed:

    python tests/mutants.py [NAME ...]
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MEMORY_LIMIT = 2 << 30

# (name, file under src/l1ax, old text, new text, test files that must fail)
MUTANTS = [
    (
        "tile_space without the cut",
        "semantics.py",
        "full_mask(k) & (1 << below) - 1\n",
        "full_mask(k)\n",
        ["test_semantics.py", "test_characterize.py"],
    ),
    (
        "budget checked after the tiles are built",
        "semantics.py",
        """\
    if not within_atom_budget(k):
        raise BudgetError(f"{k} atoms exceed the budget of {ATOM_BUDGET}")
    full = full_mask(k) if below is None else full_mask(k) & (1 << below) - 1
    return [atom_tile(k, j) & full for j in (range(k) if positions is None else positions)], full
""",
        """\
    full = full_mask(k) if below is None else full_mask(k) & (1 << below) - 1
    tiles = [atom_tile(k, j) & full for j in (range(k) if positions is None else positions)]
    if not within_atom_budget(k):
        raise BudgetError(f"{k} atoms exceed the budget of {ATOM_BUDGET}")
    return tiles, full
""",
        ["test_semantics.py"],
    ),
    (
        "a repeated conclude accepted",
        "proofs.py",
        """\
            if conclusion is not None:
                raise ParseError("duplicate conclude", span)
""",
        "",
        ["test_proofs.py", "test_output_identity.py"],
    ),
    (
        "a repeated assumption accepted",
        "proofs.py",
        """\
            if any(a.name == assumed for a in assumptions):
                raise ParseError(f"duplicate assumption {assumed!r}", span)
""",
        "",
        ["test_proofs.py", "test_output_identity.py"],
    ),
    (
        "swapped a & ~b operands",
        "semantics.py",
        "            return lambda t, full: a(t, full) & ~b(t, full)\n",
        "            return lambda t, full: b(t, full) & ~a(t, full)\n",
        ["test_semantics.py"],
    ),
    (
        "a dropped free bit in _admissible",
        "decision.py",
        "                for bit in free:\n",
        "                for bit in free[1:]:\n",
        ["test_decision.py"],
    ),
    (
        "a dropped free bit in _admissible at pool 5 only",
        "decision.py",
        "                for bit in free:\n",
        "                for bit in free[n == 5:]:\n",
        ["test_decision.py"],
    ),
    (
        "the atom intern table cleared by clear_caches()",
        "__init__.py",
        "    semantics.compile_schema.cache_clear()\n",
        "    semantics.compile_schema.cache_clear()\n"
        "    from .formula import _ATOMS\n"
        "\n"
        "    _ATOMS.clear()\n",
        ["test_caches.py"],
    ),
    (
        "the atom budget refusing its own count",
        "semantics.py",
        "    return k <= ATOM_BUDGET\n",
        "    return k < ATOM_BUDGET\n",
        ["test_semantics.py"],
    ),
    (
        "TheoremVerdict.valid negated",
        "decision.py",
        "        return self.counter_valuation is None\n",
        "        return self.counter_valuation is not None\n",
        ["test_decision.py", "test_cli.py", "test_output_identity.py"],
    ),
    (
        "QntReport.case_used 2 for equal arities",
        "criteria.py",
        "        return 1 if self.left.arity <= self.right.arity else 2\n",
        "        return 1 if self.left.arity < self.right.arity else 2\n",
        ["test_criteria.py", "test_cli.py", "test_output_identity.py"],
    ),
    (
        "ProofCheckResult.failures without the conclusion",
        "proofs.py",
        '        return failed if self.conclusion_ok else (*failed, "(conclusion)")\n',
        "        return failed\n",
        ["test_proofs.py", "test_cli.py", "test_output_identity.py"],
    ),
    (
        "the atom token admits eps as a name",
        "syntax.py",
        '_VAR = r"[ \\t\\r\\n]*(?!eps\\b)[a-z][a-z0-9_]*[ \\t\\r\\n]*"\n',
        '_VAR = r"[ \\t\\r\\n]*[a-z][a-z0-9_]*[ \\t\\r\\n]*"\n',
        ["test_syntax.py", "test_output_identity.py"],
    ),
    (
        "the lookup key built from subjects only",
        "proofs.py",
        """\
    wanted = atoms(formula)
    for key, stem, text in _directive_index():
        if key is None or key == wanted:
""",
        """\
    wanted = {atom.subject for atom in atoms(formula)}
    for key, stem, text in _directive_index():
        if key is None or {atom.subject for atom in key} == wanted:
""",
        ["test_proofs.py"],
    ),
    (
        "the lookup key compared without its order",
        "proofs.py",
        "        if key is None or key == wanted:\n",
        "        if key is None or set(key) == set(wanted):\n",
        ["test_proofs.py"],
    ),
    (
        "the lookup ignores its atom key",
        "proofs.py",
        "        if key is None or key == wanted:\n",
        "        if True:\n",
        ["test_proofs.py"],
    ),
    (
        "the directive index reads past assume:",
        "proofs.py",
        """\
            if head == "assume":
                break
""",
        """\
            if head == "assume":
                continue
""",
        ["test_proofs.py"],
    ),
    (
        "the bundled scripts keyed by name",
        "proofs.py",
        "    return {stem: parse_proof_script(text, default_name=stem) for stem, text in _bundled_texts()}\n",
        "    scripts = [parse_proof_script(text, default_name=stem) for stem, text in _bundled_texts()]\n"
        "    return {script.name: script for script in scripts}\n",
        ["test_proofs.py"],
    ),
    (
        "the atom stored before its names are checked",
        "formula.py",
        """\
            for v in (subject, predicate):
                if not is_valid_variable(v):
                    raise ValueError(f"invalid variable name: {v!r}")
            atom = object.__new__(cls)
            object.__setattr__(atom, "subject", subject)
            object.__setattr__(atom, "predicate", predicate)
            _ATOMS[subject, predicate] = atom
""",
        """\
            atom = object.__new__(cls)
            object.__setattr__(atom, "subject", subject)
            object.__setattr__(atom, "predicate", predicate)
            _ATOMS[subject, predicate] = atom
            for v in (subject, predicate):
                if not is_valid_variable(v):
                    raise ValueError(f"invalid variable name: {v!r}")
""",
        ["test_formula.py"],
    ),
    (
        "no shape cache for the record methods",
        "formula.py",
        "    make = _MAKERS.get((count, post_init))\n",
        "    make = None\n",
        ["test_formula.py"],
    ),
    (
        "a one-field record hashed as its field, not as a tuple",
        "formula.py",
        '''            f"            h = hash(({mine}))\\n"\n''',
        '''            f"            h = hash(({mine.rstrip(', ')}))\\n"\n''',
        ["test_formula.py"],
    ),
    (
        "at_counter without its range check",
        "semantics.py",
        "        if counter < 0 or counter >> len(domain):\n",
        "        if False:\n",
        ["test_semantics.py"],
    ),
    (
        "essential atoms computed in explain mode",
        "criteria.py",
        "    profiles = None if explain else _profiles(source, target)\n",
        "    profiles = _profiles(source, target)\n",
        ["test_kernel.py"],
    ),
    (
        "the key cut applied in explain mode",
        "criteria.py",
        """\
    profiles = None if explain else _profiles(source, target)
    if profiles is not None and profiles[0][1] != profiles[1][1]:
        return None, (), maps
""",
        """\
    profiles = _profiles(source, target)
    if profiles is not None and profiles[0][1] != profiles[1][1]:
        return None, (), maps
    if explain:
        profiles = None
""",
        ["test_kernel.py", "test_output_identity.py"],
    ),
    (
        "the renaming key without its diagonal count",
        "criteria.py",
        "    return codes, (len(codes), sum(s == p for s, p in codes), models)\n",
        "    return codes, (len(codes), 0, models)\n",
        ["test_kernel.py"],
    ),
    (
        "satisfying valuations counted over all atoms",
        "semantics.py",
        "    return essential, t.bit_count() >> (len(atoms) - len(essential))\n",
        "    return essential, t.bit_count()\n",
        ["test_semantics.py", "test_kernel.py"],
    ),
    (
        "the key cut applied past the atom budget",
        "criteria.py",
        """\
    if not within_atom_budget(len(compile_schema(source)[0]) + len(compile_schema(target)[0])):
        return None
""",
        "",
        ["test_kernel.py"],
    ),
    (
        "the key cut before the MAP_BUDGET check",
        "criteria.py",
        """\
    maps = math.factorial(source.arity)
    if maps > MAP_BUDGET:
        raise BudgetError(
            f"{source.arity} variables make {maps} renamings, "
            f"beyond the budget of {MAP_BUDGET}"
        )
    profiles = None if explain else _profiles(source, target)
    if profiles is not None and profiles[0][1] != profiles[1][1]:
        return None, (), maps
""",
        """\
    maps = math.factorial(source.arity)
    profiles = None if explain else _profiles(source, target)
    if profiles is not None and profiles[0][1] != profiles[1][1]:
        return None, (), maps
    if maps > MAP_BUDGET:
        raise BudgetError(
            f"{source.arity} variables make {maps} renamings, "
            f"beyond the budget of {MAP_BUDGET}"
        )
""",
        ["test_kernel.py"],
    ),
    (
        "_rename renames only the subject",
        "substitution.py",
        "        return Atom(m.get(f.subject, f.subject), m.get(f.predicate, f.predicate))\n",
        "        return Atom(m.get(f.subject, f.subject), f.predicate)\n",
        ["test_substitution.py", "test_formula.py"],
    ),
    (
        "a negated atom compiled without its complement",
        "semantics.py",
        "            return lambda t, full: full ^ t[i]\n",
        "            return lambda t, full: t[i]\n",
        ["test_semantics.py"],
    ),
    (
        "an Ax1-violating valuation admitted from pool 3",
        "decision.py",
        "    counters.sort()\n",
        "    # eps(x0,x1) alone true\n"
        "    counters += [everything ^ 2] if n >= 3 else []\n"
        "    counters.sort()\n",
        ["test_decision.py"],
    ),
    (
        "the bundled scripts read in directory order",
        "proofs.py",
        "    for name in sorted(os.listdir(root)):\n",
        "    for name in os.listdir(root):\n",
        ["test_proofs.py"],
    ),
    (
        "a record plan left in attribute order",
        "reports.py",
        "    _PLANS[cls] = tuple(sorted(getters.items()))\n",
        "    _PLANS[cls] = tuple(getters.items())\n",
        ["test_reports.py"],
    ),
    (
        "the refutation's rho and sigma not lifted",
        "reports.py",
        """\
    if _is(cls, "criteria.Refutation"):
        # exception: the candidate's rho and sigma sit at the top level
        del getters["candidate"]
        getters.update(rho=attrgetter("candidate.rho"), sigma=attrgetter("candidate.sigma"))
    elif _is(cls, "verify.ConjectureRow"):
""",
        """\
    if _is(cls, "verify.ConjectureRow"):
""",
        ["test_reports.py"],
    ),
    (
        "the atom memo shared across documents",
        "reports.py",
        '    _write(value, "\\n", out, encode_basestring_ascii, {})\n',
        '    _write(value, "\\n", out, encode_basestring_ascii, _write.__dict__.setdefault("m", {}))\n',
        ["test_reports.py"],
    ),
    (
        "the atom memo keyed by the subject",
        "reports.py",
        "                out.append(atoms.get(x) or atoms.setdefault(x, quote(str(x))))\n",
        "                out.append(atoms.get(x.subject) or atoms.setdefault(x.subject, quote(str(x))))\n",
        ["test_reports.py"],
    ),
    (
        "a valuation's true list written from the whole domain",
        "reports.py",
        '"true": [a for a in v.domain if a in v.true_atoms]',
        '"true": list(v.domain)',
        ["test_reports.py"],
    ),
]

# (name, file under src/l1ax, old text, new text, why no test can kill it):
# never run and not counted as killed; the script only checks that each old
# text still occurs once, so the list does not go stale
EQUIVALENT = [
    (
        "the atom memo bypassed",
        "reports.py",
        "atoms.get(x) or atoms.setdefault(x, quote(str(x)))",
        "quote(str(x))",
        "the memo only saves quoting an atom again: the text is the same",
    ),
    (
        "the atom memo keyed by the atom's id",
        "reports.py",
        "atoms.get(x) or atoms.setdefault(x, quote(str(x)))",
        "atoms.get(id(x)) or atoms.setdefault(id(x), quote(str(x)))",
        "atoms are interned and kept for the life of the process, so one id "
        "never names two atoms",
    ),
]


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_pytest(src: Path, test_files: list[str]) -> int:
    """pytest's exit code on the test files, run against the package in src."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *(str(ROOT / "tests" / name) for name in test_files)],
        cwd=src.parent,  # hypothesis keeps its example database here
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        preexec_fn=_limit_memory,
    ).returncode


def copy_of_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def run(mutants) -> list[str]:
    """The problems found: survivors, stale edits and a failing baseline."""
    problems = []
    test_files = sorted({name for *_, files in mutants for name in files})
    with tempfile.TemporaryDirectory() as tmp:
        if run_pytest(copy_of_src(tmp), test_files) != 0:
            return [f"the unedited copy fails {', '.join(test_files)}"]
    for name, file, old, new, files in mutants:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            path = copy_of_src(tmp) / "l1ax" / file
            text = path.read_text()
            if text.count(old) != 1:
                problems.append(f"{name}: its old text occurs {text.count(old)} times in {file}")
                print(f"stale     {name}")
                continue
            path.write_text(text.replace(old, new))
            # exit code 1: some test failed; anything else is a survival or an error
            survived = [f for f in files if run_pytest(path.parents[1], [f]) != 1]
        verdict = "SURVIVED" if survived else "killed"
        print(f"{verdict:<9} {name} ({time.perf_counter() - start:.1f} s)")
        problems += [f"{name}: not killed by {f}" for f in survived]
    return problems


def main(argv: list[str]) -> int:
    known = {m[0]: m for m in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown mutants: {unknown}; known: {sorted(known)}", file=sys.stderr)
        return 2
    chosen = [known[name] for name in argv] or MUTANTS
    start = time.perf_counter()
    problems = [
        f"{name}: its old text occurs {count} times in {file}"
        for name, file, old, _, _ in EQUIVALENT
        if (count := (ROOT / "src" / "l1ax" / file).read_text().count(old)) != 1
    ]
    problems += run(chosen)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(
        f"{len(chosen)} mutants, {len(problems)} problems, {len(EQUIVALENT)} equivalent "
        f"listed and not run, {time.perf_counter() - start:.1f} s"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

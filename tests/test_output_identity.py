"""Byte-identity table: exit code, stdout digest and stderr digest per argv.

tests/output_identity.json maps each argv below (joined by spaces, with the
placeholders unexpanded) to [exit code, sha256 of stdout, sha256 of stderr];
a path that a message prints reads as its placeholder. It is the one byte
gate on the command line. It covers every corpus name under the
single-schema commands, 14 x 14 qnt pairs, the bundled proof scripts, the
corpus-wide commands, formula text down to a single atom, default flags,
schema files, a tampered script, a script whose every step fails and
refused inputs, each as text and with --json. Every command and every option it declares is in
some argv both ways. Output that depends on set or dict order, such as an
order that follows string hashes or object addresses, shows as a changed
row: run the table again under another PYTHONHASHSEED to check that.

The table is replayed once in this process; tests/test_cli_snapshots.py
checks that replay row by row, so a changed row fails under its argv's
name. It is replayed once more in one process of each of Python 3.10,
the floor pyproject declares, and 3.13 that starts (under pyenv, list them
in PYENV_VERSION after the main version). Those interpreters need no
pytest: the recorder here imports only the standard library and l1ax.
Regenerate the table only for an intended output change:

    PYTHONPATH=src python tests/test_output_identity.py
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

from l1ax.cli import COMMANDS, build_parser, main
from l1ax.corpus import load_corpus

DATA = Path(__file__).with_name("output_identity.json")

NAMES = load_corpus().names()

# the schemata characteristic accepts, all with at least three variables
QNT_NAMES = (
    "A_t", "A_M8", "A_S1", "A_S2", "A_S3N", "A_S3Nd", "Star", "DoubleStar",
    "A_k1", "A_ad2", "A_S1ex1", "A_S1ex2", "A_S2ex1", "A_S2ex2",
)

SCRIPTS = sorted(
    p.name for p in resources.files("l1ax").joinpath("proofs").iterdir()
    if p.name.endswith(".proof")
)

INVALID = "eps(a,b) -> eps(b,a)"

# INVALID padded with tautologies on three fresh names: a pool-5 refutation
SYM_PAD5 = "(eps(a,b) -> eps(b,a)) & (eps(c,d) | !eps(c,d)) & (eps(e,e) | !eps(e,e))"

# a schema file; Ax1 has two variables, so its matrix row and column are
# inapplicable cells
CORPUS = (
    "M := eps(a,b) & eps(c,d) -> eps(a,a) & eps(c,c)"
    " & (eps(b,c) -> eps(a,d) & eps(b,a))\n"
    "N := eps(a,b) & eps(c,d) -> eps(a,a) & (eps(b,c) -> eps(a,d) & eps(b,a))\n"
    "Ax1 := eps(a,b) -> eps(a,a)\n"
    "Mine := " + INVALID + "\n"
)

# 31 distinct atoms over six names, one beyond the atom budget
OVER_BUDGET = " | ".join([f"eps({x},{y})" for x in "abcdef" for y in "abcdef"][:31])

MALFORMED = "s1: eps(a,b) -> eps(a,a) ; AXIOM(Ax1, {)\n"

# a repeated directive, refused at its second line; if the last one won,
# each script would check
CONCLUDE_TWICE = (
    "conclude: eps(a,b) -> eps(a,a)\n"
    "conclude: eps(a,b) -> eps(a,b)\n"
    "s1: eps(a,b) -> eps(a,b) ; TAUT\n"
)
ASSUME_TWICE = (
    "assume: X := eps(a,b) -> eps(a,a)\n"
    "assume: X := eps(a,b) -> eps(b,a)\n"
    "s1: eps(a,b) -> eps(b,a) ; SCHEMA(X)\n"
)

# a step whose substitution is followed by stray text
SUBST_TRAILING = (
    "s1: eps(a,b) -> eps(a,a) ; AXIOM(Ax1)\n"
    "s2: eps(b,a) -> eps(b,b) ; SUBST(s1, {a->b, b->a} x)\n"
)

# a schema file whose entry uses a name of the fresh-variable pools
RESERVED = "Mine := eps(a,u1) -> eps(a,a)\n"

# schema files that name an entry twice, and that name one '1bad'
REPEATED = "X := eps(a,b) -> eps(a,a)\nX := eps(a,b) -> eps(b,a)\n"
BAD_NAME = "1bad := eps(a,b) -> eps(a,a)\n"

# nine variables make 9! renamings, beyond the sweep budget
CHAIN9 = " & ".join(f"eps({x},{y})" for x, y in zip("abcdefgh", "bcdefghi"))

# one level past each of the parser's depth and parenthesis bounds, and an
# iff chain that expands past its size bound
DEEP_NOT = "!" * 201 + "eps(a,b)"
DEEP_PARENS = "(" * 101 + "eps(a,b)" + ")" * 101
IFF_CHAIN = " <-> ".join(["eps(a,b)"] * 19)

# a substitution whose source is an atom, not a variable
SUBST_ATOM = (
    "s1: eps(a,b) -> eps(a,a) ; AXIOM(Ax1)\n"
    "s2: eps(c,b) -> eps(c,c) ; SUBST(s1, {eps(a,b)->c})\n"
)

# one script per refusal of the proof parser: a line without ':', a
# malformed directive, a bad step, no steps, a malformed justification of
# each kind, and a substitution that maps one variable twice
AX1 = "eps(a,b) -> eps(a,a)"
REFUSED_SCRIPTS = {
    "no_colon": f"s1 {AX1} ; AXIOM(Ax1)\n",
    "assume_without_def": f"assume: X = {AX1}\ns1: {AX1} ; SCHEMA(X)\n",
    "meta_without_eq": f"meta: reconstructed\ns1: {AX1} ; AXIOM(Ax1)\n",
    "bad_label": f"s-1: {AX1} ; AXIOM(Ax1)\n",
    "label_twice": f"s1: {AX1} ; AXIOM(Ax1)\ns1: {AX1} ; AXIOM(Ax1)\n",
    "no_semicolon": f"s1: {AX1} AXIOM(Ax1)\n",
    "no_steps": f"conclude: {AX1}\n",
    "bare_axiom": f"s1: {AX1} ; AXIOM Ax1\n",
    "unknown_rule": f"s1: {AX1} ; AXIOM(Ax1)\ns2: {AX1} ; FOO(s1)\n",
    "taut_parens": "s1: eps(a,b) | !eps(a,b) ; TAUT()\n",
    "mp_one_label": f"s1: {AX1} ; AXIOM(Ax1)\ns2: {AX1} ; MP(s1)\n",
    "tautconseq_empty": f"s1: {AX1} ; TAUTCONSEQ()\n",
    "subst_without_sigma": f"s1: {AX1} ; AXIOM(Ax1)\ns2: {AX1} ; SUBST(s1)\n",
    "axiom_three_args": "s1: eps(b,a) -> eps(b,b) ; AXIOM(Ax1, {a->b}, x)\n",
    "mp_empty_label": f"s1: {AX1} ; AXIOM(Ax1)\ns2: {AX1} ; MP(, s1)\n",
    "source_twice": (
        f"s1: {AX1} ; AXIOM(Ax1)\n"
        "s2: eps(b,a) -> eps(b,b) ; SUBST(s1, {a->b, a->c})\n"
    ),
}

# a script that parses and whose every step fails a different rule: TAUT,
# an unknown axiom, a schema not assumed, a later line cited, MP, SUBST and
# TAUTCONSEQ; the last line does not state the conclusion either
FAILING_STEPS = """\
assume: X := eps(a,b) -> eps(b,a)
conclude: eps(a,b) -> eps(b,a)
t1: eps(a,b) ; TAUT
t2: eps(a,b) -> eps(a,a) ; AXIOM(Ax9)
t3: eps(a,b) -> eps(a,a) ; SCHEMA(Y)
t4: eps(a,b) -> eps(a,a) ; TAUTCONSEQ(t5)
t5: eps(b,b) ; MP(t1, t2)
t6: eps(c,d) -> eps(c,c) ; SUBST(t2, {a->b})
t7: eps(b,a) ; TAUTCONSEQ(t1)
"""

ERRORS = [
    ("check-proof", "{malformed}"),
    ("check-proof", "{conclude_twice}"),
    ("check-proof", "{assume_twice}"),
    ("taut", "eps(a,"),
    ("taut", OVER_BUDGET),
    ("theorem", "A_M9"),
    ("theorem", "NoSuch"),
    ("qnt", "A_t", "NoSuch"),
    ("nontrivial", "Ax1"),
    ("check-proof", "{subst_trailing}"),
    ("theorem", "eps(a,b) & eps(c,d) & eps(e,f)"),
    ("nontrivial", CHAIN9),
    ("qnt", "A_M8", "Ax1"),
    ("theorem", "Mine", "--corpus-file", "{reserved}"),
    ("taut", "eps(a,b) eps(c,d)"),
    ("taut", "eps(eps,a)"),
    ("taut", "eps(a b)"),
    ("taut", "epsx(a,b)"),
    ("taut", "eps(a,b) $"),
    ("taut", DEEP_NOT),
    ("taut", DEEP_PARENS),
    ("taut", IFF_CHAIN),
    ("check-proof", "{subst_atom}"),
    *(("check-proof", "{" + key + "}") for key in REFUSED_SCRIPTS),
    ("taut", ""),
    ("theorem", "X", "--corpus-file", "{repeated}"),
    ("theorem", "Ax1", "--corpus-file", "{bad_name}"),
    ("nontrivial", "A_t", "--ref", "A_M8"),
]

CASES = [
    *(
        case
        for name in NAMES
        for case in (
            ("characteristic", name, "--max-pool", "3"),
            ("characteristic", name, "--max-pool", "4"),
            ("theorem", name),
            ("taut", name),
            ("nontrivial", name, "--ref", "A_t"),
        )
    ),
    *(("qnt", left, right) for left in QNT_NAMES for right in QNT_NAMES),
    *(("check-proof", "{proofs}/" + script) for script in SCRIPTS),
    ("verify",),
    ("conjectures",),
    ("matrix",),
    ("taut", "eps(a,b) | !eps(a,b)"),
    ("taut", INVALID),
    ("theorem", INVALID),
    ("theorem", SYM_PAD5),
    ("characteristic", INVALID, "--max-pool", "3"),
    ("nontrivial", "A_M8"),
    ("nontrivial", "A_t"),
    ("nontrivial", "A_S3", "--ref", "A_t-1"),
    ("characteristic", "DoubleStar"),
    ("characteristic", "A_ad1"),
    ("theorem", "Mine", "--corpus-file", "{corpus}"),
    ("matrix", "--corpus", "{corpus}"),
    ("check-proof", "{tampered}"),
    ("check-proof", "{failing_steps}"),
    # schema bodies that are a single atom
    ("theorem", "eps(a,a)"),
    ("characteristic", "eps(a,b)"),
    *ERRORS,
]


def _argvs() -> list[tuple[str, ...]]:
    return [case + extra for case in CASES for extra in ((), ("--json",))]


def _write_files(root: Path) -> dict[str, str]:
    proofs = resources.files("l1ax").joinpath("proofs")
    tampered = proofs.joinpath("s3_from_base.proof").read_text().replace(
        "eps(b,b) ; AXIOM(Ax1", "eps(b,a) ; AXIOM(Ax1"
    )
    files = {"proofs": str(proofs)}
    for key, name, text in (
        ("malformed", "malformed.proof", MALFORMED),
        ("conclude_twice", "conclude_twice.proof", CONCLUDE_TWICE),
        ("assume_twice", "assume_twice.proof", ASSUME_TWICE),
        ("subst_trailing", "subst_trailing.proof", SUBST_TRAILING),
        ("subst_atom", "subst_atom.proof", SUBST_ATOM),
        ("reserved", "reserved.schemata", RESERVED),
        ("repeated", "repeated.schemata", REPEATED),
        ("bad_name", "bad_name.schemata", BAD_NAME),
        ("tampered", "bad.proof", tampered),
        ("corpus", "mixed.schemata", CORPUS),
        ("failing_steps", "failing_steps.proof", FAILING_STEPS),
        *((key, key + ".proof", text) for key, text in REFUSED_SCRIPTS.items()),
    ):
        (root / name).write_text(text)
        files[key] = str(root / name)
    return files


def _digest(text: str, files: dict[str, str]) -> str:
    # a path printed in a message reads as its placeholder, so the digest
    # does not depend on where the files lie
    for key, path in files.items():
        text = text.replace(path, "{" + key + "}")
    return hashlib.sha256(text.encode()).hexdigest()


def _record(argv: tuple[str, ...], files: dict[str, str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.format(**files) for arg in argv])
    return [code, _digest(out.getvalue(), files), _digest(err.getvalue(), files)]


def _table(files: dict[str, str]) -> dict[str, list]:
    return {" ".join(argv): _record(argv, files) for argv in _argvs()}


def _changed(table: dict[str, list]) -> list[str]:
    """The argvs whose row differs from the committed table's."""
    expected = json.loads(DATA.read_text())
    return sorted(key for key in expected if table.get(key) != expected[key])


def working_python(minor: int) -> str | None:
    """A python3.<minor> that starts, if there is one."""
    if sys.version_info[:2] == (3, minor):
        return sys.executable
    found = shutil.which(f"python3.{minor}")
    if found is None:
        return None
    probe = subprocess.run(
        [found, "-c", f"import sys; print(sys.version_info[:2] == (3, {minor}))"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return found if probe.stdout.strip() == "True" else None


def test_the_table_covers_every_case():
    assert len(NAMES) == 30 and len(SCRIPTS) == 12
    assert len(_argvs()) == 754 + 2 * len(ERRORS) == 840
    assert len(CHAIN9.split(" & ")) == 8
    assert len(OVER_BUDGET.split(" | ")) == 31
    assert sorted(json.loads(DATA.read_text())) == sorted(map(" ".join, _argvs()))


def test_every_command_and_option_is_replayed_as_text_and_with_json():
    commands = next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert sorted(commands) == sorted(COMMANDS)
    # a command's own options and the common ones, but --help
    declared = {
        name: {o for a in parser._actions for o in a.option_strings if o.startswith("--")}
        - {"--help"}
        for name, parser in commands.items()
    }
    wanted = {
        (word, as_json)
        for name, options in declared.items()
        for word in (name, *options)
        for as_json in (False, True)
    } - {("--json", False)}
    found = {
        (word, "--json" in argv)
        for argv in _argvs()
        for word in argv
        if word == argv[0] or word in declared[argv[0]]
    }
    assert sorted(wanted - found) == []


def test_every_argv_replays_byte_identically(replayed_table):
    changed = _changed(replayed_table)
    assert not changed, changed
    # the refused inputs fail as intended, with nothing on stdout
    expected = json.loads(DATA.read_text())
    empty = hashlib.sha256(b"").hexdigest()
    for case in ERRORS:
        for argv in (case, case + ("--json",)):
            code, out, err = expected[" ".join(argv)]
            assert code == 2 and out == empty != err, argv


def pytest_generate_tests(metafunc):
    if "minor" in metafunc.fixturenames:
        # the floor pyproject declares, and the newest release
        metafunc.parametrize("minor", [10, 13])


def test_every_argv_replays_byte_identically_on_another_interpreter(minor, tmp_path):
    python = working_python(minor)
    if python is None:
        # imported here only: the replay imports this module without pytest
        import pytest

        pytest.skip(f"no working python3.{minor} on PATH")
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [
            python,
            "-c",
            "import json, pathlib, sys, test_output_identity as t;"
            " json.dump(t._table(t._write_files(pathlib.Path(sys.argv[1]))), sys.stdout)",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)]),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 0, proc.stderr
    changed = _changed(json.loads(proc.stdout))
    assert not changed, changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = _table(_write_files(Path(tmp)))
    DATA.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")

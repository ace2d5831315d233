"""Byte-identity table: exit code, stdout digest and stderr digest per argv.

tests/output_identity.json maps each argv below (joined by spaces, with the
placeholders unexpanded) to [exit code, sha256 of stdout, sha256 of stderr].
It covers every corpus name under the single-schema commands, 14 x 14 qnt
pairs, the bundled proof scripts, the corpus-wide commands and a few
refused inputs, each as text and with --json: a wider net than
tests/cli_snapshots.json for output that depends on set or dict order, such
as an order that follows string hashes or object addresses. Run it again
under another PYTHONHASHSEED to check that. Regenerate the table only for an
intended output change:

    PYTHONPATH=src python tests/test_output_identity.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

from l1ax.cli import main
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

# 31 distinct atoms over six names, one beyond the atom budget
OVER_BUDGET = " | ".join([f"eps({x},{y})" for x in "abcdef" for y in "abcdef"][:31])

MALFORMED = "s1: eps(a,b) -> eps(a,a) ; AXIOM(Ax1, {)\n"

ERRORS = [
    ("check-proof", "{malformed}"),
    ("taut", OVER_BUDGET),
    ("theorem", "NoSuch"),
    ("qnt", "A_t", "NoSuch"),
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
    *ERRORS,
]


def _argvs() -> list[tuple[str, ...]]:
    return [case + extra for case in CASES for extra in ((), ("--json",))]


def _write_files(root: Path) -> dict[str, str]:
    malformed = root / "malformed.proof"
    malformed.write_text(MALFORMED)
    proofs = resources.files("l1ax").joinpath("proofs")
    return {"malformed": str(malformed), "proofs": str(proofs)}


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


def test_the_table_covers_every_case():
    assert len(NAMES) == 30 and len(SCRIPTS) == 12
    assert len(_argvs()) == 722 + 2 * len(ERRORS)
    assert len(OVER_BUDGET.split(" | ")) == 31
    assert sorted(json.loads(DATA.read_text())) == sorted(map(" ".join, _argvs()))


def test_every_argv_replays_byte_identically(tmp_path):
    expected = json.loads(DATA.read_text())
    actual = _table(_write_files(tmp_path))
    changed = sorted(key for key in expected if actual[key] != expected[key])
    assert not changed, changed
    # the refused inputs fail as intended, with nothing on stdout
    empty = hashlib.sha256(b"").hexdigest()
    for case in ERRORS:
        for argv in (case, case + ("--json",)):
            code, out, err = expected[" ".join(argv)]
            assert code == 2 and out == empty != err, argv


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = _table(_write_files(Path(tmp)))
    DATA.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")

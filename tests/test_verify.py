"""The self-verification battery and the conjecture sweep."""

import ast
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import l1ax
from l1ax.axioms import A_T
from l1ax.characterize import characterize
from l1ax.corpus import Corpus, load_corpus
from l1ax.criteria import quasi_triviality, triviality
from l1ax.formula import SchemaEntry
from l1ax.verify import conjecture_report, run_verification

ITEM_NAMES = (
    "at-equivalence",
    "at1-equivalence",
    "m8-theorem",
    "m8-nontrivial",
    "star-quasi-trivial",
    "doublestar-quasi-trivial",
    "qt-reflexive",
    "qnt-symmetric",
    "bridge-at",
    "qt-transitivity-monotone",
    "s3-theorem",
    "s3-nontrivial-at1",
    "s3-recovers-ax2-ax3",
    "m8-characteristic",
    "quartet-characteristic",
    "quartet-nontrivial-at",
    "matrix-qnt",
    "kanai-admissible-equality",
    "scripts-check",
)


def test_full_battery_passes():
    report = run_verification()
    assert tuple(item.name for item in report.items) == ITEM_NAMES
    for item in report.items:
        assert item.passed, (item.name, item.detail)
    assert report.ok


def test_tampering_with_the_corpus_is_detected():
    text = resources.files("l1ax").joinpath("data/corpus.schemata").read_text()
    lines = {line.split(" := ")[0]: line for line in text.splitlines() if " := " in line}
    # make the second sibling identical to the first: the off-diagonal
    # matrix cells for that pair collapse to quasi-trivial
    sibling = lines["A_S1"].replace("A_S1", "A_S2", 1)
    tampered = Corpus(text.replace(lines["A_S2"], sibling), "tampered")
    assert tampered["A_S2"] == SchemaEntry.make("A_S2", load_corpus()["A_S1"].body)

    report = run_verification(tampered)
    assert not report.ok
    status = {item.name: item.passed for item in report.items}
    assert status["matrix-qnt"] is False
    # unrelated items keep passing: failures are isolated per item
    assert status["at-equivalence"] is True
    assert status["m8-theorem"] is True
    assert status["kanai-admissible-equality"] is True
    assert status["scripts-check"] is True


def test_conjecture_rows_are_complete():
    rows = conjecture_report()
    assert len(rows) == 16
    assert tuple(row.entry for row in rows) == load_corpus().conjecture_entries()
    five = ("A_M8", "A_S1", "A_S2", "A_S3N", "A_S3Nd")
    for row in rows:
        assert row.nontriviality.verdict in ("trivial", "nontrivial")
        assert tuple(row.comparisons) == five
        assert len(row.characterization.recoveries) == 3
        for rep in row.comparisons.values():
            assert rep.verdict in ("quasi-trivial", "quasi-nontrivial")


def test_conjecture_sweep_finds_the_valid_shortened_schema():
    rows = {row.entry.name: row for row in conjecture_report()}
    k1 = rows["A_k1"]
    assert k1.characterization.validity.valid
    assert k1.characterization.characteristic
    assert k1.nontriviality.verdict == "nontrivial"


def test_conjecture_verdicts_survive_cold_caches(corpus):
    rows = conjecture_report()
    l1ax.clear_caches()
    for row in rows[:4]:
        again = triviality(row.entry, A_T)
        assert again.verdict == row.nontriviality.verdict
    sample = rows[0]
    for name, rep in sample.comparisons.items():
        fresh = quasi_triviality(sample.entry, corpus[name])
        assert fresh.verdict == rep.verdict
    fresh_char = characterize(sample.entry)
    assert fresh_char.characteristic == sample.characterization.characteristic


CORPUS_FILE = Path(l1ax.__file__).parent / "data" / "corpus.schemata"
M8_FAILURES = ("m8-theorem", "star-quasi-trivial", "doublestar-quasi-trivial", "m8-characteristic")


def run_verify(*python_flags, corpus_file=None):
    argv = [sys.executable, *python_flags, "-m", "l1ax.cli", "verify"]
    if corpus_file is not None:
        argv += ["--corpus-file", str(corpus_file)]
    env = {**os.environ, "PYTHONPATH": str(Path(l1ax.__file__).parents[1])}
    return subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env)


def test_tampered_corpus_fails_the_same_items_under_dash_o(tmp_path):
    # the last atom of A_M8 reads eps(b,b): its derivation and its
    # companions' witnesses no longer match
    text = CORPUS_FILE.read_text()
    line = next(x for x in text.splitlines() if x.startswith("A_M8 :="))
    assert line.endswith("eps(b,a))")
    tampered = tmp_path / "tampered.schemata"
    tampered.write_text(text.replace(line, line[: -len("eps(b,a))")] + "eps(b,b))"))

    plain = run_verify(corpus_file=tampered)
    optimized = run_verify("-O", corpus_file=tampered)
    assert plain.returncode == optimized.returncode == 1
    failed = [x for x in plain.stdout.splitlines() if x.startswith("FAIL ")]
    assert [x.split(":")[0][len("FAIL ") :] for x in failed] == list(M8_FAILURES)
    assert all(": VerificationFailure: " in x for x in failed)
    assert optimized.stdout == plain.stdout


def test_bundled_battery_reads_the_same_under_dash_o():
    plain = run_verify()
    optimized = run_verify("-O")
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout
    assert plain.stdout.endswith("result: ok\n")


def test_the_library_has_no_assert_statements():
    # python -O strips asserts, so no library check may rely on one
    modules = sorted(Path(l1ax.__file__).parent.rglob("*.py"))
    assert len(modules) >= 14
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path

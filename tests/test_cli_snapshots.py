"""Byte-for-byte gate on the command line: exit code and stdout digest per argv.

tests/cli_snapshots.json maps each argv below (joined by spaces, with the
placeholders unexpanded) to [exit code, sha256 of stdout]. Regenerate it
only for an intended output change:

    PYTHONPATH=src python tests/test_cli_snapshots.py

The same table is checked once more under Python 3.10, the floor pyproject
declares, when a python3.10 that starts is on PATH (under pyenv, list a 3.10
in PYENV_VERSION after the main version); that interpreter needs no pytest.
"""

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

import pytest

from l1ax.cli import main

DATA = Path(__file__).with_name("cli_snapshots.json")

# Ax1 has two variables, so its matrix row and column are inapplicable cells.
CORPUS = (
    "M := eps(a,b) & eps(c,d) -> eps(a,a) & eps(c,c)"
    " & (eps(b,c) -> eps(a,d) & eps(b,a))\n"
    "N := eps(a,b) & eps(c,d) -> eps(a,a) & (eps(b,c) -> eps(a,d) & eps(b,a))\n"
    "Ax1 := eps(a,b) -> eps(a,a)\n"
)

INVALID = "eps(a,b) -> eps(b,a)"

# INVALID padded with tautologies on three fresh names: a pool-5 refutation
SYM_PAD5 = "(eps(a,b) -> eps(b,a)) & (eps(c,d) | !eps(c,d)) & (eps(e,e) | !eps(e,e))"

CASES = [
    ("taut", "eps(a,b) | !eps(a,b)"),
    ("taut", INVALID),
    ("taut", "eps(a,"),
    ("theorem", "A_M8"),
    ("theorem", INVALID),
    ("theorem", "A_M9"),
    ("theorem", "Mine", "--corpus-file", "{corpus}"),
    ("theorem", "DoubleStar"),
    ("theorem", SYM_PAD5),
    ("nontrivial", "A_M8"),
    ("nontrivial", "A_t"),
    ("nontrivial", "A_S3", "--ref", "A_t-1"),
    ("nontrivial", "Ax1"),
    ("qnt", "Star", "DoubleStar"),
    ("qnt", "DoubleStar", "A_M8"),
    ("qnt", "A_S1", "A_S2"),
    ("qnt", "Star", "A_M8"),
    ("matrix",),
    ("matrix", "--corpus", "{corpus}"),
    ("characteristic", "A_M8", "--max-pool", "3"),
    ("characteristic", "A_S3", "--max-pool", "3"),
    ("characteristic", "A_S3", "--max-pool", "4"),
    ("characteristic", INVALID, "--max-pool", "3"),
    ("characteristic", "DoubleStar"),
    ("characteristic", "A_ad1"),
    ("check-proof", "{good}"),
    ("check-proof", "{tampered}"),
    ("verify",),
    ("conjectures",),
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("snapshots")
    return _write_files(root)


def _write_files(root: Path) -> dict[str, str]:
    good = resources.files("l1ax").joinpath("proofs/s3_from_base.proof")
    tampered = root / "bad.proof"
    tampered.write_text(
        good.read_text().replace("eps(b,b) ; AXIOM(Ax1", "eps(b,a) ; AXIOM(Ax1")
    )
    corpus = root / "mixed.schemata"
    corpus.write_text(CORPUS + "Mine := " + INVALID + "\n")
    return {"good": str(good), "tampered": str(tampered), "corpus": str(corpus)}


def _argvs() -> list[tuple[str, ...]]:
    return [case + extra for case in CASES for extra in ((), ("--json",))]


def _snapshot(argv: tuple[str, ...], files: dict[str, str]) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([arg.format(**files) for arg in argv])
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def test_every_case_is_recorded():
    assert sorted(json.loads(DATA.read_text())) == sorted(map(" ".join, _argvs()))


@pytest.mark.parametrize("argv", _argvs(), ids=" ".join)
def test_output_matches_the_snapshot(argv, files):
    assert _snapshot(argv, files) == json.loads(DATA.read_text())[" ".join(argv)]


# replays the snapshot argvs in one process of the declared floor, which has
# no pytest: argvs in on stdin, [exit code, digest] pairs out on stdout
FLOOR_SCRIPT = """
import contextlib, hashlib, io, json, sys
from l1ax.cli import main
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
json.dump(results, sys.stdout)
"""


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


def test_every_case_matches_the_snapshot_on_python_3_10(files):
    python = working_python(10)  # pyproject declares >=3.10
    if python is None:
        pytest.skip("no working python3.10 on PATH")
    argvs = _argvs()
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [python, "-c", FLOOR_SCRIPT],
        input=json.dumps([[arg.format(**files) for arg in argv] for argv in argvs]),
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    expected = json.loads(DATA.read_text())
    assert json.loads(proc.stdout) == [expected[" ".join(argv)] for argv in argvs]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_files(Path(tmp))
        table = {" ".join(argv): _snapshot(argv, paths) for argv in _argvs()}
    DATA.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")

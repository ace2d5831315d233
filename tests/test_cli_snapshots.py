"""Per-argv view of the byte-identity table.

Each argv of tests/output_identity.json is its own test here, so a changed
row fails under that argv's name. The rows come from the one in-process
replay that tests/test_output_identity.py also checks; this module keeps
no table and no recorder of its own, and that module regenerates the table.
"""

import json
import re

import pytest

from test_output_identity import DATA, _argvs

RECORDED = json.loads(DATA.read_text())


def test_every_case_is_recorded():
    # each row is [exit code, sha256 of stdout, sha256 of stderr]
    digest = re.compile("[0-9a-f]{64}")
    malformed = [
        key
        for key, row in RECORDED.items()
        if not (
            len(row) == 3
            and row[0] in (0, 1, 2)
            and all(digest.fullmatch(d) for d in row[1:])
        )
    ]
    assert malformed == []


@pytest.mark.parametrize("argv", _argvs(), ids=" ".join)
def test_output_matches_the_snapshot(argv, replayed_table):
    key = " ".join(argv)
    assert replayed_table[key] == RECORDED.get(key)

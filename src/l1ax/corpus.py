"""The bundled schema corpus and its metadata.

Thirty entries: the base axiom schemata, their single-schema packagings, the
established characteristic schemata, the two starred companions and sixteen
conjectured schemata. Formulas live in data/corpus.schemata; which names
are established and which conjectured is recorded here.

A Corpus parses an entry's formula the first time the entry is read, so a
request that names one bundled schema parses one; its names come from
scanning the file. A schema file given by path has every entry read at
load, so a bad line fails every request.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

from .formula import InputError, SchemaEntry
from .substitution import is_reserved_fresh_name
from .syntax import ParseError, parse_schema_entry, parse_schema_file, scan_schema_file

ESTABLISHED = (
    "Ax1",
    "Ax2",
    "Ax3",
    "Ax3s",
    "A_t",
    "A_t-1",
    "A_M8",
    "A_S1",
    "A_S2",
    "A_S3",
    "A_S3N",
    "A_S3Nd",
    "Star",
    "DoubleStar",
)

CONJECTURES = (
    "A_k1",
    "A_k2",
    "A_k3",
    "A_ad1",
    "A_ad2",
    "A_ad6",
    "A_ad6_2",
    "A_ad7",
    "A_ad7_2",
    "A_ad8",
    "A_S1ex1",
    "A_S1ex2",
    "A_S1ex3",
    "A_S2ex1",
    "A_S2ex2",
    "A_S2ex3",
)

# the five schemata of the pairwise quasi-nontriviality theorem
ESTABLISHED_FIVE = ("A_M8", "A_S1", "A_S2", "A_S3N", "A_S3Nd")


def validate_entries(entries: dict[str, SchemaEntry], source: str) -> None:
    for entry in entries.values():
        bad = [v for v in entry.variables if is_reserved_fresh_name(v)]
        if bad:
            raise InputError(
                f"{source}: schema {entry.name!r} uses reserved fresh variable"
                f" names {bad}; the pools y1.., u1.., v1.. are reserved for"
                " generated substitutions"
            )


def _parse_whole(text: str, source: str) -> None:
    """Parse every entry of a schema file line by line, then validate them:
    the first error of the whole file is the one raised."""
    validate_entries(parse_schema_file(text), source)


class UnknownSchemaName(KeyError):
    """A name that no entry of the corpus has: a user error, unlike a
    KeyError raised by a fault of the program."""

    def __str__(self) -> str:
        return self.args[0]


class Corpus:
    """The named entries of one schema file, in file order, each parsed and
    validated when it is first read and kept for the life of the corpus.

    The names come from scanning the file when the corpus is made, so names,
    membership, length and the unknown-name error parse no formula. An error
    is raised as _parse_whole raises it, as the first error of the whole
    file, whichever entry is read first. Iteration yields the entries, and
    so parses them all.
    """

    __slots__ = ("_text", "_source", "_lines", "_parsed")

    def __init__(self, text: str, source: str):
        self._text = text
        self._source = source
        self._parsed: dict[str, SchemaEntry] = {}
        try:
            self._lines = {scanned[0]: scanned for scanned in scan_schema_file(text)}
        except ParseError:
            _parse_whole(text, source)
            raise

    def __getitem__(self, name: str) -> SchemaEntry:
        entry = self._parsed.get(name)
        if entry is None:
            scanned = self._lines.get(name)
            if scanned is None:
                raise UnknownSchemaName(
                    f"unknown schema name {name!r}; known names: " + ", ".join(self._lines)
                )
            try:
                entry = parse_schema_entry(*scanned)
                validate_entries({name: entry}, self._source)
            except InputError:
                _parse_whole(self._text, self._source)
                raise
            self._parsed[name] = entry
        return entry

    def __contains__(self, name: str) -> bool:
        return name in self._lines

    def __iter__(self) -> Iterator[SchemaEntry]:
        return (self[name] for name in self._lines)

    def __len__(self) -> int:
        return len(self._lines)

    def names(self) -> tuple[str, ...]:
        return tuple(self._lines)

    def established_five(self) -> tuple[SchemaEntry, ...]:
        return tuple(self[name] for name in ESTABLISHED_FIVE)

    def conjecture_entries(self) -> tuple[SchemaEntry, ...]:
        return tuple(self[name] for name in CONJECTURES if name in self._lines)


def load_corpus(path: str | Path | None = None) -> Corpus:
    """The bundled corpus, its entries parsed as they are read, or any schema
    file in the same format, every entry read before it is returned so that
    a bad file fails whichever entries are used. Files are read as UTF-8
    whatever the locale."""
    if path is None:
        text = (Path(__file__).with_name("data") / "corpus.schemata").read_text(encoding="utf-8")
        return Corpus(text, "bundled corpus")
    corpus = Corpus(Path(path).read_text(encoding="utf-8"), str(path))
    for _ in corpus:
        pass
    return corpus

"""Command-line interface.

Exit codes: 0 when the requested verdict was computed (whatever it is),
1 when a proof check or the verification battery reports failures,
2 for usage problems — parse errors, unknown names, a comparison the
criteria do not cover, an input beyond a size limit, a file that is not
UTF-8 text — or a standard output that cannot be written (a closed pipe, a
full disk, an encoding that lacks a character of the answer), and 3 for an
internal fault: any other exception, such as a witness that fails its
replay, a KeyError but an unknown name or a ValueError but an InputError,
reported on one stderr line with nothing on stdout.
Output is deterministic: two runs of the same command are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import sys
from collections.abc import Callable
from pathlib import Path
from types import ModuleType

from . import reports
from .corpus import Corpus, UnknownSchemaName, load_corpus
from .formula import InputError, SchemaEntry
from .semantics import is_tautology
from .syntax import is_valid_schema_name, parse_formula, print_formula


def _registered(name: str) -> ModuleType:
    """The package's module `name`, put in sys.modules now but run only at
    its first attribute read, so each command runs only the modules it uses;
    a tool that reads every loaded namespace, as the benchmark's tracer does
    to rebind functions, runs them all. The lazy loader of Python 3.10 and
    3.11 is not thread-safe, and the command line runs in one thread."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[full])
        setattr(sys.modules[__package__], name, sys.modules[full])
    return sys.modules[full]


characterize = _registered("characterize")
criteria = _registered("criteria")
decision = _registered("decision")
proofs = _registered("proofs")
verify = _registered("verify")

Loader = Callable[[], Corpus]


def _resolve(text: str, corpus: Loader) -> SchemaEntry:
    """A corpus name if it matches one exactly, else parsed formula text.

    Every formula contains "eps(", so text shaped like a schema name is
    never a formula: it names a corpus entry or none. Every corpus key
    has that shape, so only such text needs the corpus read.
    """
    if not is_valid_schema_name(text):
        body = parse_formula(text)
        return SchemaEntry.make(print_formula(body), body)
    return corpus()[text]


# name -> (help, arguments as (name or flag, add_argument options), run);
# run returns only the output asked for (under --json the JSON payload,
# reports unlowered and without "command", else the text) and the exit code
Outcome = tuple[dict | str, int]
Run = Callable[[argparse.Namespace, Loader], Outcome]
COMMANDS: dict[str, tuple[str, tuple[tuple[str, dict], ...], Run]] = {}


def _command(name: str, help_text: str, *arguments: tuple[str, dict]) -> Callable:
    def register(run: Run) -> Run:
        COMMANDS[name] = (help_text, arguments, run)
        return run

    return register


_FORMULA = ("formula", dict(help="formula text or corpus schema name"))
_SCHEMA = ("schema", dict(help="schema name or formula text"))


@_command("taut", "classical tautology check", _FORMULA)
def _taut(args: argparse.Namespace, corpus: Loader) -> Outcome:
    body = _resolve(args.formula, corpus).body
    verdict = is_tautology(body)
    if args.json:
        return {"formula": print_formula(body), **reports.members(verdict)}, 0
    return reports.taut_text(verdict), 0


@_command("theorem", "validity over all admissible valuations", _FORMULA)
def _theorem(args: argparse.Namespace, corpus: Loader) -> Outcome:
    body = _resolve(args.formula, corpus).body
    verdict = decision.is_theorem(body)
    if args.json:
        return {"formula": print_formula(body), **reports.members(verdict)}, 0
    return reports.theorem_text(verdict), 0


@_command(
    "nontrivial",
    "triviality of a schema against a reference packaging",
    _SCHEMA,
    (
        "--ref",
        dict(default="A_t", help="reference schema name or formula (default A_t)"),
    ),
)
def _nontrivial(args: argparse.Namespace, corpus: Loader) -> Outcome:
    subject = _resolve(args.schema, corpus)
    reference = _resolve(args.ref, corpus)
    report = criteria.triviality(subject, reference)
    return reports.members(report) if args.json else reports.triviality_text(report), 0


@_command(
    "qnt",
    "quasi-triviality comparison of two schemata",
    ("left", _SCHEMA[1]),
    ("right", _SCHEMA[1]),
)
def _qnt(args: argparse.Namespace, corpus: Loader) -> Outcome:
    left = _resolve(args.left, corpus)
    right = _resolve(args.right, corpus)
    report = criteria.quasi_triviality(left, right)
    return reports.members(report) if args.json else reports.qnt_text(report), 0


@_command(
    "matrix",
    "pairwise quasi-triviality matrix (default: the established five)",
    (
        "--corpus",
        dict(metavar="FILE", help="schema file whose entries form the matrix"),
    ),
)
def _matrix(args: argparse.Namespace, corpus: Loader) -> Outcome:
    if args.corpus is not None:
        entries = tuple(load_corpus(Path(args.corpus)))
    else:
        entries = corpus().established_five()
    cells = criteria.qnt_matrix(entries)
    if args.json:
        summaries = {f"{a}|{b}": reports.qnt_summary(c) for (a, b), c in cells.items()}
        return {"entries": [e.name for e in entries], "cells": summaries}, 0
    return reports.matrix_text(cells), 0


@_command(
    "characteristic",
    "validity plus recovery of the three axiom schemata",
    _SCHEMA,
    (
        "--max-pool",
        dict(
            type=int,
            default=4,
            choices=(3, 4),
            help="names in the grid of reported counterexamples (default 4)",
        ),
    ),
)
def _characteristic(args: argparse.Namespace, corpus: Loader) -> Outcome:
    entry = _resolve(args.schema, corpus)
    report = characterize.characterize(entry, max_pool=args.max_pool)
    return reports.members(report) if args.json else reports.characterization_text(report), 0


@_command(
    "check-proof",
    "check a proof script file",
    ("file", dict(help="path to a .proof script")),
)
def _check_proof(args: argparse.Namespace, corpus: Loader) -> Outcome:
    result = proofs.check_proof(proofs.load_proof_file(args.file))
    output = reports.members(result) if args.json else reports.proof_check_text(result)
    return output, 0 if result.ok else 1


@_command("verify", "re-derive every established claim against the corpus")
def _verify(args: argparse.Namespace, corpus: Loader) -> Outcome:
    report = verify.run_verification(corpus())
    output = reports.members(report) if args.json else reports.verification_text(report)
    return output, 0 if report.ok else 1


@_command("conjectures", "full verdict sweep over the conjectured schemata")
def _conjectures(args: argparse.Namespace, corpus: Loader) -> Outcome:
    rows = verify.conjecture_report(corpus())
    if args.json:
        return {"rows": [reports.conjecture_summary(row) for row in rows]}, 0
    return reports.conjecture_text(rows), 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: a constant of the
    program, like the compiled scanner, so clear_caches() keeps it."""
    parser = argparse.ArgumentParser(
        prog="l1ax",
        description=(
            "Decision procedures for single axiom schemata of the "
            "propositional ontology L1: tautology and validity checking, "
            "triviality and quasi-triviality comparisons, axiom recovery, "
            "and a machine-checked regression battery."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit the JSON report shape"
    )
    common.add_argument(
        "--corpus-file",
        metavar="FILE",
        default=None,
        help="use a schema file instead of the bundled corpus for name lookup",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _corpus_loader(path: str | None) -> Loader:
    """The corpus of one request: the bundled one is read on first use, at
    most once, and parses each entry the request reads when it first reads
    it; a --corpus-file is loaded at once with every entry read, so a bad
    file fails every command."""
    if path is not None:
        corpus = load_corpus(Path(path))
        return lambda: corpus
    return functools.cache(load_corpus)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        output, code = COMMANDS[args.command][2](args, _corpus_loader(args.corpus_file))
        if args.json:
            output = reports.json_document({"command": args.command, **output})
        try:
            print(output, flush=True)
        except OSError:
            # a closed pipe or a full disk: at exit the interpreter would fail
            # again on the text still buffered, and exit 120
            sys.stdout = None
            raise
        except UnicodeEncodeError as exc:
            # a character that the encoding of stdout lacks: the answer is
            # encoded whole before any of it is written, so stdout stays empty
            print(f"error: {exc}", file=sys.stderr)
            return 2
    except (OSError, UnicodeDecodeError, UnknownSchemaName, InputError) as exc:
        # parse errors, inapplicable criteria and budget errors are InputErrors;
        # str() of an OSError names the path; a file that is not UTF-8 cannot
        # be read
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault of the program: a failed replay, RecursionError, any
        # KeyError but an unknown name or ValueError but an InputError, and
        # every other exception
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())

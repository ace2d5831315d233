"""No memo outlives l1ax.clear_caches(), except the program's constants.

Each `queries` request of the benchmark, and every oracle test that calls
clear_caches(), assumes it starts cold. This scans the globals of every
module of the package for functools cache wrappers and module-level
containers that act as caches, fills them by running commands, and checks
that clear_caches() empties each one.
"""

import importlib
import pkgutil
from pathlib import Path

import l1ax
from l1ax.cli import main

# built once per process and the same for every request. formula._ATOMS,
# the atom intern table, must never be cleared: an atom built after a
# clearing would be unequal to an equal one still alive
PROGRAM_CONSTANTS = {"cli.build_parser", "formula._ATOMS"}

ARGVS = [
    ["taut", "eps(a,b) -> eps(b,a)"],
    ["theorem", "A_M8"],
    ["nontrivial", "A_M8"],
    ["qnt", "A_S1", "A_S2"],
    ["matrix"],
    ["characteristic", "A_S3", "--max-pool", "3"],
    ["check-proof", str(Path(l1ax.__file__).with_name("proofs") / "s3_from_base.proof")],
]


def module_globals():
    """id -> (object, its qualified names) over every module's globals,
    dunders aside."""
    found = {}
    for info in pkgutil.iter_modules(l1ax.__path__):
        module = importlib.import_module(f"l1ax.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            found.setdefault(id(value), (value, set()))[1].add(f"{info.name}.{name}")
    return found


def is_cache_wrapper(value):
    return callable(value) and hasattr(value, "cache_info") and hasattr(value, "cache_clear")


def size(value):
    return value.cache_info().currsize if is_cache_wrapper(value) else len(value)


def test_clear_caches_empties_every_memo_but_the_program_constants(capsys):
    l1ax.clear_caches()
    found = module_globals()
    containers = {
        key: len(value)
        for key, (value, _) in found.items()
        if isinstance(value, (dict, list, set)) and not isinstance(value, type)
    }
    for argv in ARGVS:
        assert main(argv) == 0, argv
    capsys.readouterr()
    caches = {}
    for key, (value, names) in found.items():
        named_cache = any("CACHE" in n.rsplit(".", 1)[1] for n in names)
        # a constant filled by earlier requests of the process need not grow
        constant = bool(PROGRAM_CONSTANTS & names)
        grown = key in containers and len(value) > containers[key]
        if is_cache_wrapper(value) or (
            key in containers and (named_cache or constant or grown)
        ):
            caches[", ".join(sorted(names))] = value
    populated = {names for names, value in caches.items() if size(value)}
    for expected in ("proofs._directive_index", "semantics.compile_schema"):
        assert any(expected in names.split(", ") for names in populated), expected

    l1ax.clear_caches()
    survivors = {names for names, value in caches.items() if size(value)}
    constants = {names for names in survivors if PROGRAM_CONSTANTS & set(names.split(", "))}
    assert survivors == constants
    assert {n for names in constants for n in names.split(", ")} >= PROGRAM_CONSTANTS

"""Every public module-level name of the package is used by the package.

A public function that only the tests call is a second way to compute
what the program already computes; the project keeps such slow paths in
tests/oracles.py. This parses every module of l1ax and requires each
public module-level function, class and constant, and each public method
or property of a module-level class, to be loaded somewhere in the
package: read as a name or an attribute, or imported by a module other
than l1ax/__init__, whose imports load nothing (its attribute loads
count). Dunder methods are exempt. A method is matched by its name alone,
so it passes when any attribute of that name is loaded. The package itself
re-exports nothing: a fresh `import l1ax` binds no public name but
clear_caches and loads none of its modules. Only semantics loads atom_tile
or ATOM_BUDGET: every table takes its valuation space from
semantics.tile_space.

It also checks that importing l1ax.cli puts in sys.modules every module the
benchmark's tracer wraps: the tracer rebinds functions in the namespaces
listed when it is installed, so a module imported later would go untraced.
Five of them are registered to run at their first use, and a fresh
interpreter per command pins which modules' code each command runs. Each
traced attribute must exist too, as must the cache statistics the tracer reads
after each op, so renaming a traced function fails here first. The same fresh
import must add none of the standard modules in SLOW_AT_START_UP, which
every command would pay for, on this interpreter and on each of Python
3.10, 3.12 and 3.13 that starts here.
"""

import ast
import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import l1ax
from test_output_identity import working_python

PACKAGE = Path(l1ax.__file__).resolve().parent

# read only from outside the package
ALLOWED = {
    "proofs.derived_conclusions": "perfbench/tracer.py wraps it by name, "
    "and it is the oracle of derivation_of",
    "corpus.ESTABLISHED": "perfbench/test_perfbench.py imports it",
    "characterize.recovery_script": "the proof script of a recovery; ROADMAP "
    "item 1 generalises it for derives",
}


def definitions(tree):
    """Public names bound at module level by def, class or assignment, and
    the public methods and properties of module-level classes, as
    Class.name."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def loads(tree, imports=True):
    """Names the module loads, as names or attributes, and, if imports,
    names it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif imports and isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def module_trees():
    """module name -> parsed source, for every module of the package."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_public_name_is_loaded_in_the_package():
    trees = module_trees()
    loaded = {
        name for module, tree in trees.items() for name in loads(tree, module != "__init__")
    }
    orphans = sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in definitions(tree)
        if name.rsplit(".", 1)[-1] not in loaded
    )
    assert orphans == sorted(ALLOWED)


def test_only_semantics_lays_out_a_valuation_space():
    # every table takes its tiles, mask, cut and atom budget from
    # semantics.tile_space, so no other module builds a tile or reads the budget
    laid_out = {"atom_tile", "ATOM_BUDGET"}
    users = sorted(
        f"{module}.{name}"
        for module, tree in module_trees().items()
        if module != "semantics"
        for name in laid_out.intersection(loads(tree))
    )
    assert users == []


# not needed to answer a command: records compile their own methods and so
# need neither dataclasses nor inspect, nor copy or pickle unless they are
# copied; only --json needs json; the bundled data are read as plain files;
# annotations are never evaluated and collections.abc names the few
# aliases, so typing is not needed either
SLOW_AT_START_UP = {
    "copy",
    "dataclasses",
    "importlib.resources",
    "inspect",
    "json",
    "pickle",
    "typing",
}


def printed_by(python, code, *args):
    """The stdout of code run by python in a fresh interpreter, with args as
    its sys.argv[1:]."""
    return subprocess.run(
        [python, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        check=True,
    ).stdout


def added_by_importing_the_cli(python):
    """The modules that a fresh `import l1ax.cli` adds to sys.modules."""
    return set(
        printed_by(
            python,
            "import sys; before = set(sys.modules); import l1ax.cli;"
            " print(*sorted(set(sys.modules) - before))",
        ).split()
    )


def test_importing_the_package_loads_none_of_its_modules():
    printed = printed_by(
        sys.executable,
        "import sys; import l1ax;"
        " print(*sorted(m for m in sys.modules if m.startswith('l1ax.')));"
        " print(*sorted(n for n in vars(l1ax) if not n.startswith('_')));"
        " l1ax.clear_caches()",
    )
    assert printed == "\nclear_caches\n"


def tracer_layers():
    """perfbench/tracer.py's LAYERS: layer name -> (module, attribute)."""
    tracer = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tracer.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]
    )


def test_importing_the_cli_loads_every_traced_module():
    traced = sorted({module for module, _ in tracer_layers().values()})
    added = added_by_importing_the_cli(sys.executable)
    assert [module for module in traced if module not in added] == []
    assert sorted(added & SLOW_AT_START_UP) == []


def test_every_traced_layer_resolves_to_an_attribute():
    for module_name, attr in tracer_layers().values():
        module = importlib.import_module(module_name)
        if attr == "*_text":
            found = [getattr(module, n) for n in dir(module) if n.endswith("_text")]
        else:
            found = [functools.reduce(getattr, attr.split("."), module)]
        assert found and all(map(callable, found)), (module_name, attr)
    criteria = importlib.import_module("l1ax.criteria")
    assert callable(criteria.is_nontrivial_standard.cache_info)


@pytest.mark.parametrize("minor", [10, 12, 13])
def test_importing_the_cli_adds_no_slow_module_on_other_interpreters(minor):
    python = working_python(minor)
    if python is None:
        pytest.skip(f"no working python3.{minor} on PATH")
    assert sorted(added_by_importing_the_cli(python) & SLOW_AT_START_UP) == []


# the modules that l1ax.cli registers in sys.modules to run at their first
# use, and the ones that each command runs beyond those that importing
# l1ax.cli runs: axioms is registered by none, and runs as an ordinary import
# of decision, criteria, characterize and proofs
REGISTERED = {"characterize", "criteria", "decision", "proofs", "verify"}
CRITERIA = {"axioms", "criteria", "decision"}
RUN_BY_COMMAND = {
    "taut": set(),
    "theorem": {"axioms", "decision"},
    "characteristic": {"axioms", "characterize", "decision", "proofs"},
    "check-proof": {"axioms", "proofs"},
    "qnt": CRITERIA,
    "nontrivial": CRITERIA,
    "matrix": CRITERIA,
    "verify": REGISTERED | {"axioms"},
    "conjectures": REGISTERED | {"axioms"},
}
IMPORTED = {"cli", "corpus", "formula", "reports", "semantics", "substitution", "syntax"}

# prints main's exit code, if it ran a command, then the package's modules
# whose code ran: a module's namespace gets __builtins__ when its code runs,
# and a read through object.__getattribute__ does not run a registered module
RAN = """\
import contextlib, io, sys
import l1ax.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = l1ax.cli.main(sys.argv[1:])
    print(code)
print(*sorted(
    name[len("l1ax."):] for name, module in sys.modules.items()
    if name.startswith("l1ax.") and "__builtins__" in object.__getattribute__(module, "__dict__")
))
"""


def test_every_command_has_its_modules_pinned():
    from l1ax.cli import COMMANDS

    assert sorted(RUN_BY_COMMAND) == sorted(COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("taut", "eps(a,b) -> eps(b,a)"),
        ("theorem", "A_M8"),
        ("theorem", "A_M8", "--json"),
        ("characteristic", "A_S3"),
        ("characteristic", "A_S3", "--json"),
        ("check-proof", str(PACKAGE / "proofs" / "s3_from_base.proof")),
        ("qnt", "A_S1", "A_S2", "--json"),
        ("nontrivial", "A_M8"),
        ("matrix",),
        ("matrix", "--json"),
        ("verify",),
        ("conjectures", "--json"),
    ],
    ids=lambda argv: " ".join(Path(a).name for a in argv) or "import alone",
)
def test_each_command_runs_only_its_own_modules(argv):
    lines = printed_by(sys.executable, RAN, *argv).splitlines()
    if argv:
        assert lines.pop(0) == "0"
    ran = set(lines[0].split())
    assert ran == IMPORTED | (RUN_BY_COMMAND[argv[0]] if argv else set())

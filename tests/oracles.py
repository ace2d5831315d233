"""Slow reference paths the tests compare the program against.

Each one builds what the program only computes implicitly: every instance
of a schema as a formula, every padded bijection as a Substitution, every
set bit of a mask, each admissible atom tile one valuation at a time. They
follow the definitions on formulas, through Substitution.apply, pointwise
evaluation and are_equivalent, and decide the comparison's orientation
themselves, so the sweep kernel, the instance tabler and the admissible
enumeration are each checked against a path they do not share.
are_equivalent itself is checked against one table of the desugared Iff.
The fused table compiler is checked against one closure per formula node,
and the one-compile entailment against an atom walk and a table per formula.
The one-pass JSON writer is checked against the two passes it replaced: a
tree of dicts and lists first, then that tree's text.
"""

import itertools
from json.encoder import encode_basestring_ascii

from l1ax.criteria import InapplicablePair
from l1ax.formula import Atom, Formula, Iff, Not, Or, Record, SchemaEntry, atoms
from l1ax.semantics import (
    SemanticsVerdict,
    Valuation,
    are_equivalent,
    evaluate,
    full_mask,
    is_tautology,
    lowest_set_bit,
    truth_table,
)
from l1ax.substitution import (
    FRESH_QNT_LEFT,
    FRESH_QNT_RIGHT,
    FRESH_TRIVIALITY,
    CandidateMap,
    Substitution,
)
from l1ax.syntax import print_formula


def all_instances(entry, pool):
    """Every instance of entry with its variables drawn from pool, repeats
    allowed, in itertools.product order."""
    return [
        Substitution.of(dict(zip(entry.variables, targets))).apply(entry.body)
        for targets in itertools.product(pool, repeat=entry.arity)
    ]


def padded_bijections(source_vars, target_vars, fresh_prefix):
    """Every bijection of source_vars onto target_vars followed by the first
    fresh names prefix1, prefix2, ... that neither side uses, with rho in
    lexicographic order, so the identity permutation comes first."""
    if len(source_vars) < len(target_vars):
        raise ValueError(
            f"need at least {len(target_vars)} source variables, got {len(source_vars)}"
        )
    used = set(source_vars) | set(target_vars)
    fresh = (f"{fresh_prefix}{i}" for i in itertools.count(1))
    unused = (name for name in fresh if name not in used)
    targets = [*target_vars, *itertools.islice(unused, len(source_vars) - len(target_vars))]
    for perm in itertools.permutations(range(len(targets))):
        sigma = Substitution.of({source_vars[s]: targets[i] for i, s in enumerate(perm)})
        yield CandidateMap(rho=tuple(s + 1 for s in perm), sigma=sigma)


def triviality_maps(schema_vars, reference_vars):
    """The n! candidate substitutions of the triviality criterion."""
    return padded_bijections(schema_vars, reference_vars, FRESH_TRIVIALITY)


def comparison_maps(left_vars, right_vars):
    """The case and every candidate map of the quasi-triviality comparison
    of left vs right. Case 1 (left no longer than right) substitutes the
    right schema's variables onto the left's plus u-padding, case 2 the
    left's onto the right's plus v-padding."""
    if len(left_vars) <= len(right_vars):
        return 1, list(padded_bijections(right_vars, left_vars, FRESH_QNT_LEFT))
    return 2, list(padded_bijections(left_vars, right_vars, FRESH_QNT_RIGHT))


def qnt_bodies(report):
    """The substituted and the compared body of a quasi-triviality report."""
    if report.case_used == 1:
        return report.right.body, report.left.body
    return report.left.body, report.right.body


def certify_refutations(report, source_body, target_body):
    """Replay every reported refutation and require a genuine disagreement
    at the lowest counter where the two sides differ."""
    for ref in report.refutations:
        image = ref.sigma.apply(source_body)
        assert evaluate(image, ref.valuation) == ref.substituted_value
        assert evaluate(target_body, ref.valuation) == ref.target_value
        assert ref.substituted_value != ref.target_value
        recomputed = are_equivalent(image, target_body)
        assert not recomputed.holds
        assert recomputed.witness.counter == ref.valuation.counter


def iff_equivalence(left, right):
    """Tautological equivalence as one table of Iff(left, right), which
    holds each side twice; the witness is its lowest falsifying counter."""
    return is_tautology(Iff(left, right))


def iter_set_bits(mask):
    """The indices of the set bits of a non-negative mask, ascending; a
    byte at a time, so a 2^25-bit mask costs no quadratic shifting."""
    if mask < 0:
        raise ValueError("negative mask")
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    for byte_index, byte in enumerate(data):
        while byte:
            low = byte & -byte
            yield byte_index * 8 + low.bit_length() - 1
            byte ^= low


def admissible_tiles(counters, atom_count):
    """Tile j of an admissible enumeration, one valuation at a time: bit r
    is set iff atom j is true (counter bit j clear) in valuation r."""
    return tuple(
        sum(1 << r for r, c in enumerate(counters) if not c >> j & 1)
        for j in range(atom_count)
    )


def _node_closure(f, order):
    if isinstance(f, Atom):
        i = order.setdefault(f, len(order))
        return lambda t, full: t[i]
    if isinstance(f, Not):
        operand = _node_closure(f.operand, order)
        return lambda t, full: full ^ operand(t, full)
    if isinstance(f, Or):
        left = _node_closure(f.left, order)
        right = _node_closure(f.right, order)
        return lambda t, full: left(t, full) | right(t, full)
    raise TypeError(f"not a formula node: {f!r}")


def node_compile(formula):
    """compile_formula with one closure and one big-integer operation per
    Not and Or node: the formula's atoms in first-occurrence order and its
    Table."""
    order = {}
    table = _node_closure(formula, order)
    return tuple(order), table


def merged_atom_order(formulas):
    """The formulas' atoms in first-occurrence order across them, by one
    atom walk each: the order entails and are_equivalent read off their
    compiled atom lists."""
    order = {}
    for f in formulas:
        for atom in atoms(f):
            order.setdefault(atom)
    return tuple(order)


def walked_entails(premises, conclusion):
    """entails as an atom walk of every formula for the merged order, then
    one truth_table per formula, each compiling its formula again."""
    order = merged_atom_order([*premises, conclusion])
    *premise_tables, conclusion_table = [truth_table(f, order) for f in (*premises, conclusion)]
    full = full_mask(len(order))
    satisfied = full
    for table in premise_tables:
        satisfied &= table
    violations = satisfied & ~conclusion_table & full
    if violations == 0:
        return SemanticsVerdict(None)
    return SemanticsVerdict(Valuation.at_counter(order, lowest_set_bit(violations)))


def walked_equivalence(left, right):
    """are_equivalent as an atom walk of both sides, then a truth_table of each."""
    order = merged_atom_order([left, right])
    diff = truth_table(left, order) ^ truth_table(right, order)
    if diff == 0:
        return SemanticsVerdict(None)
    return SemanticsVerdict(Valuation.at_counter(order, lowest_set_bit(diff)))


def two_pass_jsonable(obj):
    """A report's JSON tree by the rules written out once more: a Record's
    fields and properties, each value lowered in turn."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (tuple, list)):
        return [two_pass_jsonable(x) for x in obj]
    if isinstance(obj, Formula):
        return print_formula(obj)
    if isinstance(obj, SchemaEntry):
        return obj.name
    if isinstance(obj, Substitution):
        return dict(obj.items)
    if isinstance(obj, Valuation):
        names = [str(a) for a in obj.domain]
        return {
            "atoms": names,
            "true": [s for a, s in zip(obj.domain, names) if a in obj.true_atoms],
        }
    if not isinstance(obj, Record):
        raise TypeError(f"no JSON form for {type(obj).__name__}")
    data = {}
    for name in obj.attributes:
        value = getattr(obj, name)
        if isinstance(value, dict):  # a member map, such as a row's comparisons
            data[name] = {key: two_pass_jsonable(v) for key, v in value.items()}
        else:
            data[name] = two_pass_jsonable(value)
    return data


def two_pass_summary(cell):
    """A matrix or sweep cell's tree with its refutations counted."""
    data = two_pass_jsonable(cell)
    if not isinstance(cell, InapplicablePair):
        del data["refutations"]
        data["refutation_count"] = cell.map_count - (cell.witness is not None)
    return data


def two_pass_conjecture_summary(row):
    """A conjecture row's tree as the conjectures command writes it: the
    whole schema entry, the characterization, and both sweeps summarised."""
    return {
        "schema": {
            "name": row.entry.name,
            "formula": print_formula(row.entry.body),
            "variables": list(row.entry.variables),
            "arity": row.entry.arity,
        },
        "characterization": two_pass_jsonable(row.characterization),
        "nontriviality": two_pass_summary(row.nontriviality),
        "comparisons": {
            name: two_pass_summary(rep) for name, rep in row.comparisons.items()
        },
    }


def two_pass_json_document(value):
    """The text of two_pass_jsonable(value): json.dumps(..., indent=2,
    sort_keys=True) of the tree, written by a walk of the tree."""
    return tree_text(two_pass_jsonable(value))


def tree_text(tree):
    """json.dumps(tree, indent=2, sort_keys=True), by a walk of the tree."""
    out = []
    _write_tree(tree, "\n", out)
    return "".join(out)


def _write_tree(value, indent, out):
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_tree(value[key], inner, out)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_tree(item, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"no JSON text for {type(value).__name__}")

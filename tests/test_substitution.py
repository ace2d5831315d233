"""Substitutions, and the padded bijection oracle the criteria's sweeps
are checked against."""

import random

import pytest

from l1ax.semantics import are_equivalent
from l1ax.substitution import Substitution, fresh_variables, is_reserved_fresh_name
from l1ax.syntax import parse_formula
from oracles import comparison_maps, padded_bijections, triviality_maps


def test_apply_renames_subject_and_predicate_positions(corpus):
    sigma = Substitution.of({"b": "c", "c": "b"})
    image = sigma.apply(corpus["A_M8"].body)
    assert image == parse_formula(
        "eps(a,c) & eps(b,d) -> eps(a,a) & eps(b,b)"
        " & (eps(c,b) -> eps(a,d) & eps(c,a))"
    )


def test_identity_and_rendering():
    assert Substitution.identity().mapping == {}
    assert str(Substitution.of({"a": "x", "b": "y"})) == "{a->x, b->y}"


def test_invert_bijection():
    sigma = Substitution.of({"a": "c", "b": "a", "c": "b"})
    assert sigma.is_injective()
    assert sigma.invert().mapping == {"c": "a", "a": "b", "b": "c"}


def test_invert_rejects_merging_maps():
    with pytest.raises(ValueError):
        Substitution.of({"a": "c", "b": "c"}).invert()


def test_reserved_fresh_name_pools():
    for name in ("y1", "u12", "v3"):
        assert is_reserved_fresh_name(name)
    for name in ("y", "v2x", "w1", "a"):
        assert not is_reserved_fresh_name(name)


def test_fresh_variables_skip_collisions():
    assert fresh_variables("y", 3, {"y1", "a"}) == ("y2", "y3", "y4")
    assert fresh_variables("u", 1, set()) == ("u1",)


def test_padded_bijections_count_and_order():
    maps = list(padded_bijections(("a", "b", "c", "d"), ("a", "b", "c"), "y"))
    assert len(maps) == 24
    assert maps[0].rho == (1, 2, 3, 4)
    assert maps[0].sigma.mapping == {"a": "a", "b": "b", "c": "c", "d": "y1"}
    rhos = [m.rho for m in maps]
    assert rhos == sorted(rhos)
    assert len(set(rhos)) == 24


def test_equal_arity_needs_no_padding():
    maps = list(padded_bijections(("a", "b", "c"), ("a", "b", "c"), "y"))
    assert len(maps) == 6
    for m in maps:
        assert set(m.sigma.mapping.values()) == {"a", "b", "c"}
        assert m.sigma.is_injective()


def test_too_few_source_variables_rejected():
    with pytest.raises(ValueError):
        list(padded_bijections(("a", "b", "c"), ("a", "b", "c", "d"), "y"))


def test_triviality_maps_use_the_y_pool():
    maps = list(triviality_maps(("a", "b", "c", "d", "e"), ("a", "b", "c")))
    assert len(maps) == 120
    assert maps[0].sigma.mapping == {
        "a": "a",
        "b": "b",
        "c": "c",
        "d": "y1",
        "e": "y2",
    }


def test_comparison_maps_orientation():
    # smaller or equal left: the right schema's variables are substituted
    case, maps = comparison_maps(("a", "b", "c"), ("a", "b", "c", "d"))
    assert case == 1 and len(maps) == 24
    assert maps[0].sigma.mapping == {"a": "a", "b": "b", "c": "c", "d": "u1"}

    # larger left: the left schema's variables are substituted
    case, maps = comparison_maps(("a", "b", "c", "d", "e"), ("a", "b", "c", "d"))
    assert case == 2 and len(maps) == 120
    assert maps[0].sigma.mapping == {
        "a": "a",
        "b": "b",
        "c": "c",
        "d": "d",
        "e": "v1",
    }


def test_equal_arity_comparison_uses_case_one():
    case, maps = comparison_maps(("a", "b", "c", "d"), ("a", "b", "c", "d"))
    assert case == 1 and len(maps) == 24


def test_fresh_padding_names_are_inert(corpus):
    # renaming the fresh padding targets, as long as they stay distinct and
    # unused, never flips an equivalence verdict; 100 seeded cases
    entries = [e for e in corpus if e.arity >= 3]
    rng = random.Random(413)
    cases = 0
    while cases < 100:
        subject = rng.choice(entries)
        reference = rng.choice(entries)
        if subject.arity <= reference.arity:
            continue
        maps = list(triviality_maps(subject.variables, reference.variables))
        m = rng.choice(maps)
        fresh = [v for v in m.sigma.mapping.values() if is_reserved_fresh_name(v)]
        assert fresh
        shuffled = [f"w{rng.randrange(10, 99)}{i}" for i in range(len(fresh))]
        rng.shuffle(shuffled)
        rename = dict(zip(fresh, shuffled))
        remapped = Substitution.of(
            {s: rename.get(t, t) for s, t in m.sigma.mapping.items()}
        )
        base = are_equivalent(m.sigma.apply(subject.body), reference.body)
        alt = are_equivalent(remapped.apply(subject.body), reference.body)
        assert alt.holds == base.holds
        cases += 1
